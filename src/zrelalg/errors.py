"""Exception types shared across the package."""


class ZRelError(Exception):
    """Base class for all library errors."""


class MalformedPartition(ZRelError):
    """Blocks overlap or fail to cover the vertex set."""


class NotZ2Stable(ZRelError):
    """The sign-flip involution does not permute the blocks."""


class InvalidSize(ZRelError):
    """Size parameter out of range."""


class NotADiagram(ZRelError):
    """A two-row diagram was required."""


class SizeMismatch(ZRelError):
    """Diagram sizes differ."""


class Incompatible(ZRelError):
    """Operands live in different algebras or sizes."""


class UnsupportedCharacteristic(ZRelError):
    """The characteristic is neither 0 nor an odd prime (2 must be
    invertible)."""


class InvalidPoint(ZRelError):
    """No evaluation point for x, or one the field cannot hold."""


class UnknownLabel(ZRelError):
    """No cell module with that label."""


class UsageError(ZRelError):
    """Bad command-line usage."""
