"""Frozen value classes, without ``dataclasses``.

Importing ``dataclasses`` imports ``inspect``, and with it ``ast``, ``dis``
and ``tokenize``: several milliseconds that every fresh process, each
CLI call among them, would pay for a handful of small records.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Frozen:
    """A record whose subclass names its fields in ``_fields`` (and in
    ``__slots__``, unless it keeps a ``__dict__``), set once, by position,
    in ``__init__``.  Equality, hash and repr are those of a frozen
    dataclass with the same fields: equal when of one class with equal
    fields, the hash of the field tuple, and ``Name(field=value, ...)``.
    Assigning an attribute raises."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._values = staticmethod(get if len(cls._fields) > 1
                                   else lambda obj: (get(obj),))

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError("%s takes %d fields, got %d"
                            % (type(self).__name__, len(self._fields),
                               len(values)))
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of a frozen %s"
                             % (name, type(self).__name__))

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as assignment raises
        return type(self), self._values(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        pairs = zip(self._fields, self._values(self))
        return "%s(%s)" % (type(self).__name__,
                           ", ".join("%s=%r" % pair for pair in pairs))
