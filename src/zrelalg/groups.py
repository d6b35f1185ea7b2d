"""Permutations, signed permutations, and their group algebras.

A signed permutation is a permutation of 2n points that commutes with the
sign swap (2i 2i+1) of every letter i: the hyperoctahedral group Z2 wr S_n
is the centralizer of that fixed-point-free involution.  A product with a
symmetric group S_m permutes m further points.  So every group element of
the package is a ``Perm``, and every product is ``Perm.__mul__``.

Composition is left-to-right throughout the package: ``(p * q)(i) =
q(p(i))``.  This matches stacking of diagrams (top diagram applied first),
so the bijection between full-propagating diagrams and decorated
permutations is multiplicative on the nose.
"""

from __future__ import annotations

from itertools import permutations, product


class Perm:
    """Permutation of {0..n-1}, stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        self.images = tuple(images)

    @staticmethod
    def identity(n):
        return Perm(range(n))

    @property
    def n(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i]

    def __mul__(self, other):
        images = other.images
        return Perm([images[j] for j in self.images])

    def inv(self):
        out = [0] * len(self.images)
        for i, j in enumerate(self.images):
            out[j] = i
        return Perm(out)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(("perm", self.images))

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        return "Perm%r" % (self.images,)

    @staticmethod
    def all(n):
        return [Perm(p) for p in permutations(range(n))]


def signed_perm(signs, sigma, rest=None):
    """The element (f, sigma) of Z2 wr S_n, times rest in S_m, as one
    permutation of 2n + m points.

    Point 2i + s is letter i with sign s, sent to 2 sigma(i) + (s xor
    f(i)); point 2n + j is sent to 2n + rest(j).  The product of two such
    permutations encodes (f, s) * (f', s') = (i -> f(i) xor f'(s(i)),
    s then s').
    """
    images = [v for j, f in zip(sigma.images, signs)
              for v in (2 * j + f, 2 * j + 1 - f)]
    if rest is not None:
        offset = len(images)
        images.extend(offset + j for j in rest.images)
    return Perm(images)


def split_signed(g, n):
    """(signs, sigma, rest) of a permutation built by ``signed_perm`` with
    n signed letters."""
    images = g.images
    heads = images[0:2 * n:2]
    return (tuple(v & 1 for v in heads), Perm([v >> 1 for v in heads]),
            Perm([v - 2 * n for v in images[2 * n:]]))


def signed_perms(n, m=0):
    """Every element of (Z2 wr S_n) x S_m, ordered by (signs, sigma, rest)."""
    return [signed_perm(f, sigma, rest)
            for f in product((0, 1), repeat=n) for sigma in Perm.all(n)
            for rest in Perm.all(m)]


class GAElement:
    """Formal sum of group elements; coefficients are kept as given (int,
    Fraction, or a polynomial from the cellular layer), zeros dropped.
    The product is what builds the Murphy records."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {g: c for g, c in terms.items() if c} if terms else {}

    @staticmethod
    def of(g, coeff=1):
        return GAElement({g: coeff})

    def __mul__(self, other):
        terms = {}
        for g1, c1 in self.terms.items():
            for g2, c2 in other.terms.items():
                g = g1 * g2
                c = c1 * c2
                if g in terms:
                    terms[g] = terms[g] + c
                else:
                    terms[g] = c
        return GAElement(terms)

    def __eq__(self, other):
        return isinstance(other, GAElement) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join("(%s)*%r" % (c, g) for g, c in sorted(
            self.terms.items(), key=lambda gc: repr(gc[0])))
