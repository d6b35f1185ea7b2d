"""Permutations, sign-decorated permutations, and their group algebras.

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


class WreathElt:
    """Element (f, sigma) of the group of signed permutations on n letters.

    Product: (f, s) * (f', s') = (i -> f(i) xor f'(s(i)), s then s').
    """

    __slots__ = ("signs", "perm")

    def __init__(self, signs, perm):
        self.signs = tuple(signs)
        self.perm = perm

    @staticmethod
    def identity(n):
        return WreathElt((0,) * n, Perm.identity(n))

    @property
    def n(self):
        return len(self.signs)

    def __mul__(self, other):
        other_signs = other.signs
        signs = [f ^ other_signs[j]
                 for f, j in zip(self.signs, self.perm.images)]
        return WreathElt(signs, self.perm * other.perm)

    def inv(self):
        pinv = self.perm.inv()
        return WreathElt(tuple(self.signs[pinv(i)] for i in range(self.n)), pinv)

    def __eq__(self, other):
        return (isinstance(other, WreathElt) and self.signs == other.signs
                and self.perm == other.perm)

    def __hash__(self):
        return hash(("wreath", self.signs, self.perm.images))

    def __lt__(self, other):
        return (self.signs, self.perm.images) < (other.signs, other.perm.images)

    def __repr__(self):
        return "WreathElt(%r, %r)" % (self.signs, self.perm.images)

    @staticmethod
    def all(n):
        return [WreathElt(signs, p)
                for signs in product((0, 1), repeat=n) for p in Perm.all(n)]

    @staticmethod
    def sign_gen(n, i):
        signs = [0] * n
        signs[i] = 1
        return WreathElt(signs, Perm.identity(n))

    @staticmethod
    def from_perm(p):
        return WreathElt((0,) * p.n, p)


class ProdElt:
    """Element of (signed permutations on s1) x (permutations on s2)."""

    __slots__ = ("wreath", "perm")

    def __init__(self, wreath, perm):
        self.wreath = wreath
        self.perm = perm

    @staticmethod
    def identity(s1, s2):
        return ProdElt(WreathElt.identity(s1), Perm.identity(s2))

    def __mul__(self, other):
        return ProdElt(self.wreath * other.wreath, self.perm * other.perm)

    def inv(self):
        return ProdElt(self.wreath.inv(), self.perm.inv())

    def __eq__(self, other):
        return (isinstance(other, ProdElt) and self.wreath == other.wreath
                and self.perm == other.perm)

    def __hash__(self):
        return hash(("prod", self.wreath, self.perm))

    def __lt__(self, other):
        return ((self.wreath.signs, self.wreath.perm.images, self.perm.images)
                < (other.wreath.signs, other.wreath.perm.images, other.perm.images))

    def __repr__(self):
        return "ProdElt(%r, %r)" % (self.wreath, self.perm)

    @staticmethod
    def all(s1, s2):
        return [ProdElt(w, p) for w in WreathElt.all(s1) for p in Perm.all(s2)]


class GAElement:
    """Formal sum of group elements; coefficients are kept as given (int,
    Fraction or Poly), zeros dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {g: c for g, c in terms.items() if c} if terms else {}

    @staticmethod
    def of(g, coeff=1):
        return GAElement({g: coeff})

    @staticmethod
    def zero():
        return GAElement()

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        terms = dict(self.terms)
        for g, c in other.terms.items():
            nc = terms.get(g, 0) + c
            if nc:
                terms[g] = nc
            else:
                terms.pop(g, None)
        out = GAElement()
        out.terms = terms
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, coeff):
        return GAElement({g: c * coeff for g, c in self.terms.items()})

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

    def star(self):
        """The anti-automorphism g -> g^{-1} extended linearly."""
        return GAElement({g.inv(): c for g, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, GAElement) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join("(%s)*%r" % (c, g) for g, c in sorted(
            self.terms.items(), key=lambda gc: repr(gc[0])))
