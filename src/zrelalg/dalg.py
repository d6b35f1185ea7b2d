"""The three diagram algebras over the polynomial ring.

Each algebra is a free module on a set of two-row sign-stable diagrams:

* ``z2rel``     -- every diagram; multiplication d1*d2 = x^l (d1 glued on d2).
* ``signed``    -- the span of fully-propagating diagrams together with the
  diagrams whose propagating and one-row component counts satisfy, on both
  rows, s1 + s2 + (one-row couples of size >= 2) + (one-row symmetric
  classes) <= k - 1.  This span is closed under multiplication.
* ``partition`` -- diagrams in which every block is sign-constant; these
  are the doubled copies of ordinary partition diagrams and span a
  subalgebra isomorphic to the partition algebra with parameter x^2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .errors import Incompatible, InvalidSize, NotADiagram
from .ring import ONE, Poly
from .zpart import (E, ZStablePartition, _owners, _row_counts,
                    _set_partitions, compose, enumerate_rk, from_codes,
                    identity_diagram, is_sign_constant, json_size)

ALGEBRAS = ("z2rel", "signed", "partition")


def _check_algebra(algebra):
    if algebra not in ALGEBRAS:
        raise Incompatible("unknown algebra %r (expected one of %r)"
                           % (algebra, ALGEBRAS))


def in_basis(algebra, d):
    """Whether a two-row diagram belongs to the algebra's diagram basis."""
    _check_algebra(algebra)
    if d.rows != 2:
        raise NotADiagram("algebra elements are spanned by two-row diagrams")
    if algebra == "z2rel":
        return True
    if algebra == "partition":
        return is_sign_constant(d.blocks)
    s1, s2, he_t, hz_t, he_b, hz_b = _row_counts(d)
    return (signed_row_ok(d.k, s1, s2, he_t, hz_t)
            and signed_row_ok(d.k, s1, s2, he_b, hz_b))


def signed_row_ok(k, s1, s2, he, hz):
    """The signed algebra's condition on one row with s1 + s2 through
    classes, he one-row couples of unsigned size >= 2 and hz one-row
    symmetric classes: fully propagating, or s1 + s2 + he + hz <= k - 1."""
    return s1 == k or s1 + s2 + he + hz <= k - 1


@cache
def basis(algebra, k):
    """The diagram basis, in the canonical deterministic order.

    Enumerated once per (algebra, k): every call returns the same list,
    which callers must not mutate."""
    _check_algebra(algebra)
    if algebra == "partition":
        return _doubled_partition_diagrams(k)
    return [d for d in enumerate_rk(k, 2) if in_basis(algebra, d)]


def _doubled_partition_diagrams(k):
    """The partition basis, built directly: for every set partition of the
    2k positions, each part gives its e-block and its g-block."""
    if k < 1:
        raise InvalidSize("k must be >= 1, got %r" % k)
    out = [from_codes(_owners(4 * k, ((cell, (E,) * len(cell))
                                      for cell in part)), k, 2)
           for part in _set_partitions(list(range(2 * k)))]
    out.sort(key=lambda d: d.blocks)
    return out


def _bell(n):
    row = [1]
    for _ in range(n):
        prev = row
        row = [prev[-1]]
        for v in prev:
            row.append(row[-1] + v)
    return row[0]


def dim_formula(algebra, k):
    """Closed-form dimension, independent of diagram enumeration.

    z2rel: sum over set partitions of the 2k unsigned points of
    prod(2^(block size - 1) + 1), since each unsigned block admits that many
    stable coverings.  partition: the Bell number B(2k).  signed: the
    permutation diagrams contribute k! 2^k; every other ordinary partition
    diagram d on two rows of k points contributes
    ((2^r - 1)/2^r)^s * prod(2^(block size - 1) + 1), with r = k minus the
    number of propagating blocks and s = how many of the two rows d meets
    with k distinct blocks (s counts |d+| = k and |d-| = k; both holding
    gives s = 2).
    """
    _check_algebra(algebra)
    if k < 1:
        raise InvalidSize("k must be >= 1, got %r" % k)
    if algebra == "partition":
        return _bell(2 * k)
    positions = [(row, i) for row in range(2) for i in range(1, k + 1)]
    if algebra == "z2rel":
        total = 0
        for part in _set_partitions(positions):
            prod = 1
            for blk in part:
                prod *= 2 ** (len(blk) - 1) + 1
            total += prod
        return total
    fact = 1
    for i in range(2, k + 1):
        fact *= i
    total = Fraction(fact * 2**k)
    for part in _set_partitions(positions):
        tops = sum(1 for blk in part if any(r == 0 for r, _ in blk))
        bots = sum(1 for blk in part if any(r == 1 for r, _ in blk))
        prop = sum(1 for blk in part
                   if any(r == 0 for r, _ in blk) and any(r == 1 for r, _ in blk))
        if prop == k and all(len(blk) == 2 for blk in part):
            continue  # permutation diagram, carried by the k! 2^k term
        s = (1 if tops == k else 0) + (1 if bots == k else 0)
        r = k - prop
        term = Fraction(2**r - 1, 2**r) ** s
        for blk in part:
            term *= 2 ** (len(blk) - 1) + 1
        total += term
    if total.denominator != 1:
        raise AssertionError("dimension sum is not an integer: %r" % (total,))
    return int(total)


class AlgebraElement:
    """Finite formal sum of basis diagrams with polynomial coefficients."""

    __slots__ = ("algebra", "k", "terms")

    def __init__(self, algebra, k, terms=None):
        _check_algebra(algebra)
        if k < 1:
            raise InvalidSize("k must be >= 1, got %r" % k)
        self.algebra = algebra
        self.k = k
        self.terms = {}
        if terms:
            for d, c in terms.items():
                c = c if isinstance(c, Poly) else Poly.const(c)
                if c.is_zero():
                    continue
                if d.k != k or d.rows != 2:
                    raise Incompatible("diagram %r does not fit k=%d" % (d, k))
                if not in_basis(algebra, d):
                    raise Incompatible("diagram %r not in the %s basis"
                                       % (d, algebra))
                self.terms[d] = c

    @staticmethod
    def of(algebra, d, coeff=None):
        return AlgebraElement(algebra, d.k, {d: ONE if coeff is None else coeff})

    @staticmethod
    def zero(algebra, k):
        return AlgebraElement(algebra, k)

    @staticmethod
    def identity(algebra, k):
        return AlgebraElement.of(algebra, identity_diagram(k))

    def is_zero(self):
        return not self.terms

    def _match(self, other):
        if self.algebra != other.algebra or self.k != other.k:
            raise Incompatible("mixing %s/k=%d with %s/k=%d"
                               % (self.algebra, self.k, other.algebra, other.k))

    def __add__(self, other):
        self._match(other)
        terms = dict(self.terms)
        for d, c in other.terms.items():
            nc = terms.get(d, Poly()) + c
            if nc.is_zero():
                terms.pop(d, None)
            else:
                terms[d] = nc
        out = AlgebraElement(self.algebra, self.k)
        out.terms = terms
        return out

    def __sub__(self, other):
        return self + other.scale(Poly.const(-1))

    def scale(self, coeff):
        coeff = coeff if isinstance(coeff, Poly) else Poly.const(coeff)
        return AlgebraElement(self.algebra, self.k,
                              {d: c * coeff for d, c in self.terms.items()})

    def __mul__(self, other):
        self._match(other)
        out = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                d, loops = compose(d1, d2)
                c = c1 * c2 * Poly.x(loops) if loops else c1 * c2
                if d in out:
                    out[d] = out[d] + c
                else:
                    out[d] = c
        return AlgebraElement(self.algebra, self.k, out)

    def star(self):
        """The involution flipping top and bottom rows, extended linearly."""
        return AlgebraElement(self.algebra, self.k,
                              {star_diagram(d): c for d, c in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement) and self.algebra == other.algebra
                and self.k == other.k and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join("(%s)*%r" % (c, d)
                          for d, c in sorted(self.terms.items()))

    def to_json(self):
        return {"algebra": self.algebra, "k": self.k,
                "terms": [{"coeff": c.to_json(), "diagram": d.to_json()}
                          for d, c in sorted(self.terms.items())]}

    @staticmethod
    def from_json(obj):
        """Inverse of to_json, which writes each diagram once: a diagram in
        two terms is a ValueError rather than a sum of its coefficients."""
        algebra = obj["algebra"]
        k = json_size(obj["k"])
        terms = {}
        for t in obj["terms"]:
            d = ZStablePartition.from_json(t["diagram"])
            if d in terms:
                raise ValueError("diagram %r is listed twice" % (d,))
            terms[d] = Poly.from_json(t["coeff"])
        return AlgebraElement(algebra, k, terms)


def star_diagram(d):
    """Flip top and bottom rows of a single diagram."""
    if d.rows != 2:
        raise NotADiagram("star needs a two-row diagram")
    k2 = 2 * d.k
    return from_codes(d.index[k2:] + d.index[:k2], d.k, 2)

