"""Murphy-type cellular bases for symmetric groups, signed permutation
groups, and their product -- the group-algebra layer sitting on top of each
propagating index of the diagram algebras.

A basis record is (label, s, t, element).  The cell order puts the MORE
dominant label LOWER: products of basis elements only ever produce terms
whose label strictly dominates, so "reduce mod lower" discards exactly
those.  Division by 2 enters through the idempotents (1 +/- g)/2, which is
why coefficient fields of characteristic 2 are rejected downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groups import GAElement, Perm, ProdElt, WreathElt
from .ring import ExactMatrix, Poly
from .tableaux import (all_bishapes, all_shapes, bishape_sort_key,
                       bishape_strictly_dominates, canonical_tableau,
                       shape_sort_key, standard_bitableaux,
                       standard_tableaux, strictly_dominates,
                       tableau_entries)


@dataclass(frozen=True)
class MurphyRecord:
    label: object
    s: object
    t: object
    element: object  # GAElement


def _word_to_perm(n, src_entries, dst_entries):
    """Permutation of {1..n} sending each src entry to the dst entry in the
    same cell, identity elsewhere (0-indexed internally)."""
    images = list(range(n))
    for a, b in zip(src_entries, dst_entries):
        images[a - 1] = b - 1
    return Perm(images)


def _row_stabilizer(tab):
    """All permutations preserving each row of a tableau, as image tuples."""
    from itertools import permutations as iperms

    n = sum(len(row) for row in tab)
    perms = [Perm.identity(n)]
    for row in tab:
        row = [v - 1 for v in row]
        new = []
        for assign in iperms(row):
            images = list(range(n))
            for a, b in zip(row, assign):
                images[a] = b
            new.append(Perm(images))
        perms = [p * q for p in perms for q in new]
    # distinct by construction (rows are disjoint)
    return perms


class MurphyBasis:
    """A full cellular basis of one group algebra, with exact coordinates."""

    def __init__(self, records, elements, label_lt, embed):
        self.records = records
        self.elements = list(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.label_lt = label_lt        # strict "cell-lower" predicate
        self.embed = embed              # group element -> GAElement
        n = len(self.records)
        if n != len(self.elements):
            raise ValueError("record count %d != group order %d"
                             % (n, len(self.elements)))
        cols = []
        for rec in self.records:
            col = [Fraction(0)] * n
            for g, c in rec.element.terms.items():
                col[self.index[g]] = c.const_value()
            cols.append(col)
        matrix = ExactMatrix([[cols[r][g] for r in range(n)] for g in range(n)])
        self._inv = matrix.inverse_rational()

    def record_position(self, label, s, t):
        for i, rec in enumerate(self.records):
            if rec.label == label and rec.s == s and rec.t == t:
                return i
        raise KeyError((label, s, t))

    def coords(self, ga):
        """Exact coordinates of a group-algebra element in this basis (Poly)."""
        vec = [Poly() for _ in self.elements]
        for g, c in ga.terms.items():
            vec[self.index[g]] = c
        out = []
        for row in self._inv.entries:
            acc = Poly()
            for q, p in zip(row, vec):
                if q and p:
                    acc = acc + p * q
            out.append(acc)
        return out

    def struct_const(self, label, s, t, delta):
        """phi_delta(s, t): coefficient of m_{s,t} in m_{s,s} delta m_{t,t}.

        Exact expansion; reduction mod lower labels cannot change this
        coordinate, so no explicit reduction is needed.
        """
        ms = self.records[self.record_position(label, s, s)].element
        mt = self.records[self.record_position(label, t, t)].element
        prod = ms * self.embed(delta) * mt
        return self.coords(prod)[self.record_position(label, s, t)]

    def tableaux_for(self, label):
        seen = []
        for rec in self.records:
            if rec.label == label and rec.s not in seen:
                seen.append(rec.s)
        return seen

    def labels(self):
        seen = []
        for rec in self.records:
            if rec.label not in seen:
                seen.append(rec.label)
        return seen


def _ga(g):
    return GAElement.of(g)


def sym_murphy(n):
    """Murphy basis of the symmetric group algebra on n letters."""
    records = []
    for shape in sorted(all_shapes(n), key=shape_sort_key):
        canon = canonical_tableau(shape)
        x = GAElement({p: 1 for p in _row_stabilizer(canon)})
        tabs = standard_tableaux(shape)
        words = {tab: _word_to_perm(n, tableau_entries(canon), tableau_entries(tab))
                 for tab in tabs}
        for s in tabs:
            for t in tabs:
                elt = _ga(words[s].inv()) * x * _ga(words[t])
                records.append(MurphyRecord(shape, s, t, elt))
    return MurphyBasis(records, sorted(Perm.all(n)), strictly_dominates, _ga)


def _half_idempotent(n, i, sign):
    g = WreathElt.sign_gen(n, i)
    e = GAElement({WreathElt.identity(n): Fraction(1, 2),
                   g: Fraction(1, 2) if sign > 0 else Fraction(-1, 2)})
    return e


def wreath_murphy(n):
    """Cellular basis of the signed-permutation group algebra on n letters.

    m^{(l1,l2)}_{s,t} = d(s)^{-1} . prod(e+ over the first block) .
    prod(e- over the second block) . x_{l1} x_{l2} . d(t), with blocks the
    canonical positions of the two components.
    """
    records = []
    for bishape in sorted(all_bishapes(n), key=bishape_sort_key):
        l1, l2 = bishape
        a = sum(l1)
        canon1 = canonical_tableau(l1, list(range(1, a + 1)))
        canon2 = canonical_tableau(l2, list(range(a + 1, n + 1)))
        core = GAElement({WreathElt.identity(n): 1})
        for i in range(a):
            core = core * _half_idempotent(n, i, +1)
        for i in range(a, n):
            core = core * _half_idempotent(n, i, -1)
        stab = GAElement({WreathElt.from_perm(p): 1
                          for p in _row_stabilizer(canon1 + canon2)})
        core = core * stab
        canon_entries = tableau_entries(canon1) + tableau_entries(canon2)
        bitabs = standard_bitableaux(bishape)
        words = {}
        for bt in bitabs:
            dst = tableau_entries(bt[0]) + tableau_entries(bt[1])
            words[bt] = WreathElt.from_perm(_word_to_perm(n, canon_entries, dst))
        for s in bitabs:
            for t in bitabs:
                elt = _ga(words[s].inv()) * core * _ga(words[t])
                records.append(MurphyRecord(bishape, s, t, elt))
    return MurphyBasis(records, sorted(WreathElt.all(n)),
                       bishape_strictly_dominates, _ga)


def product_murphy(s1, s2):
    """Tensor basis of (signed perms on s1) x (perms on s2)."""
    wb = wreath_murphy(s1)
    sb = sym_murphy(s2)
    records = []
    for wrec in wb.records:
        for srec in sb.records:
            terms = {}
            for gw, cw in wrec.element.terms.items():
                for gs, cs in srec.element.terms.items():
                    terms[ProdElt(gw, gs)] = cw * cs
            records.append(MurphyRecord((wrec.label, srec.label),
                                        (wrec.s, srec.s), (wrec.t, srec.t),
                                        GAElement(terms)))

    def label_lt(x, y):
        if x[0] != y[0]:
            return bishape_strictly_dominates(x[0], y[0])
        return strictly_dominates(x[1], y[1])

    return MurphyBasis(records, sorted(ProdElt.all(s1, s2)), label_lt, _ga)


class WreathSymLayer:
    """Hypergroup layer (Z2 wr S_s1) x S_s2 used by the z2rel/signed algebras."""

    def __init__(self, s1, s2):
        self.s1 = s1
        self.s2 = s2
        self._murphy = None

    def order(self):
        fact1 = 1
        for i in range(2, self.s1 + 1):
            fact1 *= i
        fact2 = 1
        for i in range(2, self.s2 + 1):
            fact2 *= i
        return 2**self.s1 * fact1 * fact2

    def elements(self):
        return ProdElt.all(self.s1, self.s2)

    def identity(self):
        return ProdElt.identity(self.s1, self.s2)

    def from_glue(self, f, sigma1, sigma2):
        return ProdElt(WreathElt(f, sigma1), sigma2)

    def to_glue(self, g):
        return (g.wreath.signs, g.wreath.perm, g.perm)

    def murphy(self):
        if self._murphy is None:
            self._murphy = product_murphy(self.s1, self.s2)
        return self._murphy


class SymLayer:
    """Plain S_s1 layer for the partition algebra (f = id, s2 = 0)."""

    def __init__(self, s1):
        self.s1 = s1
        self._murphy = None

    def order(self):
        fact = 1
        for i in range(2, self.s1 + 1):
            fact *= i
        return fact

    def elements(self):
        return Perm.all(self.s1)

    def identity(self):
        return Perm.identity(self.s1)

    def from_glue(self, f, sigma1, sigma2):
        if any(f):
            raise ValueError("partition-algebra glue must have trivial signs")
        if sigma2.n != 0:
            raise ValueError("partition-algebra glue must have s2 = 0")
        return sigma1

    def to_glue(self, g):
        return ((0,) * self.s1, g, Perm.identity(0))

    def murphy(self):
        if self._murphy is None:
            self._murphy = sym_murphy(self.s1)
        return self._murphy
