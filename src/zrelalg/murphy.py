"""Murphy-type cellular bases for symmetric groups, signed permutation
groups, and their product -- the group-algebra layer sitting on top of each
propagating index of the diagram algebras.

A basis record is (label, s, t, element).  The cell order puts the MORE
dominant label LOWER: products of basis elements only ever produce terms
whose label strictly dominates, so "reduce mod lower" discards exactly
those.  Division by 2 enters through the idempotents (1 +/- g)/2, which is
why coefficient fields of characteristic 2 are rejected downstream.

The builders are memoized, so each group has one basis, shared by every
layer and algebra that uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

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
    """A full cellular basis of one group algebra, with exact coordinates.

    Records are indexed once by (label, s, t); the inverse of the change of
    basis is computed on first use and kept as sparse columns, so a
    coordinate costs only the terms it reads.
    """

    def __init__(self, records, elements, label_lt):
        self.records = records
        self.elements = list(elements)
        self.label_lt = label_lt        # strict "cell-lower" predicate
        if len(records) != len(self.elements):
            raise ValueError("record count %d != group order %d"
                             % (len(records), len(self.elements)))
        self.position = {}
        self._tableaux = {}             # label -> {s: None}, in record order
        self._struct_consts = {}        # (label, s, t, delta) -> Poly
        for i, rec in enumerate(records):
            self.position[(rec.label, rec.s, rec.t)] = i
            self._tableaux.setdefault(rec.label, {})[rec.s] = None

    @cached_property
    def _columns(self):
        """g -> {record index: coefficient of g in the dual basis}."""
        n = len(self.records)
        index = {g: j for j, g in enumerate(self.elements)}
        matrix = [[0] * n for _ in range(n)]
        for r, rec in enumerate(self.records):
            for g, c in rec.element.terms.items():
                matrix[index[g]][r] = c
        inv = ExactMatrix(matrix).inverse_rational().entries
        return {g: {i: inv[i][j] for i in range(n) if inv[i][j]}
                for g, j in index.items()}

    def coords(self, ga):
        """Exact coordinates of a group-algebra element in this basis (Poly)."""
        out = [Poly()] * len(self.records)
        for g, c in ga.terms.items():
            for i, q in self._columns[g].items():
                out[i] = out[i] + c * q
        return out

    def struct_const(self, label, s, t, delta):
        """phi_delta(s, t): coefficient of m_{s,t} in m_{s,s} delta m_{t,t}.

        Summed over the terms a of m_{s,s} and b of m_{t,t}, reading the
        one coordinate of each a delta b; reduction mod lower labels cannot
        change it, so no explicit reduction is needed.  Memoized: a Gram
        matrix asks for the same (label, s, t, delta) many times.
        """
        key = (label, s, t, delta)
        if key not in self._struct_consts:
            ms = self.records[self.position[(label, s, s)]].element
            mt = self.records[self.position[(label, t, t)]].element
            i = self.position[(label, s, t)]
            columns = self._columns
            acc = 0
            for a, ca in ms.terms.items():
                ad = a * delta
                for b, cb in mt.terms.items():
                    q = columns[ad * b].get(i)
                    if q:
                        acc += ca * cb * q
            self._struct_consts[key] = Poly({0: acc})
        return self._struct_consts[key]

    def tableaux_for(self, label):
        return list(self._tableaux.get(label, ()))

    def labels(self):
        return list(self._tableaux)


@cache
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
                elt = (GAElement.of(words[s].inv()) * x
                       * GAElement.of(words[t]))
                records.append(MurphyRecord(shape, s, t, elt))
    return MurphyBasis(records, sorted(Perm.all(n)), strictly_dominates)


def _half_idempotent(n, i, sign):
    g = WreathElt.sign_gen(n, i)
    e = GAElement({WreathElt.identity(n): Fraction(1, 2),
                   g: Fraction(1, 2) if sign > 0 else Fraction(-1, 2)})
    return e


@cache
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
                elt = (GAElement.of(words[s].inv()) * core
                       * GAElement.of(words[t]))
                records.append(MurphyRecord(bishape, s, t, elt))
    return MurphyBasis(records, sorted(WreathElt.all(n)),
                       bishape_strictly_dominates)


@cache
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

    return MurphyBasis(records, sorted(ProdElt.all(s1, s2)), label_lt)


@dataclass(frozen=True)
class WreathSymLayer:
    """Hypergroup layer (Z2 wr S_s1) x S_s2 used by the z2rel/signed algebras."""

    s1: int
    s2: int

    def from_glue(self, f, sigma1, sigma2):
        return ProdElt(WreathElt(f, sigma1), sigma2)

    def to_glue(self, g):
        return (g.wreath.signs, g.wreath.perm, g.perm)

    def murphy(self):
        return product_murphy(self.s1, self.s2)


@dataclass(frozen=True)
class SymLayer:
    """Plain S_s1 layer for the partition algebra (f = id, s2 = 0)."""

    s1: int

    def from_glue(self, f, sigma1, sigma2):
        if any(f):
            raise ValueError("partition-algebra glue must have trivial signs")
        if sigma2.n != 0:
            raise ValueError("partition-algebra glue must have s2 = 0")
        return sigma1

    def to_glue(self, g):
        return ((0,) * self.s1, g, Perm.identity(0))

    def murphy(self):
        return sym_murphy(self.s1)
