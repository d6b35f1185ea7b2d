"""Murphy-type cellular bases for symmetric groups, signed permutation
groups, and their product -- the group-algebra layer sitting on top of each
propagating index of the diagram algebras.

Every group element is a ``Perm`` (see groups.py): a signed permutation
of n letters permutes 2n points, and an element of the product group
permutes 2 s1 + s2.  Both builders list records d(s)^{-1} . core . d(t)
through one loop; they differ only in the core and the words d.

A basis record is (label, s, t, element).  The cell order puts the MORE
dominant label LOWER: products of basis elements only ever produce terms
whose label strictly dominates, so "reduce mod lower" discards exactly
those.  Division by 2 enters through the idempotents (1 +/- g)/2, which is
why coefficient fields of characteristic 2 are rejected downstream.

Coordinates are solved on first use, and only a symmetric group's change
of basis is ever inverted, whole.  A signed-permutation group is the
inflation of S_a x S_{n-a} along the sign idempotents E_f = prod_i
(1 +/- g_i)/2 (Dipper-James-Murphy at q = 1): each E_f p_sigma is a
tensor column of the two symmetric groups, its tableaux renamed along
coset representatives, so its coordinates are read off with no solve.  A
product group's coordinates are the tensor products of its factors'.

The builders are memoized, so each group has one basis, shared by every
layer and algebra that uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from .groups import GAElement, Perm, signed_perm, signed_perms, split_signed
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


def _one_block(mb):
    """Columns of a symmetric group's basis: the change of basis inverted
    whole."""
    index = {g: j for j, g in enumerate(mb.elements)}
    matrix = [[0] * len(index) for _ in index]
    for r, rec in enumerate(mb.records):
        for g, c in rec.element.terms.items():
            matrix[index[g]][r] = c
    inv = ExactMatrix(matrix).inverse_rational().entries
    return {g: {r: row[j] for r, row in enumerate(inv) if row[j]}
            for g, j in index.items()}


def _rename(tab, letters):
    """A tableau on 1..m with each entry v replaced by letters[v - 1] + 1."""
    return tuple(tuple(letters[v - 1] + 1 for v in row) for row in tab)


def _inflated(mb):
    """Columns of a signed-permutation basis, inflated from S_a x S_{n-a}.

    With t_h = (h, id) and p_sigma = (0, sigma), t_h = sum_f chi_f(h) E_f
    for chi_f(h) = (-1)^{popcount(f & h)}, bit i of f marking the letters
    that take (1 - g_i)/2.  Let A be the a letters f leaves clear, B =
    sigma(A), c_A the letters of A ascending and then the rest ascending,
    and tau = c_A sigma c_B^{-1}, which preserves {0..a-1}.  Then
    E_f p_sigma = p_{c_A}^{-1} E_{0..a-1} p_tau p_{c_B}, and d(s) = u_s c_A
    for the word u_s of s's tableaux relabelled onto 1..a and a+1..n.  So
    the product of the S_a and S_{n-a} columns of tau is the column of
    E_f p_sigma, each record m_{s,t} with s renamed along c_A and t along
    c_B.  No matrix is inverted here.
    """
    n = mb.elements[0].n // 2
    names = {}

    def named(letters):
        # (label, s, t) of each record of S_|letters|, renamed along letters
        if letters not in names:
            names[letters] = [(r.label, _rename(r.s, letters),
                               _rename(r.t, letters))
                              for r in sym_murphy(len(letters)).records]
        return names[letters]

    blocks = {}                     # (f, sigma) -> column of E_f p_sigma
    for f in range(1 << n):
        a = n - f.bit_count()
        c_a = tuple(sorted(range(n), key=lambda i: f >> i & 1))
        cols1, cols2 = sym_murphy(a)._columns, sym_murphy(n - a)._columns
        s1s, s2s = named(c_a[:a]), named(c_a[a:])
        for sigma in Perm.all(n):
            image = [sigma(i) for i in c_a]
            b = set(image[:a])
            c_b = tuple(sorted(range(n), key=lambda i: i not in b))
            at = {v: j for j, v in enumerate(c_b)}
            tau = [at[v] for v in image]
            t1s, t2s = named(c_b[:a]), named(c_b[a:])
            col2 = cols2[Perm([j - a for j in tau[a:]])].items()
            col = {}
            for i1, q1 in cols1[Perm(tau[:a])].items():
                l1, s1, _ = s1s[i1]
                t1 = t1s[i1][2]
                for i2, q2 in col2:
                    l2, s2, _ = s2s[i2]
                    key = ((l1, l2), (s1, s2), (t1, t2s[i2][2]))
                    col[mb.position[key]] = q1 * q2
            blocks[f, sigma] = col
    columns = {}
    for g in mb.elements:
        signs, sigma, _ = split_signed(g, n)
        h = sum(bit << i for i, bit in enumerate(signs))
        col = {}
        for f in range(1 << n):
            negate = (f & h).bit_count() & 1
            for r, q in blocks[f, sigma].items():
                col[r] = -q if negate else q
        columns[g] = col
    return columns


class MurphyBasis:
    """A full cellular basis of one group algebra, with exact coordinates.

    Records are indexed once by (label, s, t).  ``solve(basis)`` gives the
    inverse of the change of basis as sparse columns: inverted whole for a
    symmetric group (the default), inflated from S_a x S_{n-a} for a
    signed-permutation group, tensored for a product group.  It is called
    on first use, so a coordinate costs only the terms it reads.
    """

    def __init__(self, records, elements, label_lt, solve=_one_block):
        self.records = records
        self.elements = list(elements)
        self.label_lt = label_lt        # strict "cell-lower" predicate
        self._solve = solve
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
        return self._solve(self)

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
        change it, so no explicit reduction is needed.  A whole value is
        stored as an int, so Gram entries stay integer polynomials.
        Memoized: a Gram matrix asks for the same (label, s, t, delta) many
        times.
        """
        key = (label, s, t, delta)
        value = self._struct_consts.get(key)
        if value is None:
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
            value = Poly({0: acc.numerator if acc.denominator == 1 else acc})
            self._struct_consts[key] = value
        return value

    def tableaux_for(self, label):
        return list(self._tableaux.get(label, ()))

    def labels(self):
        return list(self._tableaux)


def _cell_records(labels, cell):
    """Records m_{s,t} = d(s)^{-1} . core . d(t) of every label, with
    ``cell(label)`` giving (core, {tableau: word d}) in tableau order."""
    records = []
    for label in labels:
        core, words = cell(label)
        for s, ws in words.items():
            left = GAElement.of(ws.inv()) * core
            for t, wt in words.items():
                records.append(MurphyRecord(label, s, t,
                                            left * GAElement.of(wt)))
    return records


@cache
def sym_murphy(n):
    """Murphy basis of the symmetric group algebra on n letters."""
    def cell(shape):
        canon = canonical_tableau(shape)
        core = GAElement({p: 1 for p in _row_stabilizer(canon)})
        return core, {tab: _word_to_perm(n, tableau_entries(canon),
                                         tableau_entries(tab))
                      for tab in standard_tableaux(shape)}

    records = _cell_records(sorted(all_shapes(n), key=shape_sort_key), cell)
    return MurphyBasis(records, Perm.all(n), strictly_dominates)


@cache
def wreath_murphy(n):
    """Cellular basis of the signed-permutation group algebra on n letters.

    m^{(l1,l2)}_{s,t} = d(s)^{-1} . prod(e+ over the first block) .
    prod(e- over the second block) . x_{l1} x_{l2} . d(t), with blocks the
    canonical positions of the two components and e+/- = (1 +/- g_i)/2 for
    the sign swap g_i = (2i 2i+1).
    """
    unsigned = (0,) * n
    one = Perm.identity(2 * n)
    half = Fraction(1, 2)

    def cell(bishape):
        l1, l2 = bishape
        a = sum(l1)
        canon1 = canonical_tableau(l1, list(range(1, a + 1)))
        canon2 = canonical_tableau(l2, list(range(a + 1, n + 1)))
        core = GAElement.of(one)
        for i in range(n):
            swap = Perm([j ^ 1 if j >> 1 == i else j for j in range(2 * n)])
            core = core * GAElement({one: half, swap: half if i < a else -half})
        core = core * GAElement({signed_perm(unsigned, p): 1
                                 for p in _row_stabilizer(canon1 + canon2)})
        canon = tableau_entries(canon1) + tableau_entries(canon2)
        return core, {bt: signed_perm(unsigned, _word_to_perm(
            n, canon, tableau_entries(bt[0]) + tableau_entries(bt[1])))
            for bt in standard_bitableaux(bishape)}

    records = _cell_records(sorted(all_bishapes(n), key=bishape_sort_key),
                            cell)
    return MurphyBasis(records, signed_perms(n), bishape_strictly_dominates,
                       _inflated)


@cache
def product_murphy(s1, s2):
    """Tensor basis of (signed perms on s1) x (perms on s2): a term
    concatenates the images of one term of each factor, the second shifted
    past the 2 s1 signed points."""
    wb = wreath_murphy(s1)
    sb = sym_murphy(s2)
    offset = 2 * s1
    records = []
    for wrec in wb.records:
        for srec in sb.records:
            terms = {}
            for gw, cw in wrec.element.terms.items():
                for gs, cs in srec.element.terms.items():
                    g = Perm(gw.images + tuple(offset + j for j in gs.images))
                    terms[g] = cw * cs
            records.append(MurphyRecord((wrec.label, srec.label),
                                        (wrec.s, srec.s), (wrec.t, srec.t),
                                        GAElement(terms)))

    def label_lt(x, y):
        if x[0] != y[0]:
            return bishape_strictly_dominates(x[0], y[0])
        return strictly_dominates(x[1], y[1])

    def tensor_columns(mb):
        # record index iw * |S_s2| + is, as the records are listed above
        width = len(sb.records)
        wcols, scols = wb._columns, sb._columns
        out = {}
        for g in mb.elements:
            images = g.images
            srest = Perm([j - offset for j in images[offset:]])
            out[g] = {iw * width + i: cw * cs
                      for iw, cw in wcols[Perm(images[:offset])].items()
                      for i, cs in scols[srest].items()}
        return out

    return MurphyBasis(records, signed_perms(s1, s2), label_lt,
                       tensor_columns)


@dataclass(frozen=True)
class WreathSymLayer:
    """Hypergroup layer (Z2 wr S_s1) x S_s2 used by the z2rel/signed algebras."""

    s1: int
    s2: int

    def from_glue(self, f, sigma1, sigma2):
        """The group element of the glue (f, sigma1, sigma2); ValueError
        unless the glue fits this layer and is a group element.

        With every f(i) in {0, 1}, letter i's two points go to
        {2 sigma1(i), 2 sigma1(i) + 1}, so the images are a permutation
        exactly when sigma1 and sigma2 are: one check of the images, about
        1 us a call, covers both.
        """
        if not len(f) == sigma1.n == self.s1 or sigma2.n != self.s2:
            raise ValueError("glue does not fit layer (%d, %d)"
                             % (self.s1, self.s2))
        g = signed_perm(f, sigma1, sigma2)
        if not {*f} <= {0, 1} or sorted(g.images) != list(range(g.n)):
            raise ValueError("glue (%r, %r, %r) is not a group element"
                             % (f, sigma1, sigma2))
        return g

    def to_glue(self, g):
        return split_signed(g, self.s1)

    def murphy(self):
        return product_murphy(self.s1, self.s2)


@dataclass(frozen=True)
class SymLayer:
    """Plain S_s1 layer for the partition algebra (f = id, s2 = 0)."""

    s1: int

    def from_glue(self, f, sigma1, sigma2):
        if not len(f) == sigma1.n == self.s1:
            raise ValueError("glue does not fit layer (%d, 0)" % self.s1)
        if any(f):
            raise ValueError("partition-algebra glue must have trivial signs")
        if sigma2.n != 0:
            raise ValueError("partition-algebra glue must have s2 = 0")
        if sorted(sigma1.images) != list(range(self.s1)):
            raise ValueError("%r is not a permutation" % (sigma1,))
        return sigma1

    def to_glue(self, g):
        return ((0,) * self.s1, g, Perm.identity(0))

    def murphy(self):
        return sym_murphy(self.s1)
