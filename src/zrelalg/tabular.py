"""Tabular structure and cellular basis of the diagram algebras.

Every basis diagram with propagating data (s1, s2) factors uniquely as a
triple (top half, group element, bottom half): the halves are one-row
partitions with 2s1+s2 marked components (the traces of the through
classes) and the group element of (Z2 wr S_s1) x S_s2 records how top
marks connect to bottom marks, including the sign twist.  Replacing the
group coordinate by Murphy basis elements produces a cellular basis whose
structure constants factor through the phi-map on pairs of halves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .dalg import (AlgebraElement, _check_algebra, basis as algebra_basis,
                   dim_formula, signed_row_ok)
from .errors import Incompatible, NotADiagram, UnknownLabel
from .groups import GAElement, Perm, split_signed
from .murphy import SymLayer, WreathSymLayer
from .ring import Poly
from .zpart import (BOTTOM, E, EPAIR, G, TOP, Z2CLASS, block_index,
                    canonicalize, classes, enumerate_rk, is_sign_constant,
                    propagating_data, restrict, roots)


class HalfDiagram:
    """A one-row stable partition with ordered marked components.

    Marks are recorded by the unsigned support of the component; couples
    (EPair) and symmetric classes (Z2) are kept in separate lists, each
    sorted by minimal position -- that ordering is what the group-element
    coordinates refer to.
    """

    __slots__ = ("base", "e_marks", "z_marks", "_hash", "_block_ids")

    def __init__(self, base, e_marks=(), z_marks=()):
        if base.rows != 1:
            raise NotADiagram("half diagrams live on one row")
        self.base = base
        self.e_marks = tuple(sorted(tuple(m) for m in e_marks))
        self.z_marks = tuple(sorted(tuple(m) for m in z_marks))
        kinds = {c.support: c.kind for c in base.components()}
        for m in self.e_marks:
            key = tuple((TOP, i) for i in m)
            if kinds.get(key) != EPAIR:
                raise Incompatible("support %r is not a couple of %r" % (m, base))
        for m in self.z_marks:
            key = tuple((TOP, i) for i in m)
            if kinds.get(key) != Z2CLASS:
                raise Incompatible("support %r is not a symmetric class of %r"
                                   % (m, base))
        self._hash = hash((base, self.e_marks, self.z_marks))
        self._block_ids = None

    def mark_vertices(self):
        """The vertex of every mark point, as its offset 2(i-1) + s in
        ``block_index(base)``.  Points are numbered as the points of
        ``groups.signed_perm``: point 2i + s is the sign-s vertex at the
        least position of couple mark i, point 2s1 + l the e-vertex at the
        least position of symmetric mark l."""
        return ([2 * m[0] - 2 + s for m in self.e_marks for s in (E, G)]
                + [2 * m[0] - 2 + E for m in self.z_marks])

    def block_ids(self):
        """(index, number of blocks, marks) with blocks numbered as in
        ``base.blocks``: index = ``block_index(base)``, so index[2(i-1) + s]
        is the block of vertex (TOP, i, s), and marks[a] is the block of
        mark point a."""
        if self._block_ids is None:
            index = block_index(self.base)
            self._block_ids = (index, len(self.base.blocks),
                               tuple(index[v] for v in self.mark_vertices()))
        return self._block_ids

    @property
    def k(self):
        return self.base.k

    @property
    def s1(self):
        return len(self.e_marks)

    @property
    def s2(self):
        return len(self.z_marks)

    def __eq__(self, other):
        return (isinstance(other, HalfDiagram) and self.base == other.base
                and self.e_marks == other.e_marks and self.z_marks == other.z_marks)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return ((self.base, self.e_marks, self.z_marks)
                < (other.base, other.e_marks, other.z_marks))

    def __repr__(self):
        return "HalfDiagram(%r, e=%r, z=%r)" % (self.base, self.e_marks,
                                                self.z_marks)

    def to_json(self):
        return {"base": self.base.to_json(),
                "e_marks": [list(m) for m in self.e_marks],
                "z_marks": [list(m) for m in self.z_marks]}

    @staticmethod
    def from_json(obj):
        from .zpart import ZStablePartition
        return HalfDiagram(ZStablePartition.from_json(obj["base"]),
                           [tuple(m) for m in obj["e_marks"]],
                           [tuple(m) for m in obj["z_marks"]])


def variant_for(algebra):
    _check_algebra(algebra)
    return {"z2rel": "plain", "signed": "signed", "partition": "partition"}[algebra]


def _admit_half(half, k, variant):
    if variant == "plain":
        return True
    if variant == "partition":
        return half.s2 == 0 and is_sign_constant(half.base.blocks)
    marked = set(half.e_marks) | set(half.z_marks)
    he = hz = 0
    for c in half.base.components():
        if tuple(i for _, i in c.support) in marked:
            continue
        if c.kind != EPAIR:
            hz += 1
        elif len(c.support) >= 2:
            he += 1
    return signed_row_ok(k, half.s1, half.s2, he, hz)


def enumerate_M(k, s1, s2, variant="plain"):
    """All admissible marked one-row halves with the given mark counts."""
    if variant not in ("plain", "signed", "partition"):
        raise Incompatible("unknown variant %r" % (variant,))
    out = []
    for base in enumerate_rk(k, 1):
        comps = base.components()
        e_supports = [tuple(i for _, i in c.support)
                      for c in comps if c.kind == EPAIR]
        z_supports = [tuple(i for _, i in c.support)
                      for c in comps if c.kind == Z2CLASS]
        if len(e_supports) < s1 or len(z_supports) < s2:
            continue
        for emarks in combinations(e_supports, s1):
            for zmarks in combinations(z_supports, s2):
                half = HalfDiagram(base, emarks, zmarks)
                if _admit_half(half, k, variant):
                    out.append(half)
    out.sort()
    return out


def decompose(d):
    """Split a diagram into (top half, bottom half, f, sigma1, sigma2).

    The through classes give the marks of both halves.  Top mark point a
    goes to the bottom mark point whose vertex shares its block; that
    permutation is ``signed_perm(f, sigma1, sigma2)``, so f(i) = 1 exactly
    when the block of the least top e-vertex of couple i holds the least
    bottom g-vertex of couple sigma1(i).
    """
    if d.rows != 2:
        raise NotADiagram("decompose needs a two-row diagram")
    e_through = []
    z_through = []
    for c in d.components():
        if len(c.rows_met()) != 2:
            continue
        tsup = tuple(i for row, i in c.support if row == TOP)
        bsup = tuple(i for row, i in c.support if row == BOTTOM)
        if c.kind == EPAIR:
            e_through.append((tsup, bsup))
        else:
            z_through.append((tsup, bsup))
    top = HalfDiagram(restrict(d, "top"), [t for t, _ in e_through],
                      [t for t, _ in z_through])
    bot = HalfDiagram(restrict(d, "bottom"), [b for _, b in e_through],
                      [b for _, b in z_through])
    index = block_index(d)
    k2 = 2 * d.k
    point = {index[k2 + v]: b for b, v in enumerate(bot.mark_vertices())}
    g = Perm([point[index[v]] for v in top.mark_vertices()])
    return (top, bot) + split_signed(g, top.s1)


def reconstruct(top, bottom, f, sigma1, sigma2):
    """Inverse of decompose: glue marks along (f, sigma1, sigma2), which
    must be a group element of the halves' layer (``WreathSymLayer.from_glue``).

    The glue is a union-find on block numbers, top blocks first, then
    bottom blocks shifted by their count: with g = ``signed_perm(f,
    sigma1, sigma2)``, the block of top mark point a is linked to the
    block of bottom mark point g(a).
    """
    if (top.k != bottom.k or top.s1 != bottom.s1 or top.s2 != bottom.s2):
        raise Incompatible("halves do not match: %r / %r" % (top, bottom))
    try:
        g = WreathSymLayer(top.s1, top.s2).from_glue(f, sigma1, sigma2)
    except ValueError as err:
        raise Incompatible(str(err)) from None
    _, nt, top_marks = top.block_ids()
    _, nb, bot_marks = bottom.block_ids()
    links = [(a, nt + bot_marks[b]) for a, b in zip(top_marks, g.images)]
    blocks = top.base.blocks + tuple([(BOTTOM, i, s) for _, i, s in b]
                                     for b in bottom.base.blocks)
    return canonicalize([[v for b in cls for v in blocks[b]]
                         for cls in classes(nt + nb, links)], top.k, 2)


def phi(top, bottom):
    """Glue two halves along their shared row.

    The glue is ``zpart.roots`` on block numbers, top blocks first, then
    bottom blocks shifted by their count, linked along each shared vertex.
    Top mark point a goes to the bottom mark point in its glued class.
    Returns (l, f, sigma1, sigma2) when every top mark point goes to a
    different bottom mark point -- that permutation being
    ``signed_perm(f, sigma1, sigma2)`` -- and None otherwise.  l counts the
    glued classes meeting no marked block of either half.

    Mark kinds need no check: the sign flip permutes the glued classes, so
    a class holding a symmetric (flip-invariant) block is flip-invariant,
    and holds both blocks of any couple it meets -- two marks of one half
    in one class, which the distinct-images test rejects.  Likewise a top
    e-block going to point 2j + s sends the top g-block to 2j + 1 - s.
    """
    if (top.k != bottom.k or top.s1 != bottom.s1 or top.s2 != bottom.s2):
        raise Incompatible("halves do not match: %r / %r" % (top, bottom))
    top_of, nt, top_marks = top.block_ids()
    bot_of, nb, bot_marks = bottom.block_ids()
    root = roots(nt + nb, zip(top_of, [nt + b for b in bot_of]))
    point = {root[nt + b]: a for a, b in enumerate(bot_marks)}
    images = [point.get(root[b]) for b in top_marks]
    if None in images or len(set(images)) != len(images):
        return None
    l = len(set(root)) - len(images)
    return (l,) + split_signed(Perm(images), top.s1)


def layer_for(algebra, s1, s2):
    _check_algebra(algebra)
    if algebra == "partition":
        if s2 != 0:
            raise UnknownLabel("partition algebra has s2 = 0 only")
        return SymLayer(s1)
    return WreathSymLayer(s1, s2)


def index_pairs(algebra, k):
    """The (s1, s2) grid of the algebra's tabular poset, low to high."""
    _check_algebra(algebra)
    s2max = {"z2rel": k, "signed": k - 1, "partition": 0}[algebra]
    pairs = [(s1, s2) for s1 in range(k + 1) for s2 in range(s2max + 1)
             if 2 * s1 + s2 <= 2 * k]
    pairs.sort(key=lambda p: (2 * p[0] + p[1], p[0] + p[1], p))
    return pairs


def index_lt(a, b):
    """Strict tabular order: (r, s1+s2) with smaller meaning lower."""
    ra, rb = 2 * a[0] + a[1], 2 * b[0] + b[1]
    if ra != rb:
        return ra < rb
    return a[0] + a[1] < b[0] + b[1]


def _glue_of(d, layer):
    top, bot, f, s1, s2 = decompose(d)
    return top, bot, layer.from_glue(f, s1, s2)


def verify_table_datum(algebra, k, samples=200, seed=0):
    """Check the tabular product axiom on (a, C) pairs.

    For each pair: expand a*C; the result either falls into a strictly
    lower index, or is a basis diagram with the same bottom half as C
    whose group coordinate differs from C's by left-multiplication with a
    factor depending only on a and C's top half.  Tested by comparing
    against a reference C with identity group element and the top half
    reused as bottom half, then varying C's bottom half and group element.
    Returns {"checked": n, "failures": [...]}.
    """
    import random

    diagrams = algebra_basis(algebra, k)
    rng = random.Random(seed)
    report = {"checked": 0, "failures": []}

    def run_pair(a, c):
        top, bot, f, sg1, sg2 = decompose(c)
        s1, s2 = top.s1, top.s2
        layer = layer_for(algebra, s1, s2)
        g = layer.from_glue(f, sg1, sg2)
        ref = reconstruct(top, top, (0,) * s1, Perm.identity(s1),
                          Perm.identity(s2))
        prod = AlgebraElement.of(algebra, a) * AlgebraElement.of(algebra, c)
        prod_ref = AlgebraElement.of(algebra, a) * AlgebraElement.of(algebra, ref)
        (d0, c0), = prod.terms.items()
        (d1, c1), = prod_ref.terms.items()
        pd0 = propagating_data(d0)
        pd1 = propagating_data(d1)
        low0 = index_lt((pd0.s1, pd0.s2), (s1, s2))
        low1 = index_lt((pd1.s1, pd1.s2), (s1, s2))
        if low0 or low1:
            if low0 != low1:
                return "vanishing depends on right data: a=%r C=%r" % (a, c)
            return None
        if (pd0.s1, pd0.s2) != (s1, s2) or (pd1.s1, pd1.s2) != (s1, s2):
            return "index escaped upward: a=%r C=%r" % (a, c)
        t0h, b0h, g0 = _glue_of(d0, layer)
        t1h, b1h, g1 = _glue_of(d1, layer)
        if b0h != bot:
            return "bottom half changed: a=%r C=%r" % (a, c)
        if b1h != top:
            return "reference bottom half changed: a=%r C=%r" % (a, c)
        if t0h != t1h:
            return "left coefficient depends on right data: a=%r C=%r" % (a, c)
        if c0 != c1:
            return "scalar depends on right data: a=%r C=%r" % (a, c)
        if g0 != g1 * g:
            return "group twist not a left factor: a=%r C=%r" % (a, c)
        return None

    if k <= 1:
        pairs = [(a, c) for a in diagrams for c in diagrams]
    else:
        pairs = [(rng.choice(diagrams), rng.choice(diagrams))
                 for _ in range(samples)]
    for a, c in pairs:
        failure = run_pair(a, c)
        report["checked"] += 1
        if failure is not None:
            report["failures"].append(failure)
    return report


@dataclass(frozen=True)
class CellLabel:
    """(r, (s1, s2)) plus the group-layer cell label.

    For the z2rel and signed algebras the group label is a pair
    (bipartition of s1, partition of s2); for the partition algebra it is
    a single partition of s1.
    """

    s1: int
    s2: int
    glabel: object

    @property
    def r(self):
        return 2 * self.s1 + self.s2


class CellularBasis:
    """The cellular basis of one algebra at one size, as a view over the
    marked halves ``M`` and the Murphy ``layers``: no element is stored.

    A basis element is named (label, (P, s), (Q, t)); it is the Murphy
    element m_{s,t} of the label's layer carried across
    g -> reconstruct(P, Q, g), and is built only on demand by ``element``.
    """

    def __init__(self, algebra, k):
        _check_algebra(algebra)
        self.algebra = algebra
        self.k = k
        variant = variant_for(algebra)
        self.M = {}
        self.layers = {}
        self._glue = {}             # (s1, s2) -> glue table, on first use
        count = 0
        for s1, s2 in index_pairs(algebra, k):
            halves = enumerate_M(k, s1, s2, variant)
            if not halves:
                continue
            self.M[(s1, s2)] = halves
            layer = layer_for(algebra, s1, s2)
            self.layers[(s1, s2)] = layer
            count += len(halves) ** 2 * len(layer.murphy().records)
        # As many cells as diagrams; that reconstruct is a bijection onto
        # them is checked in full by ``verify --suite cellular``.
        if count != dim_formula(algebra, k):
            raise AssertionError("cellular basis has %d elements, dim is %d"
                                 % (count, dim_formula(algebra, k)))

    def cells(self):
        """Every (label, left, right): by layer, Murphy record, P, then Q."""
        return [(CellLabel(s1, s2, rec.label), (P, rec.s), (Q, rec.t))
                for (s1, s2), layer in self.layers.items()
                for rec in layer.murphy().records
                for P in self.M[(s1, s2)] for Q in self.M[(s1, s2)]]

    def element(self, label, left, right):
        """The cellular basis element named (label, (P, s), (Q, t))."""
        (P, s), (Q, t) = left, right
        key = (label.s1, label.s2)
        layer = self.layers.get(key)
        i = layer.murphy().position.get((label.glabel, s, t)) if layer else None
        if i is None or P not in self.M[key] or Q not in self.M[key]:
            raise UnknownLabel("no cellular basis element %r"
                               % ((label, left, right),))
        terms = {}
        for g, coeff in layer.murphy().records[i].element.terms.items():
            d = reconstruct(P, Q, *layer.to_glue(g))
            terms[d] = terms.get(d, Poly()) + coeff
        # reconstruct yields basis diagrams only, so in_basis is skipped
        elem = AlgebraElement(self.algebra, self.k)
        elem.terms = terms
        return elem

    def coords(self, elem):
        """Exact cellular coordinates of an algebra element: the nonzero
        ones, as {(label, left, right): Poly}.

        The diagrams with halves (P, Q) span one copy of the group algebra
        of the (s1, s2) layer, so each such block is solved by that layer's
        Murphy coordinates alone."""
        blocks = {}
        for d, c in elem.terms.items():
            P, Q, f, sg1, sg2 = decompose(d)
            g = self.layers[(P.s1, P.s2)].from_glue(f, sg1, sg2)
            blocks.setdefault((P, Q), {})[g] = c
        out = {}
        for (P, Q), terms in blocks.items():
            s1, s2 = P.s1, P.s2
            murphy = self.layers[(s1, s2)].murphy()
            for rec, c in zip(murphy.records, murphy.coords(GAElement(terms))):
                if not c.is_zero():
                    label = CellLabel(s1, s2, rec.label)
                    out[(label, (P, rec.s), (Q, rec.t))] = c
        return out

    def glue(self, s1, s2):
        """The glue table of layer (s1, s2), built on first use: row i,
        column j is (l, delta) for the halves M[(s1, s2)][i] and [j], from
        phi with delta = layer.from_glue(f, sigma1, sigma2), or None where
        phi fails.  Each distinct (l, delta) is stored once and shared."""
        table = self._glue.get((s1, s2))
        if table is None:
            halves = self.M[(s1, s2)]
            layer = self.layers[(s1, s2)]
            shared = {}
            table = []
            for P in halves:
                row = []
                for Q in halves:
                    res = phi(P, Q)
                    if res is not None:
                        pair = (res[0], layer.from_glue(*res[1:]))
                        res = shared.setdefault(pair, pair)
                    row.append(res)
                table.append(row)
            self._glue[(s1, s2)] = table
        return table

    def label_lt(self, a, b):
        """Strict cell order; lower labels are discarded by reduction."""
        if (a.s1, a.s2) != (b.s1, b.s2):
            return index_lt((a.s1, a.s2), (b.s1, b.s2))
        if a.glabel == b.glabel:
            return False
        return self.layers[(a.s1, a.s2)].murphy().label_lt(a.glabel, b.glabel)

    def labels(self):
        return [CellLabel(s1, s2, glabel)
                for (s1, s2), layer in self.layers.items()
                for glabel in layer.murphy().labels()]

    def tableaux(self, label):
        """The label's tableaux in cell order; UnknownLabel when the label
        has no cell module (its layer or its group label is missing)."""
        layer = self.layers.get((label.s1, label.s2))
        found = layer.murphy().tableaux_for(label.glabel) if layer else []
        if not found:
            raise UnknownLabel("no cell module with label %r" % (label,))
        return found

    def left_data(self, label):
        """Left data of a label, in cell order: tableau-major; raises
        UnknownLabel as ``tableaux`` does."""
        return [(P, s) for s in self.tableaux(label)
                for P in self.M[(label.s1, label.s2)]]


@cache
def cellular_basis(algebra, k):
    return CellularBasis(algebra, k)
