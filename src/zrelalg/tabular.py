"""Tabular structure and cellular basis of the diagram algebras.

Every basis diagram with propagating data (s1, s2) factors uniquely as a
triple (top half, bottom half, g): the halves are one-row partitions with
2s1+s2 marked blocks (the traces of the through classes), and the group
element g of (Z2 wr S_s1) x S_s2 records how top marks connect to bottom
marks, including the sign twist.  Replacing the group coordinate by Murphy
basis elements produces a cellular basis whose structure constants factor
through the phi-map on pairs of halves.

``decompose`` and ``reconstruct`` carry g as one ``Perm`` of the mark
points (the points of ``groups.signed_perm``), and so do the cellular
basis and ``verify_table_datum``; a layer's ``from_points`` and
``to_points`` convert it only for the partition algebra's S_s1 layer.
The triple (f, sigma1, sigma2) of ``split_signed`` exists only at the
edges: ``phi``, the ``decompose`` verb's JSON and ``from_glue``.

Neither direction re-derives what it holds.  Each one-row base is read
once into its class table (``_class_table``: lead code, symmetry and
positions of every class, in order of least position).  ``decompose``
marks a base's classes off that table, so its marks come out sorted and
the half is looked up under its key.  ``reconstruct`` numbers its owner
array by first appearance, so the array is the diagram's own intern key
(``zpart.from_index``), as is decompose's top row.  Both are ``bytes``
slices and translates of block indices, as every block index is up to
``zpart.MAX_K``.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from .dalg import (AlgebraElement, _check_algebra, basis as algebra_basis,
                   dim_formula, signed_row_ok)
from .errors import Incompatible, NotADiagram, UnknownLabel
from .frozen import Frozen
from .groups import GAElement, Perm, split_signed
from .murphy import SymLayer, WreathSymLayer
from .ring import Poly
from .zpart import (E, G, _BYTES, _lead_blocks, enumerate_rk, from_codes,
                    from_index, is_sign_constant, propagating_data,
                    renumbered, roots)


@cache
def _class_table(base):
    """(lead, symmetric, positions) for every class of a one-row base, in
    order of least position: lead is the code of the class's least
    e-vertex (the first vertex of its lead block), symmetric tells a
    symmetric class from a couple, and positions are the class's
    positions.  Bases are interned and never evicted, so each base is
    read once."""
    return tuple([(codes[0], symmetric, tuple([(c >> 1) + 1 for c in codes]))
                  for _, symmetric, codes in _lead_blocks(base)])


def _classes(base):
    """The positions of the couples and of the symmetric classes of a
    one-row base, each list in order of least position, read off its
    class table."""
    classes = ([], [])
    for _, symmetric, positions in _class_table(base):
        classes[symmetric].append(positions)
    return classes


class HalfDiagram:
    """A one-row stable partition with ordered marked classes.

    Marks are recorded by the positions of the class, a class at most
    once (a repeated mark raises Incompatible); couples and
    symmetric classes are kept in separate lists, each sorted by minimal
    position -- that ordering is what the group-element coordinates refer
    to.  The package builds halves through ``_half_diagram``, which sorts
    the marks and shares one object a half, so equal halves are one object
    and compare by identity; order stays by value.

    ``block_ids`` is the block of every mark point: block_ids[a] is the
    block number ``base.index`` holds at ``mark_vertices()[a]``.
    ``free`` numbers the unmarked blocks 0, 1, ... in block order: free[b]
    is the number of unmarked block b, and 0 for a marked one, as bytes.
    """

    __slots__ = ("base", "e_marks", "z_marks", "_vertices", "block_ids",
                 "free")

    def __init__(self, base, e_marks=(), z_marks=()):
        if base.rows != 1:
            raise NotADiagram("half diagrams live on one row")
        self.base = base
        self.e_marks = e_marks
        self.z_marks = z_marks
        couples, classes = _classes(base)
        for marks in (e_marks, z_marks):
            if len(set(marks)) != len(marks):
                raise Incompatible("repeated mark in %r of %r"
                                   % (marks, base))
        for m in self.e_marks:
            if m not in couples:
                raise Incompatible("support %r is not a couple of %r" % (m, base))
        for m in self.z_marks:
            if m not in classes:
                raise Incompatible("support %r is not a symmetric class of %r"
                                   % (m, base))
        self._vertices = tuple(
            [2 * m[0] - 2 + s for m in self.e_marks for s in (E, G)]
            + [2 * m[0] - 2 + E for m in self.z_marks])
        self.block_ids = tuple([base.index[v] for v in self._vertices])
        free = [0] * base.nblocks
        unmarked = [b for b in range(len(free)) if b not in self.block_ids]
        for r, b in enumerate(unmarked):
            free[b] = r
        self.free = bytes(free)

    def mark_vertices(self):
        """The vertex of every mark point, as its offset 2(i-1) + s in
        ``base.index``, a tuple computed once per half.  Points are
        numbered as the points of ``groups.signed_perm``: point 2i + s is
        the sign-s vertex at the least position of couple mark i, point
        2s1 + l the e-vertex at the least position of symmetric mark l."""
        return self._vertices

    @property
    def k(self):
        return self.base.k

    @property
    def s1(self):
        return len(self.e_marks)

    @property
    def s2(self):
        return len(self.z_marks)

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
        marks = [[tuple(m) for m in obj[key]] for key in ("e_marks", "z_marks")]
        # A float or bool position equals an int one, so it would pass the
        # mark check and be shared under the int half's key.
        if any(type(i) is not int for ms in marks for m in ms for i in m):
            raise ValueError("mark positions must be integers")
        return _half_diagram(ZStablePartition.from_json(obj["base"]), *marks)


# Every half _half_diagram has returned, by (base, e_marks, z_marks).  It is
# never evicted, so it holds at most the marked halves of each size used.
_halves = {}


def _half_diagram(base, e_marks=(), z_marks=()):
    """The half with these marks, as one shared object per half: the marks
    are sorted by least position, and only a half that passes its checks
    is stored, so a bad mark raises on every call."""
    e_marks = tuple(sorted(map(tuple, e_marks)))
    z_marks = tuple(sorted(map(tuple, z_marks)))
    key = (base, e_marks, z_marks)
    half = _halves.get(key)
    if half is None:
        half = _halves[key] = HalfDiagram(base, e_marks, z_marks)
    return half


def variant_for(algebra):
    _check_algebra(algebra)
    return {"z2rel": "plain", "signed": "signed", "partition": "partition"}[algebra]


def enumerate_M(k, s1, s2, variant="plain"):
    """All admissible marked one-row halves with the given mark counts.

    Each base is read once into its couples and symmetric classes;
    the partition variant keeps sign-constant bases, at s2 = 0 only.  The
    signed variant admits a choice of couple marks by ``signed_row_ok`` on
    the unmarked couples of size >= 2 and the hz - s2 unmarked classes.
    The halves come sorted with no sort: the bases come in order, and so
    do the combinations of each base's classes, which are sorted by least
    position."""
    if variant not in ("plain", "signed", "partition"):
        raise Incompatible("unknown variant %r" % (variant,))
    out = []
    for base in enumerate_rk(k, 1):
        if variant == "partition" and (
                s2 or not is_sign_constant(base)):
            continue
        couples, classes = _classes(base)
        if len(couples) < s1 or len(classes) < s2:
            continue
        he = sum(len(m) >= 2 for m in couples)
        for emarks in combinations(couples, s1):
            if variant == "signed" and not signed_row_ok(
                    k, s1, s2, he - sum(len(m) >= 2 for m in emarks),
                    len(classes) - s2):
                continue
            for zmarks in combinations(classes, s2):
                out.append(_half_diagram(base, emarks, zmarks))
    return out


def _marked_half(base, row, other):
    """The half on ``base``, the partition of one row of a diagram's
    ``index``, whose marks are the through classes: a class is marked when
    the diagram block at its lead code, ``row[lead]``, also lies in the
    ``other`` row.  The class table is in order of least position, so the
    marks come out sorted and the half is looked up under its key;
    ``_half_diagram`` and its checks run only on a miss."""
    marks = ([], [])
    for lead, symmetric, positions in _class_table(base):
        if row[lead] in other:
            marks[symmetric].append(positions)
    key = (base, tuple(marks[0]), tuple(marks[1]))
    half = _halves.get(key)
    return _half_diagram(*key) if half is None else half


def decompose(d):
    """Split a diagram into (top half, bottom half, g), with g one Perm of
    the 2 s1 + s2 mark points: top mark point a goes to bottom mark point
    g(a).  As ``signed_perm(f, sigma1, sigma2)``, f(i) = 1 exactly when
    the block of the least top e-vertex of couple i holds the least bottom
    g-vertex of couple sigma1(i).

    The two rows of ``d.index`` are the owner arrays of the bases: a block
    cut to one row owns the codes it keeps there.  The top row is a prefix
    of a canonical index, so it is canonical itself and is looked up as
    its own key (``zpart.from_index``); the bottom row is renumbered by
    ``from_codes``.  A through class cuts to one class on each row, whose
    lead block is the cut of a diagram block meeting both rows, so each
    base's class table gives the marks (``_marked_half``), and g sends each
    top mark point to the bottom mark point whose vertex shares its block.
    """
    if d.rows != 2:
        raise NotADiagram("decompose needs a two-row diagram")
    index = d.index
    k2 = 2 * d.k
    top_row, bot_row = index[:k2], index[k2:]
    top = _marked_half(from_index(top_row, d.k, 1), top_row, bot_row)
    bot = _marked_half(from_codes(bot_row, d.k, 1), bot_row, top_row)
    point = {bot_row[v]: b for b, v in enumerate(bot.mark_vertices())}
    return top, bot, Perm([point[top_row[v]] for v in top.mark_vertices()])


def reconstruct(top, bottom, g):
    """Inverse of decompose: the diagram whose top mark point a shares its
    block with bottom mark point g(a).

    The halves must match, and g must be a group element of their layer:
    a permutation of the 2 s1 + s2 mark points sending each sign pair
    {2i, 2i+1} onto a pair {2j, 2j+1} with j < s1.  Otherwise it raises
    Incompatible.

    A half's mark points lie in distinct blocks (a repeated mark raises)
    and g is a permutation, so the links are a matching: no union-find is
    needed.  Each top code keeps its top block as owner, a matched bottom
    block takes its top block's number, and the unmatched ones the numbers
    nt, nt + 1, ... past the nt top blocks, in bottom block order (the
    bottom half's ``free``).  Blocks of the bottom index appear in order,
    so the owner array is numbered by first appearance: it is the
    diagram's canonical index and is looked up as its own key
    (``zpart.from_index``).  The relabelling is one ``bytes.translate``.
    """
    if (top.k != bottom.k or top.s1 != bottom.s1 or top.s2 != bottom.s2):
        raise Incompatible("halves do not match: %r / %r" % (top, bottom))
    images = g.images
    m = 2 * top.s1
    heads = images[:m:2]
    if (len(images) != m + top.s2 or sorted(images) != [*range(len(images))]
            or images[1:m:2] != tuple([v ^ 1 for v in heads])
            or m and max(heads) >= m):
        raise Incompatible("%r is no group element of layer (%d, %d)"
                           % (g, top.s1, top.s2))
    tops, bots = top.block_ids, bottom.block_ids
    nt = top.base.nblocks
    nb = bottom.base.nblocks
    table = bytearray(256)
    table[:nb] = bottom.free.translate(_BYTES[nt:] + _BYTES[:nt])
    for a, p in zip(tops, images):
        table[bots[p]] = a
    owner = top.base.index + bottom.base.index.translate(table)
    return from_index(owner, top.k, 2)


@cache
def _join(top_base, bottom_base):
    """(count, join): the join of two one-row bases along their shared
    row, as the class of every top block, then of every bottom block,
    numbered 0, 1, ... by first appearance (``zpart.renumbered``), as
    bytes, and the number of classes.

    It is ``zpart.roots`` on block numbers, top blocks first, then bottom
    blocks shifted by their count, linked along each shared vertex.  Its
    first n entries are the roots of the n blocks.  Bases are interned and
    never evicted, so each pair of bases is joined once, whichever marks
    its halves carry."""
    nt = top_base.nblocks
    n = nt + bottom_base.nblocks
    root = roots(zip(top_base.index, [nt + b for b in bottom_base.index]))
    classes, join = renumbered(root[:n])
    return len(classes), join


def _phi_perm(top, bottom):
    """(l, g) of ``phi``, with g = ``signed_perm(f, sigma1, sigma2)`` as
    one Perm of the mark points, or None; the classes of the mark points
    are read off the bases' ``_join``."""
    if (top.k != bottom.k or top.s1 != bottom.s1 or top.s2 != bottom.s2):
        raise Incompatible("halves do not match: %r / %r" % (top, bottom))
    count, join = _join(top.base, bottom.base)
    nt = top.base.nblocks
    point = {join[nt + b]: a for a, b in enumerate(bottom.block_ids)}
    images = [point.get(join[b]) for b in top.block_ids]
    if None in images or len(set(images)) != len(images):
        return None
    return count - len(images), Perm(images)


def phi(top, bottom):
    """Glue two halves along their shared row.

    The glue is the join of the two bases (``_join``): a class of blocks
    of either half, linked along each shared vertex.  Top mark point a goes
    to the bottom mark point in its glued class.  Returns (l, f, sigma1,
    sigma2) when every top mark point goes to a different bottom mark
    point -- that permutation being ``signed_perm(f, sigma1, sigma2)`` --
    and None otherwise.  l counts the glued classes meeting no marked block
    of either half.

    Mark kinds need no check: the sign flip permutes the glued classes, so
    a class holding a symmetric (flip-invariant) block is flip-invariant,
    and holds both blocks of any couple it meets -- two marks of one half
    in one class, which the distinct-images test rejects.  Likewise a top
    e-block going to point 2j + s sends the top g-block to 2j + 1 - s.
    """
    res = _phi_perm(top, bottom)
    if res is None:
        return None
    l, g = res
    return (l,) + split_signed(g, top.s1)


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
    top, bot, g = decompose(d)
    return top, bot, layer.from_points(g)


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
        top, bot, g = decompose(c)
        s1, s2 = top.s1, top.s2
        layer = layer_for(algebra, s1, s2)
        g = layer.from_points(g)
        ref = reconstruct(top, top, Perm.identity(2 * s1 + s2))
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


class CellLabel(Frozen):
    """(r, (s1, s2)) plus the group-layer cell label.

    For the z2rel and signed algebras the group label is a pair
    (bipartition of s1, partition of s2); for the partition algebra it is
    a single partition of s1.
    """

    __slots__ = _fields = ("s1", "s2", "glabel")

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
            d = reconstruct(P, Q, layer.to_points(g))
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
            P, Q, g = decompose(d)
            g = self.layers[(P.s1, P.s2)].from_points(g)
            blocks.setdefault((P, Q), {})[g] = c
        out = {}
        for (P, Q), terms in blocks.items():
            s1, s2 = P.s1, P.s2
            murphy = self.layers[(s1, s2)].murphy()
            for rec, c in zip(murphy.records, murphy.coords(GAElement(terms))):
                if c:
                    label = CellLabel(s1, s2, rec.label)
                    out[(label, (P, rec.s), (Q, rec.t))] = c
        return out

    def glue(self, s1, s2):
        """The glue table of layer (s1, s2), built on first use: row i,
        column j is (l, delta) for the halves M[(s1, s2)][i] and [j], or
        None where phi fails.  Each distinct (l, delta) is stored once and
        shared.

        Entries are read off the join of the halves' bases, shared by
        every pair of halves on the same bases (``_phi_perm``), and delta
        is phi's permutation of the mark points, taken into the layer by
        ``from_points``: its distinct images make it a group element, as
        phi's docstring argues.  The cellular anti-involution (flip top
        and bottom, invert the group element) gives glue[j][i] =
        (l, delta^-1), so entries are computed for j >= i only and the
        lower triangle is mirrored."""
        table = self._glue.get((s1, s2))
        if table is None:
            halves = self.M[(s1, s2)]
            from_points = self.layers[(s1, s2)].from_points
            shared = {}
            table = [[None] * len(halves) for _ in halves]
            for i, P in enumerate(halves):
                row = table[i]
                for j in range(i, len(halves)):
                    res = _phi_perm(P, halves[j])
                    if res is None:
                        continue
                    l, delta = res
                    delta = from_points(delta)
                    row[j] = shared.setdefault((l, delta), (l, delta))
                    if j != i:
                        pair = (l, delta.inv())
                        table[j][i] = shared.setdefault(pair, pair)
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
