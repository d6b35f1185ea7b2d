"""Sign-stable set partitions: canonical forms, enumeration, composition.

Vertices are triples ``(row, index, sign)`` with ``row`` 0 (top) or 1
(bottom, rendered primed), ``index`` in 1..k and ``sign`` 0 ("e") or 1
("g").  The total order on vertices is plain tuple order, i.e.
(row, index, sign) with top < bottom and e < g; canonical forms and all
orderings of marked components derive from it.

A partition is *stable* when the sign-flip involution (e <-> g on every
vertex) permutes its blocks.  Stability forces a rigid structure that the
whole package leans on: every connected component of the unsigned quotient
is covered either by a single sign-symmetric block (a "Z2" component, even
cardinality) or by exactly two blocks swapped by the flip (an "e" couple,
one vertex of each sign pair per block).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import (InvalidSize, MalformedPartition, NotADiagram,
                     NotZ2Stable, SizeMismatch)

TOP, BOTTOM = 0, 1
E, G = 0, 1

EPAIR = "e"
Z2CLASS = "z2"


def flip_sign(v):
    return (v[0], v[1], 1 - v[2])


def vertex_set(k, rows):
    return [(row, i, s) for row in range(rows) for i in range(1, k + 1)
            for s in (E, G)]


class ZStablePartition:
    """A canonical sign-stable set partition on one or two rows of k doubled points."""

    __slots__ = ("k", "rows", "blocks", "_hash", "_components")

    def __init__(self, k, rows, blocks):
        self.k = k
        self.rows = rows
        self.blocks = blocks
        self._hash = hash((k, rows, blocks))
        self._components = None

    def __eq__(self, other):
        return (isinstance(other, ZStablePartition)
                and self.k == other.k and self.rows == other.rows
                and self.blocks == other.blocks)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return (self.rows, self.k, self.blocks) < (other.rows, other.k, other.blocks)

    def __repr__(self):
        def vname(v):
            return "%d%s%s" % (v[1], "'" if v[0] == BOTTOM else "", "eg"[v[2]])
        return "{" + " | ".join(" ".join(vname(v) for v in b) for b in self.blocks) + "}"

    def components(self):
        """Connected components of the unsigned quotient, with their block structure."""
        if self._components is None:
            self._components = _analyze_components(self)
        return self._components

    def to_json(self):
        def vjson(v):
            return ["%d%s" % (v[1], "'" if v[0] == BOTTOM else ""), "eg"[v[2]]]
        return {"k": self.k, "rows": self.rows,
                "blocks": [[vjson(v) for v in b] for b in self.blocks]}

    @staticmethod
    def from_json(obj):
        blocks = []
        for b in obj["blocks"]:
            block = []
            for idx, sign in b:
                primed = idx.endswith("'")
                block.append((BOTTOM if primed else TOP,
                              int(idx.rstrip("'")),
                              {"e": E, "g": G}[sign]))
            blocks.append(block)
        return canonicalize(blocks, int(obj["k"]), int(obj["rows"]))


@dataclass(frozen=True)
class Component:
    """One quotient component: its unsigned support, its blocks and its kind."""

    support: tuple          # sorted (row, index) pairs
    blocks: tuple           # one block (Z2CLASS) or the sign-paired couple (EPAIR)
    kind: str               # EPAIR or Z2CLASS

    def rows_met(self):
        return frozenset(row for row, _ in self.support)


@dataclass(frozen=True)
class PropagatingData:
    """Through-class counts: s1 sign-paired couples, s2 symmetric classes."""

    s1: int
    s2: int

    @property
    def r(self):
        return 2 * self.s1 + self.s2


def canonicalize(blocks, k, rows):
    """Validate and bring a raw block list to canonical form (idempotent)."""
    if k < 1 or rows not in (1, 2):
        raise InvalidSize("k=%r rows=%r" % (k, rows))
    seen = {}
    norm = []
    for b in blocks:
        bb = tuple(sorted(set(b)))
        if len(bb) != len(list(b)):
            raise MalformedPartition("repeated vertex inside a block")
        for v in bb:
            if v in seen:
                raise MalformedPartition("vertex %r in two blocks" % (v,))
            seen[v] = True
        norm.append(bb)
    expected = set(vertex_set(k, rows))
    if set(seen) != expected:
        missing = expected - set(seen)
        extra = set(seen) - expected
        raise MalformedPartition("coverage violation (missing=%r extra=%r)"
                                 % (sorted(missing), sorted(extra)))
    if not is_z2_stable(norm):
        raise NotZ2Stable("sign flip does not permute the blocks")
    norm.sort(key=lambda b: b[0])
    return ZStablePartition(k, rows, tuple(norm))


def is_z2_stable(blocks):
    """True iff the sign flip maps the block set to itself."""
    block_set = {frozenset(b) for b in blocks}
    return all(frozenset(flip_sign(v) for v in b) in block_set for b in block_set)


def is_sign_constant(blocks):
    """True iff every block holds vertices of one sign only: the doubled
    partition diagrams."""
    return all(len({v[2] for v in b}) == 1 for b in blocks)


def _set_partitions(items):
    """All set partitions of a list, deterministically (first item first block)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _blocks_for_component(positions, type_choice):
    """Blocks covering the doubled points over one quotient block.

    type_choice is None for a symmetric (Z2) component, or a sign vector
    over positions[1:] for an e-couple (positions[0] pinned to sign e).
    """
    if type_choice is None:
        return [tuple(sorted((row, i, s) for row, i in positions for s in (E, G)))]
    signs = [E] + list(type_choice)
    b = tuple(sorted((row, i, s) for (row, i), s in zip(positions, signs)))
    return [b, tuple(sorted(flip_sign(v) for v in b))]


def enumerate_rk(k, rows):
    """All stable partitions on k doubled points (rows=1) or 2k (rows=2).

    Generation goes through the structure theorem -- pick an unsigned
    quotient partition, then a type per quotient block (symmetric, or one
    of 2^(size-1) sign splittings) -- so no filtering over all set
    partitions of the doubled points is needed.
    """
    if k < 1:
        raise InvalidSize("k must be >= 1, got %r" % k)
    if rows not in (1, 2):
        raise InvalidSize("rows must be 1 or 2, got %r" % rows)
    positions = [(row, i) for row in range(rows) for i in range(1, k + 1)]
    out = []
    for quotient in _set_partitions(positions):
        quotient = [sorted(c) for c in quotient]
        per_block = []
        for comp in quotient:
            choices = [None]
            choices.extend(product((E, G), repeat=len(comp) - 1))
            per_block.append([(comp, c) for c in choices])
        for assignment in product(*per_block):
            blocks = []
            for comp, choice in assignment:
                blocks.extend(_blocks_for_component(comp, choice))
            blocks.sort(key=lambda b: b[0])
            out.append(ZStablePartition(k, rows, tuple(blocks)))
    out.sort()
    return out


def enumerate_rk_bruteforce(k, rows):
    """Oracle path: filter every set partition of the doubled points for stability."""
    if k < 1:
        raise InvalidSize("k must be >= 1, got %r" % k)
    out = []
    for part in _set_partitions(vertex_set(k, rows)):
        if is_z2_stable(part):
            out.append(canonicalize(part, k, rows))
    out.sort()
    return out


def block_index(d):
    """The block of every vertex, as a list: entry 2k*row + 2(i-1) + s is
    the index in ``d.blocks`` of the block holding vertex (row, i, s)."""
    k2 = 2 * d.k
    out = [0] * (k2 * d.rows)
    for b, block in enumerate(d.blocks):
        for row, i, s in block:
            out[k2 * row + 2 * i - 2 + s] = b
    return out


def roots(n, links):
    """Union-find on 0..n-1: the list of each element's class root once
    every pair (a, b) of links is joined."""
    parent = list(range(n))
    for a, b in links:
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[a] = b
    root = []
    for a in range(n):
        while parent[a] != a:
            a = parent[a]
        root.append(a)
    return root


def classes(n, links):
    """The classes of ``roots(n, links)`` as ascending index lists,
    ordered by least index."""
    out = {}
    for a, r in enumerate(roots(n, links)):
        out.setdefault(r, []).append(a)
    return out.values()


def _analyze_components(d):
    # Linking the two sign copies of every position leaves one class per
    # quotient component.  Classes come in order of least block, blocks
    # are sorted by least vertex, so the components come out sorted by
    # support and each one's blocks sorted.
    index = block_index(d)
    comps = []
    for cls in classes(len(d.blocks), zip(index[E::2], index[G::2])):
        cblocks = tuple(d.blocks[b] for b in cls)
        support = tuple(sorted((row, i) for block in cblocks
                               for row, i, s in block if s == E))
        kind = Z2CLASS if len(cblocks) == 1 else EPAIR
        comps.append(Component(support, cblocks, kind))
    return tuple(comps)


def quotient(d):
    """The unsigned partition: i ~ j when some signed copies are related."""
    return tuple(c.support for c in d.components())


def propagating_data(d):
    """Through-class counts of a two-row diagram."""
    if d.rows != 2:
        raise NotADiagram("propagating data needs a two-row diagram")
    s1 = s2 = 0
    for c in d.components():
        if len(c.rows_met()) == 2:
            if c.kind == EPAIR:
                s1 += 1
            else:
                s2 += 1
    return PropagatingData(s1, s2)


def restrict(d, which):
    """Restrict a two-row diagram to its top or bottom row (primes erased)."""
    if d.rows != 2:
        raise NotADiagram("restriction needs a two-row diagram")
    row = {"top": TOP, "bottom": BOTTOM}[which]
    blocks = []
    for b in d.blocks:
        bb = [(TOP, i, s) for r, i, s in b if r == row]
        if bb:
            blocks.append(bb)
    return canonicalize(blocks, d.k, 1)


def compose(d1, d2):
    """Glue d1 above d2 (bottom of d1 identified with top of d2).

    Returns (outer diagram, l) with l the number of glued classes lying
    wholly in the identified middle row.  The glue is a union-find on
    block indices: d1's blocks, then d2's shifted by their count, linked
    along every middle vertex.
    """
    if d1.rows != 2 or d2.rows != 2:
        raise NotADiagram("compose needs two-row diagrams")
    if d1.k != d2.k:
        raise SizeMismatch("k=%d vs k=%d" % (d1.k, d2.k))
    k2 = 2 * d1.k
    n1 = len(d1.blocks)
    links = zip(block_index(d1)[k2:], [n1 + b for b in block_index(d2)[:k2]])
    outer = ([[v for v in b if v[0] == TOP] for b in d1.blocks]
             + [[v for v in b if v[0] == BOTTOM] for b in d2.blocks])
    outer_blocks = []
    loops = 0
    for cls in classes(n1 + len(d2.blocks), links):
        vertices = [v for b in cls for v in outer[b]]
        if vertices:
            outer_blocks.append(vertices)
        else:
            loops += 1
    return canonicalize(outer_blocks, d1.k, 2), loops


def horizontal_counts(d):
    """(He_top, Hz_top, He_bot, Hz_bot): one-row components of the quotient.

    e-couple components count only at unsigned size >= 2; symmetric
    components count at any size.
    """
    if d.rows != 2:
        raise NotADiagram("horizontal counts need a two-row diagram")
    he = {TOP: 0, BOTTOM: 0}
    hz = {TOP: 0, BOTTOM: 0}
    for c in d.components():
        rows = c.rows_met()
        if len(rows) != 1:
            continue
        (row,) = rows
        if c.kind == EPAIR:
            if len(c.support) >= 2:
                he[row] += 1
        else:
            hz[row] += 1
    return (he[TOP], hz[TOP], he[BOTTOM], hz[BOTTOM])


def identity_diagram(k):
    blocks = [[(TOP, i, s), (BOTTOM, i, s)] for i in range(1, k + 1) for s in (E, G)]
    return canonicalize(blocks, k, 2)
