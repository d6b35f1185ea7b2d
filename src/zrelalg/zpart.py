"""Sign-stable set partitions: canonical forms, enumeration, composition.

Vertices are triples ``(row, index, sign)`` with ``row`` 0 (top) or 1
(bottom, rendered primed), ``index`` in 1..k and ``sign`` 0 ("e") or 1
("g").  The total order on vertices is plain tuple order, i.e.
(row, index, sign) with top < bottom and e < g; canonical forms and all
orderings of marked classes derive from it.

A partition is *stable* when the sign-flip involution (e <-> g on every
vertex) permutes its blocks.  Stability forces a rigid structure that the
whole package leans on: every connected component of the unsigned quotient
is covered either by a single sign-symmetric block (a "Z2" component, even
cardinality) or by exactly two blocks swapped by the flip (an "e" couple,
one vertex of each sign pair per block).  So a class is read off its
*lead block*, the one whose first vertex has sign e: it also holds the
g-vertex there exactly when the class is symmetric, and otherwise the
couple's other block does.  ``_lead_blocks`` is the one place that reads
them.

``from_codes`` is the only place a partition is built, from its owner
array: one block label per vertex code.  Composition, decomposition's
halves, star, reconstruction and both enumerations pass the owner data
they already hold; ``canonicalize`` alone reads a block list, from
outside the program, and checks it before turning it into an owner
array.  ``from_codes`` returns one shared object per canonical
partition: a table per (k, rows) holds every partition it has returned,
is never evicted, and so holds at most the stable partitions of that
size.  The table's key, the canonical block of every vertex code, is
kept on the partition as its block ``index``; its row counts are computed
once, on first use, and kept too.  Since equal partitions are one
object, equality and hashing are Python's, by identity; order stays by
value, for sorting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from itertools import product

from .errors import (InvalidSize, MalformedPartition, NotADiagram,
                     NotZ2Stable, SizeMismatch)

TOP, BOTTOM = 0, 1
E, G = 0, 1


class ZStablePartition:
    """A canonical sign-stable set partition on one or two rows of k doubled
    points.

    ``index`` is the block of every vertex: entry 2k*row + 2(i-1) + s is
    the index in ``blocks`` of the block holding vertex (row, i, s).  It is
    ``bytes`` while 2k*rows <= 256 and a tuple beyond."""

    __slots__ = ("k", "rows", "blocks", "index", "_counts")

    def __init__(self, k, rows, blocks, index):
        self.k = k
        self.rows = rows
        self.blocks = blocks
        self.index = index
        self._counts = None

    def __lt__(self, other):
        return (self.rows, self.k, self.blocks) < (other.rows, other.k, other.blocks)

    def __repr__(self):
        def vname(v):
            return "%d%s%s" % (v[1], "'" if v[0] == BOTTOM else "", "eg"[v[2]])
        return "{" + " | ".join(" ".join(vname(v) for v in b) for b in self.blocks) + "}"

    def to_json(self):
        def vjson(v):
            return ["%d%s" % (v[1], "'" if v[0] == BOTTOM else ""), "eg"[v[2]]]
        return {"k": self.k, "rows": self.rows,
                "blocks": [[vjson(v) for v in b] for b in self.blocks]}

    @staticmethod
    def from_json(obj):
        """Inverse of to_json.  A vertex must be an array of two strings:
        "1e" or {"1": 0, "e": 0} would also unpack as (name, sign)."""
        blocks = []
        for b in obj["blocks"]:
            block = []
            for vertex in b:
                if (type(vertex) is not list
                        or [type(x) for x in vertex] != [str, str]):
                    raise ValueError("vertex %r is not two strings"
                                     % (vertex,))
                name, sign = vertex
                if re.fullmatch("[0-9]+'?", name) is None:
                    raise ValueError("vertex name %r is not digits with at "
                                     "most one prime" % (name,))
                block.append((BOTTOM if name.endswith("'") else TOP,
                              int(name.rstrip("'")),
                              {"e": E, "g": G}[sign]))
            blocks.append(block)
        return canonicalize(blocks, json_size(obj["k"]),
                            json_size(obj["rows"]))


def json_size(value):
    """A size read from JSON or a CLI label: an integer or a string of ASCII
    digits, the rule for vertex names.  A float, a bool or any other string (a sign,
    spaces, ``_`` separators, non-ASCII digits) is a ValueError rather than
    being read by ``int``."""
    if isinstance(value, str):
        if re.fullmatch("[0-9]+", value) is None:
            raise ValueError("size %r is not ASCII digits" % (value,))
    elif not isinstance(value, int) or isinstance(value, bool):
        raise ValueError("size must be an integer, got %r" % (value,))
    return int(value)


@dataclass(frozen=True)
class PropagatingData:
    """Through-class counts: s1 sign-paired couples, s2 symmetric classes."""

    s1: int
    s2: int

    @property
    def r(self):
        return 2 * self.s1 + self.s2


def canonicalize(blocks, k, rows):
    """Validate a raw block list of vertex triples and return its canonical
    partition (idempotent).  This is the one check of a block list, which
    arrives only from outside the program (JSON, tests): sizes first, then
    empty blocks and the vertex count, before anything of size 2k*rows is
    allocated, then each vertex's shape and range and no vertex met twice.
    ``from_codes`` checks the sign flip."""
    if k < 1 or rows not in (1, 2):
        raise InvalidSize("k=%r rows=%r" % (k, rows))
    n = 2 * k * rows
    total = 0
    for b in blocks:
        if not b:
            raise MalformedPartition("empty block")
        total += len(b)
    if total != n:
        raise MalformedPartition("coverage violation: %d vertices listed, "
                                 "k=%d and rows=%d have %d"
                                 % (total, k, rows, n))
    # With as many vertices as points, no point met twice means every
    # point is met: coverage needs no separate pass.
    owner = [None] * n
    for label, b in enumerate(blocks):
        for v in b:
            try:
                row, i, s = v
            except (TypeError, ValueError):
                raise MalformedPartition("vertex %r is no (row, index, sign)"
                                         % (v,)) from None
            if row not in range(rows) or i not in range(1, k + 1) \
                    or s not in (E, G):
                raise MalformedPartition("vertex %r outside rows=%d, k=%d"
                                         % (v, rows, k))
            c = 2 * k * int(row) + 2 * int(i) - 2 + int(s)
            if owner[c] is not None:
                raise MalformedPartition("vertex %r %s" % (
                    v, "repeated in its block" if owner[c] == label
                    else "in two blocks"))
            owner[c] = label
    return from_codes(owner, k, rows)


@cache
def _vertices(k, rows):
    """The vertex triple of every code, shared by all partitions of a size."""
    return tuple((row, i, s) for row in range(rows) for i in range(1, k + 1)
                 for s in (E, G))


@cache
def _interned(k, rows):
    """Every partition ``from_codes`` has returned at one size, by the
    restricted-growth string of its owner array."""
    return {}


def from_codes(owner, k, rows):
    """The canonical partition with owner array ``owner``: one block label
    per vertex code, any hashable labels, in the shape of ``index``.  The
    code of vertex (row, i, s) is 2k*row + 2(i-1) + s, so the flip is
    ``c ^ 1``.  Only the length and the flip are checked: the program
    builds every owner array from partitions it holds, and ``canonicalize``
    checks block lists from outside.  Equal partitions come back as one
    shared object."""
    n = 2 * k * rows
    if len(owner) != n:
        raise MalformedPartition("owner array of %d codes, k=%d and rows=%d "
                                 "have %d" % (len(owner), k, rows, n))
    # Every class must flip into one class p(b).  That is enough: the flips
    # of the classes partition the vertices, so p is onto, hence a
    # bijection, and the flip of b, inside p(b), is all of it by counting.
    flip = {}
    for a, b in zip(owner[::2], owner[1::2]):
        if flip.setdefault(a, b) != b or flip.setdefault(b, a) != a:
            raise NotZ2Stable("sign flip does not permute the blocks")
    # Renumbering the labels in order of first appearance, i.e. of least
    # code, gives the owner array of the canonical block order: the key,
    # and on a miss the blocks and the block index.  Bytes hold it
    # compactly while every rank, below n, fits in a byte.
    rank = dict(zip(dict.fromkeys(owner), range(n)))
    key = (bytes if n <= 256 else tuple)(map(rank.__getitem__, owner))
    table = _interned(k, rows)
    d = table.get(key)
    if d is None:
        vertex = _vertices(k, rows)
        blocks = [[] for _ in rank]
        for c, r in enumerate(key):
            blocks[r].append(vertex[c])
        d = table[key] = ZStablePartition(k, rows, tuple(map(tuple, blocks)),
                                          key)
    return d


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


def _owners(n, parts):
    """The owner array of n codes over quotient parts ``(positions,
    signs)``: position p = k*row + i - 1 has codes 2p + s.  A part with
    signs None is one symmetric block, labelled by the part's number j;
    otherwise it is the couple of the block giving positions[m] sign
    signs[m], labelled j, and its flip, labelled ~j."""
    owner = [0] * n
    for j, (positions, signs) in enumerate(parts):
        if signs is None:
            for p in positions:
                owner[2 * p] = owner[2 * p + 1] = j
        else:
            for p, s in zip(positions, signs):
                owner[2 * p + s] = j
                owner[2 * p + 1 - s] = ~j
    return owner


@cache
def enumerate_rk(k, rows):
    """All stable partitions on k doubled points (rows=1) or 2k (rows=2).

    Enumerated once per (k, rows): every call returns the same list, which
    callers must not mutate.

    Generation goes through the structure theorem -- pick an unsigned
    quotient partition, then a type per quotient block (symmetric, or one
    of 2^(size-1) sign splittings) -- so no filtering over all set
    partitions of the doubled points is needed.
    """
    if k < 1:
        raise InvalidSize("k must be >= 1, got %r" % k)
    if rows not in (1, 2):
        raise InvalidSize("rows must be 1 or 2, got %r" % rows)
    out = []
    for quotient in _set_partitions(list(range(k * rows))):
        # A couple pins its first position to sign e.
        choices = [[None] + [(E,) + signs for signs
                             in product((E, G), repeat=len(part) - 1)]
                   for part in quotient]
        for signs in product(*choices):
            out.append(from_codes(_owners(2 * k * rows,
                                          zip(quotient, signs)), k, rows))
    # k and rows are the same throughout, so the blocks alone decide the order.
    out.sort(key=lambda d: d.blocks)
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


def _lead_blocks(d):
    """(b, symmetric, points) for the lead block of every class of ``d``,
    in block order, i.e. in order of the class's least position: b indexes
    ``d.blocks``, symmetric tells whether the block also holds the g-vertex
    at its first position, and points are the lead block's vertices, one
    per position of the class (a symmetric block pairs e and g, so its
    e-vertices)."""
    for b, block in enumerate(d.blocks):
        row, i, s = block[0]
        if s == E:
            symmetric = len(block) > 1 and block[1] == (row, i, G)
            yield b, symmetric, block[::2] if symmetric else block


@cache
def _shared(counts):
    """One tuple per distinct row-count sextuple, held by every diagram
    that has it."""
    return counts


def _row_counts(d):
    """(s1, s2, He_top, Hz_top, He_bot, Hz_bot) of a two-row diagram (the
    caller checks the rows), from one pass over its lead blocks, kept on
    the diagram.

    s1 and s2 count the through couples and symmetric classes, whose lead
    blocks end on the other row than they start; He and Hz the one-row
    classes of each row, couples only at unsigned size >= 2 (a lead block
    of 2 vertices or more) and symmetric classes at any size."""
    if d._counts is None:
        through = [0, 0]            # couples, symmetric classes
        he = [0, 0]
        hz = [0, 0]
        for _, symmetric, points in _lead_blocks(d):
            row = points[0][0]
            if points[-1][0] != row:
                through[symmetric] += 1
            elif symmetric:
                hz[row] += 1
            elif len(points) >= 2:
                he[row] += 1
        d._counts = _shared((*through, he[TOP], hz[TOP], he[BOTTOM],
                             hz[BOTTOM]))
    return d._counts


def propagating_data(d):
    """Through-class counts of a two-row diagram."""
    if d.rows != 2:
        raise NotADiagram("propagating data needs a two-row diagram")
    s1, s2 = _row_counts(d)[:2]
    return PropagatingData(s1, s2)


def compose(d1, d2):
    """Glue d1 above d2 (bottom of d1 identified with top of d2).

    Returns (outer diagram, l) with l the number of glued classes lying
    wholly in the identified middle row.  The glue is a union-find on
    block indices: d1's blocks, then d2's shifted by their count, linked
    along every middle vertex.  The owner array of the outer diagram is the
    class of each top code of d1 and each bottom code of d2; every other
    class is a loop.
    """
    if d1.rows != 2 or d2.rows != 2:
        raise NotADiagram("compose needs two-row diagrams")
    if d1.k != d2.k:
        raise SizeMismatch("k=%d vs k=%d" % (d1.k, d2.k))
    k2 = 2 * d1.k
    n1 = len(d1.blocks)
    index1 = d1.index
    index2 = [n1 + b for b in d2.index]
    root = roots(n1 + len(d2.blocks), zip(index1[k2:], index2[:k2]))
    owner = [root[b] for b in index1[:k2]] + [root[b] for b in index2[k2:]]
    loops = len(set(root)) - len(set(owner))
    return from_codes(owner, d1.k, 2), loops


def identity_diagram(k):
    if k < 1:
        raise InvalidSize("k must be >= 1, got %r" % k)
    return from_codes(list(range(2 * k)) * 2, k, 2)
