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
them, off the block index: the lead block's first code is even, and it is
symmetric when the next code, its flip partner, lies in the same block.

``from_codes`` is the only place a partition is built, from its owner
array: one block label per vertex code.  Composition, decomposition's
halves, star, reconstruction and both enumerations pass the owner data
they already hold; ``canonicalize`` alone reads a block list, from
outside the program, and checks it before turning it into an owner
array.  ``from_codes`` returns one shared object per canonical
partition: a table per (k, rows) holds every partition it has returned,
is never evicted, and so holds at most the stable partitions of that
size.  The table's key, the canonical block of every vertex code, is
kept on the partition as its block ``index``, which is all the partition
stores of itself besides its size and block count: its row counts are
computed once, on first use, and kept, and its block list of vertex
triples is computed on every read, for the tests; printing and JSON
read the index through a table of vertex names per size.  An owner
array that is already canonical (reconstruction's, and the top row of a
block index) is its own key: ``from_index`` looks it up without
renumbering it.  Since equal partitions are one object, equality and
hashing are Python's, by identity; order stays by value, for sorting,
through one key per partition read off its index (``_order_key``).

Every block index, owner array, order key and union-find table is
``bytes``: sizes stop at k = ``MAX_K``, which ``canonicalize``,
``enumerate_rk`` and ``identity_diagram`` check where k enters.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import chain, product

from .errors import (InvalidSize, MalformedPartition, NotADiagram,
                     NotZ2Stable, SizeMismatch)
from .frozen import Frozen

TOP, BOTTOM = 0, 1
E, G = 0, 1
_BYTES = bytes(range(256))
# One diagram has at most 4k = 128 blocks, so the blocks of two diagrams,
# composed or joined, fit one 256-entry byte table, and every code, block
# number and order-key entry fits a byte.
MAX_K = 32


class ZStablePartition:
    """A canonical sign-stable set partition on one or two rows of k doubled
    points, kept as its block index alone.

    ``index`` is the block of every vertex: entry 2k*row + 2(i-1) + s is
    the number of the block holding vertex (row, i, s), the blocks
    numbered 0, 1, ... in order of their least vertex, as ``bytes``.
    ``nblocks`` counts the blocks.  ``blocks``, the blocks as tuples of
    vertex triples, is computed from the index on every read and not
    stored: the tests read it, the program reads the index."""

    __slots__ = ("k", "rows", "index", "nblocks", "_counts")

    def __init__(self, k, rows, index, nblocks):
        self.k = k
        self.rows = rows
        self.index = index
        self.nblocks = nblocks
        self._counts = None

    @property
    def blocks(self):
        vertex = _vertices(self.k, self.rows)
        return tuple([tuple([vertex[c] for c in codes])
                      for codes in _block_codes(self)])

    def __lt__(self, other):
        return ((self.rows, self.k, _order_key(self))
                < (other.rows, other.k, _order_key(other)))

    def __repr__(self):
        name = _vertex_names(self.k, self.rows)[0]
        return "{%s}" % " | ".join([" ".join([name[c] for c in codes])
                                    for codes in _block_codes(self)])

    def to_json(self):
        pair = _vertex_names(self.k, self.rows)[1]
        return {"k": self.k, "rows": self.rows,
                "blocks": [[list(pair[c]) for c in codes]
                           for codes in _block_codes(self)]}

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


class PropagatingData(Frozen):
    """Through-class counts: s1 sign-paired couples, s2 symmetric classes."""

    __slots__ = _fields = ("s1", "s2")

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
    if not 1 <= k <= MAX_K or rows not in (1, 2):
        raise InvalidSize("k=%r rows=%r: k must be 1..%d and rows 1 or 2"
                          % (k, rows, MAX_K))
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
def _vertex_names(k, rows):
    """(names, pairs) of every code, shared by all partitions of a size:
    its printed name, such as "2e" or "1'g", and the same as the pair
    ("1'", "g") that JSON writes: the index with a prime on the bottom
    row, then the sign."""
    pairs = tuple([("%d%s" % (i, "'" * row), "eg"[s])
                   for row, i, s in _vertices(k, rows)])
    return tuple([p + s for p, s in pairs]), pairs


@cache
def _interned(k, rows):
    """Every partition ``from_codes`` has returned at one size, by the
    restricted-growth string of its owner array."""
    return {}


def renumbered(labels):
    """(distinct, ranks): the distinct bytes of ``labels`` in order of
    first appearance, and ``labels`` with each byte replaced by its rank
    among them, by one translate."""
    distinct = bytes(dict.fromkeys(labels))
    return distinct, labels.translate(
        bytes.maketrans(distinct, _BYTES[:len(distinct)]))


def from_codes(owner, k, rows):
    """The canonical partition with owner array ``owner``: one block label
    per vertex code, labels 0..255 in anything ``bytes`` takes, in the
    shape of ``index``.  The code of vertex (row, i, s) is
    2k*row + 2(i-1) + s, so the flip is ``c ^ 1``.  Only the length and the
    flip are checked: the program builds every owner array from partitions
    it holds, and ``canonicalize`` checks block lists from outside.  Equal
    partitions come back as one shared object."""
    n = 2 * k * rows
    if len(owner) != n:
        raise MalformedPartition("owner array of %d codes, k=%d and rows=%d "
                                 "have %d" % (len(owner), k, rows, n))
    # Renumbering the labels in order of first appearance, i.e. of least
    # code, gives the owner array of the canonical block order: the key,
    # which is the block index.
    labels, key = renumbered(bytes(owner))
    table = _interned(k, rows)
    d = table.get(key)
    if d is None:
        # The table holds only partitions that passed this check, and
        # stability depends on the partition alone, so a hit needs none.
        # Every class must flip into one class p(b).  That is enough: the
        # flips of the classes partition the vertices, so p is onto, hence
        # a bijection, and the flip of b, inside p(b), is all of it by
        # counting.
        flip = {}
        for a, b in zip(key[::2], key[1::2]):
            if flip.setdefault(a, b) != b or flip.setdefault(b, a) != a:
                raise NotZ2Stable("sign flip does not permute the blocks")
        d = table[key] = ZStablePartition(k, rows, key, len(labels))
    return d


def from_index(index, k, rows):
    """``from_codes`` for an owner array that is already canonical: a block
    ``index``, its labels numbered by first appearance (a restricted-growth
    string), as bytes.  Such an array is its own intern key, so a hit
    skips the renumbering; a miss goes through ``from_codes`` and its
    checks.  An array that is not canonical equals no key and so never
    hits.  Compose's owner arrays, labelled by class roots, are never
    canonical and go to ``from_codes`` directly."""
    d = _interned(k, rows).get(index)
    return from_codes(index, k, rows) if d is None else d


def is_sign_constant(d):
    """True iff every block of ``d`` holds vertices of one sign only: the
    doubled partition diagrams.  E-codes are even and g-codes odd, so no
    block may own codes of both parities."""
    index = d.index
    return set(index[::2]).isdisjoint(index[1::2])


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
    signs None is one symmetric block, labelled 2j by the part's number j;
    otherwise it is the couple of the block giving positions[m] sign
    signs[m], labelled 2j, and its flip, labelled 2j + 1.  There are at
    most n/2 parts, so the labels fit a byte."""
    owner = bytearray(n)
    for j, (positions, signs) in enumerate(parts):
        if signs is None:
            for p in positions:
                owner[2 * p] = owner[2 * p + 1] = 2 * j
        else:
            for p, s in zip(positions, signs):
                owner[2 * p + s] = 2 * j
                owner[2 * p + 1 - s] = 2 * j + 1
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
    if not 1 <= k <= MAX_K:
        raise InvalidSize("k must be 1..%d, got %r" % (MAX_K, k))
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
    # k and rows are the same throughout, so the key alone decides the order.
    out.sort(key=_order_key)
    return out


def roots(links):
    """Union-find on the byte values 0..255: each one's class root once
    every pair (a, b) of links is joined, as a 256-byte ``bytes.translate``
    table, entry a the root of a (a itself when no link reaches it)."""
    parent = bytearray(_BYTES)
    for a, b in links:
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[a] = b
    # Each pass sends every node to its parent's parent, halving the
    # longest path, until every node points at its root.
    table = bytes(parent)
    while (settled := table.translate(table)) != table:
        table = settled
    return table


def _block_codes(d, start=0):
    """The codes of every block of ``d``, in block order, each in code
    order and shifted by ``start``."""
    blocks = [[] for _ in range(d.nblocks)]
    for c, b in enumerate(d.index, start):
        blocks[b].append(c)
    return blocks


def _order_key(d):
    """The order of partitions of one size, as one key read off the index:
    for each block in order, its codes + 1, then a 0.  Code order is vertex
    order, and the 0 ends a block below any code, so the keys sort exactly
    as the block lists of vertex triples do."""
    blocks = _block_codes(d, 1)
    for codes in blocks:
        codes.append(0)
    return bytes(chain.from_iterable(blocks))


def _lead_blocks(d):
    """(b, symmetric, codes) for the lead block of every class of ``d``,
    in block order, i.e. in order of the class's least position: b is the
    block's number, whose first code is even (sign e); symmetric tells
    whether its flip partner, the next code, lies in the same block; and
    codes are the block's codes, one per position of the class (a
    symmetric block pairs e and g, so its e-codes)."""
    index = d.index
    for b, codes in enumerate(_block_codes(d)):
        lead = codes[0]
        if not lead & 1:
            symmetric = index[lead + 1] == b
            yield b, symmetric, codes[::2] if symmetric else codes


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
        k2 = 2 * d.k
        through = [0, 0]            # couples, symmetric classes
        he = [0, 0]
        hz = [0, 0]
        for _, symmetric, codes in _lead_blocks(d):
            row = codes[0] // k2
            if codes[-1] // k2 != row:
                through[symmetric] += 1
            elif symmetric:
                hz[row] += 1
            elif len(codes) >= 2:
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
    wholly in the identified middle row.  The glue is ``roots`` on block
    indices: d1's blocks, then d2's shifted by their count, linked along
    every middle vertex.  The owner array of the outer diagram is the
    class of each top code of d1 and each bottom code of d2; every other
    class is a loop.  The shift and the owner array are each one
    translate.
    """
    if d1.rows != 2 or d2.rows != 2:
        raise NotADiagram("compose needs two-row diagrams")
    if d1.k != d2.k:
        raise SizeMismatch("k=%d vs k=%d" % (d1.k, d2.k))
    k2 = 2 * d1.k
    n1 = d1.nblocks
    n = n1 + d2.nblocks
    index1 = d1.index
    index2 = d2.index.translate(bytes.maketrans(_BYTES[:n - n1], _BYTES[n1:n]))
    root = roots(zip(index1[k2:], index2[:k2]))
    owner = (index1[:k2] + index2[k2:]).translate(root)
    loops = len(set(root[:n])) - len(set(owner))
    return from_codes(owner, d1.k, 2), loops


def identity_diagram(k):
    if not 1 <= k <= MAX_K:
        raise InvalidSize("k must be 1..%d, got %r" % (MAX_K, k))
    return from_codes(_BYTES[:2 * k] * 2, k, 2)
