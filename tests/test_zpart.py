"""Sign-stable set partitions: structure, enumeration, composition."""

import ast
import random
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st
from test_tabular import _join

from zrelalg import zpart
from zrelalg.dalg import ALGEBRAS, basis, signed_row_ok, star_diagram
from zrelalg.errors import InvalidSize, MalformedPartition, NotZ2Stable
from zrelalg.tabular import HalfDiagram, decompose
from zrelalg.zpart import (BOTTOM, E, G, TOP, ZStablePartition, _interned,
                           _lead_blocks, _row_counts, _set_partitions,
                           canonicalize, compose, enumerate_rk, from_codes,
                           identity_diagram, propagating_data)


def flip_sign(v):
    return (v[0], v[1], 1 - v[2])


def vertex_set(k, rows):
    return [(row, i, s) for row in range(rows) for i in range(1, k + 1)
            for s in (E, G)]


def is_z2_stable(blocks):
    """True iff the sign flip maps the block set to itself."""
    block_set = {frozenset(b) for b in blocks}
    return all(frozenset(flip_sign(v) for v in b) in block_set for b in block_set)


def _value(d):
    """A partition as the triple (k, rows, blocks) that defines it."""
    return d.k, d.rows, d.blocks


def _canonical_value(blocks, k, rows):
    return _value(canonicalize(blocks, k, rows))


def _canonicalize_by_sets(blocks, k, rows):
    """Oracle for ``canonicalize``, as the value triple of ``_value``: the
    checks made on vertex triples with a coverage set and a frozenset per
    block."""
    if k < 1 or rows not in (1, 2):
        raise InvalidSize("k=%r rows=%r" % (k, rows))
    seen = {}
    norm = []
    for b in blocks:
        bb = tuple(sorted(set(b)))
        if not bb:
            raise MalformedPartition("empty block")
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
    return k, rows, tuple(norm)


def enumerate_rk_bruteforce(k, rows):
    """Oracle for ``enumerate_rk``: filter every set partition of the
    doubled points for stability."""
    out = [_canonicalize_by_sets(part, k, rows)
           for part in _set_partitions(vertex_set(k, rows))
           if is_z2_stable(part)]
    out.sort()
    return out


@pytest.mark.parametrize("k,rows", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_enumeration_matches_bruteforce_oracle(k, rows):
    assert ([_value(d) for d in enumerate_rk(k, rows)]
            == enumerate_rk_bruteforce(k, rows))


@pytest.mark.parametrize("k,rows,count", [
    (1, 1, 2), (2, 1, 7), (3, 1, 31),
    (1, 2, 7), (2, 2, 164), (3, 2, 6841),
])
def test_enumeration_counts(k, rows, count):
    out = enumerate_rk(k, rows)
    assert len(out) == count
    assert len(set(out)) == count
    assert out == sorted(out)


def _diagrams(k, rows):
    return st.sampled_from(enumerate_rk(k, rows))


@given(st.sampled_from([(1, 2), (2, 2), (2, 1)]).flatmap(
    lambda kr: _diagrams(*kr)))
def test_flip_maps_partition_to_itself(d):
    flipped = [[flip_sign(v) for v in b] for b in d.blocks]
    assert canonicalize(flipped, d.k, d.rows) == d


@given(_diagrams(2, 2))
def test_canonicalize_idempotent_and_json_roundtrip(d):
    assert canonicalize([list(b) for b in d.blocks], d.k, d.rows) == d
    assert ZStablePartition.from_json(d.to_json()) == d


@given(_diagrams(2, 2))
def test_components_cover_and_classify(d):
    covered = []
    for c in _components_by_join(d):
        covered.extend(c.support)
        if c.symmetric:
            (b,) = c.blocks
            assert frozenset(flip_sign(v) for v in b) == frozenset(b)
        else:
            b1, b2 = c.blocks
            assert tuple(sorted(flip_sign(v) for v in b1)) == b2
    assert sorted(covered) == sorted(set((r, i) for r, i, _ in
                                         vertex_set(d.k, d.rows)))


def test_canonicalize_rejects_bad_input():
    with pytest.raises(MalformedPartition):
        canonicalize([[(TOP, 1, E)]], 1, 1)  # (1, g) missing
    with pytest.raises(MalformedPartition):
        canonicalize([[(TOP, 1, E), (TOP, 1, G)], [(TOP, 1, G)]], 1, 1)
    with pytest.raises(NotZ2Stable):
        # e-e joined but g-g split: flip does not permute blocks
        canonicalize([[(TOP, 1, E), (TOP, 2, E), (TOP, 1, G)], [(TOP, 2, G)]],
                     2, 1)
    with pytest.raises(MalformedPartition, match="empty block"):
        canonicalize([[], [(TOP, 1, E)], [(TOP, 1, G)]], 1, 1)


def _outcome(fn, blocks, k, rows):
    """The value of fn(blocks, k, rows), or the class of what it raised."""
    try:
        return fn([list(b) for b in blocks], k, rows)
    except (InvalidSize, MalformedPartition, NotZ2Stable) as exc:
        return type(exc)


def _corruptions(d, rng):
    """Seeded broken copies of d's blocks, one per kind of damage."""
    k, rows = d.k, d.rows
    out = []

    def damaged():
        return [list(b) for b in d.blocks]

    blocks = damaged()                       # drop a vertex
    b = rng.randrange(len(blocks))
    blocks[b].pop(rng.randrange(len(blocks[b])))
    out.append(blocks)
    blocks = damaged()                       # repeat a vertex in its block
    b = rng.randrange(len(blocks))
    blocks[b].append(rng.choice(blocks[b]))
    out.append(blocks)
    blocks = damaged()                       # one vertex listed for another
    a, b = rng.randrange(len(blocks)), rng.randrange(len(blocks))
    blocks[a][rng.randrange(len(blocks[a]))] = rng.choice(blocks[b])
    out.append(blocks)
    if len(d.blocks) > 1:                    # copy a vertex to a second block
        blocks = damaged()
        a, b = rng.sample(range(len(blocks)), 2)
        blocks[b].append(rng.choice(blocks[a]))
        out.append(blocks)
        blocks = damaged()                   # move a vertex to another block
        a, b = rng.sample(range(len(blocks)), 2)
        blocks[b].append(blocks[a].pop(rng.randrange(len(blocks[a]))))
        out.append([blk for blk in blocks if blk])
    for bad in ((rows, 1, E), (TOP, 0, G), (TOP, k + 1, E), (TOP, 1, 2),
                (-1, 1, E), (TOP, 1), (TOP, 1, E, E)):
        blocks = damaged()                   # add a vertex out of range
        blocks[rng.randrange(len(blocks))].append(bad)
        out.append(blocks)
        blocks = damaged()                   # or put one in another's place
        b = rng.randrange(len(blocks))
        blocks[b][rng.randrange(len(blocks[b]))] = bad
        out.append(blocks)
    couples = [c for c in _components_by_join(d)
               if not c.symmetric and len(c.support) > 1]
    if couples:                              # split one block of an e-couple
        block = list(rng.choice(rng.choice(couples).blocks))
        rng.shuffle(block)
        cut = rng.randrange(1, len(block))
        out.append([b for b in d.blocks if b != tuple(sorted(block))]
                   + [block[:cut], block[cut:]])
    blocks = damaged()                       # insert an empty block
    blocks.insert(rng.randrange(len(blocks) + 1), [])
    out.append(blocks)
    return out


def _oracle_inputs():
    rng = random.Random(16)
    diagrams = [d for k, rows in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1))
                for d in enumerate_rk(k, rows)]
    k3 = enumerate_rk(3, 2)
    diagrams += [rng.choice(k3) for _ in range(2000)]
    for d in diagrams:
        shuffled = [rng.sample(b, len(b)) for b in d.blocks]
        rng.shuffle(shuffled)
        yield shuffled, d.k, d.rows
        for blocks in _corruptions(d, rng):
            yield blocks, d.k, d.rows


def test_canonicalize_equals_set_oracle():
    kinds = {}
    for blocks, k, rows in _oracle_inputs():
        want = _outcome(_canonicalize_by_sets, blocks, k, rows)
        assert _outcome(_canonical_value, blocks, k, rows) == want, blocks
        name = want.__name__ if isinstance(want, type) else "ok"
        kinds[name] = kinds.get(name, 0) + 1
    assert set(kinds) == {"ok", "MalformedPartition", "NotZ2Stable"}, kinds
    blocks = [[(TOP, 1, E)], [(TOP, 1, G)]]
    for k, rows in ((0, 1), (1, 0), (1, 3), (-2, 2)):
        assert _outcome(canonicalize, blocks, k, rows) is InvalidSize
        assert _outcome(_canonicalize_by_sets, blocks, k, rows) is InvalidSize


def _shuffled(blocks, rng):
    out = [rng.sample(b, len(b)) for b in blocks]
    rng.shuffle(out)
    return out


def _interning_sample():
    rng = random.Random(17)
    k3 = enumerate_rk(3, 2)
    return rng, enumerate_rk(2, 2) + [rng.choice(k3) for _ in range(300)]


def test_equal_partitions_are_one_object():
    rng, diagrams = _interning_sample()
    for d in diagrams:
        k = d.k
        shared = canonicalize(_shuffled(d.blocks, rng), k, 2)
        assert shared is d
        assert canonicalize(_shuffled(d.blocks, rng), k, 2) is shared
        assert compose(identity_diagram(k), d)[0] is shared
        assert compose(d, identity_diagram(k))[0] is shared
        assert star_diagram(star_diagram(d)) is shared
        flipped = [[(1 - row, i, s) for row, i, s in b] for b in d.blocks]
        assert star_diagram(d) is canonicalize(_shuffled(flipped, rng), k, 2)
        # the base of each half of decompose is the diagram's restriction
        # to that row, primes erased
        top, bot = decompose(d)[:2]
        for base, row in ((top.base, TOP), (bot.base, BOTTOM)):
            half = [[(TOP, i, s) for r, i, s in b if r == row]
                    for b in d.blocks]
            half = [b for b in half if b]
            assert base is canonicalize(_shuffled(half, rng), k, 1)


@pytest.mark.parametrize("k", [64, 65])
def test_interning_past_one_byte_ranks(k):
    # 4k singleton blocks: ranks reach 255 at k = 64 and pass it at k = 65
    singletons = [[v] for v in vertex_set(k, 2)]
    d = canonicalize(singletons, k, 2)
    assert canonicalize(singletons[::-1], k, 2) is d
    assert tuple(d.index) == tuple(range(4 * k))
    assert tuple(d.index) == _block_index_oracle(d)
    assert compose(d, identity_diagram(k))[0] is d


def test_checks_run_before_the_lookup():
    # A repeated or dropped vertex and an empty block leave the owner array,
    # and so the key, of an interned partition; they must still raise.
    rng, diagrams = _interning_sample()
    for d in diagrams:
        canonicalize([list(b) for b in d.blocks], d.k, d.rows)
        for blocks in _corruptions(d, rng):
            want = _outcome(_canonicalize_by_sets, blocks, d.k, d.rows)
            assert (_outcome(_canonical_value, blocks, d.k, d.rows)
                    == want), blocks


def _owner_sample():
    """Every partition at k <= 2 and a seeded sample at k = 3."""
    rng = random.Random(28)
    k3 = enumerate_rk(3, 2)
    return rng, ([d for k in (1, 2) for rows in (1, 2)
                  for d in enumerate_rk(k, rows)]
                 + [rng.choice(enumerate_rk(3, 1)) for _ in range(50)]
                 + [rng.choice(k3) for _ in range(300)])


def test_from_codes_reads_owner_arrays():
    _, diagrams = _owner_sample()
    for d in diagrams:
        k, rows = d.k, d.rows
        assert from_codes(d.index, k, rows) is d
        # any hashable labels name the blocks: ints in any order, strings
        # and tuples give the same object
        for owner in ([-3 * b - 1 for b in d.index],
                      ["b%d" % b for b in d.index],
                      [(b, "x") for b in d.index]):
            assert from_codes(owner, k, rows) is d, owner
    assert from_codes(["x", "x"], 1, 1) is canonicalize(
        [[(TOP, 1, E), (TOP, 1, G)]], 1, 1)


def test_from_codes_checks_length_and_flip():
    rng, diagrams = _owner_sample()
    kinds = {}
    for d in diagrams:
        k, rows = d.k, d.rows
        for owner in (d.index[:-1], list(d.index) + [0], []):
            with pytest.raises(MalformedPartition, match="owner array"):
                from_codes(owner, k, rows)
        # relabel one code, to a label in use or a fresh one; the set
        # oracle decides whether the flip still permutes the blocks
        for _ in range(3):
            owner = list(d.index)
            owner[rng.randrange(len(owner))] = rng.choice(
                [rng.choice(owner), "fresh"])
            blocks = {}
            for v, b in zip(vertex_set(k, rows), owner):
                blocks.setdefault(b, []).append(v)
            want = _outcome(_canonicalize_by_sets, blocks.values(), k, rows)
            try:
                got = _value(from_codes(owner, k, rows))
            except NotZ2Stable:
                got = NotZ2Stable
            assert got == want, owner
            name = want.__name__ if isinstance(want, type) else "ok"
            kinds[name] = kinds.get(name, 0) + 1
    assert set(kinds) == {"ok", "NotZ2Stable"}, kinds
    with pytest.raises(NotZ2Stable):
        # e-e joined but g-g split: flip does not permute blocks
        from_codes([0, 0, 0, 1], 2, 1)


def test_huge_size_is_rejected_before_allocation():
    # The vertex count is checked before anything of size 2k*rows exists.
    # k = 10^5 keeps a regression cheap: an owner array allocated first
    # would take 3.2 MB here (and 16 GB at k = 10^9).
    obj = {"k": 10 ** 5, "rows": 2, "blocks": [[["1", "e"]], [["1", "g"]]]}
    # a first call compiles the vertex-name pattern outside the trace
    ZStablePartition.from_json({"k": 1, "rows": 1, "blocks": obj["blocks"]})
    tracemalloc.start()
    try:
        with pytest.raises(MalformedPartition, match="coverage"):
            ZStablePartition.from_json(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def _block_index_oracle(d):
    codes = [(row, i, s) for row in range(d.rows)
             for i in range(1, d.k + 1) for s in (E, G)]
    return tuple(next(b for b, block in enumerate(d.blocks) if v in block)
                 for v in codes)


@pytest.mark.parametrize("k,rows", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_block_index_is_cached_tuple(k, rows):
    for d in enumerate_rk(k, rows):
        for e in (d, canonicalize([list(b) for b in d.blocks], k, rows)):
            index = e.index
            assert tuple(index) == _block_index_oracle(e)
            assert e.index is index
            # the index is the key under which the partition is interned
            assert _interned(k, rows)[index] is e


def test_enumeration_and_bases_share_objects():
    assert enumerate_rk(3, 2) is enumerate_rk(3, 2)
    assert enumerate_rk(2, 1) is enumerate_rk(2, 1)
    z2rel = {id(d) for d in basis("z2rel", 3)}
    assert z2rel == {id(d) for d in enumerate_rk(3, 2)}
    assert all(id(d) in z2rel for d in basis("signed", 3))
    for k in (1, 2, 3):
        enumerated = {id(d) for d in enumerate_rk(k, 2)}
        assert all(id(d) in enumerated for d in basis("partition", k))
    for d in basis("partition", 4):
        assert canonicalize([list(b) for b in d.blocks], 4, 2) is d


def _constructor_calls(tree, name="ZStablePartition"):
    """Every call of ``name`` or ``<module>.name`` under an AST node."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None),
                         getattr(node.func, "attr", None))]


def test_from_codes_is_the_only_constructor():
    trees = {path.name: ast.parse(path.read_text())
             for path in Path(zpart.__file__).parent.glob("*.py")}
    calls = [call for tree in trees.values()
             for call in _constructor_calls(tree)]
    (from_codes,) = [f for f in trees["zpart.py"].body
                     if isinstance(f, ast.FunctionDef)
                     and f.name == "from_codes"]
    assert len(calls) == 1
    assert _constructor_calls(from_codes) == calls


def test_half_diagram_factory_is_the_only_constructor():
    trees = {path.name: ast.parse(path.read_text())
             for path in Path(zpart.__file__).parent.glob("*.py")}
    calls = [call for tree in trees.values()
             for call in _constructor_calls(tree, "HalfDiagram")]
    (factory,) = [f for f in trees["tabular.py"].body
                  if isinstance(f, ast.FunctionDef)
                  and f.name == "_half_diagram"]
    assert len(calls) == 1
    assert _constructor_calls(factory, "HalfDiagram") == calls


def test_interned_types_compare_by_identity():
    # one shared object per value, so Python's identity equality and hash
    # serve; order stays by value, for sorting
    for cls in (ZStablePartition, HalfDiagram):
        assert cls.__eq__ is object.__eq__, cls
        assert cls.__hash__ is object.__hash__, cls
        assert "_hash" not in cls.__slots__, cls
        assert "__lt__" in vars(cls), cls


def test_group_layer_names_no_poly():
    # the Murphy and group layers compute in numbers; x enters at repn
    src = Path(zpart.__file__).parent
    for name in ("murphy.py", "groups.py"):
        tree = ast.parse((src / name).read_text())
        # a Name, an Attribute, an imported alias or a definition
        assert not any("Poly" in (getattr(node, "id", None),
                                  getattr(node, "attr", None),
                                  getattr(node, "name", None))
                       for node in ast.walk(tree)), name


def test_is_z2_stable_direct():
    assert is_z2_stable([[(TOP, 1, E)], [(TOP, 1, G)]])
    assert is_z2_stable([[(TOP, 1, E), (TOP, 1, G)]])
    assert not is_z2_stable([[(TOP, 1, E), (TOP, 2, E), (TOP, 1, G)],
                             [(TOP, 2, G)]])


@given(_diagrams(2, 2))
def test_identity_is_neutral_for_composition(d):
    e = identity_diagram(2)
    assert compose(e, d) == (d, 0)
    assert compose(d, e) == (d, 0)


def test_compose_loop_example():
    # E = {1e 1'e | 1g 1'g} squared: no loop. The all-in-one diagram
    # squared closes one middle class.
    k1 = enumerate_rk(1, 2)
    allone = canonicalize([[(r, 1, s) for r in (TOP, BOTTOM)
                            for s in (E, G)]], 1, 2)
    top_only = canonicalize([[(TOP, 1, E), (TOP, 1, G)],
                             [(BOTTOM, 1, E), (BOTTOM, 1, G)]], 1, 2)
    assert allone in k1 and top_only in k1
    assert compose(allone, allone) == (allone, 0)
    assert compose(top_only, top_only) == (top_only, 1)


def _compose_by_join(d1, d2):
    """Oracle for ``compose``: a union-find on signed vertices, d2 shifted
    one level down so that its top row is d1's bottom row."""
    root = _join(d1.blocks + tuple([(lvl + 1, i, s) for lvl, i, s in b]
                                   for b in d2.blocks))
    classes = {}
    for v, r in root.items():
        classes.setdefault(r, []).append(v)
    outer_blocks = []
    loops = 0
    for cls in classes.values():
        outer = [(TOP if lvl == 0 else BOTTOM, i, s)
                 for lvl, i, s in cls if lvl != 1]
        if outer:
            outer_blocks.append(outer)
        else:
            loops += 1
    return canonicalize(outer_blocks, d1.k, 2), loops


class _Class(NamedTuple):
    """One class of the unsigned quotient: its positions, its blocks (one
    symmetric block or a sign-flipped couple) and its kind."""

    support: tuple
    blocks: tuple
    symmetric: bool


def _components_by_join(d):
    """Oracle for the classes read off lead blocks: a union-find on
    unsigned positions."""
    root = _join([(row, i) for row, i, _ in b] for b in d.blocks)
    groups = {}
    for pos, r in root.items():
        groups.setdefault(r, ([], []))[0].append(pos)
    for b in d.blocks:
        groups[root[b[0][:2]]][1].append(b)
    comps = []
    for positions, cblocks in groups.values():
        comps.append(_Class(tuple(sorted(positions)), tuple(sorted(cblocks)),
                            len(cblocks) == 1))
    comps.sort(key=lambda c: c.support)
    return tuple(comps)


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_compose_equals_join_oracle(algebra):
    pairs = [(d1, d2) for k in (1, 2)
             for d1 in basis(algebra, k) for d2 in basis(algebra, k)]
    rng = random.Random(3)
    k3 = basis(algebra, 3)
    pairs += [(rng.choice(k3), rng.choice(k3)) for _ in range(2000)]
    loops = 0
    for d1, d2 in pairs:
        res = compose(d1, d2)
        assert res == _compose_by_join(d1, d2), (d1, d2)
        loops += res[1]
    assert loops > 0


@pytest.mark.parametrize("rows,k", [(1, 1), (1, 2), (1, 3), (1, 4),
                                    (2, 1), (2, 2), (2, 3)])
def test_components_equal_join_oracle(rows, k):
    """The lead blocks give every class, in order of least position, with
    its support (the points' positions) and its kind."""
    for d in enumerate_rk(k, rows):
        lead = [(tuple([(row, i) for row, i, _ in points]), symmetric)
                for _, symmetric, points in _lead_blocks(d)]
        oracle = [(c.support, c.symmetric) for c in _components_by_join(d)]
        assert lead == oracle, d


def test_propagating_and_horizontal_hand_examples():
    assert propagating_data(identity_diagram(3)).s1 == 3
    assert propagating_data(identity_diagram(3)).r == 6
    # k=2: columns 1 joined through as a Z2 class, column 2 split into
    # one-row components (a couple on top, a symmetric class below).
    d = canonicalize([
        [(TOP, 1, E), (TOP, 1, G), (BOTTOM, 1, E), (BOTTOM, 1, G)],
        [(TOP, 2, E)], [(TOP, 2, G)],
        [(BOTTOM, 2, E), (BOTTOM, 2, G)],
    ], 2, 2)
    pd = propagating_data(d)
    assert (pd.s1, pd.s2, pd.r) == (0, 1, 1)
    # top couple has unsigned size 1, so it is not counted
    assert _row_counts(d)[2:] == (0, 0, 0, 1)


def _propagating_oracle(d):
    s1 = s2 = 0
    for c in _components_by_join(d):
        if c.support[0][0] != c.support[-1][0]:
            if c.symmetric:
                s2 += 1
            else:
                s1 += 1
    return s1, s2


def _horizontal_oracle(d):
    he = {TOP: 0, BOTTOM: 0}
    hz = {TOP: 0, BOTTOM: 0}
    for c in _components_by_join(d):
        row = c.support[0][0]
        if c.support[-1][0] != row:
            continue
        if c.symmetric:
            hz[row] += 1
        elif len(c.support) >= 2:
            he[row] += 1
    return (he[TOP], hz[TOP], he[BOTTOM], hz[BOTTOM])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_row_counts_equal_oracle(k):
    signed = []
    for d in enumerate_rk(k, 2):
        s1, s2 = _propagating_oracle(d)
        he_t, hz_t, he_b, hz_b = horizontal = _horizontal_oracle(d)
        counts = _row_counts(d)
        assert counts == (s1, s2) + horizontal, d
        assert _row_counts(d) is counts
        pd = propagating_data(d)
        assert (pd.s1, pd.s2) == (s1, s2)
        assert _row_counts(d)[2:] == horizontal
        if (signed_row_ok(k, s1, s2, he_t, hz_t)
                and signed_row_ok(k, s1, s2, he_b, hz_b)):
            signed.append(d)
    assert basis("signed", k) == signed


def test_horizontal_size_two_couple_counts():
    d = canonicalize([
        [(TOP, 1, E), (TOP, 2, E)], [(TOP, 1, G), (TOP, 2, G)],
        [(BOTTOM, 1, E), (BOTTOM, 1, G)], [(BOTTOM, 2, E), (BOTTOM, 2, G)],
    ], 2, 2)
    assert _row_counts(d)[2:] == (1, 0, 0, 2)
    assert propagating_data(d).r == 0


@given(_diagrams(2, 2))
def test_restrict_rows(d):
    """The bases of decompose's halves restrict the diagram to its rows."""
    top, bot = (half.base for half in decompose(d)[:2])
    assert top.rows == bot.rows == 1
    n_top = len({c.support for c in _components_by_join(d)
                 if c.support[0][0] == TOP})
    assert len(_components_by_join(top)) >= n_top  # splitting only refines


@given(_diagrams(2, 2))
def test_quotient_partitions_positions(d):
    flat = [p for comp in _components_by_join(d) for p in comp.support]
    assert sorted(flat) == sorted({(r, i) for r, i, _ in vertex_set(2, 2)})
