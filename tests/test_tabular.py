"""Half-diagram factorization, phi-map, tabular axiom, cellular basis."""

import copy
import pickle
import random
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from zrelalg import zpart
from zrelalg.dalg import ALGEBRAS, AlgebraElement, basis, dim_formula
from zrelalg.errors import Incompatible, UnknownLabel
from zrelalg.groups import Perm, split_signed
from zrelalg.murphy import SymLayer, WreathSymLayer
from zrelalg.repn import cell_module
from zrelalg.ring import ONE
from zrelalg.tabular import (CellLabel, HalfDiagram, _half_diagram,
                             cellular_basis, decompose, enumerate_M,
                             index_lt, index_pairs, layer_for, phi,
                             reconstruct, variant_for, verify_table_datum)
from zrelalg.zpart import (BOTTOM, E, G, TOP, PropagatingData, canonicalize,
                           from_codes, propagating_data, roots)


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_half_diagram_census(algebra, k):
    """Sum over indices of |M|^2 * (layer group order) equals the algebra
    dimension -- the factorization is a bijection.  The group order is the
    size of the layer's Murphy basis."""
    variant = variant_for(algebra)
    total = 0
    for s1, s2 in index_pairs(algebra, k):
        m = len(enumerate_M(k, s1, s2, variant))
        total += m * m * len(layer_for(algebra, s1, s2).murphy().records)
    assert total == dim_formula(algebra, k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_enumerate_M_comes_sorted(k):
    # the halves are built in order, base by base, so enumerate_M sorts
    # nothing; every variant, at every mark count, must still come sorted
    for variant in ("plain", "signed", "partition"):
        for s1 in range(k + 1):
            for s2 in range(2 * k - 2 * s1 + 1):
                halves = enumerate_M(k, s1, s2, variant)
                assert halves == sorted(halves), (variant, s1, s2)


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("k", [1, 2])
def test_decompose_reconstruct_roundtrip(algebra, k):
    for d in basis(algebra, k):
        top, bot, g = decompose(d)
        pd = propagating_data(d)
        assert (top.s1, top.s2) == (bot.s1, bot.s2) == (pd.s1, pd.s2)
        assert g.n == 2 * pd.s1 + pd.s2
        assert reconstruct(top, bot, g) is d


@cache
def _basis_k3(algebra):
    return basis(algebra, 3)


@pytest.mark.parametrize("algebra", ALGEBRAS)
@settings(deadline=None)
@given(data=st.data())
def test_decompose_reconstruct_roundtrip_k3(algebra, data):
    d = data.draw(st.sampled_from(_basis_k3(algebra)))
    assert reconstruct(*decompose(d)) is d


def _lead_blocks_by_walking(d):
    """Oracle for ``zpart._lead_blocks``, on the block list of vertex
    triples: (b, symmetric, points) for every block whose first vertex has
    sign e, symmetric when its second vertex is the g-vertex there, and
    points its vertices, only the e-vertices of a symmetric block."""
    for b, block in enumerate(d.blocks):
        row, i, s = block[0]
        if s == E:
            symmetric = len(block) > 1 and block[1] == (row, i, G)
            yield b, symmetric, block[::2] if symmetric else block


def _decompose_by_lead_blocks(d):
    """Oracle for decompose: the marks of both halves read off the lead
    blocks of the two-row diagram's through classes, each half's marks
    sorted by ``_half_diagram``, and g sending each top mark point to the
    bottom mark point whose vertex shares its block."""
    index = d.index
    k2 = 2 * d.k
    top_marks = ([], [])        # couples, symmetric classes
    bot_marks = ([], [])
    for _, symmetric, points in _lead_blocks_by_walking(d):
        if points[0][0] != points[-1][0]:
            top_marks[symmetric].append(
                tuple([i for row, i, _ in points if row == TOP]))
            bot_marks[symmetric].append(
                tuple([i for row, i, _ in points if row == BOTTOM]))
    top = _half_diagram(from_codes(index[:k2], d.k, 1), *top_marks)
    bot = _half_diagram(from_codes(index[k2:], d.k, 1), *bot_marks)
    point = {index[k2 + v]: b for b, v in enumerate(bot.mark_vertices())}
    return top, bot, Perm([point[index[v]] for v in top.mark_vertices()])


def _same_decomposition(d):
    top, bot, g = decompose(d)
    otop, obot, og = _decompose_by_lead_blocks(d)
    return top is otop and bot is obot and g == og


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_decompose_equals_lead_block_oracle(algebra):
    # the class tables give the same half objects and g as reading the
    # two-row diagram's lead blocks, on every basis diagram at k <= 3
    for k in (1, 2, 3):
        for d in basis(algebra, k):
            assert _same_decomposition(d), d


def test_roundtrip_reconstructs_without_renumbering(monkeypatch):
    # reconstruct numbers the unmatched bottom blocks in block order, so
    # its owner array is the diagram's canonical index and is its own
    # intern key: no basis diagram at k <= 2 needs zpart.renumbered
    calls = []
    renumbered = zpart.renumbered

    def counted(labels):
        calls.append(labels)
        return renumbered(labels)

    for algebra in ALGEBRAS:
        for k in (1, 2):
            for d in basis(algebra, k):
                triple = decompose(d)
                monkeypatch.setattr(zpart, "renumbered", counted)
                assert reconstruct(*triple) is d
                monkeypatch.setattr(zpart, "renumbered", renumbered)
    assert calls == []


def _reconstruct_by_roots(top, bottom, f, sigma1, sigma2):
    """Oracle for reconstruct: a union-find on block numbers, top blocks
    first, then bottom blocks shifted by their count, linking the block of
    top mark point a to the block of bottom mark point g(a)."""
    g = WreathSymLayer(top.s1, top.s2).from_glue(f, sigma1, sigma2)
    nt = len(top.base.blocks)
    root = roots([(a, nt + bottom.block_ids[b])
                  for a, b in zip(top.block_ids, g.images)])
    return from_codes([root[b] for b in top.base.index]
                      + [root[nt + b] for b in bottom.base.index], top.k, 2)


def _glued_triples(algebra, k):
    """Every (P, Q, g) of every layer: both halves from the layer's M, g
    the mark-point permutation of each element of its group."""
    for s1, s2 in index_pairs(algebra, k):
        halves = enumerate_M(k, s1, s2, variant_for(algebra))
        layer = layer_for(algebra, s1, s2)
        points = [layer.to_points(g) for g in layer.murphy().elements]
        for P in halves:
            for Q in halves:
                for g in points:
                    yield P, Q, g


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_reconstruct_equals_union_find_oracle(algebra):
    # the matching relabel gives the same interned diagram as the
    # union-find: every triple at k <= 2, a seeded sample at k = 3
    checked = 0
    for k in (1, 2):
        for P, Q, g in _glued_triples(algebra, k):
            assert reconstruct(P, Q, g) is _reconstruct_by_roots(
                P, Q, *split_signed(g, P.s1))
            checked += 1
    assert checked == dim_formula(algebra, 1) + dim_formula(algebra, 2)
    triples = list(_glued_triples(algebra, 3))
    for P, Q, g in random.Random(29).sample(triples, min(400, len(triples))):
        assert reconstruct(P, Q, g) is _reconstruct_by_roots(
            P, Q, *split_signed(g, P.s1))


def test_reconstruct_rejects_glue_of_wrong_size():
    # k = 2, one couple mark and one symmetric mark on each half, so g
    # permutes 3 points; each g below is a group element of another layer
    d = next(d for d in basis("z2rel", 2)
             if (propagating_data(d).s1, propagating_data(d).s2) == (1, 1))
    top, bot, g = decompose(d)
    assert reconstruct(top, bot, g) is d
    for wrong in [Perm(g.images + (3,)), Perm(g.images + (3, 4)),
                  Perm(g.images[:2]), Perm(g.images[:1]), Perm(()),
                  Perm(range(5))]:
        with pytest.raises(Incompatible):
            reconstruct(top, bot, wrong)


def test_reconstruct_rejects_glue_that_is_no_group_element():
    # the identity of z2rel k = 2: {1e 1'e | 1g 1'g | 2e 2'e | 2g 2'g}
    d = canonicalize([[(TOP, i, s), (BOTTOM, i, s)]
                      for i in (1, 2) for s in (E, G)], 2, 2)
    top, bot, g = decompose(d)
    assert g == Perm((0, 1, 2, 3))
    assert split_signed(g, 2) == ((0, 0), Perm((0, 1)), Perm(()))
    assert reconstruct(top, bot, g) is d
    # four that are no permutation (the first three keep their sign
    # pairs), then three that split a sign pair: {0, 1} goes to {0, 2},
    # {1, 2} or {3, 1}
    for wrong in [(0, 1, 0, 1), (0, 1, 1, 0), (0, 1, -2, -1), (0, 1, 2, 4),
                  (0, 2, 1, 3), (1, 2, 0, 3), (3, 1, 2, 0)]:
        with pytest.raises(Incompatible):
            reconstruct(top, bot, Perm(wrong))


def test_reconstruct_rejects_signed_points_sent_to_symmetric_points():
    # z2rel k = 3, s1 = 1, s2 = 2: the sign pair {0, 1} must go to itself,
    # not onto the S_s2 points {2, 3}, although they form a pair {2j, 2j+1}
    for P in enumerate_M(3, 1, 2, "plain"):
        for g in [(0, 1, 2, 3), (1, 0, 3, 2)]:
            assert propagating_data(reconstruct(P, P, Perm(g))).r == 4
        for wrong in [(2, 3, 0, 1), (3, 2, 1, 0), (2, 3, 1, 0)]:
            with pytest.raises(Incompatible):
                reconstruct(P, P, Perm(wrong))


def test_decompose_is_injective():
    seen = {}
    for d in basis("z2rel", 2):
        key = decompose(d)
        assert key not in seen
        seen[key] = d


def _halves_k1():
    split = canonicalize([[(TOP, 1, E)], [(TOP, 1, G)]], 1, 1)
    joined = canonicalize([[(TOP, 1, E), (TOP, 1, G)]], 1, 1)
    return split, joined


def test_phi_hand_examples():
    split, joined = _halves_k1()
    # no marks: phi always succeeds; l counts the join classes
    h_split = _half_diagram(split)
    h_joined = _half_diagram(joined)
    assert phi(h_split, h_split) == (2, (), Perm(()), Perm(()))
    assert phi(h_split, h_joined) == (1, (), Perm(()), Perm(()))
    assert phi(h_joined, h_joined) == (1, (), Perm(()), Perm(()))
    # one couple mark on each side: the marked blocks pair off, l = 0
    m = _half_diagram(split, e_marks=[(1,)])
    assert phi(m, m) == (0, (0,), Perm((0,)), Perm(()))
    z = _half_diagram(joined, z_marks=[(1,)])
    assert phi(z, z) == (0, (), Perm(()), Perm((0,)))
    # mismatched mark counts are a usage error, not a zero
    with pytest.raises(Incompatible):
        phi(m, z)


def test_phi_failure_two_marks_in_one_join_class():
    # k=2, both columns joined on the bottom half: the two marked couples
    # of the top half land in a single join class
    top_base = canonicalize([[(TOP, 1, E)], [(TOP, 1, G)],
                             [(TOP, 2, E)], [(TOP, 2, G)]], 2, 1)
    bot_base = canonicalize([[(TOP, 1, E), (TOP, 2, E)],
                             [(TOP, 1, G), (TOP, 2, G)]], 2, 1)
    bot = _half_diagram(bot_base, e_marks=[(1, 2)])
    top1 = _half_diagram(top_base, e_marks=[(1,)])
    assert phi(top1, bot) == (0, (0,), Perm((0,)), Perm(()))
    two_marked = _half_diagram(top_base, e_marks=[(1,), (2,)])
    assert phi(two_marked, two_marked) == (0, (0, 0), Perm((0, 1)),
                                           Perm(()))


def test_phi_none_when_marks_collide_or_miss():
    def zbase(*groups):
        blocks = [[(TOP, i, s) for i in grp for s in (E, G)]
                  for grp in groups]
        return canonicalize(blocks, 3, 1)

    # the bottom base merges the two marked classes of the top half
    top = _half_diagram(zbase((1,), (2,), (3,)), z_marks=[(1,), (2,)])
    bot = _half_diagram(zbase((1, 2), (3,)), z_marks=[(1, 2), (3,)])
    assert phi(top, bot) is None
    # disjoint marked supports: the join classes do not line up
    a = _half_diagram(zbase((1,), (2,), (3,)), z_marks=[(1,)])
    b = _half_diagram(zbase((1,), (2,), (3,)), z_marks=[(2,)])
    assert phi(a, b) is None
    assert phi(a, a) == (2, (), Perm(()), Perm((0,)))


def test_phi_element_values():
    split, joined = _halves_k1()
    m = _half_diagram(split, e_marks=[(1,)])
    assert phi(m, m) is not None
    h = _half_diagram(split)
    assert phi(h, h)[0] == 2

    def zbase(*groups):
        blocks = [[(TOP, i, s) for i in grp for s in (E, G)]
                  for grp in groups]
        return canonicalize(blocks, 3, 1)

    a = _half_diagram(zbase((1,), (2,), (3,)), z_marks=[(1,)])
    b = _half_diagram(zbase((1,), (2,), (3,)), z_marks=[(2,)])
    assert phi(a, b) is None


def _join(groups):
    """Union-find oracle: {vertex: root}, two vertices sharing a root
    exactly when a chain of the given groups links them.  Every vertex must
    lie in some group; a vertex may lie in several."""
    parent = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for group in groups:
        root = None
        for v in group:
            r = find(parent.setdefault(v, v))
            if root is None:
                root = r
            elif r != root:
                parent[r] = root
    return {v: find(v) for v in parent}


def _phi_by_join(top, bottom):
    """Oracle for ``phi``: the join of the two halves as a union-find on
    signed vertices (``_join``), marks owned by join class."""
    root = _join(top.base.blocks + bottom.base.blocks)
    marked = []
    for half in (top, bottom):
        owner = {}     # join class -> (kind, mark index, which block)
        for i, m in enumerate(half.e_marks):
            for tag, sign in (("e", E), ("g", G)):
                owner[root[(TOP, m[0], sign)]] = ("e", i, tag)
        for i, m in enumerate(half.z_marks):
            owner[root[(TOP, m[0], E)]] = ("z", i, None)
        if len(owner) != 2 * half.s1 + half.s2:
            return None
        marked.append(owner)
    top_marked, bot_marked = marked
    if set(top_marked) != set(bot_marked):
        return None
    s1, s2 = top.s1, top.s2
    images1 = [None] * s1
    signs = [0] * s1
    images2 = [None] * s2
    for cls, (kind, i, tag) in top_marked.items():
        bkind, j, btag = bot_marked[cls]
        if kind != bkind:
            return None
        if kind == "e":
            if tag == "e":
                images1[i] = j
                signs[i] = 1 if btag == "g" else 0
        else:
            images2[i] = j
    if None in images1 or None in images2:
        return None
    l = len(set(root.values()) - set(top_marked))
    return (l, tuple(signs), Perm(images1), Perm(images2))


def _phi_values(res):
    """phi's result with both Perms replaced by their image tuples."""
    if res is None:
        return None
    l, f, sigma1, sigma2 = res
    return (l, f, sigma1.images, sigma2.images)


def _half_sets(algebra, k):
    variant = variant_for(algebra)
    return [halves for s1, s2 in index_pairs(algebra, k)
            if (halves := enumerate_M(k, s1, s2, variant))]


def test_phi_equals_join_oracle_every_pair_k_le_3():
    pairs = 0
    for algebra in ALGEBRAS:
        for k in (1, 2, 3):
            for halves in _half_sets(algebra, k):
                for P in halves:
                    for Q in halves:
                        assert (_phi_values(phi(P, Q))
                                == _phi_values(_phi_by_join(P, Q))), (P, Q)
                        pairs += 1
    assert pairs == 7188


def test_phi_equals_join_oracle_sampled_signed_k4():
    rng = random.Random(4)
    sets = _half_sets("signed", 4)
    glued = 0
    for _ in range(3000):
        halves = rng.choice(sets)
        P, Q = rng.choice(halves), rng.choice(halves)
        res = phi(P, Q)
        assert _phi_values(res) == _phi_values(_phi_by_join(P, Q)), (P, Q)
        glued += res is not None
    assert 0 < glued < 3000


def test_mirrored_glue_is_phi_every_pair_k_le_3():
    # glue runs phi for j >= i only and mirrors (l, delta^-1) below the
    # diagonal; every entry, l and delta, is checked against its own phi
    pairs = 0
    for algebra in ALGEBRAS:
        for k in (1, 2, 3):
            cb = cellular_basis(algebra, k)
            for (s1, s2), layer in cb.layers.items():
                halves = cb.M[(s1, s2)]
                table = cb.glue(s1, s2)
                assert len(table) == len(halves)
                for P, row in zip(halves, table):
                    assert len(row) == len(halves)
                    for Q, pair in zip(halves, row):
                        res = phi(P, Q)
                        assert pair == (None if res is None else
                                        (res[0], layer.from_glue(*res[1:])))
                        pairs += 1
    assert pairs == 7188


def _glue_by_join(cb, s1, s2):
    """(pairs, mismatches) of the glue table of layer (s1, s2) against
    ``_phi_by_join`` and ``layer.from_glue``, entry by entry: an oracle
    that shares no join with ``CellularBasis.glue``."""
    layer = cb.layers[(s1, s2)]
    halves = cb.M[(s1, s2)]
    table = cb.glue(s1, s2)
    assert len(table) == len(halves)
    pairs, wrong = 0, []
    for P, row in zip(halves, table):
        assert len(row) == len(halves)
        for Q, pair in zip(halves, row):
            res = _phi_by_join(P, Q)
            if pair != (None if res is None else
                        (res[0], layer.from_glue(*res[1:]))):
                wrong.append((P, Q, pair))
            pairs += 1
    return pairs, wrong


def test_glue_equals_join_oracle_every_pair_k_le_3():
    pairs = 0
    for algebra in ALGEBRAS:
        for k in (1, 2, 3):
            cb = cellular_basis(algebra, k)
            for s1, s2 in cb.layers:
                n, wrong = _glue_by_join(cb, s1, s2)
                assert wrong == []
                pairs += n
    assert pairs == 7188


@pytest.mark.slow
@pytest.mark.parametrize("algebra, checked", [
    ("signed", 166772), ("z2rel", 179508), ("partition", 2656)])
def test_glue_equals_join_oracle_every_pair_k4(algebra, checked):
    # k = 4 one-row bases have up to eight blocks, two more than any base
    # of the k <= 3 tests
    cb = cellular_basis(algebra, 4)
    pairs = 0
    for s1, s2 in cb.layers:
        n, wrong = _glue_by_join(cb, s1, s2)
        assert wrong[:3] == []
        pairs += n
    assert pairs == checked


def test_index_pairs_and_order():
    assert index_pairs("partition", 2) == [(0, 0), (1, 0), (2, 0)]
    assert (0, 1) in index_pairs("z2rel", 2)
    assert (0, 1) in index_pairs("signed", 2)
    assert (0, 2) in index_pairs("z2rel", 2)
    assert (0, 2) not in index_pairs("signed", 2)
    assert index_lt((0, 0), (0, 1))
    assert index_lt((0, 1), (1, 0))          # r = 1 below r = 2
    assert index_lt((1, 0), (0, 2))          # equal r: fewer through classes
    assert not index_lt((0, 2), (1, 0))
    assert not index_lt((1, 0), (1, 0))


def test_gram_shape_hand_example():
    # k=1, no marks: entries x^l with l from phi; matches [[x^2, x], [x, x]]
    halves = enumerate_M(1, 0, 0, "plain")
    assert len(halves) == 2
    mat = [[phi(p, q)[0] for q in halves] for p in halves]
    assert sorted(sum(mat, [])) == [1, 1, 1, 2]


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_tabular_axiom_exhaustive_k1(algebra):
    report = verify_table_datum(algebra, 1)
    assert report["failures"] == []
    assert report["checked"] == dim_formula(algebra, 1) ** 2


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_tabular_axiom_sampled_k2(algebra):
    report = verify_table_datum(algebra, 2, samples=100, seed=7)
    assert report["failures"] == []
    assert report["checked"] == 100


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("k", [1, 2])
def test_cellular_basis_is_a_basis(algebra, k):
    cb = cellular_basis(algebra, k)   # constructor checks the census
    cells = cb.cells()
    assert len(cells) == dim_formula(algebra, k)
    support = set()
    for cell in cells:
        support.update(cb.element(*cell).terms)
    assert support == set(basis(algebra, k))
    # coordinates of a cellular element are a unit vector
    for i in range(0, len(cells), max(1, len(cells) // 10)):
        assert cb.coords(cb.element(*cells[i])) == {cells[i]: ONE}


@pytest.mark.parametrize("algebra,k", [(a, k) for a in ALGEBRAS
                                      for k in (1, 2)] + [("partition", 3)])
def test_coords_reassemble_every_diagram(algebra, k):
    cb = cellular_basis(algebra, k)
    for d in basis(algebra, k):
        elem = AlgebraElement.of(algebra, d)
        total = AlgebraElement.zero(algebra, k)
        for cell, c in cb.coords(elem).items():
            total = total + cb.element(*cell).scale(c)
        assert total == elem


def test_cell_congruence_exhaustive_k1():
    for algebra in ALGEBRAS:
        cb = cellular_basis(algebra, 1)
        for d in basis(algebra, 1):
            a = AlgebraElement.of(algebra, d)
            for label, left, right in cb.cells():
                coords = cb.coords(a * cb.element(label, left, right))
                for label2, _, right2 in coords:
                    if label2 == label:
                        assert right2 == right
                    else:
                        assert cb.label_lt(label2, label)


def test_element_rejects_unknown_names():
    cb = cellular_basis("z2rel", 1)
    label, left, right = cb.cells()[0]
    other_half = cb.M[(1, 0)][0]
    for name in [(CellLabel(5, 0, ()), left, right),
                 (label, left, (right[0], "no such tableau")),
                 (label, (other_half, left[1]), right)]:
        with pytest.raises(UnknownLabel):
            cb.element(*name)


def test_label_order_is_strict():
    cb = cellular_basis("z2rel", 1)
    labels = cb.labels()
    for a in labels:
        assert not cb.label_lt(a, a)
        for b in labels:
            if cb.label_lt(a, b):
                assert not cb.label_lt(b, a)


def test_half_diagram_json_roundtrip():
    for h in enumerate_M(2, 1, 0, "signed"):
        assert HalfDiagram.from_json(h.to_json()) == h


@pytest.mark.parametrize("k", [1, 2, 3])
def test_halves_are_one_object(k):
    halves = {}
    for algebra in ALGEBRAS:
        for s1, s2 in index_pairs(algebra, k):
            for h in enumerate_M(k, s1, s2, variant_for(algebra)):
                assert halves.setdefault(h, h) is h
                assert HalfDiagram.from_json(h.to_json()) is h
                assert _half_diagram(h.base, h.e_marks[::-1],
                                     h.z_marks[::-1]) is h
                assert h.mark_vertices() is h.mark_vertices()
        for d in basis(algebra, k):
            top, bot = decompose(d)[:2]
            assert halves[top] is top and halves[bot] is bot
            assert decompose(d)[:2] == (top, bot)
    # A bad mark raises on every attempt: the failed half is not stored.
    # A repeated mark is bad too: couple 1 twice on {1e | 1g | 2e | 2g}
    # was accepted as s1 = 2 with mark vertices (0, 1, 0, 1), and class 2
    # twice on {1e | 1g | 2e 2g} as a half that reconstruct glued into a
    # diagram with propagating data (0, 1), not the halves' (0, 2).
    split = canonicalize([[(TOP, 1, E)], [(TOP, 1, G)]], 1, 1)
    joined = canonicalize([[(TOP, 1, E), (TOP, 1, G)]], 1, 1)
    split2 = canonicalize([[(TOP, i, s)] for i in (1, 2) for s in (E, G)],
                          2, 1)
    joined2 = canonicalize([[(TOP, 1, E)], [(TOP, 1, G)],
                            [(TOP, 2, E), (TOP, 2, G)]], 2, 1)
    for base, e_marks, z_marks in ((split, (), [(1,)]),
                                   (joined, [(1,)], ()),
                                   (split2, [(1,), (1,)], ()),
                                   (split2, [(1,), (2,), (1,)], ()),
                                   (joined2, (), [(2,), (2,)]),
                                   (joined2, [(1,), (1,)], [(2,)])):
        bad = {"base": base.to_json(), "e_marks": [list(m) for m in e_marks],
               "z_marks": [list(m) for m in z_marks]}
        for _ in range(3):
            with pytest.raises(Incompatible):
                _half_diagram(base, e_marks, z_marks)
            with pytest.raises(Incompatible):
                HalfDiagram.from_json(bad)


@pytest.mark.parametrize("marks", [[[1.0]], [[True]]])
def test_half_json_rejects_non_integer_marks(marks):
    # 1.0 and True equal 1, so they would pass the mark check and be
    # stored under the key of the integer half
    split = canonicalize([[(TOP, 1, E)], [(TOP, 1, G)]], 1, 1)
    with pytest.raises(ValueError):
        HalfDiagram.from_json({"base": split.to_json(), "e_marks": marks,
                               "z_marks": []})
    assert _half_diagram(split, [(1,)]).mark_vertices() == (0, 1)


def test_enumerate_M_variants_nest():
    for (s1, s2) in [(0, 0), (1, 0), (0, 1), (2, 0)]:
        plain = set(enumerate_M(2, s1, s2, "plain"))
        assert set(enumerate_M(2, s1, s2, "signed")) <= plain
        if s2 == 0:
            assert set(enumerate_M(2, s1, s2, "partition")) <= plain


def test_cell_label_r():
    assert CellLabel(2, 1, ((), ())).r == 5


def test_value_records_compare_hash_and_print_by_fields():
    # as a frozen dataclass: equal within one class by fields, the hash of
    # the field tuple, Name(field=value, ...), and no assignment
    label = CellLabel(2, 1, ((), ()))
    assert label == CellLabel(2, 1, ((), ()))
    assert label != CellLabel(2, 0, ((), ())) and label != (2, 1, ((), ()))
    assert hash(label) == hash((2, 1, ((), ())))
    assert repr(label) == "CellLabel(s1=2, s2=1, glabel=((), ()))"
    assert PropagatingData(1, 1) != WreathSymLayer(1, 1)
    assert repr(PropagatingData(1, 0)) == "PropagatingData(s1=1, s2=0)"
    assert hash(SymLayer(2)) == hash((2,)) and SymLayer(2) == SymLayer(2)
    assert repr(SymLayer(2)) == "SymLayer(s1=2)"
    assert {WreathSymLayer(1, 1): 0}[WreathSymLayer(1, 1)] == 0
    module = cell_module(CellLabel(1, 0, (1,)), "partition", 1)
    assert module == cell_module(CellLabel(1, 0, (1,)), "partition", 1)
    assert repr(module).startswith("CellModule(algebra='partition', k=1, ")
    with pytest.raises(AttributeError):
        label.s1 = 3
    with pytest.raises(TypeError):
        CellLabel(2, 1)
    # a module's halves are interned and compare by identity: no deepcopy
    assert copy.copy(module) == module
    for value in (label, SymLayer(2), PropagatingData(1, 0)):
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
