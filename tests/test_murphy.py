"""Murphy-type cellular bases of the group layers."""

import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from zrelalg.groups import GAElement, Perm, signed_perms
from zrelalg.murphy import (SymLayer, WreathSymLayer, product_murphy,
                            sym_murphy, wreath_murphy)
from zrelalg.repn import gram
from zrelalg.ring import ZERO, ExactMatrix
from zrelalg.tabular import cellular_basis, layer_for


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sym_basis_size(n):
    mb = sym_murphy(n)
    assert len(mb.records) == factorial(n)
    for label in mb.labels():
        tabs = mb.tableaux_for(label)
        count = sum(1 for rec in mb.records if rec.label == label)
        assert count == len(tabs) ** 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_wreath_basis_size(n):
    mb = wreath_murphy(n)
    assert len(mb.records) == 2 ** n * factorial(n)


def test_product_basis_size():
    assert len(product_murphy(1, 1).records) == 2
    assert len(product_murphy(2, 1).records) == 8
    assert len(product_murphy(1, 2).records) == 4


def _unit_vector_check(mb):
    for i, rec in enumerate(mb.records):
        coords = mb.coords(rec.element)
        for j, c in enumerate(coords):
            assert c == (1 if i == j else 0)


def test_coords_are_exact_inverse():
    _unit_vector_check(sym_murphy(3))
    _unit_vector_check(wreath_murphy(2))
    _unit_vector_check(wreath_murphy(3))
    _unit_vector_check(product_murphy(1, 1))
    _unit_vector_check(product_murphy(3, 0))


@pytest.mark.slow
def test_wreath_4_coords_are_exact_inverse():
    # a square basis: coords(record_i) = e_i for every i is the inverse
    _unit_vector_check(wreath_murphy(4))


def _dense_columns(mb):
    """Oracle: the whole change of basis inverted as one |G| x |G| matrix."""
    n = len(mb.records)
    index = {g: j for j, g in enumerate(mb.elements)}
    matrix = [[0] * n for _ in range(n)]
    for r, rec in enumerate(mb.records):
        for g, c in rec.element.terms.items():
            matrix[index[g]][r] = c
    inv = ExactMatrix(matrix).inverse_rational().entries
    return {g: {i: inv[i][j] for i in range(n) if inv[i][j]}
            for g, j in index.items()}


PRODUCT_SIZES = [(s1, s2) for s1 in range(4) for s2 in range(4 - s1)]
ORACLE_BASES = ([(wreath_murphy, (n,)) for n in (1, 2, 3)]
                + [(product_murphy, size) for size in PRODUCT_SIZES]
                + [(sym_murphy, (n,)) for n in (1, 2, 3, 4)])


SEEDED_BASES = [(wreath_murphy, (4,)), (product_murphy, (3, 1))]


def _ids(bases):
    return ["%s(%s)" % (build.__name__, ",".join(map(str, args)))
            for build, args in bases]


@pytest.mark.parametrize("build, args", ORACLE_BASES, ids=_ids(ORACLE_BASES))
def test_columns_are_dense_inverse(build, args):
    mb = build(*args)
    assert mb._columns == _dense_columns(mb)


def _struct_const_oracle(mb, label, s, t, delta):
    """Oracle: the m_{s,t} coordinate of m_{s,s} delta m_{t,t}, summed over
    all |m_ss| |m_tt| products of their terms, a whole value as an int."""
    ms = mb.records[mb.position[(label, s, s)]].element
    mt = mb.records[mb.position[(label, t, t)]].element
    i = mb.position[(label, s, t)]
    acc = 0
    for a, ca in ms.terms.items():
        ad = a * delta
        for b, cb in mt.terms.items():
            q = mb._columns[ad * b].get(i)
            if q:
                acc += ca * cb * q
    return acc.numerator if acc.denominator == 1 else acc


def _typed(x):
    return type(x), x


@pytest.mark.parametrize("build, args", ORACLE_BASES, ids=_ids(ORACLE_BASES))
def test_struct_const_equals_product_oracle(build, args):
    """Every (label, s, t, delta) of the layers used at k <= 3, as the
    cell form's double cosets give it, against the product loop."""
    mb = build(*args)
    for rec in mb.records:
        for delta in mb.elements:
            assert (_typed(mb.struct_const(rec.label, rec.s, rec.t, delta))
                    == _typed(_struct_const_oracle(mb, rec.label, rec.s,
                                                   rec.t, delta)))


@pytest.mark.parametrize("build, args", [
    pytest.param(wreath_murphy, (4,), marks=pytest.mark.slow),
    (product_murphy, (3, 1))], ids=_ids(SEEDED_BASES))
def test_struct_const_equals_product_oracle_seeded(build, args):
    mb = build(*args)
    rng = random.Random(20)
    for _ in range(2000):
        rec, delta = rng.choice(mb.records), rng.choice(mb.elements)
        assert (_typed(mb.struct_const(rec.label, rec.s, rec.t, delta))
                == _typed(_struct_const_oracle(mb, rec.label, rec.s, rec.t,
                                               delta)))


@pytest.mark.parametrize("build, args", ORACLE_BASES + SEEDED_BASES,
                         ids=_ids(ORACLE_BASES + SEEDED_BASES))
def test_cell_form_structure(build, args):
    """Each label's core c = m_{t0,t0} is kappa sum chi(x) x over a
    subgroup H, with chi a +/-1 character, and w_{t0} is the identity:
    what struct_const's formula assumes."""
    mb = build(*args)
    identity = Perm.identity(mb.elements[0].n)
    assert list(mb._words) == list(dict.fromkeys(r.label
                                                 for r in mb.records))
    for label, words in mb._words.items():
        assert list(words) == list(dict.fromkeys(
            r.s for r in mb.records if r.label == label))
        t0, w0 = next(iter(words.items()))
        assert w0 == identity
        core = mb.records[mb.position[(label, t0, t0)]].element
        unit = core.terms[identity]
        assert {abs(c) for c in core.terms.values()} == {abs(unit)}
        for x, cx in core.terms.items():
            for y, cy in core.terms.items():
                assert core.terms.get(x * y, 0) * unit == cx * cy


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sym_records_equal_row_stabilizer_oracle(n):
    """Oracle: m_{s,t} = d(s)^{-1} x_lambda d(t), with x_lambda the sum of
    the permutations that keep every row of the row-reading tableau of
    lambda, and d(s) sending each of its entries to the entry of s in the
    same cell."""
    mb = sym_murphy(n)
    for rec in mb.records:
        canon, pos = [], 0
        for width in rec.label:
            canon.append(range(pos, pos + width))
            pos += width
        row_of = {a: r for r, row in enumerate(canon) for a in row}
        x = GAElement({p: 1 for p in Perm.all(n)
                       if all(row_of[p(a)] == row_of[a] for a in range(n))})

        def d(tab):
            images = [None] * n
            for crow, trow in zip(canon, tab):
                for a, b in zip(crow, trow):
                    images[a] = b - 1
            return Perm(images)

        assert len(canon) == len(rec.s) == len(rec.t)
        assert rec.element == (GAElement.of(d(rec.s).inv()) * x
                               * GAElement.of(d(rec.t)))


def _tensor_record(s1, s2, i):
    """Oracle: record i = iw |S_s2| + is of product_murphy(s1, s2) as the
    tensor of wreath record iw and symmetric record is, term by term; a
    term concatenates the images, the second shifted past 2 s1 points."""
    srecs = sym_murphy(s2).records
    wrec = wreath_murphy(s1).records[i // len(srecs)]
    srec = srecs[i % len(srecs)]
    terms = {Perm(gw.images + tuple(2 * s1 + j for j in gs.images)): cw * cs
             for gw, cw in wrec.element.terms.items()
             for gs, cs in srec.element.terms.items()}
    return ((wrec.label, srec.label), (wrec.s, srec.s), (wrec.t, srec.t),
            GAElement(terms))


def _named(rec):
    return rec.label, rec.s, rec.t, rec.element


@pytest.mark.parametrize("s1, s2", PRODUCT_SIZES,
                         ids=["%d,%d" % size for size in PRODUCT_SIZES])
def test_product_records_equal_tensor_oracle(s1, s2):
    records = product_murphy(s1, s2).records
    assert ([_named(rec) for rec in records]
            == [_tensor_record(s1, s2, i) for i in range(len(records))])


def test_product_records_equal_tensor_oracle_seeded():
    records = product_murphy(3, 1).records
    rng = random.Random(22)
    for _ in range(2000):
        i = rng.randrange(len(records))
        assert _named(records[i]) == _tensor_record(3, 1, i)


@pytest.mark.parametrize("build, args", [(product_murphy, (3, 1)),
                                         (wreath_murphy, (3,))],
                         ids=["product_murphy(3,1)", "wreath_murphy(3)"])
def test_record_elements_are_built_on_first_read(build, args):
    mb = build.__wrapped__(*args)       # a fresh basis, not the cached one
    assert not any("element" in vars(rec) for rec in mb.records)
    rec = mb.records[-1]
    element = rec.element
    assert rec.element is element and vars(rec)["element"] is element
    assert sum("element" in vars(r) for r in mb.records) == 1


def _check_cellularity(mb, group_elements):
    """Multiplying a basis element by a group element stays within the
    same label with the right tableau fixed, modulo strictly lower
    (more dominant) labels."""
    for g in group_elements:
        ga = GAElement.of(g)
        for rec in mb.records:
            coords = mb.coords(ga * rec.element)
            for c, rec2 in zip(coords, mb.records):
                if not c:
                    continue
                if rec2.label == rec.label:
                    assert rec2.t == rec.t
                else:
                    assert mb.label_lt(rec2.label, rec.label)


def test_sym_murphy_is_cellular():
    _check_cellularity(sym_murphy(2), Perm.all(2))
    _check_cellularity(sym_murphy(3), Perm.all(3))


def test_wreath_murphy_is_cellular():
    _check_cellularity(wreath_murphy(1), signed_perms(1))
    _check_cellularity(wreath_murphy(2), signed_perms(2))


def test_product_murphy_is_cellular():
    _check_cellularity(product_murphy(1, 1), signed_perms(1, 1))
    _check_cellularity(product_murphy(2, 1), signed_perms(2, 1))


def test_struct_const_hand_example():
    # trivial label of S_2: m = 1 + (12), m*m = 2m, so the structure
    # constant of the identity is 2.
    mb = sym_murphy(2)
    label = (2,)
    (t,) = mb.tableaux_for(label)
    assert mb.struct_const(label, t, t, Perm.identity(2)) == 2
    # sign label: m = identity alone, m * (12) * m hits the lower label
    # only, so the same-label coordinate is the coefficient of (12).
    (t1,) = mb.tableaux_for((1, 1))
    assert mb.struct_const((1, 1), t1, t1, Perm.identity(2)) == 1


@pytest.mark.parametrize("mb", [sym_murphy(3), wreath_murphy(2),
                                product_murphy(2, 1), product_murphy(1, 2)])
def test_struct_const_is_one_coordinate(mb):
    # oracle: the (label, s, t) entry of the full coordinate vector
    checked = 0
    for label in mb.labels():
        tabs = mb.tableaux_for(label)
        for s in tabs:
            for t in tabs:
                ms = mb.records[mb.position[(label, s, s)]].element
                mt = mb.records[mb.position[(label, t, t)]].element
                for delta in mb.elements:
                    full = mb.coords(ms * GAElement.of(delta) * mt)
                    assert (mb.struct_const(label, s, t, delta)
                            == full[mb.position[(label, s, t)]])
                    checked += 1
    assert checked == len(mb.records) * len(mb.elements)


@pytest.mark.parametrize("build, args", ORACLE_BASES, ids=_ids(ORACLE_BASES))
def test_group_layer_is_numeric(build, args):
    """The layers used at k <= 3 give their coordinates of a group element
    and their structure constants as numbers, not as constant polynomials
    (whose str would read the same)."""
    mb = build(*args)
    for g in mb.elements:
        assert all(type(c) in (int, Fraction)
                   for c in mb.coords(GAElement.of(g)))
        assert all(type(mb.struct_const(rec.label, rec.s, rec.t, g))
                   in (int, Fraction) for rec in mb.records)


@pytest.mark.parametrize("algebra", ["z2rel", "signed", "partition"])
def test_gram_struct_consts_are_ints(algebra):
    """Every structure constant the k <= 3 Gram matrices read is whole and
    stored as an int, and each entry is the shared ZERO or one monomial
    x^l r with an int r."""
    for k in (1, 2, 3):
        for label in cellular_basis(algebra, k).labels():
            for row in gram(label, algebra, k).entries:
                for e in row:
                    assert e is ZERO or (
                        len(e.coeffs) == 1
                        and type(next(iter(e.coeffs.values()))) is int)


def test_wreath_idempotent_layers():
    # top label ((1), ()): the element is the projector (1 + g)/2, which
    # squares to itself; struct const of the identity is 1.
    mb = wreath_murphy(1)
    for label in mb.labels():
        (t,) = mb.tableaux_for(label)
        assert mb.struct_const(label, t, t, Perm.identity(2)) == 1
    # the sign swap acts by +1 on one label and -1 on the other
    g = Perm((1, 0))
    consts = [mb.struct_const(label, mb.tableaux_for(label)[0],
                              mb.tableaux_for(label)[0], g)
              for label in mb.labels()]
    assert all(type(c) is int for c in consts)
    assert sorted(consts) == [-1, 1]


def test_layer_objects():
    layer = WreathSymLayer(2, 1)
    g = layer.from_glue((1, 0), Perm((1, 0)), Perm((0,)))
    assert g == Perm((3, 2, 0, 1, 4))
    assert layer.to_glue(g) == ((1, 0), Perm((1, 0)), Perm((0,)))
    assert len(layer.murphy().records) == 8
    # one Murphy basis per group, shared by the z2rel and signed layers
    assert (layer_for("z2rel", 1, 1).murphy()
            is layer_for("signed", 1, 1).murphy())

    sym = SymLayer(2)
    assert len(sym.murphy().records) == 2
    p = sym.from_glue((0, 0), Perm((1, 0)), Perm(()))
    assert p == Perm((1, 0))
    assert sym.to_glue(p) == ((0, 0), Perm((1, 0)), Perm(()))
    with pytest.raises(ValueError):
        sym.from_glue((1, 0), Perm((1, 0)), Perm(()))
    # mark-point permutations: a wreath layer's elements are those
    # permutations, the S_s1 layer converts with trivial signs
    assert layer.from_points(g) is g and layer.to_points(g) is g
    assert sym.to_points(p) == Perm((2, 3, 0, 1))
    assert sym.from_points(Perm((2, 3, 0, 1))) == p
    for points in [Perm((3, 2, 0, 1)), Perm((2, 3, 0, 1, 4)), Perm((1, 0))]:
        with pytest.raises(ValueError):
            sym.from_points(points)


def test_from_glue_rejects_glue_of_wrong_size():
    layer = WreathSymLayer(1, 1)
    for glue in [((), Perm((0,)), Perm((0,))),
                 ((0, 0), Perm((0,)), Perm((0,))),
                 ((0,), Perm((0, 1)), Perm((0,))),
                 ((0,), Perm((0,)), Perm(())),
                 ((0,), Perm((0,)), Perm((1, 0)))]:
        with pytest.raises(ValueError):
            layer.from_glue(*glue)
    sym = SymLayer(2)
    for glue in [((0,), Perm((1, 0)), Perm(())),
                 ((0, 0, 0), Perm((1, 0)), Perm(())),
                 ((0, 0), Perm((0,)), Perm(()))]:
        with pytest.raises(ValueError):
            sym.from_glue(*glue)


def test_from_glue_rejects_glue_that_is_no_group_element():
    # signs outside {0, 1}
    with pytest.raises(ValueError):
        WreathSymLayer(2, 0).from_glue((2, 0), Perm((0, 1)), Perm(()))
    # sigma1 or sigma2 not a permutation
    for glue in [((0, 1), Perm((0, 0)), Perm(())),
                 ((0, 0), Perm((0, 0)), Perm((0,))),
                 ((0, 0), Perm((1, 0)), Perm((1,)))]:
        with pytest.raises(ValueError):
            WreathSymLayer(2, len(glue[2].images)).from_glue(*glue)
    with pytest.raises(ValueError):
        SymLayer(2).from_glue((0, 0), Perm((0, 0)), Perm(()))


@pytest.mark.parametrize("s1, s2", PRODUCT_SIZES,
                         ids=["%d,%d" % size for size in PRODUCT_SIZES])
def test_glue_round_trip(s1, s2):
    layer = WreathSymLayer(s1, s2)
    elements = product_murphy(s1, s2).elements
    glues = [layer.to_glue(g) for g in elements]
    assert glues == [(f, sigma, rest)
                     for f in product((0, 1), repeat=s1)
                     for sigma in Perm.all(s1) for rest in Perm.all(s2)]
    assert [layer.from_glue(*glue) for glue in glues] == elements


@given(st.sampled_from(Perm.all(3)), st.sampled_from(Perm.all(3)))
def test_coords_linear_in_products(p, q):
    mb = sym_murphy(3)
    terms = {p: 1}                      # a + (3/2) b, one term when p = q
    terms[q] = terms.get(q, 0) + Fraction(3, 2)
    lhs = mb.coords(GAElement(terms))
    ca, cb = mb.coords(GAElement.of(p)), mb.coords(GAElement.of(q))
    for l, x, y in zip(lhs, ca, cb):
        assert l == x + y * Fraction(3, 2)
