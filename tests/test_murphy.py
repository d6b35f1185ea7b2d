"""Murphy-type cellular bases of the group layers."""

from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from zrelalg.groups import GAElement, Perm, signed_perms
from zrelalg.murphy import (SymLayer, WreathSymLayer, product_murphy,
                            sym_murphy, wreath_murphy)
from zrelalg.repn import gram
from zrelalg.ring import ONE, ExactMatrix, Poly
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
            assert c == (ONE if i == j else Poly())


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


@pytest.mark.parametrize("build, args", ORACLE_BASES,
                         ids=["%s(%s)" % (build.__name__,
                                          ",".join(map(str, args)))
                              for build, args in ORACLE_BASES])
def test_columns_are_dense_inverse(build, args):
    mb = build(*args)
    assert mb._columns == _dense_columns(mb)


def _check_cellularity(mb, group_elements):
    """Multiplying a basis element by a group element stays within the
    same label with the right tableau fixed, modulo strictly lower
    (more dominant) labels."""
    for g in group_elements:
        ga = GAElement.of(g)
        for rec in mb.records:
            coords = mb.coords(ga * rec.element)
            for c, rec2 in zip(coords, mb.records):
                if c.is_zero():
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
    assert mb.struct_const(label, t, t, Perm.identity(2)) == Poly.const(2)
    # sign label: m = identity alone, m * (12) * m hits the lower label
    # only, so the same-label coordinate is the coefficient of (12).
    (t1,) = mb.tableaux_for((1, 1))
    assert mb.struct_const((1, 1), t1, t1, Perm.identity(2)) == ONE


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


@pytest.mark.parametrize("algebra", ["z2rel", "signed", "partition"])
def test_gram_struct_consts_are_ints(algebra):
    """Every structure constant the k <= 3 Gram matrices read is whole and
    stored as an int, so their entries are integer polynomials."""
    for k in (1, 2, 3):
        for label in cellular_basis(algebra, k).labels():
            assert all(type(v) is int
                       for row in gram(label, algebra, k).entries
                       for e in row for v in e.coeffs.values())


def test_wreath_idempotent_layers():
    # top label ((1), ()): the element is the projector (1 + g)/2, which
    # squares to itself; struct const of the identity is 1.
    mb = wreath_murphy(1)
    for label in mb.labels():
        (t,) = mb.tableaux_for(label)
        assert mb.struct_const(label, t, t, Perm.identity(2)) == ONE
    # the sign swap acts by +1 on one label and -1 on the other
    g = Perm((1, 0))
    consts = sorted(mb.struct_const(label, mb.tableaux_for(label)[0],
                                    mb.tableaux_for(label)[0], g).const_value()
                    for label in mb.labels())
    assert consts == [-1, 1]


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
    a, b = GAElement.of(p), GAElement.of(q)
    lhs = mb.coords(a + b.scale(Fraction(3, 2)))
    ca, cb = mb.coords(a), mb.coords(b)
    for l, x, y in zip(lhs, ca, cb):
        assert l == x + y * Poly.const(Fraction(3, 2))
