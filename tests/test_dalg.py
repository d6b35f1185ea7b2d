"""The three diagram algebras: bases, dimensions, multiplication."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zrelalg.dalg import (ALGEBRAS, AlgebraElement, basis, dim_formula,
                          in_basis, star_diagram)
from zrelalg.errors import Incompatible, InvalidSize
from zrelalg.groups import signed_perms
from zrelalg.ring import Poly
from zrelalg.tabular import decompose, enumerate_M, layer_for, reconstruct
from zrelalg.zpart import (_row_counts, compose, enumerate_rk,
                           identity_diagram, is_sign_constant,
                           propagating_data)

DIMS = {
    "z2rel": {1: 7, 2: 164, 3: 6841},
    "signed": {1: 3, 2: 85, 3: 5055},
    "partition": {1: 2, 2: 15, 3: 203},   # Bell numbers B(2), B(4), B(6)
}


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_dimension_formula_anchors(algebra, k):
    assert dim_formula(algebra, k) == DIMS[algebra][k]


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("k", [1, 2])
def test_enumeration_matches_formula(algebra, k):
    assert len(basis(algebra, k)) == dim_formula(algebra, k)


@pytest.mark.slow
@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_enumeration_matches_formula_k3(algebra):
    assert len(basis(algebra, 3)) == dim_formula(algebra, 3)


def _is_sign_constant_by_blocks(blocks):
    """Oracle for ``zpart.is_sign_constant``: every block of vertex
    triples holds one sign only."""
    return all(len({v[2] for v in b}) == 1 for b in blocks)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_partition_basis_equals_filtered_oracle(k):
    assert basis("partition", k) == [d for d in enumerate_rk(k, 2)
                                     if _is_sign_constant_by_blocks(d.blocks)]
    for rows in (1, 2):
        for d in enumerate_rk(k, rows):
            assert is_sign_constant(d) == _is_sign_constant_by_blocks(
                d.blocks), d


def test_partition_basis_k4():
    diagrams = basis("partition", 4)
    assert len(diagrams) == 4140 == dim_formula("partition", 4)
    assert len(set(diagrams)) == 4140 and diagrams == sorted(diagrams)
    assert all(in_basis("partition", d) for d in diagrams)


def test_bases_nest():
    for k in (1, 2):
        z2 = set(basis("z2rel", k))
        assert set(basis("signed", k)) <= z2
        assert set(basis("partition", k)) <= z2


def test_in_basis_partition_oracle():
    for d in enumerate_rk(2, 2):
        expected = all(len({s for _, _, s in b}) == 1 for b in d.blocks)
        assert in_basis("partition", d) == expected


def test_in_basis_signed_oracle():
    # direct restatement of the membership condition from first principles
    for d in enumerate_rk(2, 2):
        pd = propagating_data(d)
        he_t, hz_t, he_b, hz_b = _row_counts(d)[2:]
        expected = (pd.s1 == d.k
                    or (pd.s1 <= d.k - 1 and pd.s2 <= d.k - 1
                        and pd.s1 + pd.s2 + he_t + hz_t <= d.k - 1
                        and pd.s1 + pd.s2 + he_b + hz_b <= d.k - 1))
        assert in_basis("signed", d) == expected


def test_in_basis_signed_is_admissible_halves():
    """A diagram is a signed basis diagram exactly when both of its
    halves are admissible signed halves."""
    for k in (1, 2, 3):
        admissible = {}
        for d in enumerate_rk(k, 2):
            top, bot = decompose(d)[:2]
            key = (top.s1, top.s2)
            if key not in admissible:
                admissible[key] = set(enumerate_M(k, *key, "signed"))
            assert in_basis("signed", d) == (top in admissible[key]
                                             and bot in admissible[key])


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_signed_and_partition_closed_under_multiplication(algebra):
    # every diagram of every product is checked to be in the basis: the
    # product itself skips in_basis, so this is the closure witness
    diagrams = basis(algebra, 2)
    for i, d1 in enumerate(diagrams):
        for d2 in diagrams[:: max(1, len(diagrams) // 40)]:
            p = AlgebraElement.of(algebra, d1) * AlgebraElement.of(algebra, d2)
            assert not p.is_zero()
            for d in p.terms:
                assert in_basis(algebra, d), (d1, d2, d)


def _elems(algebra, k):
    diagrams = basis(algebra, k)
    coeffs = st.integers(-3, 3)
    return st.dictionaries(st.sampled_from(diagrams), coeffs, max_size=3).map(
        lambda t: AlgebraElement(algebra, k,
                                 {d: Poly.const(c) for d, c in t.items()}))


@settings(max_examples=40)
@given(_elems("z2rel", 2), _elems("z2rel", 2), _elems("z2rel", 2))
def test_algebra_axioms_sampled(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    e = AlgebraElement.identity("z2rel", 2)
    assert a * e == e * a == a


@settings(max_examples=40)
@given(_elems("signed", 2), _elems("signed", 2))
def test_star_is_an_antiautomorphism(a, b):
    assert (a * b).star() == b.star() * a.star()
    assert a.star().star() == a


def test_star_diagram_involution():
    for d in basis("z2rel", 2):
        assert star_diagram(star_diagram(d)) == d


@given(_elems("partition", 2))
def test_element_json_roundtrip(a):
    assert AlgebraElement.from_json(a.to_json()) == a


def test_partition_parameter_is_x_squared():
    # the doubled copy of the ordinary partition algebra picks up the
    # parameter x^2: closing one unsigned middle class closes both of its
    # sign-constant doubles
    top_only = [d for d in basis("partition", 1)
                if propagating_data(d).r == 0]
    (e,) = top_only
    assert compose(e, e) == (e, 2)


def _top_cell(k):
    """The fully-propagating diagrams, their one pair of halves, and the
    top layer's bijection d -> group element read from decompose."""
    layer = layer_for("z2rel", k, 0)
    tc = [d for d in basis("z2rel", k) if propagating_data(d).s1 == k]
    (halves,) = {decompose(d)[:2] for d in tc}
    return layer, halves, {d: layer.from_points(decompose(d)[2]) for d in tc}


def test_top_cell_group_bijection():
    for k in (1, 2):
        layer, (P, Q), to_group = _top_cell(k)
        assert len(to_group) == 2 ** k * [1, 1, 2][k]
        seen = set()
        for d, w in to_group.items():
            assert reconstruct(P, Q, layer.to_points(w)) == d
            seen.add(w)
        assert seen == set(signed_perms(k))


def test_top_cell_bijection_is_multiplicative():
    _, _, to_group = _top_cell(2)
    for d1 in to_group:
        for d2 in to_group:
            d, loops = compose(d1, d2)
            assert loops == 0
            assert to_group[d] == to_group[d1] * to_group[d2]


def test_constructor_validation():
    with pytest.raises(Incompatible):
        AlgebraElement("nope", 1)
    with pytest.raises(InvalidSize):
        AlgebraElement("z2rel", 0)
    d = identity_diagram(2)
    with pytest.raises(Incompatible):
        AlgebraElement("z2rel", 1, {d: Poly.const(1)})
    bad = [d for d in basis("z2rel", 1) if not in_basis("partition", d)][0]
    with pytest.raises(Incompatible):
        AlgebraElement.of("partition", bad)


def test_scale_and_zero():
    a = AlgebraElement.identity("z2rel", 1)
    assert a.scale(Fraction(0)).is_zero()
    assert a.scale(2) + a.scale(-2) == AlgebraElement.zero("z2rel", 1)
