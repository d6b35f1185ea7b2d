"""Permutations, signed permutations, and group-algebra elements."""

from hypothesis import given, strategies as st

from zrelalg.groups import (GAElement, Perm, signed_perm, signed_perms,
                            split_signed)
from zrelalg.ring import Poly

perms3 = st.sampled_from(Perm.all(3))
signs3 = st.tuples(*[st.integers(0, 1)] * 3)
wreath2 = st.sampled_from(signed_perms(2))
prods = st.sampled_from(signed_perms(2, 1))


@given(perms3, perms3)
def test_left_to_right_composition(p, q):
    for i in range(3):
        assert (p * q)(i) == q(p(i))


@given(perms3, perms3, perms3)
def test_perm_group_axioms(p, q, r):
    e = Perm.identity(3)
    assert (p * q) * r == p * (q * r)
    assert p * e == e * p == p
    assert p * p.inv() == e
    assert p.inv().inv() == p


def _wreath_as_map(signs, sigma):
    """Independent model: a signed permutation acts on pairs (i, sign) by
    (i, s) -> (sigma(i), s xor f(i)), applied left first in products."""
    return {(i, s): (sigma(i), s ^ signs[i])
            for i in range(len(signs)) for s in (0, 1)}


@given(signs3, perms3, signs3, perms3)
def test_wreath_product_matches_action_model(f, s, f2, s2):
    fa, fb = _wreath_as_map(f, s), _wreath_as_map(f2, s2)
    composed = {x: fb[fa[x]] for x in fa}
    g = signed_perm(f, s) * signed_perm(f2, s2)
    assert _wreath_as_map(*split_signed(g, 3)[:2]) == composed
    # the encoding: point 2i + s is the pair (i, s)
    assert {(p // 2, p % 2): (q // 2, q % 2)
            for p, q in enumerate(g.images)} == composed


@given(signs3, perms3, signs3, perms3)
def test_signed_perm_keeps_the_wreath_product_rule(f, s, f2, s2):
    # (f, s) * (f', s') = (i -> f(i) xor f'(s(i)), s then s')
    product = tuple(f[i] ^ f2[s(i)] for i in range(3))
    assert signed_perm(f, s) * signed_perm(f2, s2) == signed_perm(product,
                                                                  s * s2)


@given(signs3, perms3, perms3)
def test_split_signed_inverts_signed_perm(f, sigma, rest):
    assert split_signed(signed_perm(f, sigma, rest), 3) == (f, sigma, rest)
    assert split_signed(signed_perm(f, sigma), 3) == (f, sigma, Perm(()))


def test_signed_perms_are_the_centralizer_of_the_sign_swaps():
    # oracle: Z2 wr S_n is the centralizer in S_2n of prod_i (2i 2i+1)
    for n in range(4):
        swaps = Perm([i ^ 1 for i in range(2 * n)])
        centralizer = {p for p in Perm.all(2 * n) if p * swaps == swaps * p}
        elements = signed_perms(n)
        assert len(elements) == len(set(elements))
        assert set(elements) == centralizer


@given(wreath2)
def test_wreath_inverse(a):
    e = Perm.identity(4)
    assert a * a.inv() == a.inv() * a == e


@given(prods, prods, prods)
def test_prod_group_axioms(a, b, c):
    e = Perm.identity(5)
    assert (a * b) * c == a * (b * c)
    assert a * e == a
    assert a * a.inv() == e
    assert a * b in set(signed_perms(2, 1))


coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=4)
ga_elts = st.dictionaries(perms3, coeffs, max_size=3).map(
    lambda d: GAElement({g: Poly.const(c) for g, c in d.items()}))


def _sum(a, b):
    """a + b as a term map, zeros dropped by the constructor."""
    terms = dict(a.terms)
    for g, c in b.terms.items():
        terms[g] = terms.get(g, 0) + c
    return GAElement(terms)


@given(ga_elts, ga_elts, ga_elts)
def test_group_algebra_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * _sum(b, c) == _sum(a * b, a * c)
    assert _sum(a, b) * c == _sum(a * c, b * c)


def test_of():
    g = Perm((1, 0, 2))
    assert GAElement.of(g, Poly.x()).terms == {g: Poly.x()}
    assert GAElement.of(g).terms == {g: 1}


def test_perm_constructors():
    assert len(set(Perm.all(4))) == 24
    assert len(set(signed_perms(2))) == 8
    assert len(set(signed_perms(2, 2))) == 16
