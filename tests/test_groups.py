"""Permutations, signed permutations, and group-algebra elements."""

from fractions import Fraction

from hypothesis import given, strategies as st

from zrelalg.groups import GAElement, Perm, ProdElt, WreathElt
from zrelalg.ring import Poly

perms3 = st.sampled_from(Perm.all(3))
wreath2 = st.sampled_from(WreathElt.all(2))
prods = st.sampled_from(ProdElt.all(2, 1))


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


def _wreath_as_map(w):
    """Independent model: a signed permutation acts on pairs (i, sign) by
    (i, s) -> (perm(i), s xor f(i)), applied left first in products."""
    return {(i, s): (w.perm(i), s ^ w.signs[i])
            for i in range(w.n) for s in (0, 1)}


@given(wreath2, wreath2)
def test_wreath_product_matches_action_model(a, b):
    fa, fb = _wreath_as_map(a), _wreath_as_map(b)
    composed = {x: fb[fa[x]] for x in fa}
    assert _wreath_as_map(a * b) == composed


@given(wreath2)
def test_wreath_inverse(a):
    e = WreathElt.identity(2)
    assert a * a.inv() == a.inv() * a == e


@given(prods, prods, prods)
def test_prod_group_axioms(a, b, c):
    e = ProdElt.identity(2, 1)
    assert (a * b) * c == a * (b * c)
    assert a * e == a
    assert a * a.inv() == e


coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=4)
ga_elts = st.dictionaries(perms3, coeffs, max_size=3).map(
    lambda d: GAElement({g: Poly.const(c) for g, c in d.items()}))


@given(ga_elts, ga_elts, ga_elts)
def test_group_algebra_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()


@given(ga_elts, ga_elts)
def test_star_is_an_antihomomorphism(a, b):
    assert (a * b).star() == b.star() * a.star()
    assert a.star().star() == a


def test_scale_and_of():
    g = Perm((1, 0, 2))
    a = GAElement.of(g, Poly.x())
    assert a.scale(Fraction(1, 2)).terms[g] == Poly({1: Fraction(1, 2)})
    assert GAElement.zero().is_zero()


def test_perm_constructors():
    assert len(set(Perm.all(4))) == 24
    assert len(set(WreathElt.all(2))) == 8
    assert len(set(ProdElt.all(2, 2))) == 16
