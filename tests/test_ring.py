"""Exact polynomial and linear-algebra layer."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from zrelalg import ring
from zrelalg.ring import (ExactMatrix, ONE, Poly, PrimeField, QQ, Rationals,
                          ScalarField, ZERO, poly_matrix_from_csv)

fractions = st.fractions(min_value=-30, max_value=30, max_denominator=7)
polys = st.dictionaries(st.integers(0, 6), fractions, max_size=5).map(Poly)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(polys, polys)
def test_divmod_property(a, b):
    if b.is_zero():
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


@given(polys)
def test_json_and_str_roundtrip(p):
    assert Poly.from_json(p.to_json()) == p
    assert Poly.parse(str(p)) == p


@given(polys, polys, fractions)
def test_evaluation_is_a_homomorphism(a, b, x):
    sf = ScalarField.rationals(x)
    assert sf.eval_poly(a * b) == sf.eval_poly(a) * sf.eval_poly(b)
    assert sf.eval_poly(a + b) == sf.eval_poly(a) + sf.eval_poly(b)


def test_poly_display():
    p = Poly({0: Fraction(1), 2: Fraction(-3, 2)})
    assert str(p) == "-3/2*x^2 + 1"
    assert Poly.parse("x^3 - x^2") == Poly({3: 1, 2: -1})


def test_prime_field_validation():
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(9)
    # a Carmichael number, strong pseudoprimes to bases 2 and 2, 3, 5, 7, and
    # psi_12, a strong pseudoprime to every prime base 2..37
    for composite in (561, 2047, 3215031751, 318665857834031151167461):
        with pytest.raises(ValueError):
            PrimeField(composite)
    assert PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1
    # past the bound where Miller-Rabin on bases 2..41 is proven exact
    with pytest.raises(ValueError):
        PrimeField(10 ** 400 + 1)
    f = PrimeField(5)
    assert f.reduce(f(3) * f.inv(f(3))) == 1
    assert f(Fraction(1, 2)) == 3


def test_symbolic_rank_det_hand_example():
    # det [[x^2, x], [x, x]] = x^3 - x^2 by cofactor expansion
    m = ExactMatrix([[Poly.x(2), Poly.x()], [Poly.x(), Poly.x()]])
    rank, det = m.rank_det_symbolic()
    assert rank == 2
    assert det == Poly({3: 1, 2: -1})


@given(st.lists(st.lists(fractions, min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_symbolic_vs_field_rank(rows):
    m = ExactMatrix([[Poly.const(e) for e in row] for row in rows])
    rank_s, det_s = m.rank_det_symbolic()
    rank_f, det_f = m.evaluate(ScalarField.rationals(0)).rank_det_field(QQ)
    assert rank_s == rank_f
    assert det_s.const_value() == det_f


def matrices(entries, shapes):
    return st.sampled_from(shapes).flatmap(lambda shape: st.lists(
        st.lists(entries, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0]))


@given(matrices(fractions, [(3, 3), (3, 5), (5, 3)]))
def test_nullspace_annihilates(rows):
    m = ExactMatrix(rows)
    kernel = m.nullspace_field(QQ)
    for vec in kernel:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0
    rank, _ = m.rank_det_field(QQ)
    assert rank + len(kernel) == m.ncols


def test_inverse_rational():
    m = ExactMatrix([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]])
    inv = m.inverse_rational()
    prod = [[sum(m.entries[i][l] * inv.entries[l][j] for l in range(2))
             for j in range(2)] for i in range(2)]
    assert prod == [[1, 0], [0, 1]]
    with pytest.raises(ArithmeticError):
        ExactMatrix([[Fraction(1), Fraction(2)],
                     [Fraction(2), Fraction(4)]]).inverse_rational()
    with pytest.raises(ValueError):
        ExactMatrix([[Fraction(1), Fraction(2)]]).inverse_rational()


# Small entries, zero half the time, so that singular and rank-deficient
# matrices are common.
sparse_fractions = st.sampled_from(
    [0, 0, 0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]).map(Fraction)


@settings(deadline=None)
@given(matrices(sparse_fractions,
                [(r, c) for r in range(1, 5) for c in range(1, 5)]))
def test_field_elimination_against_sympy(rows):
    """rank, det, kernel and inverse over Q against sympy, which shares
    no code with the elimination here."""
    sympy = pytest.importorskip("sympy")

    def frac(x):
        return Fraction(int(x.p), int(x.q))

    m = ExactMatrix(rows)
    ref = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator)
                         for e in row] for row in rows])
    rank, det = m.rank_det_field(QQ)
    assert rank == ref.rank()
    assert m.nullspace_field(QQ) == [[frac(x) for x in v]
                                     for v in ref.nullspace()]
    if m.nrows != m.ncols:
        assert det is None
        return
    assert det == frac(ref.det())
    if det:
        assert m.inverse_rational().entries == [
            [frac(x) for x in ref.inv().row(i)] for i in range(m.nrows)]
    else:
        with pytest.raises(ArithmeticError):
            m.inverse_rational()


@settings(deadline=None)
@given(matrices(st.integers(0, 4),
                [(r, c) for r in range(1, 5) for c in range(1, 5)]))
def test_prime_field_elimination_against_sympy(rows):
    """rank, det and kernel over F_5 against sympy's GF(5) matrices; with
    entries this small, eliminated entries often cancel to 0 mod 5."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    f, gf = PrimeField(5), sympy.GF(5)
    m = ExactMatrix(rows)
    ref = DomainMatrix([[gf(e) for e in row] for row in rows],
                       (m.nrows, m.ncols), gf)
    rank, det = m.rank_det_field(f)
    assert rank == ref.rank()
    kernel = m.nullspace_field(f)
    assert len(kernel) == m.ncols - rank
    for vec in kernel:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) % 5 == 0
    if m.nrows == m.ncols:
        assert det == int(ref.det()) % 5
    else:
        assert det is None


def test_csv_roundtrip():
    m = ExactMatrix([[Poly.x(2), Poly.x()], [Poly.x(), Poly.const(1)]])
    assert poly_matrix_from_csv(m.to_csv()) == m


def test_rank_det_dispatcher():
    m = ExactMatrix([[Poly.const(1), Poly.const(0)],
                     [Poly.const(0), Poly.const(0)]])
    assert m.rank_det_symbolic() == (1, ZERO)


# Coefficients from small fractions up to 2^70, so that one prime below 2^60
# often cannot hold the determinant's coefficients.
big_coeffs = st.one_of(fractions, st.integers(-2 ** 70, 2 ** 70),
                       st.fractions(max_denominator=10 ** 6))
multi_term_polys = st.dictionaries(st.integers(0, 3), big_coeffs,
                                   max_size=3).map(Poly)


@st.composite
def poly_matrices(draw):
    """Square and non-square matrices of multi-term Polys, a fifth of the
    square ones made identically singular (last row = f * first row)."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if draw(st.integers(0, 2)) == 0:
        ncols = nrows
    rows = draw(matrices(multi_term_polys, [(nrows, ncols)]))
    if nrows == ncols and draw(st.integers(0, 4)) == 0:
        factor = draw(multi_term_polys)
        rows[-1] = [factor * e for e in rows[0]]
    return rows


@settings(deadline=None)
@given(poly_matrices())
@example([[Poly({0: -(2 ** 100 + 7), 2: Fraction(3, 5)})]])
@example([[Poly({1: Fraction(1, 3), 0: 2}), Poly({1: 4})],
          [Poly({1: 2, 0: 4}), Poly({2: 8})]])
@example([[Poly({2: 1}), Poly({1: 1})], [Poly({1: 1}), Poly({0: 1})]])
@example([[Poly({1: 1}), Poly({0: 2}), Poly()]])
def test_rank_det_symbolic_is_bareiss(rows):
    """The multimodular determinant equals Bareiss exactly, whole
    coefficients come back as ints, and singular or non-square input
    keeps Bareiss's rank."""
    m = ExactMatrix(rows)
    rank, det = m.rank_det_symbolic()
    expected = m._bareiss()
    assert (rank, det) == expected
    if det is not None:
        assert str(det) == str(expected[1])
        assert all(type(v) is int or v.denominator > 1
                   for v in det.coeffs.values())


def test_multimodular_det_at_its_bounds(monkeypatch):
    """A diagonal matrix meets both bounds: its degree is the degree bound
    and its coefficients nearly reach the coefficient bound, so one prime
    or one point fewer, or no symmetric lift, gives a wrong determinant."""
    primes = []

    def spy(i):
        primes.append(i)
        return crt_prime(i)

    crt_prime = ring._crt_prime
    monkeypatch.setattr(ring, "_crt_prime", spy)
    a = Poly({3: -(2 ** 70 + 1), 0: 5})
    b = Poly({2: -(2 ** 65 + 3), 1: Fraction(7, 2)})
    m = ExactMatrix([[a, ZERO], [ZERO, b]])
    assert m._det_multimodular() == a * b
    assert len(set(primes)) >= 2


def test_multimodular_det_at_the_hadamard_bound(monkeypatch):
    """60x times the Sylvester Hadamard matrix H_8 meets the Hadamard
    bound: |det| = 60^8 * 8^4 = H exactly, and it lies between p0/2 and
    p0 for the first CRT prime p0, so one prime cannot lift it."""
    primes = []

    def spy(i):
        primes.append(i)
        return crt_prime(i)

    crt_prime = ring._crt_prime
    p0 = crt_prime(0)
    assert p0 // 2 < 60 ** 8 * 8 ** 4 < p0
    monkeypatch.setattr(ring, "_crt_prime", spy)
    x60 = Poly({1: 60})
    h8 = [[x60 if bin(i & j).count("1") % 2 == 0 else -x60
            for j in range(8)] for i in range(8)]
    m = ExactMatrix(h8)
    det = m._det_multimodular()
    assert det == m._bareiss()[1]
    assert abs(det.coeffs[8]) == 60 ** 8 * 8 ** 4
    assert len(set(primes)) == 2
