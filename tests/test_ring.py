"""Exact polynomial and linear-algebra layer."""

import json
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from zrelalg import ring
from zrelalg.ring import (ExactMatrix, ONE, Poly, PrimeField, QQ, Rationals,
                          ScalarField, ZERO)

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
    assert det_s.degree <= 0 and det_s.coeffs.get(0, 0) == det_f


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
    # each CSV line is a row of JSON strings, one Poly per cell
    m = ExactMatrix([[Poly.x(2), Poly.x()], [Poly.x(), Poly.const(1)]])
    assert ExactMatrix([[Poly.parse(c) for c in json.loads("[%s]" % line)]
                        for line in m.to_csv().splitlines()]) == m


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
    p0 = crt_prime(0).p
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


def test_min_assignment_is_the_least_permutation_sum():
    """The Hungarian method against every permutation, on seeded matrices
    with forbidden (None) entries, including ones no permutation avoids."""
    rng = random.Random(15)
    infeasible = 0
    for _ in range(400):
        n = rng.randint(0, 6)
        holes = rng.random()
        cost = [[None if rng.random() < holes else rng.randint(-4, 9)
                 for _ in range(n)] for _ in range(n)]
        sums = [sum(cost[i][j] for i, j in enumerate(perm))
                for perm in permutations(range(n))
                if all(cost[i][j] is not None for i, j in enumerate(perm))]
        expected = min(sums) if sums else None
        infeasible += expected is None
        assert ring._min_assignment(cost) == expected
    assert infeasible > 20
    assert ring._min_assignment([]) == 0


def test_interpolate_from_one():
    """Values at x = 1..5 give back the coefficients of a known quartic."""
    p = ring._crt_prime(0).p
    coeffs = [7, p - 3, 0, 11, 2]
    values = [sum(c * x ** d for d, c in enumerate(coeffs)) % p
              for x in range(1, 6)]
    assert ring._interpolate(values, p) == coeffs
    assert ring._interpolate([5], p) == [5]


@st.composite
def high_valuation_matrices(draw):
    """Square Poly matrices with row i times x^a_i and column j times
    x^b_j, so that the determinant's x-adic valuation is high and often
    above the least-degree assignment bound."""
    n = draw(st.integers(1, 4))
    rows = draw(matrices(multi_term_polys, [(n, n)]))
    a = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return [[e * Poly.x(a[i] + b[j]) for j, e in enumerate(row)]
            for i, row in enumerate(rows)]


@settings(deadline=None)
@given(high_valuation_matrices())
@example([[Poly({2: 1, 3: 1}), Poly({2: 1})], [Poly({2: 1}), Poly({2: 1})]])
def test_multimodular_det_of_high_valuation_is_bareiss(rows):
    m = ExactMatrix(rows)
    det = m._det_multimodular()
    assert det == m._bareiss()[1]


def _spy(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call's arguments."""
    calls = []
    real = getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.parametrize("field", [PrimeField(3), QQ], ids=["F3", "Q"])
@pytest.mark.parametrize("rows, block, rank, det", [
    ([[0, 1], [1, 0]], 2, 2, -1),                    # zero first pivot
    ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], 2, 3, -1),   # zero pivot midway
    ([[1, 1], [1, 1]], 1, 1, 0),                     # zero last pivot
    ([[1, 1], [1, 2]], None, 2, 1),                  # no zero pivot
], ids=["first", "midway", "last", "none"])
def test_symmetric_elimination_falls_back_at_a_zero_pivot(
        monkeypatch, field, rows, block, rank, det):
    """The upper-triangle path hands the trailing block at the first zero
    pivot to _echelon, and agrees with _echelon on the whole matrix."""
    m = ExactMatrix([[field(e) for e in row] for row in rows])
    _, pivots, expected = m._echelon(field)
    echelons = _spy(monkeypatch, ExactMatrix, "_echelon")
    assert m.rank_det_field(field) == (len(pivots), expected)
    assert (len(pivots), expected) == (rank, field(det))
    assert [call[0].nrows for call in echelons] == ([block] if block else [])


@st.composite
def symmetric_matrices(draw, entries, max_size=6):
    n = draw(st.integers(0, max_size))
    upper = [draw(st.lists(entries, min_size=n - i, max_size=n - i))
             for i in range(n)]
    return [[upper[min(i, j)][abs(j - i)] for j in range(n)]
            for i in range(n)]


@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(5), QQ],
                         ids=["F3", "F5", "Q"])
@settings(deadline=None)
@given(rows=symmetric_matrices(sparse_fractions))
def test_symmetric_elimination_is_echelon(field, rows):
    """Rank and determinant of random symmetric matrices, zero pivots
    common, from the upper triangle equal _echelon's on the whole."""
    m = ExactMatrix([[field(e) for e in row] for row in rows])
    _, pivots, det = m._echelon(field)
    upper = [row[i:] for i, row in enumerate(m.entries)]
    assert ring._rank_det_upper(upper, field) == (len(pivots), det)
    assert m.rank_det_field(field) == (len(pivots), det)


@st.composite
def symmetric_poly_matrices(draw):
    """Symmetric matrices of integer Polys, a fifth made singular by
    repeating the first row and column last."""
    coeffs = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))
    entries = st.dictionaries(st.integers(0, 3), coeffs, max_size=3).map(Poly)
    rows = draw(symmetric_matrices(entries, max_size=5).filter(bool))
    n = len(rows)
    if n > 1 and draw(st.integers(0, 4)) == 0:
        rows[-1] = list(rows[0])
        for row in rows:
            row[-1] = row[0]
    return rows


@settings(deadline=None)
@given(symmetric_poly_matrices())
@example([[Poly(), Poly({0: 1})], [Poly({0: 1}), Poly()]])
@example([[Poly({1: 1}), Poly({1: 1})], [Poly({1: 1}), Poly({1: 1, 0: 1})]])
def test_symmetric_multimodular_det_is_bareiss(rows):
    """The upper-triangle path of _det_multimodular (zero pivots at a
    point included) equals Bareiss."""
    m = ExactMatrix(rows)
    assert m.rank_det_symbolic() == m._bareiss()


def test_multimodular_det_takes_the_general_path_on_unequal_denominators(
        monkeypatch):
    # Row scaling turns [[1/2, x], [x, 3]] into the integer rows [1, 2x],
    # [x, 3], which are not symmetric; [[1/2, x/2], [x/2, 3/2]] scales by
    # 2 in both rows into the symmetric [1, x], [x, 3].
    upper_calls = _spy(monkeypatch, ring, "_rank_det_upper")
    m = ExactMatrix([[Poly({0: Fraction(1, 2)}), Poly({1: 1})],
                     [Poly({1: 1}), Poly({0: 3})]])
    assert m._det_multimodular() == m._bareiss()[1] == Poly(
        {0: Fraction(3, 2), 2: -1})
    assert upper_calls == []
    m = ExactMatrix([[Poly({0: Fraction(1, 2)}), Poly({1: Fraction(1, 2)})],
                     [Poly({1: Fraction(1, 2)}), Poly({0: Fraction(3, 2)})]])
    assert m._det_multimodular() == m._bareiss()[1] == Poly(
        {0: Fraction(3, 4), 2: Fraction(-1, 4)})
    assert upper_calls
