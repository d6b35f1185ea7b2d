"""Cell modules, Gram matrices, radicals, irreducibles."""

import ast
import math
import random
from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb, factorial, prod
from pathlib import Path

import pytest

from zrelalg import repn
from zrelalg.cli import format_label
from zrelalg.dalg import ALGEBRAS, AlgebraElement, basis, dim_formula
from zrelalg.errors import (Incompatible, InvalidPoint, UnknownLabel,
                            UnsupportedCharacteristic)
from zrelalg.murphy import MurphyBasis
from zrelalg.repn import (action_matrix, cell_module, gram, gram_bruteforce,
                          gram_bruteforce_entry, irreducible_table,
                          is_p_restricted, label_p_restricted,
                          radical_and_irreducible)
from zrelalg.ring import (ZERO, ExactMatrix, Poly, PrimeField, Rationals,
                          ScalarField)
from zrelalg.tabular import CellLabel, cellular_basis, phi
from zrelalg.zpart import compose


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_gram_matches_bruteforce_oracle_k1(algebra):
    cb = cellular_basis(algebra, 1)
    for label in cb.labels():
        assert gram(label, algebra, 1).entries == \
            gram_bruteforce(label, algebra, 1).entries


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_gram_is_symmetric(algebra):
    cb = cellular_basis(algebra, 2)
    for label in cb.labels():
        g = gram(label, algebra, 2)
        assert g.entries == [list(col) for col in zip(*g.entries)]


def _gram_per_entry(cb, label):
    """The Gram matrix entry by entry, each from its own phi and from_glue:
    no glue table and no mirroring."""
    layer = cb.layers[(label.s1, label.s2)]
    murphy = layer.murphy()
    left = cb.left_data(label)
    rows = []
    for P, s in left:
        row = []
        for Q, t in left:
            glued = phi(P, Q)
            row.append(ZERO if glued is None else
                       murphy.struct_const(label.glabel, s, t,
                                           layer.from_glue(*glued[1:]))
                       * Poly.x(glued[0]))
        rows.append(row)
    return rows


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_gram_is_the_unmirrored_assembly(algebra, k):
    # gram fills its upper triangle and mirrors it; the full per-entry
    # assembly is symmetric on its own (the cell form is) and equal to it
    cb = cellular_basis(algebra, k)
    entries = 0
    for label in cb.labels():
        full = _gram_per_entry(cb, label)
        assert full == [list(col) for col in zip(*full)]
        assert gram(label, algebra, k).entries == full
        entries += len(full) ** 2
    assert entries == dim_formula(algebra, k)


# Points of the field assembly test: p = 3, 5, 7 and 2^31 - 1, and three
# rationals; x = 0 checks that x0^0 = 1 while every higher power is 0.
FIELD_POINTS = ([ScalarField.prime(p, x)
                 for p, x in ((3, 2), (5, 3), (7, 4), (2 ** 31 - 1, 12345))]
                + [ScalarField.rationals(x) for x in (0, 1, Fraction(-3, 2))])


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_gram_over_a_field_is_the_evaluated_gram(algebra, k):
    # entry by entry, equal and of the same type (0 as int, a nonzero QQ
    # value or a QQ zero from x0 = 0 as Fraction, F_p values as int)
    for label in cellular_basis(algebra, k).labels():
        symbolic = gram(label, algebra, k)
        for sf in FIELD_POINTS:
            want = symbolic.evaluate(sf).entries
            got = gram(label, algebra, k, sf).entries
            assert [[(type(e), e) for e in row] for row in got] == \
                [[(type(e), e) for e in row] for row in want]


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("field", [(), (FIELD_POINTS[0],)], ids=["Zx", "F3"])
def test_gram_calls_struct_const_once_per_glue_pair_and_tableau_pair(
        algebra, field, monkeypatch):
    # a spy on struct_const: within a tableau pair a <= b, entries sharing
    # a glue tuple (l, delta) share one value, so the upper triangle of
    # that block asks for it once
    calls = []
    struct_const = MurphyBasis.struct_const

    def spy(self, glabel, s, t, delta):
        calls.append(1)
        return struct_const(self, glabel, s, t, delta)

    monkeypatch.setattr(MurphyBasis, "struct_const", spy)
    cb = cellular_basis(algebra, 2)
    repeats = 0
    for label in cb.labels():
        tableaux = cb.tableaux(label)
        table = cb.glue(label.s1, label.s2)
        entries = bound = 0
        for a in range(len(tableaux)):
            for b in range(a, len(tableaux)):
                pairs = [pair for i, row in enumerate(table)
                         for pair in row[i if a == b else 0:]
                         if pair is not None]
                bound += len({id(pair) for pair in pairs})
                entries += len(pairs)
        del calls[:]
        gram(label, algebra, 2, *field)
        assert len(calls) <= bound, label
        repeats += entries - bound
    assert repeats > 0      # some block repeats a glue tuple


def test_repn_never_evaluates_a_matrix():
    # point tables assemble over the field: no Poly matrix to evaluate
    tree = ast.parse(Path(repn.__file__).read_text())
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr == "evaluate"]


def test_gram_hand_example():
    # lowest z2rel cell at k=1: two halves, trivial group layer
    label = CellLabel(0, 0, (((), ()), ()))
    g = gram(label, "z2rel", 1)
    assert g.entries == [[Poly.x(2), Poly.x()], [Poly.x(), Poly.x()]]
    rank, det = gram(label, "z2rel", 1).rank_det_symbolic()
    assert rank == 2
    assert det == Poly.parse("x^3 - x^2")


@pytest.mark.parametrize("algebra,k,expect", [
    ("z2rel", 1, [2, 1, 1, 1]), ("signed", 1, [1, 1, 1]),
    ("partition", 1, [1, 1]),
])
def test_cell_module_dimensions_k1(algebra, k, expect):
    cb = cellular_basis(algebra, k)
    dims = sorted((cell_module(l, algebra, k).dim for l in cb.labels()),
                  reverse=True)
    assert dims == expect
    assert sum(d * d for d in dims) == dim_formula(algebra, k)


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("k", [1, 2])
def test_generically_semisimple(algebra, k):
    """Over the rational function field every Gram determinant is nonzero
    and the squared cell dimensions sum to the algebra dimension."""
    cb = cellular_basis(algebra, k)
    total = 0
    for label in cb.labels():
        rank, det = gram(label, algebra, k).rank_det_symbolic()
        dim = cell_module(label, algebra, k).dim
        assert not det.is_zero()
        assert rank == dim
        total += dim * dim
    assert total == dim_formula(algebra, k)


def test_degeneration_ranks():
    label = CellLabel(0, 0, (((), ()), ()))
    for x, expect_rank in [(2, 2), (1, 1), (0, 0)]:
        rad, irr = radical_and_irreducible(label, "z2rel", 1,
                                           ScalarField.rationals(x))
        assert (rad, irr) == (2 - expect_rank, expect_rank)


def test_radical_is_action_invariant_at_x_1():
    """The Gram kernel at x=1 is a submodule: every algebra generator maps
    it back into the kernel."""
    label = CellLabel(0, 0, (((), ()), ()))
    sf = ScalarField.rationals(1)
    g = gram(label, "z2rel", 1).evaluate(sf)
    kernel = g.nullspace_field(Rationals())
    assert len(kernel) == 1
    module = cell_module(label, "z2rel", 1)
    for d in basis("z2rel", 1):
        m = action_matrix(AlgebraElement.of("z2rel", d), module).evaluate(sf)
        for vec in kernel:
            image = [sum(m.entries[i][j] * vec[j] for j in range(len(vec)))
                     for i in range(len(vec))]
            for grow in g.entries:
                assert sum(a * b for a, b in zip(grow, image)) == 0


def _matmul(a, b):
    """Entries of the product of two ExactMatrix objects."""
    return [[sum((x * y for x, y in zip(row, col)), Poly())
             for col in zip(*b.entries)] for row in a.entries]


def test_action_matrix_is_a_homomorphism():
    module = cell_module(CellLabel(0, 0, (((), ()), ())), "z2rel", 2)
    ds = basis("z2rel", 2)
    picks = [(ds[3], ds[17]), (ds[40], ds[99]), (ds[7], ds[7])]
    for d1, d2 in picks:
        a1 = AlgebraElement.of("z2rel", d1)
        a2 = AlgebraElement.of("z2rel", d2)
        lhs = action_matrix(a1 * a2, module)
        rhs = _matmul(action_matrix(a1, module), action_matrix(a2, module))
        assert lhs.entries == rhs


def test_action_matrix_identity():
    module = cell_module(CellLabel(1, 0, (((1,), ()), ())), "z2rel", 1)
    m = action_matrix(AlgebraElement.identity("z2rel", 1), module)
    assert m.entries == ExactMatrix.identity(module.dim).entries


def test_action_matrix_rejects_mismatch():
    module = cell_module(CellLabel(0, 0, (((), ()), ())), "z2rel", 1)
    with pytest.raises(Incompatible):
        action_matrix(AlgebraElement.identity("z2rel", 2), module)


def test_cell_module_unknown_label():
    # no such layer, and a layer without such a group label
    for label in (CellLabel(5, 0, (((5,), ()), ())),
                  CellLabel(1, 0, (((2,), ()), ()))):
        with pytest.raises(UnknownLabel):
            cell_module(label, "z2rel", 1)
        with pytest.raises(UnknownLabel):
            gram(label, "z2rel", 1)


def test_characteristic_two_rejected():
    with pytest.raises(ValueError):
        PrimeField(2)
    # an even-characteristic-like scalar field cannot even be built from
    # PrimeField; the guard in radical_and_irreducible is belt and braces


def test_p_restricted():
    assert is_p_restricted((2,), 3)
    assert not is_p_restricted((2,), 2)
    assert is_p_restricted((1, 1), 2)
    assert is_p_restricted((3, 1), 3)
    assert not is_p_restricted((4, 1), 3)
    assert is_p_restricted((), 2)
    assert label_p_restricted(CellLabel(1, 0, (((1,), ()), ())), 2)
    assert not label_p_restricted(CellLabel(0, 0, (2,)), 2)


def test_irreducible_table_symbolic():
    rows = irreducible_table("z2rel", 1)
    assert len(rows) == 4
    assert all(r["dim_D"] == r["dim_W"] for r in rows)
    assert all(r["nonzero"] for r in rows)
    assert sum(r["dim_W"] ** 2 for r in rows) == 7
    dets = [r["det"] for r in rows]
    assert Poly.parse("x^3 - x^2") in dets


@pytest.mark.parametrize("k", [2, 3])
def test_partition_degenerates_only_at_small_delta(k):
    """P_k(delta) is semisimple iff delta is not in {0, ..., 2k-2}
    (Halverson-Ram 2005).  Here delta = x^2, so the product of the Gram
    determinants is c x^a prod_{j=1}^{2k-2} (x^2 - j)^{m_j}, with c a
    nonzero constant and every exponent at least one."""
    rest = Poly.const(1)
    for row in irreducible_table("partition", k):
        rest = rest * row["det"]
    assert not rest.is_zero()
    factors = [Poly.x()] + [Poly({2: 1, 0: -j}) for j in range(1, 2 * k - 1)]
    for factor in factors:
        exponent = 0
        quotient, remainder = rest.divmod(factor)
        while remainder.is_zero():
            rest, exponent = quotient, exponent + 1
            quotient, remainder = rest.divmod(factor)
        assert exponent >= 1, factor
    assert rest.degree <= 0


def _partitions(n, most=None):
    """The partitions of n with parts at most ``most``, largest part first."""
    if n == 0:
        yield ()
    for first in range(min(n, n if most is None else most), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@cache
def _character(shape, cycles):
    """chi^shape at cycle type ``cycles`` by Murnaghan-Nakayama: remove a
    border strip of length cycles[0], i.e. lower one beta number by it,
    with sign (-1)^height."""
    if not cycles:
        return 1
    m, r = len(shape), cycles[0]
    beta = [p + m - 1 - i for i, p in enumerate(shape)]
    total = 0
    for b in beta:
        if b - r >= 0 and b - r not in beta:
            new = sorted([c for c in beta if c != b] + [b - r], reverse=True)
            smaller = tuple(c - (m - 1 - i) for i, c in enumerate(new))
            total += ((-1) ** sum(b - r < c < b for c in beta)
                      * _character(tuple(p for p in smaller if p), cycles[1:]))
    return total


def _tensor_multiplicity(shape, k):
    """The multiplicity of the S_n-irreducible ``shape`` in (C^n)^{(x)k}:
    (1/n!) sum over cycle types rho of (n!/z_rho) chi(rho) fix(rho)^k."""
    total = Fraction(0)
    for rho in _partitions(sum(shape)):
        z = prod(i ** m * factorial(m) for i, m in Counter(rho).items())
        total += Fraction(_character(shape, rho) * rho.count(1) ** k, z)
    return total


@pytest.mark.parametrize("k, x0", [(k, x0) for k in (1, 2, 3)
                                   for x0 in (1, -1, 2, -2, 3, -3)]
                         + [(4, 1), (4, 2)])
def test_partition_dims_match_schur_weyl(k, x0):
    """Schur-Weyl duality: with n = x0^2 (loops count x^2), P_k(n) acts on
    (C^n)^{(x)k} through its centraliser of S_n, and dim D^mu is the
    multiplicity of the S_n-irreducible (n - |mu|, mu) there (Halverson-Ram
    2005).  A row whose (n - |mu|, mu) is no partition has no
    S_n-irreducible to compare with, and is skipped.  At n >= 2k the
    algebra is semisimple, so also dim D = dim W."""
    n = x0 * x0
    checked = 0
    for row in irreducible_table("partition", k, 0, x0):
        mu = row["label"].glabel
        if mu and n - sum(mu) < mu[0]:
            continue
        assert row["dim_D"] == _tensor_multiplicity((n - sum(mu),) + mu,
                                                    k), row
        if n >= 2 * k:
            assert row["dim_D"] == row["dim_W"], row
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("algebra, k",
                         [(a, k) for a in ALGEBRAS for k in (1, 2)]
                         + [("partition", 3)])
def test_field_det_is_bareiss_det_at_points(algebra, k):
    """The Gram determinant from elimination at a point (x = 0, 1, 2 over
    Q, x = 12345 mod 2^31 - 1) is the symbolic determinant evaluated there,
    and the rank is full exactly when it is nonzero."""
    points = ([ScalarField.rationals(x) for x in (0, 1, 2)]
              + [ScalarField.prime(2 ** 31 - 1, 12345)])
    for label in cellular_basis(algebra, k).labels():
        g = gram(label, algebra, k)
        _, det = g.rank_det_symbolic()
        for sf in points:
            rank, value = g.evaluate(sf).rank_det_field(sf.field)
            assert value == sf.eval_poly(det)
            assert (rank == g.nrows) == (value != 0)


@pytest.mark.slow
def test_k3_symbolic_det_is_bareiss():
    """Every z2rel and signed k = 3 Gram determinant with at most 28 rows
    is identical to the Bareiss determinant (about 8 s)."""
    for algebra in ("z2rel", "signed"):
        for label in cellular_basis(algebra, 3).labels():
            g = gram(label, algebra, 3)
            if g.nrows > 28:
                continue
            rank, det = g.rank_det_symbolic()
            expected = g._bareiss()
            assert (rank, det) == expected
            assert str(det) == str(expected[1])


@pytest.mark.slow
@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_k3_symbolic_det_at_points_mod_p(algebra):
    """Every k = 3 Gram determinant (n up to 37) is nonzero and agrees with
    elimination mod 2^31 - 1 at three points; the determinant's own primes
    lie just below 2^60, so this check shares no modulus with it."""
    points = [ScalarField.prime(2 ** 31 - 1, x) for x in (3, 12345, 2 ** 30)]
    for label in cellular_basis(algebra, 3).labels():
        g = gram(label, algebra, 3)
        rank, det = g.rank_det_symbolic()
        assert rank == g.nrows
        for sf in points:
            _, value = g.evaluate(sf).rank_det_field(sf.field)
            assert value == sf.eval_poly(det)


def test_irreducible_table_modular():
    rows = irreducible_table("z2rel", 1, char=3, x_value=Fraction(1))
    assert sum(1 for r in rows if r["dim_D"] < r["dim_W"]) >= 1
    assert all("p_restricted" in r for r in rows)
    # rows follow the cellular basis's label order
    assert [r["label"] for r in rows] == cellular_basis("z2rel", 1).labels()
    with pytest.raises(InvalidPoint):
        irreducible_table("z2rel", 1, char=3)
    with pytest.raises(InvalidPoint):
        irreducible_table("z2rel", 1, char=3, x_value=Fraction(1, 3))
    with pytest.raises(UnsupportedCharacteristic):
        irreducible_table("z2rel", 1, char=4, x_value=Fraction(1))


def test_point_nonzero_means_positive_rank():
    """At a point, a form is nonzero exactly when its rank there is."""
    for algebra in ALGEBRAS:
        for k in (1, 2):
            for char, x in [(0, 0), (0, 1), (0, 2), (3, 0), (3, 1)]:
                for r in irreducible_table(algebra, k, char=char,
                                           x_value=Fraction(x)):
                    assert r["nonzero"] == (r["dim_D"] > 0), (algebra, k, r)


def test_modular_classification():
    """Over F_p at every x in F_p, p in {3, 5, 7}, k <= 3: a simple head
    D exists exactly for the p-restricted labels, except the lowest label
    at x = 0, whose form vanishes there (it is a multiple of x)."""
    exceptions = set()
    for algebra in ALGEBRAS:
        for k in (1, 2, 3):
            for p in (3, 5, 7):
                for x in range(p):
                    for r in irreducible_table(algebra, k, char=p,
                                               x_value=Fraction(x)):
                        if (r["dim_D"] > 0) != r["p_restricted"]:
                            exceptions.add((algebra, k, p, x,
                                            format_label(r["label"])))
    assert exceptions == {(algebra, k, p, 0, "0,0,0,-,-,-")
                          for algebra in ALGEBRAS for k in (1, 2, 3)
                          for p in (3, 5, 7)}


def _odd_prime_factors(n):
    out, p = set(), 3
    while n % 2 == 0:
        n //= 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 2
    return out | ({n} if n > 1 else set())


def _content_rule_mismatches(ks):
    """(labels, mismatches) of the content rule over the three algebras at
    each k in ks: c_lambda is the gcd of the structure constants r of
    ``gram(label, algebra, k)`` (each entry is the one monomial r x^l), every
    odd prime factor of c_lambda is at most k, and those factors are exactly
    the odd primes p <= k at which the label is not p-restricted."""
    labels, mismatches = 0, []
    for algebra in ALGEBRAS:
        for k in ks:
            for label in cellular_basis(algebra, k).labels():
                c = 0
                for row in gram(label, algebra, k).entries:
                    for entry in row:
                        for r in entry.coeffs.values():
                            assert Fraction(r).denominator == 1, (label, r)
                            c = math.gcd(c, int(r))
                assert c > 0, (algebra, k, label)
                factors = _odd_prime_factors(c)
                expected = {p for p in range(3, k + 1, 2)
                            if _odd_prime_factors(p) == {p}
                            and not label_p_restricted(label, p)}
                labels += 1
                if max(factors, default=0) > k or factors != expected:
                    mismatches.append((algebra, k, format_label(label), c))
    return labels, mismatches


def test_content_rule_every_odd_prime():
    """The modular rule for every odd prime p at once, k <= 3.  At a point
    x0 not divisible by p the form of a label vanishes exactly when p
    divides c_lambda, the gcd of its structure constants.  The test checks
    that every odd prime factor of c_lambda is at most k and that the odd
    primes p <= k dividing it are exactly those at which the label is not
    p-restricted; for an odd p > k every label is p-restricted (no part
    exceeds k) and p does not divide c_lambda.  So at x0 != 0 the form is
    nonzero exactly for the p-restricted labels, for every odd prime p,
    not only the primes ``test_modular_classification`` runs.  (p = 2 is
    left out: the z2rel and signed Murphy records carry 1/2.)"""
    assert _content_rule_mismatches((1, 2, 3)) == (100, [])


@pytest.mark.slow
def test_content_rule_every_odd_prime_k4():
    """``test_content_rule_every_odd_prime`` at k = 4, where 3 is the one
    odd prime at most k: it covers every odd prime there too."""
    assert _content_rule_mismatches((4,)) == (153, [])


def test_content_rule_at_x_zero():
    """At x0 = 0 only the l = 0 entries r x^0 of a Gram matrix survive, so
    over F_p the form is nonzero exactly when p does not divide c0, the
    gcd of those r: every label at k <= 3, p in {3, 5, 7}.  The lowest
    label 0,0,0,-,-,- is the one with no l = 0 entry (c0 = 0), which is
    the x = 0 exception of ``test_modular_classification``."""
    rows, no_constant = 0, set()
    for algebra in ALGEBRAS:
        for k in (1, 2, 3):
            c0 = {}
            for label in cellular_basis(algebra, k).labels():
                c = 0
                for row in gram(label, algebra, k).entries:
                    for entry in row:
                        c = math.gcd(c, int(entry.coeffs.get(0, 0)))
                c0[label] = c
                if c == 0:
                    no_constant.add((algebra, k, format_label(label)))
            for p in (3, 5, 7):
                for r in irreducible_table(algebra, k, char=p,
                                           x_value=Fraction(0)):
                    assert r["nonzero"] == (c0[r["label"]] % p != 0), (
                        algebra, k, p, format_label(r["label"]))
                    rows += 1
    assert rows == 300
    assert no_constant == {(algebra, k, "0,0,0,-,-,-")
                           for algebra in ALGEBRAS for k in (1, 2, 3)}


# dim D^mu over F_3 (James, LNM 682), labelled by 3-restricted partitions:
# (3) and (4) label no simple module.
F3_SIMPLE_DIMS = {(): 1, (1,): 1, (2,): 1, (1, 1): 1,
                  (3,): 0, (2, 1): 1, (1, 1, 1): 1,
                  (4,): 0, (3, 1): 3, (2, 2): 1, (2, 1, 1): 3, (1, 1, 1, 1): 1}


def test_signed_top_layer_at_p3_is_the_wreath_product():
    """The top layer (s1 = 4) of the signed algebra at k = 4 is the group
    algebra of Z2 wr S_4, so over F_3 at x = 1 its simple heads have the
    Dipper-James-Murphy dimensions dim D(l1, l2) = C(4, a) dim D^l1
    dim D^l2, with a = |l1| (Proc. LMS 70, 1995)."""
    top = [r for r in irreducible_table("signed", 4, char=3,
                                        x_value=Fraction(1))
           if r["label"].s1 == 4]
    assert len(top) == 20
    for r in top:
        (l1, l2), _ = r["label"].glabel
        assert r["dim_D"] == (comb(4, sum(l1)) * F3_SIMPLE_DIMS[l1]
                              * F3_SIMPLE_DIMS[l2]), r["label"]


@pytest.mark.slow
def test_modular_classification_k4():
    """Over F_p at every x in F_p, p in {3, 5}, k = 4, where labels such as
    (4), ((3), (1)) and ((1), (3)) first fail to be 3-restricted: the
    form is nonzero exactly for the p-restricted labels, with the one
    exception of the lowest label at x = 0."""
    exceptions = set()
    for algebra in ALGEBRAS:
        for p in (3, 5):
            for x in range(p):
                for r in irreducible_table(algebra, 4, char=p,
                                           x_value=Fraction(x)):
                    if r["nonzero"] != r["p_restricted"]:
                        exceptions.add((algebra, p, x,
                                        format_label(r["label"])))
    assert exceptions == {(algebra, p, 0, "0,0,0,-,-,-")
                          for algebra in ALGEBRAS for p in (3, 5)}


def test_gram_bruteforce_matches_factorized_sampled_k2():
    cb = cellular_basis("signed", 2)
    for label in cb.labels():
        g = gram(label, "signed", 2)
        gb = gram_bruteforce(label, "signed", 2)
        assert g.entries == gb.entries


# The one-dimensional labels ((4), ()) and ((), (4)) of layer (4, 0): the
# one basis element of each sums all 384 elements of Z2 wr S_4, so one
# oracle entry takes about 9 s.  Their structure constants are checked by
# test_murphy.py::test_struct_const_equals_product_oracle_seeded[
# wreath_murphy(4)] (which draws both labels) and
# test_murphy.py::test_cell_form_structure[wreath_murphy(4)], and their
# one glue entry by test_tabular.py::
# test_glue_equals_join_oracle_every_pair_k4.
K4_FULL_GROUP_LABELS = ((((4,), ()), ()), (((), (4,)), ()))


@pytest.mark.slow
@pytest.mark.parametrize("algebra, checked", [("signed", 212),
                                              ("z2rel", 336)])
def test_gram_bruteforce_sampled_k4(algebra, checked):
    """Four seeded entries of every k = 4 Gram matrix but the two of
    ``K4_FULL_GROUP_LABELS`` against the product of basis elements."""
    cb = cellular_basis(algebra, 4)
    rng = random.Random(4)
    n = 0
    for label in cb.labels():
        if label.s1 == 4 and label.glabel in K4_FULL_GROUP_LABELS:
            continue
        entries = gram(label, algebra, 4).entries
        basis = cell_module(label, algebra, 4).basis
        diagonal = {}
        for _ in range(4):
            u, v = rng.randrange(len(basis)), rng.randrange(len(basis))
            assert entries[u][v] == gram_bruteforce_entry(
                cb, label, basis[u], basis[v], diagonal), (label, u, v)
            n += 1
    assert n == checked


# Sum of dim D(mu)^2 at x = -2, ..., 3 (partition k = 3: at x = 1, 2).
TRACE_FORM_RANKS = {
    ("z2rel", 1): (7, 7, 3, 4, 7, 7),
    ("z2rel", 2): (164, 131, 47, 89, 122, 164),
    ("signed", 1): (3, 3, 2, 3, 3, 3),
    ("signed", 2): (78, 85, 37, 50, 78, 85),
    ("partition", 1): (2, 2, 1, 2, 2, 2),
    ("partition", 2): (15, 12, 6, 12, 15, 15),
    ("partition", 3): (159, 192),
}


@pytest.mark.slow
@pytest.mark.parametrize("algebra, k", sorted(TRACE_FORM_RANKS))
def test_trace_form_rank_is_sum_of_irreducible_squares(algebra, k):
    """A cell-free oracle.  In characteristic 0 the radical of the trace
    form tau(a, b) = Tr_reg(ab) is the Jacobson radical, and a cellular
    algebra is split, so rank tau = dim A / rad A = sum dim D(mu)^2 at every
    rational x (Curtis-Reiner, Methods of Representation Theory I, sections
    3 and 5).  The form uses only zpart.compose: d_i d_j = x^l_ij d, and
    Tr_reg(d) sums x^l over the basis diagrams e with d e = x^l e.

    z2rel and signed k = 3 are out of reach: 25M compose calls and a
    5055 x 5055 elimination over Q.
    """
    diagrams = basis(algebra, k)
    products = [[compose(a, b) for b in diagrams] for a in diagrams]
    fixed_loops = {}    # d -> the l of every basis e with d e = x^l e
    for row in products:
        for d, _ in row:
            if d not in fixed_loops:
                fixed_loops[d] = [l for e in diagrams
                                  for de, l in [compose(d, e)] if de == e]
    points = (1, 2) if k == 3 else range(-2, 4)
    for x, expected in zip(points, TRACE_FORM_RANKS[(algebra, k)]):
        tau = [[x ** l * sum(x ** m for m in fixed_loops[d]) for d, l in row]
               for row in products]
        rank, _ = ExactMatrix(tau).rank_det_field(Rationals())
        rows = irreducible_table(algebra, k, char=0, x_value=Fraction(x))
        assert rank == sum(r["dim_D"] ** 2 for r in rows) == expected
