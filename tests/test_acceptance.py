"""Acceptance suite: ten end-to-end criteria, exact arithmetic throughout.

Each test registers a pass/fail line with the shared reporter in conftest;
the lines are echoed after the pytest summary.
"""

import random
from math import factorial

from conftest import record_criterion

from zrelalg.dalg import AlgebraElement, basis, dim_formula
from zrelalg.groups import GAElement, Perm, signed_perms
from zrelalg.murphy import sym_murphy, wreath_murphy
from zrelalg.repn import (action_matrix, cell_module, gram, gram_bruteforce,
                          radical_and_irreducible)
from zrelalg.ring import Poly, Rationals, ScalarField
from zrelalg.tabular import (CellLabel, cellular_basis, decompose,
                             enumerate_M, layer_for, reconstruct,
                             variant_for, verify_table_datum)
from zrelalg.zpart import compose, propagating_data

BOTH = ("z2rel", "signed")


def test_criterion_1_dimensions():
    anchors = {("z2rel", 1): 7, ("z2rel", 2): 164,
               ("signed", 1): 3, ("signed", 2): 85, ("signed", 3): 5055}
    ok = all(dim_formula(a, k) == v for (a, k), v in anchors.items())
    ok = ok and all(len(basis(a, k)) == v for (a, k), v in anchors.items())
    assert record_criterion(
        1, "dimensions 7/164 and 3/85/5055 by formula and enumeration", ok)


def _fully_propagating(k):
    return [d for d in basis("z2rel", k) if propagating_data(d).s1 == k]


def test_criterion_2_top_cell_group():
    ok = all(len(_fully_propagating(k)) == 2 ** k * factorial(k)
             for k in (1, 2, 3))
    iso = True
    tc = _fully_propagating(2)
    layer = layer_for("z2rel", 2, 0)
    to_group = {d: layer.from_points(decompose(d)[2]) for d in tc}
    for d1 in tc:
        for d2 in tc:
            d, loops = compose(d1, d2)
            iso = iso and loops == 0 and \
                to_group[d] == to_group[d1] * to_group[d2]
    (P, Q), = {decompose(d)[:2] for d in tc}
    for d in tc:
        iso = iso and reconstruct(P, Q, layer.to_points(to_group[d])) == d
    assert record_criterion(
        2, "top cell has order 2^k k!; product isomorphism on all 64 pairs",
        ok and iso)


def test_criterion_3_bijection_census():
    ok = True
    for algebra in BOTH:
        variant = variant_for(algebra)
        for k in (1, 2):
            total = 0
            for s1 in range(k + 1):
                for s2 in range(2 * (k - s1) + 1):
                    m = len(enumerate_M(k, s1, s2, variant))
                    total += m * m * 2 ** s1 * factorial(s1) * factorial(s2)
            ok = ok and total == dim_formula(algebra, k)
    assert record_criterion(
        3, "sum |M|^2 2^s1 s1! s2! equals the dimension, k <= 2", ok)


def test_criterion_4_algebra_axioms():
    ok = True
    for algebra in BOTH:
        diagrams = basis(algebra, 1)
        for da in diagrams:
            for db in diagrams:
                for dc in diagrams:
                    a, b, c = (AlgebraElement.of(algebra, d)
                               for d in (da, db, dc))
                    ok = ok and (a * b) * c == a * (b * c)
    rng = random.Random(0)
    for algebra in BOTH:
        diagrams = basis(algebra, 2)
        for _ in range(500):
            a, b, c = (AlgebraElement.of(algebra, rng.choice(diagrams))
                       for _ in range(3))
            ok = ok and (a * b) * c == a * (b * c)
        for _ in range(200):
            a, b = (AlgebraElement.of(algebra, rng.choice(diagrams))
                    for _ in range(2))
            ok = ok and (a * b).star() == b.star() * a.star()
    assert record_criterion(
        4, "associativity (exhaustive k=1, 500 triples k=2) and star", ok)


def test_criterion_5_tabular_axiom():
    ok = True
    for algebra in BOTH:
        ok = ok and verify_table_datum(algebra, 1)["failures"] == []
        ok = ok and verify_table_datum(algebra, 2, samples=200,
                                       seed=0)["failures"] == []
    assert record_criterion(
        5, "tabular product axiom, exhaustive k=1 and 200 samples k=2", ok)


def _cells_are_a_basis(algebra, k):
    cb = cellular_basis(algebra, k)
    diagrams = basis(algebra, k)
    support = set()
    for cell in cb.cells():
        support.update(cb.element(*cell).terms)
    return len(cb.cells()) == len(diagrams) and support == set(diagrams)


def _congruence_holds(algebra, k, pairs):
    cb = cellular_basis(algebra, k)
    for d, (label, left, right) in pairs:
        coords = cb.coords(AlgebraElement.of(algebra, d)
                           * cb.element(label, left, right))
        for label2, _, right2 in coords:
            if label2 == label:
                if right2 != right:
                    return False
            elif not cb.label_lt(label2, label):
                return False
    return True


def test_criterion_6_cellularity():
    ok = True
    rng = random.Random(0)
    for algebra in BOTH:
        cb1 = cellular_basis(algebra, 1)   # constructor checks the census
        ok = ok and _congruence_holds(
            algebra, 1, [(d, cell) for d in basis(algebra, 1)
                         for cell in cb1.cells()])
        cb2 = cellular_basis(algebra, 2)
        diagrams, cells = basis(algebra, 2), cb2.cells()
        sampled = [(rng.choice(diagrams), rng.choice(cells))
                   for _ in range(150)]
        ok = ok and _congruence_holds(algebra, 2, sampled)
        ok = ok and _cells_are_a_basis(algebra, 1)
        ok = ok and _cells_are_a_basis(algebra, 2)
    assert record_criterion(
        6, "cellular basis invertible; cell congruence holds", ok)


def test_criterion_7_gram_factorization():
    ok = True
    rng = random.Random(0)
    for algebra in BOTH:
        for label in cellular_basis(algebra, 1).labels():
            ok = ok and gram(label, algebra, 1).entries == \
                gram_bruteforce(label, algebra, 1).entries
        for label in cellular_basis(algebra, 2).labels():
            g = gram(label, algebra, 2)
            gb = gram_bruteforce(label, algebra, 2)
            n = g.nrows
            cells = {(rng.randrange(n), rng.randrange(n)) for _ in range(50)}
            if n * n <= 50:
                cells = {(i, j) for i in range(n) for j in range(n)}
            ok = ok and all(g[i, j] == gb[i, j] for i, j in cells)
    assert record_criterion(
        7, "factorized Gram equals brute-force reduction (k=1 full, "
           "k=2 sampled)", ok)


def test_criterion_8_semisimple_census():
    ok = True
    for algebra in BOTH:
        for k in (1, 2):
            total = 0
            for label in cellular_basis(algebra, k).labels():
                rank, det = gram(label, algebra, k).rank_det_symbolic()
                dim = cell_module(label, algebra, k).dim
                ok = ok and not det.is_zero() and rank == dim
                total += dim * dim
            ok = ok and total == dim_formula(algebra, k)
    dims1 = sorted((cell_module(l, "z2rel", 1).dim ** 2
                    for l in cellular_basis("z2rel", 1).labels()),
                   reverse=True)
    ok = ok and dims1 == [4, 1, 1, 1]
    dims_signed = [cell_module(l, "signed", 1).dim ** 2
                   for l in cellular_basis("signed", 1).labels()]
    ok = ok and sum(dims_signed) == 3
    assert record_criterion(
        8, "generic semisimplicity: det G != 0, sum dim^2 = dim "
           "(4+1+1+1=7 at k=1)", ok)


def test_criterion_9_degeneration_witness():
    label = CellLabel(0, 0, (((), ()), ()))
    _, det = gram(label, "z2rel", 1).rank_det_symbolic()
    ok = det == Poly.parse("x^3 - x^2")     # = x^2 (x - 1)
    for x, rank in [(1, 1), (0, 0)]:
        rad, irr = radical_and_irreducible(label, "z2rel", 1,
                                           ScalarField.rationals(x))
        ok = ok and (rad, irr) == (2 - rank, rank)
    sf = ScalarField.rationals(1)
    g = gram(label, "z2rel", 1).evaluate(sf)
    kernel = g.nullspace_field(Rationals())
    module = cell_module(label, "z2rel", 1)
    for d in basis("z2rel", 1):
        m = action_matrix(AlgebraElement.of("z2rel", d), module).evaluate(sf)
        for vec in kernel:
            image = [sum(row[j] * vec[j] for j in range(len(vec)))
                     for row in m.entries]
            ok = ok and all(
                sum(a * b for a, b in zip(row, image)) == 0
                for row in g.entries)
    assert record_criterion(
        9, "det G = x^2(x-1); ranks 2/1/0 at generic/1/0; radical is a "
           "submodule", ok)


def test_criterion_10_murphy_layer():
    ok = True
    for n in range(1, 5):
        mb = sym_murphy(n)
        ok = ok and len(mb.records) == factorial(n)
    for n in range(1, 4):
        mb = wreath_murphy(n)
        ok = ok and len(mb.records) == 2 ** n * factorial(n)

    def cellular(mb, group_elements):
        for g in group_elements:
            ga = GAElement.of(g)
            for rec in mb.records:
                for c, rec2 in zip(mb.coords(ga * rec.element), mb.records):
                    if not c:
                        continue
                    if rec2.label == rec.label:
                        if rec2.t != rec.t:
                            return False
                    elif not mb.label_lt(rec2.label, rec.label):
                        return False
        return True

    for n in (1, 2):
        ok = ok and cellular(sym_murphy(n), Perm.all(n))
        ok = ok and cellular(wreath_murphy(n), signed_perms(n))
    rng = random.Random(0)
    ok = ok and cellular(sym_murphy(3), Perm.all(3))
    sample = [rng.choice(signed_perms(3)) for _ in range(6)]
    ok = ok and cellular(wreath_murphy(3), sample)
    assert record_criterion(
        10, "Murphy layers: sum dims^2 = n! and 2^n n!; cellular axioms",
        ok)
