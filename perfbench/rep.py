"""One repetition of a benchmark workload, in a fresh interpreter.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/rep.py \
        --workload gram-k3 --seed 1 [--size tiny] [--trace-out FILE]

Prints one JSON line: the time of each step, the answers attempted and
failed, the work counts behind the rates, and the process's peak RSS.
With ``--trace-out`` every layer is wrapped (see spans.py), the per-layer
self times and counts are added to the line and the spans go to FILE.

Steps are timed with ``time.perf_counter``; the checks of each answer run
between steps, outside every timed region.  ``wall_s`` is the sum of the
steps (the import of zrelalg included), which is what a user of the same
calls waits for.  Before each step a fixed reference kernel is timed, and
its median over the repetition is reported as ``reference_s``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import zlib  # noqa: E402
from fractions import Fraction  # noqa: E402

from zrelalg import cli, dalg, repn, ring, tabular  # noqa: E402

import spans  # noqa: E402

_T_IMPORT = time.perf_counter() - _T0

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

PRIME = 2**31 - 1
PRODUCT_BATCH = 500
SUM_TERMS = 4
MAX_POWER = 3
REFERENCE_SEED = 0
QQ_POINTS = (0, 1, 2)

# Inputs of every workload; "tiny" is the smoke-test size.
WORKLOADS = {
    "cells-k2": {
        "full": {"algebras": [("z2rel", 2), ("signed", 2), ("partition", 3)],
                 "suites": ["cellular", "gram-oracle"], "samples": 200},
        "tiny": {"algebras": [("z2rel", 1), ("signed", 1), ("partition", 1)],
                 "suites": ["cellular", "gram-oracle"], "samples": 20},
    },
    # Products: (single-diagram pairs, pairs of 4-term sums) from the
    # workload seed, plus a fixed reference set from REFERENCE_SEED whose
    # products must match a digest recorded in expected.json.
    "diagrams-k3": {
        "full": {"algebras": [("z2rel", 3), ("signed", 3)],
                 "products": (2000, 200), "reference": (200, 20),
                 "suites": ["roundtrip", "assoc", "tabular"], "samples": 200},
        "tiny": {"algebras": [("z2rel", 2), ("signed", 2)],
                 "products": (50, 10), "reference": (10, 2),
                 "suites": ["roundtrip", "assoc", "tabular"], "samples": 20},
    },
    "gram-k3": {
        "full": {"algebras": [("z2rel", 3), ("signed", 3)],
                 "symbolic_max_rows": 28},
        "tiny": {"algebras": [("z2rel", 2), ("signed", 2)],
                 "symbolic_max_rows": 28},
    },
}


def reference_kernel():
    """Seconds for a fixed piece of pure-Python work (dict, tuple and
    Fraction operations, like the program's inner loops).  Timed before
    every step, it measures how fast the shared machine runs right then."""
    start = time.perf_counter()
    table = {}
    acc = Fraction(0)
    for i in range(1500):
        key = (i % 61, i % 7, i % 2)
        table[key] = table.get(key, 0) + 1
        acc += Fraction(i % 7 + 1, i % 5 + 1)
    return time.perf_counter() - start


class Rep:
    """Step clock and answer ledger of one repetition.

    Every timed step is a unit named "phase/what", such as
    "symbolic/z2rel/2" or "assembly/signed/3/2,1,0,1,-,-"; run.py takes
    the median of each unit over repetitions, scaled for machine speed.
    """

    def __init__(self, tracer=None):
        self.units = {"import": _T_IMPORT}
        self.reference = []
        self.work = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.tracer = tracer

    @contextlib.contextmanager
    def timed(self, unit):
        self.reference.append(reference_kernel())
        if self.tracer is not None:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.active = False
            self.units[unit] = self.units.get(unit, 0.0) + elapsed

    def call(self, unit, fn, *args, **kwargs):
        """Timed answer; an exception is recorded and yields None."""
        with self.timed(unit):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:  # an answer that raised is a failure
                self.fail("%s raised %s: %s" % (unit, type(exc).__name__,
                                                exc))
                return None

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def add_work(self, key, amount):
        self.work[key] = self.work.get(key, 0) + amount


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def key_of(algebra, k):
    return "%s/%d" % (algebra, k)


def unit_of(phase, algebra, k, *what):
    return "/".join((phase, key_of(algebra, k)) + what)


def run_verify(rep, algebra, k, suite, seed, samples):
    """``zrelalg verify`` through cli.main, timed; checks exit and report."""
    argv = ["verify", "--algebra", algebra, "--k", str(k), "--suite", suite,
            "--seed", str(seed), "--samples", str(samples)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rep.call(unit_of("verify", algebra, k, suite), cli.main, argv)
    what = "verify %s %s k=%d" % (suite, algebra, k)
    if code is None:
        return
    try:
        report = json.loads(out.getvalue().strip().splitlines()[-1])
    except (ValueError, IndexError):
        rep.check(False, "%s: no JSON report (exit %r)" % (what, code))
        return
    rep.add_work("verify_checks", report.get("checked", 0))
    rep.check(code == 0 and not report.get("failures"),
              "%s: exit %r, failures %r" % (what, code,
                                            report.get("failures", [])[:2]))


def table_by_label(rows):
    return {cli.format_label(r["label"]): r for r in rows}


# --- cells-k2 --------------------------------------------------------------

def cell_tables(rep, spec, seed):
    """Set-up, symbolic and at-a-point tables, then verify, per algebra."""
    expected = load_expected()["cells"]
    rng = random.Random(seed)
    x_p = rng.randrange(3, PRIME)
    algebras = spec["algebras"]
    for algebra, k in algebras:
        diagrams = rep.call(unit_of("setup", algebra, k, "basis"),
                            dalg.basis, algebra, k)
        rep.call(unit_of("setup", algebra, k, "cellular"),
                 tabular.cellular_basis, algebra, k)
        rep.check(diagrams is not None
                  and len(diagrams) == dalg.dim_formula(algebra, k),
                  "basis size of %s k=%d" % (algebra, k))
    for algebra, k in algebras:
        rows = rep.call(unit_of("symbolic", algebra, k),
                        repn.irreducible_table, algebra, k)
        check_symbolic_table(rep, algebra, k, rows,
                             expected[key_of(algebra, k)]["symbolic"])
    for algebra, k in algebras:
        want = expected[key_of(algebra, k)]
        for x in QQ_POINTS:
            rows = rep.call(unit_of("point", algebra, k, "x=%d" % x),
                            repn.irreducible_table, algebra, k,
                            char=0, x_value=Fraction(x))
            check_point_table(rep, "x=%d" % x, algebra, k, rows,
                              want["x=%d" % x])
        rows = rep.call(unit_of("point", algebra, k, "mod-p"),
                        repn.irreducible_table, algebra, k,
                        char=PRIME, x_value=x_p)
        check_mod_p_table(rep, algebra, k, rows, want["symbolic"], x_p)
    for algebra, k in algebras:
        for suite in spec["suites"]:
            run_verify(rep, algebra, k, suite, seed, spec["samples"])


def check_symbolic_table(rep, algebra, k, rows, want):
    where = "symbolic table %s k=%d" % (algebra, k)
    if rows is None:
        rep.check(False, where + ": no answer")
        return
    got = table_by_label(rows)
    rep.check(sorted(got) == sorted(want), where + ": label set differs")
    rep.check(sum(r["dim_W"] ** 2 for r in rows)
              == dalg.dim_formula(algebra, k), where + ": sum dim_W^2")
    for label, row in got.items():
        w = want.get(label)
        rep.check(w is not None and row["dim_D"] == row["dim_W"] == w["dim_W"]
                  and row["nonzero"] == w["nonzero"]
                  and str(row["det"]) == w["det"],
                  "%s: row %s" % (where, label))


def check_point_table(rep, point, algebra, k, rows, want):
    where = "%s table %s k=%d" % (point, algebra, k)
    if rows is None:
        rep.check(False, where + ": no answer")
        return
    got = {label: r["dim_D"] for label, r in table_by_label(rows).items()}
    for label, dim_d in want.items():
        rep.check(got.get(label) == dim_d, "%s: row %s" % (where, label))


def check_mod_p_table(rep, algebra, k, rows, want, x_p):
    """At a point mod p the rank is full exactly when the recorded symbolic
    determinant does not vanish there."""
    where = "mod-p table %s k=%d x=%d" % (algebra, k, x_p)
    if rows is None:
        rep.check(False, where + ": no answer")
        return
    field = ring.ScalarField.prime(PRIME, x_p)
    got = table_by_label(rows)
    for label, w in want.items():
        row = got.get(label)
        vanishes = field.eval_poly(ring.Poly.parse(w["det"])) == 0
        rep.check(row is not None and row["dim_W"] == w["dim_W"]
                  and (row["dim_D"] < row["dim_W"] if vanishes
                       else row["dim_D"] == row["dim_W"]),
                  "%s: row %s" % (where, label))


# --- diagrams-k3 -----------------------------------------------------------

def product_inputs(rng, algebra, k, diagrams, counts):
    """Seeded operands: pairs of single diagrams, then pairs of sums of
    SUM_TERMS diagrams with coefficients x^0 .. x^MAX_POWER."""
    singles, sums = counts

    def one():
        return dalg.AlgebraElement.of(algebra, rng.choice(diagrams))

    def several():
        terms = {}
        while len(terms) < SUM_TERMS:
            terms[rng.choice(diagrams)] = ring.Poly.x(
                rng.randrange(MAX_POWER + 1))
        return dalg.AlgebraElement(algebra, k, terms)

    pairs = [(one(), one()) for _ in range(singles)]
    pairs += [(several(), several()) for _ in range(sums)]
    return pairs


def reference_inputs(algebra, k, diagrams, spec):
    return product_inputs(random.Random(REFERENCE_SEED), algebra, k,
                          diagrams, spec["reference"])


def products_digest(products):
    """CRC-32 of the products' JSON.  zlib is loaded at start-up anyway,
    while hashlib would map libcrypto and inflate the peak RSS."""
    text = json.dumps([p.to_json() for p in products], sort_keys=True)
    return "%08x" % zlib.crc32(text.encode())


def diagram_products(rep, spec, seed):
    """Basis enumeration, seeded products, then verify suites at each k."""
    expected = load_expected()["products"]
    rng = random.Random(seed)
    bases = {}
    for algebra, k in spec["algebras"]:
        diagrams = rep.call(unit_of("setup", algebra, k), dalg.basis,
                            algebra, k)
        bases[algebra] = diagrams
        rep.check(diagrams is not None
                  and len(diagrams) == dalg.dim_formula(algebra, k),
                  "basis size of %s k=%d" % (algebra, k))
    for algebra, k in spec["algebras"]:
        if not bases[algebra]:
            continue
        reference = reference_inputs(algebra, k, bases[algebra], spec)
        pairs = reference + product_inputs(rng, algebra, k, bases[algebra],
                                           spec["products"])
        products = []
        for start in range(0, len(pairs), PRODUCT_BATCH):
            batch = pairs[start:start + PRODUCT_BATCH]
            out = rep.call(unit_of("products", algebra, k, str(start)),
                           lambda: [a * b for a, b in batch])
            products.extend(out or [None] * len(batch))
        rep.add_work("products", len(pairs))
        rep.check(None not in products[:len(reference)]
                  and products_digest(products[:len(reference)])
                  == expected[key_of(algebra, k)],
                  "reference products of %s k=%d differ" % (algebra, k))
        for (a, b), ab in zip(pairs, products):
            if ab is None:
                rep.check(False, "product in %s k=%d: no answer"
                          % (algebra, k))
                continue
            rep.check(ab.star() == b.star() * a.star(),
                      "(ab)* != b*a* in %s k=%d: %r * %r" % (algebra, k, a, b))
    for algebra, k in spec["algebras"]:
        for suite in spec["suites"]:
            run_verify(rep, algebra, k, suite, seed, spec["samples"])


# --- gram-k3 ---------------------------------------------------------------

def gram_layers(algebra, k):
    """Layers that carry cells, as [(s1, s2, halves, layer, murphy)]."""
    out = []
    variant = tabular.variant_for(algebra)
    for s1, s2 in tabular.index_pairs(algebra, k):
        halves = tabular.enumerate_M(k, s1, s2, variant)
        if halves:
            layer = tabular.layer_for(algebra, s1, s2)
            out.append((s1, s2, halves, layer, layer.murphy()))
    return out


def assemble_gram(halves, layer, mur, glabel):
    """Factorized Gram matrix of one cell label, from public pieces only.

    Left data are [(P, s) for s in tableaux_for(glabel) for P in halves],
    the order repn.gram uses; entry (S, T) is x^l times the Murphy
    structure constant of the glue phi(P, Q).  This skips the dense
    CellularBasis, which does not finish at k = 3.
    """
    left = [(P, s) for s in mur.tableaux_for(glabel) for P in halves]
    rows = []
    for P, s in left:
        row = []
        for Q, t in left:
            glued = tabular.phi(P, Q)
            if glued is None:
                row.append(ring.Poly())
                continue
            l, f, sigma1, sigma2 = glued
            delta = layer.from_glue(f, sigma1, sigma2)
            row.append(mur.struct_const(glabel, s, t, delta) * ring.Poly.x(l))
        rows.append(row)
    return ring.ExactMatrix(rows)


def gram_dets(rep, spec, seed):
    """Murphy set-up, Gram assembly, rank/det mod p and over Q(x) per label."""
    expected = load_expected()["gram"]
    x_p = random.Random(seed).randrange(3, PRIME)
    field = ring.PrimeField(PRIME)
    at_point = ring.ScalarField(field, x_p)
    cut = spec["symbolic_max_rows"]
    for algebra, k in spec["algebras"]:
        layers = rep.call(unit_of("setup", algebra, k), gram_layers,
                          algebra, k)
        if layers is None:
            continue
        want = expected[key_of(algebra, k)]
        seen = set()
        square_sum = 0
        for s1, s2, halves, layer, mur in layers:
            for glabel in mur.labels():
                label = cli.format_label(tabular.CellLabel(s1, s2, glabel))
                seen.add(label)
                where = "gram %s k=%d %s" % (algebra, k, label)
                g = rep.call(unit_of("assembly", algebra, k, label),
                             assemble_gram, halves, layer, mur, glabel)
                if g is None:
                    continue
                n = g.nrows
                square_sum += n * n
                point = rep.call(unit_of("point", algebra, k, label),
                                 lambda: g.evaluate(at_point).rank_det_field(
                                     field))
                rep.check(point is not None and point[0] == n,
                          where + ": not full rank at x=%d mod p" % x_p)
                if n > cut:
                    continue
                symbolic = rep.call(unit_of("symbolic", algebra, k, label),
                                    g.rank_det_symbolic)
                rep.check(symbolic is not None and symbolic[0] == n
                          and label in want
                          and str(symbolic[1]) == want[label]
                          and point is not None
                          and at_point.eval_poly(symbolic[1]) == point[1],
                          where + ": symbolic rank/det")
        rep.check(square_sum == dalg.dim_formula(algebra, k),
                  "gram %s k=%d: sum n^2 = %d" % (algebra, k, square_sum))
        rep.check(seen >= set(want), "gram %s k=%d: labels missing %r"
                  % (algebra, k, sorted(set(want) - seen)))


RUNNERS = {"cells-k2": cell_tables, "diagrams-k3": diagram_products,
           "gram-k3": gram_dets}


def run_workload(name, seed, size="full", tracer=None):
    """Run one repetition in this process and return its record."""
    rep = Rep(tracer)
    RUNNERS[name](rep, WORKLOADS[name][size], seed)
    record = {"workload": name, "seed": seed, "size": size,
              "units": rep.units, "wall_s": sum(rep.units.values()),
              "reference_s": statistics.median(rep.reference),
              "work": rep.work, "attempted": rep.attempted,
              "failed": rep.failed, "failures": rep.failures}
    if tracer is not None:
        record["self_s"] = tracer.self_times()
        record["counts"] = dict(tracer.counts)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace_out:
        tracer = spans.Tracer()
        tracer.install([sys.modules[__name__]])
    record = run_workload(args.workload, args.seed, args.size, tracer)
    record["rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0)
    if tracer is not None:
        tracer.dump(args.trace_out)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
