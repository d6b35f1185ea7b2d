"""Run one zrelalg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cells-k2 --seed 1 --seconds 38 \
        --trace 0

Run from the root of a source checkout; the package is not installed, so
every repetition is a fresh single-threaded interpreter running
perfbench/rep.py with PYTHONPATH=src and PYTHONHASHSEED pinned to
``HASH_SEED``.  A fresh interpreter starts with cold caches, as every
``zrelalg`` command does, so each repetition pays the full set-up.
Repetitions run one at a time, on the inputs the seed makes, until the
next one would overrun --seconds; at least one always runs.

--trace 0 reports the end-to-end metrics: each time is the sum over the
timed steps of the step's median over the repetitions, scaled for the
machine speed each repetition measured, and the peak RSS is the median
over them.  --trace 1 alternates
untraced and traced repetitions and reports, from the traced ones (median
over them), each layer's self time as a share of the traced wall time,
the layer counts, and the tracing overhead (median traced wall_s minus
median untraced wall_s, both scaled for machine speed).  The spans of the last traced repetition go to
perfbench/out/.

Each metric is printed on its own line with unit, repetition count and
the median and quartiles of its per-repetition values; workload-specific
figures (point_s, symbolic_s, products_per_s, verify_checks_per_s,
fail_ratio) follow.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

HASH_SEED = "0"
DEADLINE_S = 170.0        # the whole run, repetitions included

WORKLOADS = ("cells-k2", "diagrams-k3", "gram-k3")

# Phases that answer a user's question after set-up, per workload: table
# queries, products, Gram assembly with its rank/determinant.  Verify
# suites are excluded; they count in wall_s.
ANSWER_PHASES = ("symbolic", "point", "products", "assembly")

# Median time of rep.reference_kernel in a repetition on an unloaded
# machine of the kind the baseline was measured on (see baseline.json).
REFERENCE_S = 0.0029

LAYER_SHARES = [
    "ring.inverse_rational", "ring.rank_det_symbolic", "ring.rank_det_field",
    "zpart.enumerate_rk", "zpart.compose", "dalg.basis", "dalg.mul",
    "groups.ga_mul", "murphy.build", "murphy.struct_const", "murphy.coords",
    "tabular.cellular_basis", "tabular.coords", "tabular.decompose",
    "tabular.reconstruct", "tabular.phi", "tabular.enumerate_M",
    "repn.gram", "repn.gram_bruteforce", "repn.irreducible_table", "cli.main",
]
LAYER_COUNTS = [
    "ring.inverse_rational.n_max", "ring.rank_det_symbolic.calls",
    "zpart.compose.calls", "zpart.canonicalize.calls", "dalg.in_basis.calls",
    "dalg.mul.calls", "groups.ga_mul.calls", "murphy.struct_const.calls",
    "tabular.coords.calls", "tabular.decompose.calls",
    "tabular.reconstruct.calls", "tabular.phi.calls",
]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_rep(workload, seed, size, trace_out, deadline):
    """One repetition in a fresh interpreter; returns its record."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=HASH_SEED)
    cmd = [sys.executable, os.path.join(HERE, "rep.py"),
           "--workload", workload, "--seed", str(seed), "--size", size]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for a repetition")
    # subprocess.run kills and waits for the child when the timeout expires.
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("repetition exited %d:\n%s"
                           % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repetitions(args, kinds):
    """Run repetitions, cycling through ``kinds`` (False untraced, True
    traced), while the next of each kind fits in --seconds."""
    deadline = time.monotonic() + DEADLINE_S
    start = time.monotonic()
    longest = {}
    reps = []
    while True:
        traced = kinds[len(reps) % len(kinds)]
        elapsed = time.monotonic() - start
        if (len(reps) >= len(kinds)
                and elapsed + longest.get(traced, 0.0) > args.seconds):
            break
        trace_out = None
        if traced:
            os.makedirs(OUT, exist_ok=True)
            trace_out = os.path.join(OUT, "%s-seed%d.spans.json"
                                     % (args.workload, args.seed))
        t0 = time.monotonic()
        record = run_rep(args.workload, args.seed, args.size, trace_out,
                         deadline)
        longest[traced] = max(longest.get(traced, 0.0),
                              time.monotonic() - t0)
        record["traced"] = traced
        reps.append(record)
    return reps


def step_medians(reps, scaled):
    """Median of each timed step over the repetitions that ran it; with
    ``scaled``, each repetition's time is first multiplied by its speed,
    REFERENCE_S over its reference_s."""
    values = {}
    for r in reps:
        speed = REFERENCE_S / r["reference_s"] if scaled else 1.0
        for unit, seconds in r["units"].items():
            values.setdefault(unit, []).append(seconds * speed)
    return {unit: statistics.median(v) for unit, v in values.items()}


def scaled_wall(rep):
    return rep["wall_s"] * REFERENCE_S / rep["reference_s"]


def phase_of(unit):
    return unit.split("/", 1)[0]


def phase_total(units, phases):
    return sum(v for unit, v in units.items() if phase_of(unit) in phases)


def end_to_end(reps):
    """name -> (unit, value, per-repetition values) for the end-to-end
    metrics, then the same for the workload-specific figures.

    A time is the sum over steps of each step's median over the run's
    repetitions, each repetition's step times first scaled to the machine
    speed of REFERENCE_S by the median time of the reference kernel timed
    before its steps.  Other tenants of a shared host slow every step of
    a repetition, by up to 2x for a minute or more on the 2-vCPU host of
    baseline.json, and the reference kernel slows with them.  On 35
    diagrams-k3 repetitions in runs of five under such load (reference
    4.0 to 7.0 ms), the run-to-run spread of wall_s was 0.30 for unscaled
    per-step minima, 0.175 for minima scaled by the run's fastest
    reference, and 0.068 with per-repetition scaling and per-step medians
    (answer_s 0.221, 0.210 and 0.041).  The unscaled sum of step medians
    is printed as raw_wall_s and the median speed as speed; the
    per-repetition values are unscaled sums, printed with their median
    and quartiles.
    """
    med = step_medians(reps, scaled=True)
    speeds = [REFERENCE_S / r["reference_s"] for r in reps]
    per_rep = [r["units"] for r in reps]

    def timing(phases):
        return (phase_total(med, phases),
                [phase_total(u, phases) for u in per_rep])

    wall = (sum(med.values()), [r["wall_s"] for r in reps])
    rss = [r["rss_mb"] for r in reps]
    out = {"wall_s": ("s",) + wall,
           "setup_s": ("s",) + timing({"setup"}),
           "answer_s": ("s",) + timing(ANSWER_PHASES),
           "peak_rss_mb": ("MB", statistics.median(rss), rss)}
    # Workload-specific figures: printed, not part of the JSON metrics,
    # because they do not exist on every workload.  Gram assembly counts
    # in point_s, and in symbolic_s for the labels solved symbolically.
    extra = {"raw_wall_s": ("s", sum(step_medians(reps, False).values()),
                            out["wall_s"][2]),
             "speed": ("ratio", statistics.median(speeds), speeds)}
    phases = {phase_of(unit) for unit in med}
    if "point" in phases:
        extra["point_s"] = ("s",) + timing({"point", "assembly"})
    if "symbolic" in phases:
        solved = {unit.split("/", 1)[1] for unit in med
                  if phase_of(unit) == "symbolic"}

        def symbolic_total(units):
            return sum(v for unit, v in units.items()
                       if phase_of(unit) == "symbolic"
                       or (phase_of(unit) == "assembly"
                           and unit.split("/", 1)[1] in solved))

        extra["symbolic_s"] = ("s", symbolic_total(med),
                               [symbolic_total(u) for u in per_rep])
    for phase, work, name, unit in (
            ("products", "products", "products_per_s", "products/s"),
            ("verify", "verify_checks", "verify_checks_per_s", "checks/s")):
        if phase in phases:
            count = reps[0]["work"][work]
            extra[name] = (unit, count / phase_total(med, {phase}),
                           [count / phase_total(u, {phase}) for u in per_rep])
    ratios = [r["failed"] / max(r["attempted"], 1) for r in reps]
    extra["fail_ratio"] = ("ratio", sum(r["failed"] for r in reps)
                           / max(sum(r["attempted"] for r in reps), 1), ratios)
    return out, extra


def per_layer(reps):
    """name -> (unit, value, per-traced-repetition values)."""
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    series = {}
    for layer in LAYER_SHARES:
        series[layer + ".self_share"] = ("ratio", [
            r["self_s"].get(layer, 0.0) / r["wall_s"] for r in traced])
    for name in LAYER_COUNTS:
        series[name] = ("count", [r["counts"].get(name, 0) for r in traced])
    series["tabular.phi.none_ratio"] = ("ratio", [
        r["counts"].get("tabular.phi.none", 0)
        / max(r["counts"].get("tabular.phi.calls", 0), 1) for r in traced])
    series["trace.wall_s"] = ("s", [r["wall_s"] for r in traced])
    out = {name: (unit, statistics.median(v), v)
           for name, (unit, v) in series.items()}
    # Both sides scaled for machine speed, as in end_to_end.
    overhead = (statistics.median(scaled_wall(r) for r in traced)
                - statistics.median(scaled_wall(r) for r in plain))
    out["trace.overhead_s"] = ("s", overhead, [overhead])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload at a smoke-test size")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zrelalg", "__init__.py")):
        print("error: run from the root of a zrelalg checkout "
              "(no src/zrelalg)", file=sys.stderr)
        return 2
    kinds = (False, True) if args.trace else (False,)
    try:
        reps = repetitions(args, kinds)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for r in reps:
        for what in r["failures"]:
            print("FAILED: %s" % what)
    print("workload %s seed %d: %d repetitions (%d traced), hash seed %s"
          % (args.workload, args.seed, len(reps),
             sum(r["traced"] for r in reps), HASH_SEED))
    if args.trace:
        series, extra = per_layer(reps), {}
    else:
        series, extra = end_to_end(reps)
    metrics = {}
    for name, (unit, value, values) in dict(series, **extra).items():
        q1, q3 = quartiles(values)
        print("%-34s %14.6g %-10s n=%d per-rep median=%.6g q1=%.6g q3=%.6g"
              % (name, value, unit, len(values), statistics.median(values),
                 q1, q3))
        if name in series:
            metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
