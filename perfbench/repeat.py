"""Run a workload once per seed and report the spread of each metric.

    python3 perfbench/repeat.py --workload gram-k3 --runs 10 [--first-seed 1]
        [--seconds 38] [--trace 0]

For every metric of the runs' JSON lines, and every workload-specific
figure run.py prints beside them, this prints the median, the quartiles
from statistics.quantiles(values, n=4), and the spread (q3 - q1) / median,
next to a third of the metric's bound from BENCHMARK.json; "steady" means
every spread of a bounded metric but setup_s stays below it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def name_is_printed(fields, metrics):
    """A run.py metric line ("name value unit n=...") outside the JSON."""
    return (len(fields) >= 4 and fields[3].startswith("n=")
            and fields[0] not in metrics)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    failures = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + ["--workload", args.workload,
                                  "--seed", str(seed),
                                  "--seconds", "%g" % seconds,
                                  "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        failures += 0 if result["correct"] else 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for line in lines[:-1]:
            fields = line.split()
            if name_is_printed(fields, result["metrics"]):
                values.setdefault(fields[0], []).append(float(fields[1]))
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, m["value"]) for n, m in
            sorted(result["metrics"].items()))), flush=True)
    steady = failures == 0
    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        limit = bounds.get(name)
        note = ""
        if limit is not None:
            note = "limit %.3f" % (limit / 3)
            if name != "setup_s" and spread >= limit / 3:
                steady = False
                note += " TOO WIDE"
        print("%-34s median %.6g q1 %.6g q3 %.6g spread %.3f %s"
              % (name, med, q1, q3, spread, note))
    print("%s: %d runs, %d incorrect, %s" % (
        args.workload, args.runs, failures,
        "steady" if steady else "NOT steady"))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
