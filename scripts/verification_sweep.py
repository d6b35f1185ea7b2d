"""Run every verification suite over a grid of algebras and sizes.

Covers associativity, half-diagram roundtrip, the tabular product axiom,
the cell congruence, and the Gram factorization oracle -- exhaustively at
k=1 and with seeded samples at k=2.  Exit code 1 if anything fails.
"""

import argparse
import json
import sys
import time

from zrelalg.cli import _SUITES, positive_int, size_int
from zrelalg.dalg import ALGEBRAS


def run(max_k, samples, seed):
    """Print one line per (algebra, k, suite); return the failure count."""
    failures = 0
    for algebra in ALGEBRAS:
        for k in range(1, max_k + 1):
            for suite in sorted(_SUITES):
                t0 = time.perf_counter()
                report = _SUITES[suite](algebra, k, samples, seed)
                status = "ok" if not report["failures"] else "FAIL"
                failures += len(report["failures"])
                print("%-10s k=%d %-12s %-4s checked=%-5d %.2fs"
                      % (algebra, k, suite, status, report["checked"],
                         time.perf_counter() - t0))
                for line in report["failures"][:5]:
                    print("    " + line)
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=positive_int, default=200)
    parser.add_argument("--seed", type=size_int, default=0)
    parser.add_argument("--max-k", type=positive_int, default=2)
    parser.add_argument("--json", action="store_true",
                        help="emit a one-line JSON summary at the end")
    args = parser.parse_args()
    failures = run(args.max_k, args.samples, args.seed)
    if args.json:
        print(json.dumps({"failures": failures}))
    sys.exit(0 if failures == 0 else 1)


if __name__ == "__main__":
    main()
