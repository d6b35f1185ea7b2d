"""Run every verification suite over a grid of algebras and sizes.

Covers associativity, half-diagram roundtrip, the tabular product axiom,
the cell congruence, and the Gram factorization oracle -- exhaustively at
k=1 and with seeded samples at k=2.  Exit code 1 if anything fails.
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass

from zrelalg.cli import _SUITES, positive_int
from zrelalg.dalg import ALGEBRAS


@dataclass
class Config:
    algebras: tuple = ALGEBRAS
    ks: tuple = (1, 2)
    samples: int = 200
    seed: int = 0
    suites: tuple = tuple(sorted(_SUITES))


def run(config):
    failures = 0
    for algebra in config.algebras:
        for k in config.ks:
            for suite in config.suites:
                t0 = time.time()
                report = _SUITES[suite](algebra, k, config.samples,
                                        config.seed)
                status = "ok" if not report["failures"] else "FAIL"
                failures += len(report["failures"])
                print("%-10s k=%d %-12s %-4s checked=%-5d %.2fs"
                      % (algebra, k, suite, status, report["checked"],
                         time.time() - t0))
                for line in report["failures"][:5]:
                    print("    " + line)
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=positive_int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-k", type=int, default=2)
    parser.add_argument("--json", action="store_true",
                        help="emit a one-line JSON summary at the end")
    args = parser.parse_args()
    config = Config(ks=tuple(range(1, args.max_k + 1)),
                    samples=args.samples, seed=args.seed)
    failures = run(config)
    if args.json:
        print(json.dumps({"failures": failures}))
    sys.exit(0 if failures == 0 else 1)


if __name__ == "__main__":
    main()
