"""Print the dimension table of the three diagram algebras.

For each algebra and each k up to --max-k, reports the closed-form
dimension and (optionally) the enumerated diagram count, flagging any
disagreement.  Enumeration at k=4 is already large; the default stops
cross-checking at --check-k.
"""

import argparse
import sys
import time

from zrelalg.cli import positive_int, size_int
from zrelalg.dalg import ALGEBRAS, basis, dim_formula


def run(max_k, check_k):
    """Print the table; False if an enumerated count (k <= check_k)
    disagrees with the formula."""
    header = ["algebra", "k", "formula", "enumerated", "time_s"]
    print("  ".join(h.ljust(10) for h in header))
    ok = True
    for algebra in ALGEBRAS:
        for k in range(1, max_k + 1):
            t0 = time.perf_counter()
            dim = dim_formula(algebra, k)
            if k <= check_k:
                count = len(basis(algebra, k))
                if count != dim:
                    ok = False
                shown = str(count)
            else:
                shown = "-"
            row = [algebra, str(k), str(dim), shown,
                   "%.2f" % (time.perf_counter() - t0)]
            print("  ".join(c.ljust(10) for c in row))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-k", type=positive_int, default=3)
    parser.add_argument("--check-k", type=size_int, default=2)
    args = parser.parse_args()
    sys.exit(0 if run(args.max_k, args.check_k) else 1)


if __name__ == "__main__":
    main()
