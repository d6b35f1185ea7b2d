"""Tabulate cell-module and irreducible dimensions across evaluations.

For each algebra and k, prints the symbolic (generic) table and then the
table at chosen degenerate points -- by default x=0 and x=1 over the
rationals -- so rank drops of the Gram forms are visible side by side.
"""

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction

from zrelalg.cli import _rational, format_label
from zrelalg.dalg import ALGEBRAS
from zrelalg.errors import ZRelError
from zrelalg.repn import irreducible_table


@dataclass
class Config:
    algebras: tuple = ALGEBRAS
    k: int = 1
    points: tuple = (Fraction(0), Fraction(1))
    char: int = 0


def run(config):
    for algebra in config.algebras:
        print("== %s, k=%d ==" % (algebra, config.k))
        generic = irreducible_table(algebra, config.k)
        tables = [("generic", generic)]
        for x in config.points:
            tables.append(("x=%s" % x,
                           irreducible_table(algebra, config.k,
                                             char=config.char, x_value=x)))
        labels = [row["label"] for row in generic]
        print("%-16s %6s %s" % ("label", "dim_W",
                                " ".join("%8s" % name
                                         for name, _ in tables)))
        for i, label in enumerate(labels):
            dims = " ".join("%8d" % table[i]["dim_D"]
                            for _, table in tables)
            print("%-16s %6d %s" % (format_label(label),
                                    generic[i]["dim_W"], dims))
        print()


def _points(text):
    return tuple(_rational(p) for p in text.split(","))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--char", type=int, default=0,
                        help="0 or an odd prime")
    parser.add_argument("--points", type=_points, default="0,1",
                        help="comma-separated rational evaluation points; "
                             "write negative ones as --points=-1/2,0")
    args = parser.parse_args()
    try:
        run(Config(k=args.k, points=args.points, char=args.char))
    except ZRelError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
