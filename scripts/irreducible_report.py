"""Tabulate cell-module and irreducible dimensions across evaluations.

For each algebra and k, prints the symbolic (generic) table and then the
table at chosen degenerate points -- by default x=0 and x=1 over the
rationals -- so rank drops of the Gram forms are visible side by side.

Under each algebra's rows, a ``quasi-hereditary`` line says per table
whether every cell form is nonzero (every dim_D > 0).  That is when the
cellular algebra over that field is quasi-hereditary (Graham-Lehrer,
Invent. Math. 1996, section 3; Koenig-Xi, Math. Ann. 1999).
"""

import argparse
import sys

from zrelalg.cli import _rational, format_label, positive_int, size_int
from zrelalg.dalg import ALGEBRAS
from zrelalg.errors import ZRelError
from zrelalg.repn import irreducible_table


def run(k, points, char):
    for algebra in ALGEBRAS:
        print("== %s, k=%d ==" % (algebra, k))
        generic = irreducible_table(algebra, k)
        tables = [("generic", generic)]
        for x in points:
            tables.append(("x=%s" % x, irreducible_table(
                algebra, k, char=char, x_value=x)))
        labels = [row["label"] for row in generic]
        print("%-16s %6s %s" % ("label", "dim_W",
                                " ".join("%8s" % name
                                         for name, _ in tables)))
        for i, label in enumerate(labels):
            dims = " ".join("%8d" % table[i]["dim_D"]
                            for _, table in tables)
            print("%-16s %6d %s" % (format_label(label),
                                    generic[i]["dim_W"], dims))
        print("%-16s %6s %s" % ("quasi-hereditary", "", " ".join(
            "%8s" % ("yes" if all(row["dim_D"] for row in table) else "no")
            for _, table in tables)))
        print()


def _points(text):
    return tuple(_rational(p) for p in text.split(","))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=positive_int, default=1)
    parser.add_argument("--char", type=size_int, default=0,
                        help="0 or an odd prime")
    parser.add_argument("--points", type=_points, default="0,1",
                        help="comma-separated rational evaluation points; "
                             "write negative ones as --points=-1/2,0")
    args = parser.parse_args()
    try:
        run(args.k, args.points, args.char)
    except ZRelError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
