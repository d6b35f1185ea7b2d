"""Record the answers the benchmark checks against, into expected.json.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/record.py

Records, for every algebra and size the workloads use: the symbolic
irreducible table (dim W, dim D, nonzero form, Gram determinant) and the
ranks at x = 0, 1, 2 over Q for cells-k2; a digest of the diagrams-k3
reference products; the symbolic Gram determinant of every gram-k3 label
with at most ``symbolic_max_rows`` rows.  Run it only on a commit whose
answers are trusted: the benchmark then reports any later change of these
answers as a failure.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

from zrelalg import cli, dalg, repn, ring, tabular

import rep


def cell_answers(algebra, k):
    out = {"symbolic": {}}
    for row in repn.irreducible_table(algebra, k):
        det = str(row["det"])
        if ring.Poly.parse(det) != row["det"]:
            raise AssertionError("determinant does not round-trip: " + det)
        out["symbolic"][cli.format_label(row["label"])] = {
            "dim_W": row["dim_W"], "dim_D": row["dim_D"],
            "nonzero": row["nonzero"], "det": det}
    for x in rep.QQ_POINTS:
        rows = repn.irreducible_table(algebra, k, char=0, x_value=Fraction(x))
        out["x=%d" % x] = {cli.format_label(r["label"]): r["dim_D"]
                           for r in rows}
    return out


def gram_answers(algebra, k, cut):
    out = {}
    for s1, s2, halves, layer, mur in rep.gram_layers(algebra, k):
        for glabel in mur.labels():
            g = rep.assemble_gram(halves, layer, mur, glabel)
            if g.nrows <= cut:
                label = cli.format_label(tabular.CellLabel(s1, s2, glabel))
                out[label] = str(g.rank_det_symbolic()[1])
    return out


def product_answers(algebra, k, spec):
    diagrams = dalg.basis(algebra, k)
    pairs = rep.reference_inputs(algebra, k, diagrams, spec)
    return rep.products_digest([a * b for a, b in pairs])


def main():
    expected = {"cells": {}, "gram": {}, "products": {}}
    for spec in rep.WORKLOADS["cells-k2"].values():
        for algebra, k in spec["algebras"]:
            expected["cells"][rep.key_of(algebra, k)] = cell_answers(algebra,
                                                                     k)
    for spec in rep.WORKLOADS["diagrams-k3"].values():
        for algebra, k in spec["algebras"]:
            expected["products"][rep.key_of(algebra, k)] = product_answers(
                algebra, k, spec)
    for spec in rep.WORKLOADS["gram-k3"].values():
        for algebra, k in spec["algebras"]:
            expected["gram"][rep.key_of(algebra, k)] = gram_answers(
                algebra, k, spec["symbolic_max_rows"])
    with open(rep.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % os.path.relpath(rep.EXPECTED_PATH))
    return 0


if __name__ == "__main__":
    sys.exit(main())
