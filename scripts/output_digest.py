"""Print one CRC-32 line per output family, so that a refactor can be
checked to leave every output unchanged with ``diff``.

Families (public API only):

* ``gram-csv``: the CSV of every Gram matrix of the three algebras, k <= 3;
* ``irreducibles``: stdout and exit code of ``zrelalg irreducibles``,
  symbolic and at ``--x=0|1|2|-1/2`` over Q and ``--char 7 --x 3`` for
  k <= 2, and ``--k 3 --char 2147483647 --x 12345`` for signed and z2rel;
* ``rank-det-field`` and ``nullspace-field``: ``rank_det_field`` and
  ``nullspace_field`` of every Gram matrix at those points, with scalars
  printed as ``str(Fraction(v))``;
* ``murphy-coords``: ``MurphyBasis.coords(GAElement.of(g))`` for every
  group element g of every Murphy layer the three algebras use at k <= 3,
  keyed by the glue ``layer.to_glue(g)`` as tuples of ints and listed in
  sorted glue order, so that the line does not depend on how group
  elements are represented;
* ``struct-const``: ``MurphyBasis.struct_const(label, s, t, g)`` for every
  record (label, s, t) and group element g of the same layers, one line per
  g in record order, keyed and sorted by glue as ``murphy-coords`` is;
* ``murphy-records``: the element of every record of the same layers, one
  line per record in record order, its terms keyed by glue and sorted;
* ``symbolic-det``: ``rank_det_symbolic`` of every Gram matrix, k <= 3,
  with the determinant printed by ``str``;
* ``phi``: ``tabular.phi(P, Q)`` for every pair of halves of every
  (s1, s2) of the three algebras, k <= 3, as l, f and the image tuples of
  both permutations (or None);
* ``glue``: every entry of ``CellularBasis.glue(s1, s2)`` for every layer
  of the three algebras, k <= 3, as l and the image tuple of delta (or
  None), row by row;
* ``compose``: ``zpart.compose(d1, d2)``, diagram and loop count, for
  every pair of basis diagrams of the three algebras at k <= 2 and for
  2,000 pairs per algebra at k = 3 drawn with ``random.Random(11)``;
* ``decompose``: ``tabular.decompose(d)`` for every basis diagram of the
  three algebras, k <= 3, as both halves and its group element split into
  f and the image tuples of sigma1 and sigma2 (``groups.split_signed``);
* ``star-reconstruct``: ``dalg.star_diagram(d)`` and
  ``tabular.reconstruct(*decompose(d))`` for every basis diagram of the
  three algebras, k <= 3;
* ``classes``: every partition d in ``zpart.enumerate_rk(k, rows)``,
  k <= 3, rows 1 and 2, with ``tuple(d.index)`` and its lead blocks as
  (b, symmetric), and ``propagating_data(d)`` and ``in_basis("signed", d)``
  for two rows.

Usage: ``PYTHONPATH=src python scripts/output_digest.py``, once on each
tree, then ``diff`` the two outputs.
"""

import contextlib
import io
import random
import zlib
from fractions import Fraction

from zrelalg import cli
from zrelalg.dalg import ALGEBRAS, basis, in_basis, star_diagram
from zrelalg.groups import GAElement, split_signed
from zrelalg.repn import gram
from zrelalg.ring import ScalarField
from zrelalg.tabular import cellular_basis, decompose, phi, reconstruct
from zrelalg.zpart import (_lead_blocks, compose, enumerate_rk,
                           propagating_data)

BIG_PRIME = 2147483647
Q_POINTS = ("0", "1", "2", "-1/2")


def _points(algebra, k):
    """(CLI arguments, ScalarField) for every point checked at this size."""
    if k <= 2:
        out = [(["--x=%s" % x], ScalarField.rationals(Fraction(x)))
               for x in Q_POINTS]
        out.append((["--char", "7", "--x", "3"], ScalarField.prime(7, 3)))
        return out
    if algebra != "partition":
        return [(["--char", str(BIG_PRIME), "--x", "12345"],
                 ScalarField.prime(BIG_PRIME, 12345))]
    return []


def _scalar(v):
    return str(Fraction(v))


def _glue(layer, g):
    f, sigma1, sigma2 = layer.to_glue(g)
    return (tuple(f), sigma1.images, sigma2.images)


def _irreducibles(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["irreducibles"] + argv)
    return "%s\nexit %d\n%s" % (" ".join(argv), code, buf.getvalue())


def families():
    out = {name: [] for name in ("gram-csv", "irreducibles", "rank-det-field",
                                 "nullspace-field", "murphy-coords",
                                 "struct-const", "murphy-records",
                                 "symbolic-det", "phi", "glue",
                                 "compose", "decompose", "star-reconstruct",
                                 "classes")}
    layers = {}
    rng = random.Random(11)
    for algebra in ALGEBRAS:
        for k in (1, 2, 3):
            diagrams = basis(algebra, k)
            if k <= 2:
                pairs = [(d1, d2) for d1 in diagrams for d2 in diagrams]
            else:
                pairs = [(rng.choice(diagrams), rng.choice(diagrams))
                         for _ in range(2000)]
            for d1, d2 in pairs:
                out["compose"].append("%s %d %r %r %r %d"
                                      % ((algebra, k, d1, d2)
                                         + compose(d1, d2)))
            for d in diagrams:
                top, bot, g = decompose(d)
                f, sigma1, sigma2 = split_signed(g, top.s1)
                out["decompose"].append("%s %d %r %r %r %r %r %r"
                                        % (algebra, k, d, top, bot, f,
                                           sigma1.images, sigma2.images))
                out["star-reconstruct"].append(
                    "%s %d %r %r %r" % (algebra, k, d, star_diagram(d),
                                        reconstruct(top, bot, g)))
            cb = cellular_basis(algebra, k)
            layers.update((layer, None) for layer in cb.layers.values())
            points = _points(algebra, k)
            for halves in cb.M.values():
                for P in halves:
                    for Q in halves:
                        res = phi(P, Q)
                        if res is not None:
                            l, f, sigma1, sigma2 = res
                            res = (l, f, sigma1.images, sigma2.images)
                        out["phi"].append("%s %d %r %r %r"
                                          % (algebra, k, P, Q, res))
            for (s1, s2), halves in cb.M.items():
                for P, row in zip(halves, cb.glue(s1, s2)):
                    for Q, pair in zip(halves, row):
                        if pair is not None:
                            pair = (pair[0], pair[1].images)
                        out["glue"].append("%s %d %r %r %r"
                                           % (algebra, k, P, Q, pair))
            common = ["--algebra", algebra, "--k", str(k)]
            if k <= 2:
                out["irreducibles"].append(_irreducibles(common))
            for argv, _ in points:
                out["irreducibles"].append(_irreducibles(common + argv))
            for label in cb.labels():
                g = gram(label, algebra, k)
                head = "%s %d %r" % (algebra, k, label)
                out["gram-csv"].append(head + "\n" + g.to_csv())
                rank, det = g.rank_det_symbolic()
                out["symbolic-det"].append("%s %d %s" % (head, rank, det))
                for _, sf in points:
                    m = g.evaluate(sf)
                    rank, det = m.rank_det_field(sf.field)
                    out["rank-det-field"].append(
                        "%s %r %d %s" % (head, sf, rank, _scalar(det)))
                    kernel = m.nullspace_field(sf.field)
                    out["nullspace-field"].append(
                        "%s %r %s" % (head, sf, [[_scalar(v) for v in vec]
                                                 for vec in kernel]))
    for layer in layers:
        mb = layer.murphy()
        lines, consts = {}, {}
        for g in mb.elements:
            glue = _glue(layer, g)
            lines[glue] = "%r %r %s" % (layer, glue, [
                str(c) for c in mb.coords(GAElement.of(g))])
            consts[glue] = "%r %r %s" % (layer, glue, [
                str(mb.struct_const(r.label, r.s, r.t, g))
                for r in mb.records])
        out["murphy-coords"].extend(lines[glue] for glue in sorted(lines))
        out["struct-const"].extend(consts[glue] for glue in sorted(consts))
        for r in mb.records:
            terms = sorted((_glue(layer, g), str(c))
                           for g, c in r.element.terms.items())
            out["murphy-records"].append("%r %r %r %r %s" % (
                layer, r.label, r.s, r.t, terms))
    for k in (1, 2, 3):
        for rows in (1, 2):
            for d in enumerate_rk(k, rows):
                lead = tuple([(b, symmetric)
                              for b, symmetric, _ in _lead_blocks(d)])
                line = "%d %d %r %r %r" % (k, rows, d, tuple(d.index), lead)
                if rows == 2:
                    line += " %r %r" % (propagating_data(d),
                                        in_basis("signed", d))
                out["classes"].append(line)
    return out


def main():
    for name, texts in families().items():
        crc = zlib.crc32("\n".join(texts).encode())
        print("%-16s %08x %d" % (name, crc, len(texts)))


if __name__ == "__main__":
    main()
