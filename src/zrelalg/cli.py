"""Command-line interface: enumeration, arithmetic, verification, tables.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from .dalg import (ALGEBRAS, AlgebraElement, basis as algebra_basis,
                   dim_formula)
from .errors import UsageError, ZRelError
from .groups import split_signed
from .repn import (cell_module, gram, gram_bruteforce_entry,
                   irreducible_table, is_plain_shape)
from .ring import parse_rational
from .tabular import (CellLabel, cellular_basis, decompose, reconstruct,
                      verify_table_datum)
from .zpart import ZStablePartition, json_size


def _parse_shape(text):
    if text == "-":
        return ()
    try:
        parts = tuple(json_size(p) for p in text.split("."))
    except ValueError:
        raise UsageError("bad shape %r (use e.g. 2.1 or -)" % text)
    return parts


def parse_label(text, algebra):
    """Parse "r,s1,s2,l1,l2,mu" with dot-separated shapes and "-" empty.
    Counts and parts are ASCII digits, as sizes in JSON are.

    For the partition algebra the group layer is a single symmetric group;
    its shape goes in the l1 slot and l2/mu must be "-".
    """
    fields = text.split(",")
    if len(fields) != 6:
        raise UsageError("label must have 6 comma-separated fields, got %r"
                         % text)
    try:
        r, s1, s2 = (json_size(f) for f in fields[:3])
    except ValueError:
        raise UsageError("label counts must be ASCII digits: %r" % text)
    if r != 2 * s1 + s2:
        raise UsageError("label has r != 2*s1+s2: %r" % text)
    l1, l2, mu = (_parse_shape(f) for f in fields[3:])
    if algebra == "partition":
        if l2 or mu or s2 != 0:
            raise UsageError("partition-algebra labels use only the l1 slot "
                             "and s2=0: %r" % text)
        return CellLabel(s1, 0, l1)
    if sum(l1) + sum(l2) != s1 or sum(mu) != s2:
        raise UsageError("shape sizes must match s1/s2: %r" % text)
    return CellLabel(s1, s2, ((l1, l2), mu))


def format_label(label):
    def shape(s):
        return ".".join(str(p) for p in s) if s else "-"

    if is_plain_shape(label.glabel):
        return "%d,%d,%d,%s,-,-" % (label.r, label.s1, label.s2,
                                    shape(label.glabel))
    (l1, l2), mu = label.glabel
    return "%d,%d,%d,%s,%s,%s" % (label.r, label.s1, label.s2,
                                  shape(l1), shape(l2), shape(mu))


def _write_out(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path, from_json):
    """Read an operand file; content that does not parse is a usage error."""
    with open(path) as fh:
        try:
            return from_json(json.load(fh))
        except (ValueError, KeyError, TypeError, AttributeError,
                RecursionError) as exc:
            raise UsageError("%s is not a valid operand file: %s: %s"
                             % (path, type(exc).__name__, exc))


def size_int(text):
    """argparse type: an integer >= 0 in ASCII digits, as ``json_size``
    reads sizes (``int`` would take " 3", "+3", "0_3" and non-ASCII
    digits)."""
    try:
        return json_size(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not ASCII digits: %r" % text)


def positive_int(text):
    """argparse type: an integer >= 1 in ASCII digits."""
    try:
        value = json_size(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("not an integer >= 1: %r" % text)
    return value


def cmd_dim(args):
    if args.method == "formula":
        print(dim_formula(args.algebra, args.k))
    else:
        print(len(algebra_basis(args.algebra, args.k)))
    return 0


def cmd_basis(args):
    lines = [json.dumps(d.to_json(), sort_keys=True)
             for d in algebra_basis(args.algebra, args.k)]
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def cmd_mul(args):
    a = _load(args.a, AlgebraElement.from_json)
    b = _load(args.b, AlgebraElement.from_json)
    if a.k != args.k or b.k != args.k:
        raise UsageError("operands have k=%d,%d but --k %d"
                         % (a.k, b.k, args.k))
    print(json.dumps((a * b).to_json(), sort_keys=True))
    return 0


def cmd_decompose(args):
    d = _load(args.diagram, ZStablePartition.from_json)
    if d.k != args.k:
        raise UsageError("diagram has k=%d but --k %d" % (d.k, args.k))
    top, bot, g = decompose(d)
    f, sigma1, sigma2 = split_signed(g, top.s1)
    print(json.dumps({
        "top": top.to_json(),
        "bottom": bot.to_json(),
        "group": {"f": list(f), "sigma1": list(sigma1.images),
                  "sigma2": list(sigma2.images)},
    }, sort_keys=True))
    return 0


def _suite_assoc(algebra, k, samples, seed):
    rng = random.Random(seed)
    diagrams = algebra_basis(algebra, k)
    report = {"checked": 0, "failures": []}
    if k <= 1:
        triples = [(a, b, c) for a in diagrams for b in diagrams
                   for c in diagrams]
    else:
        triples = [tuple(rng.choice(diagrams) for _ in range(3))
                   for _ in range(samples)]
    for da, db, dc in triples:
        a = AlgebraElement.of(algebra, da)
        b = AlgebraElement.of(algebra, db)
        c = AlgebraElement.of(algebra, dc)
        report["checked"] += 1
        if (a * b) * c != a * (b * c):
            report["failures"].append("associativity: %r %r %r" % (da, db, dc))
    return report


def _suite_roundtrip(algebra, k, samples, seed):
    report = {"checked": 0, "failures": []}
    for d in algebra_basis(algebra, k):
        report["checked"] += 1
        if reconstruct(*decompose(d)) is not d:
            report["failures"].append("roundtrip: %r" % (d,))
    return report


def _suite_cellular(algebra, k, samples, seed):
    rng = random.Random(seed)
    cb = cellular_basis(algebra, k)
    diagrams = algebra_basis(algebra, k)
    cells = cb.cells()
    report = {"checked": 1, "failures": []}
    # Each (P, Q) block carries a Murphy basis across g -> reconstruct
    # (P, Q, g), so the cells form a basis exactly when reconstruct is a
    # bijection onto the diagrams: they cover them and are as many.
    support = set()
    for cell in cells:
        support.update(cb.element(*cell).terms)
    expected = set(diagrams)
    if len(cells) != len(diagrams) or support != expected:
        report["failures"].append(
            "cellular basis: %d cells cover %d of %d diagrams"
            % (len(cells), len(support & expected), len(diagrams)))
    if k <= 1:
        pairs = [(d, cell) for d in diagrams for cell in cells]
    else:
        pairs = [(rng.choice(diagrams), rng.choice(cells))
                 for _ in range(samples)]
    for d, (label, left, right) in pairs:
        coords = cb.coords(AlgebraElement.of(algebra, d)
                           * cb.element(label, left, right))
        report["checked"] += 1
        for label2, _, right2 in coords:
            if label2 == label:
                if right2 != right:
                    report["failures"].append(
                        "right half changed: %r on %r" % (d, label))
                    break
            elif not cb.label_lt(label2, label):
                report["failures"].append(
                    "label escaped upward: %r on %r -> %r"
                    % (d, label, label2))
                break
    return report


def _suite_gram_oracle(algebra, k, samples, seed):
    rng = random.Random(seed)
    cb = cellular_basis(algebra, k)
    report = {"checked": 0, "failures": []}
    for label in cb.labels():
        g = gram(label, algebra, k)
        basis = cell_module(label, algebra, k).basis
        n = g.nrows
        if k <= 1 or n * n <= samples:
            cells = [(i, j) for i in range(n) for j in range(n)]
        else:
            cells = [(rng.randrange(n), rng.randrange(n))
                     for _ in range(samples)]
        diagonal = {}
        for i, j in cells:
            report["checked"] += 1
            expected = gram_bruteforce_entry(cb, label, basis[i], basis[j],
                                             diagonal)
            if g[i, j] != expected:
                report["failures"].append(
                    "gram mismatch at %r (%d,%d): %s vs %s"
                    % (label, i, j, g[i, j], expected))
    return report


_SUITES = {
    "assoc": _suite_assoc,
    "roundtrip": _suite_roundtrip,
    "tabular": lambda a, k, samples, seed: verify_table_datum(
        a, k, samples=samples, seed=seed),
    "cellular": _suite_cellular,
    "gram-oracle": _suite_gram_oracle,
}


def cmd_verify(args):
    t0 = time.perf_counter()
    report = _SUITES[args.suite](args.algebra, args.k, args.samples, args.seed)
    report.setdefault("elapsed_ms", int((time.perf_counter() - t0) * 1000))
    print(json.dumps(report, sort_keys=True))
    return 0 if not report["failures"] else 1


def cmd_gram(args):
    label = parse_label(args.label, args.algebra)
    g = gram(label, args.algebra, args.k)
    _write_out(g.to_csv(), args.out)
    return 0


def _rational(text):
    """argparse type: a rational number by ``ring.parse_rational``."""
    try:
        return parse_rational(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not a rational number: %r" % text)


def cmd_irreducibles(args):
    char = args.char
    rows = irreducible_table(args.algebra, args.k, char=char, x_value=args.x)
    header = ["label", "dim_W", "dim_D", "nonzero"]
    if char != 0:
        header.append("p_restricted")
    if args.x is None:
        header.append("det")
    table = [header]
    for row in rows:
        cells = [format_label(row["label"]), str(row["dim_W"]),
                 str(row["dim_D"]), "yes" if row["nonzero"] else "no"]
        if char != 0:
            cells.append("yes" if row["p_restricted"] else "no")
        if args.x is None:
            cells.append(str(row["det"]))
        table.append(cells)
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zrelalg",
        description="Exact arithmetic for sign-stable diagram algebras")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--algebra", choices=ALGEBRAS, required=True)
        p.add_argument("--k", type=size_int, required=True)

    p = sub.add_parser("dim", help="dimension of the algebra")
    common(p)
    p.add_argument("--method", choices=["formula", "enumerate"],
                   default="formula")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("basis", help="dump the diagram basis as JSON lines")
    common(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("mul", help="multiply two element JSON files")
    p.add_argument("--k", type=size_int, required=True)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("decompose",
                       help="split a diagram into halves and group element")
    p.add_argument("--k", type=size_int, required=True)
    p.add_argument("diagram")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p.add_argument("--seed", type=size_int, default=0)
    p.add_argument("--samples", type=positive_int, default=200)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gram", help="Gram matrix of a cell module as CSV")
    common(p)
    p.add_argument("--label", required=True,
                   help='"r,s1,s2,l1,l2,mu" with shapes like 2.1, "-" empty')
    p.add_argument("--out")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("irreducibles",
                       help="cell-module and irreducible dimension table")
    common(p)
    p.add_argument("--char", type=size_int, default=0,
                   help="field characteristic: 0 or an odd prime")
    p.add_argument("--x", type=_rational,
                   help="evaluation point for x (rational); required "
                        "when --char is not 0; write a negative one as "
                        "--x=-1/2")
    p.set_defaults(func=cmd_irreducibles)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ZRelError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
