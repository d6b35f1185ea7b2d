"""Partitions, bipartitions, standard tableaux and dominance orders."""

from __future__ import annotations

from itertools import combinations


def check_shape(parts):
    parts = tuple(parts)
    if any(p <= 0 for p in parts):
        raise ValueError("shape parts must be positive: %r" % (parts,))
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError("shape parts must be weakly decreasing: %r" % (parts,))
    return parts


def all_shapes(n):
    """Partitions of n, descending-lex order; n=0 gives the empty shape."""
    if n == 0:
        return [()]
    out = []

    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for p in range(min(rest, maxpart), 0, -1):
            acc.append(p)
            rec(rest - p, p, acc)
            acc.pop()

    rec(n, n, [])
    return out


def all_bishapes(n):
    """Pairs of shapes with total size n."""
    return [(l1, l2) for a in range(n + 1)
            for l1 in all_shapes(a) for l2 in all_shapes(n - a)]


def standard_tableaux(shape, letters=None):
    """All standard fillings of a shape, as tuples of row tuples.

    letters defaults to 1..n; any sorted sequence may be supplied (used for
    bitableaux, where the two tableaux split a common alphabet).
    """
    shape = check_shape(shape)
    n = sum(shape)
    if letters is None:
        letters = list(range(1, n + 1))
    letters = sorted(letters)
    if len(letters) != n:
        raise ValueError("need %d letters, got %d" % (n, len(letters)))
    if n == 0:
        return [()]
    out = []
    rows = [[] for _ in shape]

    def rec(idx):
        if idx == n:
            out.append(tuple(tuple(row) for row in rows))
            return
        val = letters[idx]
        for r, width in enumerate(shape):
            c = len(rows[r])
            if c >= width:
                continue
            if r > 0 and len(rows[r - 1]) <= c:
                continue
            rows[r].append(val)
            rec(idx + 1)
            rows[r].pop()

    rec(0)
    return out


def standard_bitableaux(bishape):
    """Standard pairs: split 1..n between the two tableaux, each filled standardly."""
    l1, l2 = bishape
    n = sum(l1) + sum(l2)
    out = []
    for first in combinations(range(1, n + 1), sum(l1)):
        second = [v for v in range(1, n + 1) if v not in first]
        for t1 in standard_tableaux(l1, list(first)):
            for t2 in standard_tableaux(l2, second):
                out.append((t1, t2))
    return out


def canonical_tableau(shape, letters=None):
    """Row-reading filling (the superstandard tableau)."""
    shape = check_shape(shape)
    n = sum(shape)
    letters = sorted(letters) if letters is not None else list(range(1, n + 1))
    rows = []
    pos = 0
    for width in shape:
        rows.append(tuple(letters[pos:pos + width]))
        pos += width
    return tuple(rows)


def tableau_entries(tab):
    return [v for row in tab for v in row]


def dominates(a, b):
    """Weak dominance of partitions of the same total (partial-sum comparison)."""
    if sum(a) != sum(b):
        raise ValueError("dominance needs equal totals")
    ta = tb = 0
    for i in range(max(len(a), len(b))):
        ta += a[i] if i < len(a) else 0
        tb += b[i] if i < len(b) else 0
        if ta < tb:
            return False
    return True


def strictly_dominates(a, b):
    return a != b and dominates(a, b)


def bishape_dominates(x, y):
    """Weak dominance for bipartitions: first-component size wins outright,
    then partial sums of the concatenated sequences are compared."""
    if sum(x[0]) + sum(x[1]) != sum(y[0]) + sum(y[1]):
        raise ValueError("dominance needs equal totals")
    if sum(x[0]) != sum(y[0]):
        return sum(x[0]) > sum(y[0])
    return dominates(x[0] + x[1], y[0] + y[1])


def bishape_strictly_dominates(x, y):
    return x != y and bishape_dominates(x, y)


def shape_sort_key(shape):
    """Deterministic total-order key refining reverse dominance would be
    overkill; descending-lex on parts is stable and reproducible."""
    return tuple(-p for p in shape)


def bishape_sort_key(bishape):
    return (-sum(bishape[0]), shape_sort_key(bishape[0]), shape_sort_key(bishape[1]))
