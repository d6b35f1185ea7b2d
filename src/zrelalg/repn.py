"""Cell modules, Gram matrices, radicals and irreducible dimensions.

The cell module for a label fixes the right half of the cellular basis and
lets the algebra act on the left halves; its bilinear form is x^l times
structure constants of the Murphy layer, with (l, delta) read from the
cellular basis's glue table of pairs of halves.  Radical = kernel of the
Gram matrix; dim of the irreducible head = Gram rank.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Incompatible, InvalidPoint, UnsupportedCharacteristic
from .ring import (ExactMatrix, Poly, PrimeField, Rationals, ScalarField,
                   ZERO)
from .tabular import cellular_basis


@dataclass(frozen=True)
class CellModule:
    algebra: str
    k: int
    label: object            # CellLabel
    basis: tuple             # left data (HalfDiagram, layer tableau datum)

    @property
    def dim(self):
        return len(self.basis)


def cell_module(label, algebra, k):
    data = cellular_basis(algebra, k).left_data(label)
    return CellModule(algebra, k, label, tuple(data))


def action_matrix(a, module):
    """Matrix of a on the cell module, in the pinned left-data order.

    Computed by acting on cellular basis elements with a fixed right half
    and reading same-label coordinates; lower-label residue is discarded
    by the cell congruence.
    """
    if a.algebra != module.algebra or a.k != module.k:
        raise Incompatible("element and module live in different algebras")
    cb = cellular_basis(module.algebra, module.k)
    right0 = module.basis[0]
    n = module.dim
    cols = []
    for left in module.basis:
        coords = cb.coords(a * cb.element(module.label, left, right0))
        cols.append([coords.get((module.label, target, right0), ZERO)
                     for target in module.basis])
    return ExactMatrix([[cols[j][i] for j in range(n)] for i in range(n)])


def gram(label, algebra, k):
    """Gram matrix by the factorized formula: entry ((P, s), (Q, t)) is
    x^l times the Murphy structure constant at (s, t; delta), where
    (l, delta) is the glue of P and Q in ``CellularBasis.glue``.

    The structure constant r is a number, so each entry is the one
    monomial Poly({l: r}), or the shared ZERO where the glue is None or r
    is 0.  A cell form is symmetric (Graham-Lehrer), so the upper triangle
    is filled and mirrored by reference.  Rows are tableau-major: row
    a * |M| + i is (P_i, s_a)."""
    cb = cellular_basis(algebra, k)
    tableaux = cb.tableaux(label)
    murphy = cb.layers[(label.s1, label.s2)].murphy()
    table = cb.glue(label.s1, label.s2)
    m = len(table)
    n = len(tableaux) * m
    entries = [[None] * n for _ in range(n)]
    for u in range(n):
        a, i = divmod(u, m)
        s, glue_row, row = tableaux[a], table[i], entries[u]
        for v in range(u, n):
            b, j = divmod(v, m)
            pair = glue_row[j]
            r = 0 if pair is None else murphy.struct_const(
                label.glabel, s, tableaux[b], pair[1])
            row[v] = entries[v][u] = Poly({pair[0]: r}) if r else ZERO
    return ExactMatrix(entries)


def gram_bruteforce_entry(cb, label, S, T, diagonal):
    """Oracle entry (S, T): the cellular coordinate of C'_{S,T} in
    C'_{S,S} * C'_{T,T} (Gram congruence, no factorization).

    ``diagonal`` maps a left datum U to C'_{U,U}; missing ones are built
    and kept there, so each is built once per label."""
    for U in (S, T):
        if U not in diagonal:
            diagonal[U] = cb.element(label, U, U)
    return cb.coords(diagonal[S] * diagonal[T]).get((label, S, T), ZERO)


def gram_bruteforce(label, algebra, k):
    """Oracle: the whole Gram matrix, entry by gram_bruteforce_entry."""
    cb = cellular_basis(algebra, k)
    basis = cell_module(label, algebra, k).basis
    diagonal = {}
    return ExactMatrix([[gram_bruteforce_entry(cb, label, S, T, diagonal)
                         for T in basis] for S in basis])


def radical_and_irreducible(label, algebra, k, scalar_field):
    """(dim Rad W, dim D) over the scalar field: dim D = Gram rank,
    dim Rad = dim W - rank."""
    if scalar_field.characteristic == 2:
        raise UnsupportedCharacteristic("2 must be invertible")
    g = gram(label, algebra, k)
    rank, _ = g.evaluate(scalar_field).rank_det_field(scalar_field.field)
    return (g.nrows - rank, rank)


def is_p_restricted(shape, p):
    """Every difference of consecutive parts (and the last part) < p."""
    parts = list(shape) + [0]
    return all(a - b < p for a, b in zip(parts, parts[1:]))


def is_plain_shape(glabel):
    """Partition-algebra labels are plain shapes (tuples of ints); the
    other two algebras carry ((bipartition), partition) pairs."""
    return not glabel or isinstance(glabel[0], int)


def label_p_restricted(label, p):
    glabel = label.glabel
    if is_plain_shape(glabel):
        return is_p_restricted(glabel, p)
    (l1, l2), mu = glabel
    return (is_p_restricted(l1, p) and is_p_restricted(l2, p)
            and is_p_restricted(mu, p))


def _scalar_field(char, x_value):
    """The field of characteristic char with x evaluated at x_value."""
    if x_value is None:
        raise InvalidPoint("characteristic %d needs an evaluation point x"
                           % char)
    try:
        field = Rationals() if char == 0 else PrimeField(char)
    except ValueError:
        raise UnsupportedCharacteristic(
            "characteristic must be 0 or an odd prime, got %r" % (char,))
    try:
        return ScalarField(field, x_value)
    except ZeroDivisionError:
        raise InvalidPoint("x = %s is not defined in %r" % (x_value, field))


def irreducible_table(algebra, k, char=0, x_value=None):
    """Per-label table of cell-module and irreducible dimensions.

    char 0 with x_value None works symbolically over the rational function
    field; otherwise the Gram matrix is evaluated at the given x in QQ or
    the prime field, and a prime char without x_value is an error.  Rows:
    label, dim W, dim D, whether the form is nonzero (dim D > 0, over the
    field the table works in), det (symbolic runs only) and p_restricted
    (prime char only).
    """
    symbolic = char == 0 and x_value is None
    sf = None if symbolic else _scalar_field(char, x_value)
    cb = cellular_basis(algebra, k)
    rows = []
    for label in cb.labels():
        g = gram(label, algebra, k)
        entry = {"label": label, "dim_W": g.nrows}
        if symbolic:
            rank, entry["det"] = g.rank_det_symbolic()
        else:
            rank, _ = g.evaluate(sf).rank_det_field(sf.field)
            if char != 0:
                entry["p_restricted"] = label_p_restricted(label, char)
        entry["dim_D"] = rank
        entry["nonzero"] = rank > 0
        rows.append(entry)
    return rows
