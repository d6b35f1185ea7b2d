"""Cell modules, Gram matrices, radicals and irreducible dimensions.

The cell module for a label fixes the right half of the cellular basis and
lets the algebra act on the left halves; its bilinear form is x^l times
structure constants of the Murphy layer, with (l, delta) read from the
cellular basis's glue table of pairs of halves.  Radical = kernel of the
Gram matrix; dim of the irreducible head = Gram rank.

Symbolic tables build the Gram matrix over Z[x]; tables at a point x0 over
a field (Graham-Lehrer: dim D = rank of the cell form at x0) build it
directly as field scalars, one value per glue pair and tableau pair.
"""

from __future__ import annotations

from .errors import Incompatible, InvalidPoint, UnsupportedCharacteristic
from .frozen import Frozen
from .ring import (ExactMatrix, Poly, PrimeField, Rationals, ScalarField,
                   ZERO)
from .tabular import cellular_basis


class CellModule(Frozen):
    """(algebra, k, label, basis): the cell module of a CellLabel, its
    basis the tuple of left data (HalfDiagram, layer tableau datum)."""

    __slots__ = _fields = ("algebra", "k", "label", "basis")

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


def gram(label, algebra, k, scalar_field=None):
    """Gram matrix by the factorized formula: entry ((P, s), (Q, t)) is
    x^l times the Murphy structure constant r at (s, t; delta), where
    (l, delta) is the glue of P and Q in ``CellularBasis.glue``.

    Without a scalar field each entry is the one monomial Poly({l: r}), or
    the shared ZERO where the glue is None or r is 0.  With one, it is the
    field scalar reduce(field(r) * x0^l), or 0, equal to the same entry of
    ``gram(...).evaluate(scalar_field)`` with no Poly built.

    Rows are tableau-major: row a * |M| + i is (P_i, s_a).  The loop runs
    over tableau pairs a <= b; inside that block the glue table's shared
    (l, delta) tuples repeat, so each entry value is computed once per
    tuple, keyed by its identity.  A cell form is symmetric
    (Graham-Lehrer), so the upper triangle is filled and mirrored by
    reference."""
    cb = cellular_basis(algebra, k)
    tableaux = cb.tableaux(label)
    struct_const = cb.layers[(label.s1, label.s2)].murphy().struct_const
    glabel = label.glabel
    table = cb.glue(label.s1, label.s2)
    m = len(table)
    n = len(tableaux) * m
    if scalar_field is None:
        zero, term = ZERO, lambda r, l: Poly({l: r})
    else:
        field, power = scalar_field.field, scalar_field.power
        zero, term = 0, lambda r, l: field.reduce(field(r) * power(l))
    entries = [[None] * n for _ in range(n)]
    for a, s in enumerate(tableaux):
        for b in range(a, len(tableaux)):
            t, values = tableaux[b], {}
            for i, glue_row in enumerate(table):
                u = a * m + i
                row = entries[u]
                for j in range(i if a == b else 0, m):
                    pair = glue_row[j]
                    if pair is None:
                        value = zero
                    else:
                        value = values.get(id(pair))
                        if value is None:
                            r = struct_const(glabel, s, t, pair[1])
                            value = values[id(pair)] = (
                                term(r, pair[0]) if r else zero)
                    v = b * m + j
                    row[v] = entries[v][u] = value
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
    g = gram(label, algebra, k, scalar_field)
    rank, _ = g.rank_det_field(scalar_field.field)
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
    field; otherwise the Gram matrix is assembled at the given x over QQ or
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
        g = gram(label, algebra, k, sf)
        entry = {"label": label, "dim_W": g.nrows}
        if symbolic:
            rank, entry["det"] = g.rank_det_symbolic()
        else:
            rank, _ = g.rank_det_field(sf.field)
            if char != 0:
                entry["p_restricted"] = label_p_restricted(label, char)
        entry["dim_D"] = rank
        entry["nonzero"] = rank > 0
        rows.append(entry)
    return rows
