"""Exact coefficient arithmetic: rational polynomials in x, scalar fields, exact matrices.

Exact scalars are plain ``int`` and ``fractions.Fraction`` values, kept as
given -- no floating point anywhere.  Polynomials are sparse maps degree ->
coefficient.  A field is a ``reduce`` (the identity on Q, ``% p`` on F_p),
an ``inv`` and its characteristic ``p``; its elements use Python's own
operators.  Elimination reduces its pivot row and row updates inline by
``% p``, and not at all over Q.
A square symbolic determinant is computed multimodularly: with v and D the
least and greatest assignment sums of entry degrees (Hungarian method,
``_min_assignment``), det / x^v is evaluated at the D - v + 1 nonzero points
x = 1..D - v + 1 modulo word-size primes, Newton-interpolated and combined
by the Chinese remainder theorem up to a deterministic coefficient bound
(von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 5).  Fraction-free
(Bareiss) elimination is the fallback for non-square or singular input and
the test oracle.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm, prod


class Poly:
    """Univariate polynomial over Q in the parameter x: coefficients (int or
    Fraction) are kept as given, zeros dropped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {d: v for d, v in coeffs.items() if v} if coeffs else {}

    @staticmethod
    def const(value):
        return Poly({0: value})

    @staticmethod
    def x(power=1):
        return Poly({power: 1})

    @property
    def degree(self):
        """Degree, or -1 for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else -1

    def is_zero(self):
        return not self.coeffs

    def is_const(self):
        return self.degree <= 0

    def const_value(self):
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return self.coeffs.get(0, 0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        c = dict(self.coeffs)
        for d, v in other.coeffs.items():
            c[d] = c.get(d, 0) + v
        return Poly(c)

    __radd__ = __add__

    def __neg__(self):
        return Poly({d: -v for d, v in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return Poly.const(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        c = {}
        for d1, v1 in self.coeffs.items():
            for d2, v2 in other.coeffs.items():
                d = d1 + d2
                c[d] = c.get(d, 0) + v1 * v2
        return Poly(c)

    __rmul__ = __mul__

    def divmod(self, other):
        """Polynomial long division over Q."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = dict(self.coeffs)
        quo = {}
        dother = other.degree
        lead = other.coeffs[dother]
        while rem:
            drem = max(rem)
            if drem < dother:
                break
            factor = Fraction(rem[drem]) / lead
            quo[drem - dother] = factor
            for d, v in other.coeffs.items():
                dd = d + drem - dother
                nv = rem.get(dd, 0) - factor * v
                if nv:
                    rem[dd] = nv
                elif dd in rem:
                    del rem[dd]
        return Poly(quo), Poly(rem)

    def exact_div(self, other):
        """Division known to be exact (used by Bareiss elimination)."""
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ArithmeticError("inexact polynomial division")
        return q

    def to_json(self):
        return {"coeffs": {str(d): str(v) for d, v in sorted(self.coeffs.items())}}

    @staticmethod
    def from_json(obj):
        """Inverse of to_json; a negative degree (a Laurent term), a zero
        denominator, or a coefficient that is neither a string nor an int
        (a float or a bool) is a ValueError."""
        raw = obj["coeffs"]
        if not all(isinstance(v, (str, int)) and not isinstance(v, bool)
                   for v in raw.values()):
            raise ValueError("coefficients must be strings or integers: %r"
                             % (raw,))
        try:
            coeffs = {int(d): Fraction(v) for d, v in raw.items()}
        except ZeroDivisionError as exc:
            raise ValueError("zero denominator in %r" % (raw,)) from exc
        if any(d < 0 for d in coeffs):
            raise ValueError("negative degree in %r" % (raw,))
        return Poly(coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for d in sorted(self.coeffs, reverse=True):
            v = self.coeffs[d]
            if d == 0:
                term = str(v)
            else:
                xs = "x" if d == 1 else "x^%d" % d
                if v == 1:
                    term = xs
                elif v == -1:
                    term = "-" + xs
                else:
                    term = "%s*%s" % (v, xs)
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out

    __repr__ = __str__

    @staticmethod
    def parse(text):
        """Inverse of __str__ (also accepts plain rationals)."""
        text = text.replace(" ", "")
        if not text:
            raise ValueError("empty polynomial string")
        text = text.replace("-", "+-")
        coeffs = {}
        for term in text.split("+"):
            if not term:
                continue
            if "x" in term:
                coef, _, pow_part = term.partition("x")
                if coef in ("", "-"):
                    coef += "1"
                coef = coef.rstrip("*")
                deg = int(pow_part[1:]) if pow_part.startswith("^") else 1
            else:
                coef, deg = term, 0
            coeffs[deg] = coeffs.get(deg, 0) + Fraction(coef)
        return Poly(coeffs)


ZERO = Poly()
ONE = Poly.const(1)


class Rationals:
    """The field Q."""

    p = 0

    def __call__(self, value):
        return Fraction(value)

    def reduce(self, a):
        return a

    def inv(self, a):
        return Fraction(1, a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")


# Miller-Rabin on the first thirteen primes as bases decides primality of
# every n below this bound, psi_13 (Sorenson & Webster, Math. Comp. 2017;
# OEIS A014233).  The first twelve bases alone are exact only below psi_12,
# which is itself a strong pseudoprime to all twelve.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n):
    """Deterministic primality for n < _MR_BOUND; ValueError above it."""
    if n >= _MR_BOUND:
        raise ValueError("cannot certify primality of %d (at least %d)"
                         % (n, _MR_BOUND))
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        y = pow(a, d, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p for an odd prime p; elements are ints in [0, p)."""

    def __init__(self, p):
        if p < 3 or not is_prime(p):
            raise ValueError("p must be an odd prime, got %r" % p)
        self.p = p

    def __call__(self, value):
        if type(value) is int:
            return value % self.p
        value = Fraction(value)
        num = value.numerator % self.p
        den = value.denominator % self.p
        if den == 0:
            raise ZeroDivisionError("denominator divisible by %d" % self.p)
        return num * pow(den, -1, self.p) % self.p

    def reduce(self, a):
        return a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError
        return pow(a, -1, self.p)

    def __repr__(self):
        return "GF(%d)" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = Rationals()

_CRT_PRIMES = []                    # PrimeField of each prime, certified once


def _crt_prime(i):
    """The field of the i-th prime below 2^60, counting down; found on
    first use."""
    while len(_CRT_PRIMES) <= i:
        q = (_CRT_PRIMES[-1].p if _CRT_PRIMES else 2**60 + 1) - 2
        while not is_prime(q):
            q -= 2
        _CRT_PRIMES.append(PrimeField(q))
    return _CRT_PRIMES[i]


def _interpolate(values, p):
    """Coefficients mod p, lowest first, of the polynomial of degree below
    len(values) that takes values[i] at x = i + 1: Newton's divided
    differences, then the Newton form expanded by Horner's rule."""
    c = list(values)
    n = len(c)
    for k in range(1, n):
        inv = pow(k, -1, p)
        for j in range(n - 1, k - 1, -1):
            c[j] = (c[j] - c[j - 1]) * inv % p
    poly = [c[-1]]
    for k in range(n - 2, -1, -1):
        # poly * (x - node) + c[k]
        node = k + 1
        poly = ([(c[k] - node * poly[0]) % p]
                + [(a - node * b) % p for a, b in zip(poly, poly[1:])]
                + [poly[-1]])
    return poly


def _min_assignment(cost):
    """Least sum_i cost[i][sigma(i)] over the permutations sigma of a
    square matrix of ints, None marking a forbidden entry; None when every
    permutation meets one.  The Hungarian method with potentials, O(n^3)
    (Kuhn, Naval Res. Logist. Quart. 1955)."""
    n = len(cost)
    finite = [c for row in cost for c in row if c is not None]
    if not finite:
        return None if n else 0
    low = min(finite)
    # Shifted to be nonnegative: an assignment of allowed entries costs
    # below big, one through a forbidden entry at least big.
    big = n * (max(finite) - low) + 1
    a = [[big if c is None else c - low for c in row] for row in cost]
    # Potentials stay in [-big, big], so a reduced cost is below 2 big + 1.
    inf = 2 * big + 1
    u, v = [0] * (n + 1), [0] * (n + 1)
    match, way = [0] * (n + 1), [0] * (n + 1)    # column -> row, 1-based
    for i in range(1, n + 1):
        match[0], j0 = i, 0
        slack, used = [inf] * (n + 1), [False] * (n + 1)
        while match[j0]:
            used[j0] = True
            row, ui = a[match[j0] - 1], u[match[j0]]
            delta, j1 = inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - ui - v[j]
                    if cur < slack[j]:
                        slack[j], way[j] = cur, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    total = sum(a[match[j] - 1][j - 1] for j in range(1, n + 1))
    return None if total >= big else total + n * low


class ScalarField:
    """A coefficient field together with an evaluation point for x."""

    def __init__(self, field, x_value):
        self.field = field
        self.x_value = field(x_value)
        self._powers = [field(1)]

    @staticmethod
    def rationals(x_value):
        return ScalarField(QQ, x_value)

    @staticmethod
    def prime(p, x_value):
        return ScalarField(PrimeField(p), x_value)

    @property
    def characteristic(self):
        return self.field.p

    def eval_poly(self, poly):
        """The value at x_value, term by term from a table of the powers of
        x_value (grown on demand), so a sparse entry c*x^l costs one product."""
        f, powers = self.field, self._powers
        total = 0
        for d, c in poly.coeffs.items():
            while len(powers) <= d:
                powers.append(f.reduce(powers[-1] * self.x_value))
            total += f(c) * powers[d]
        return f.reduce(total)

    def __repr__(self):
        return "%r[x=%s]" % (self.field, self.x_value)


class ExactMatrix:
    """Dense rectangular matrix with Poly or field-scalar entries."""

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.nrows = len(self.entries)
        self.ncols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.ncols:
                raise ValueError("ragged matrix")

    @staticmethod
    def identity(n):
        return ExactMatrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.entries == other.entries

    def transpose(self):
        return ExactMatrix([[self.entries[i][j] for i in range(self.nrows)]
                            for j in range(self.ncols)])

    def map(self, fn):
        return ExactMatrix([[fn(e) for e in row] for row in self.entries])

    def evaluate(self, scalar_field):
        return self.map(scalar_field.eval_poly)

    def matmul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = None
                for l in range(self.ncols):
                    term = self.entries[i][l] * other.entries[l][j]
                    acc = term if acc is None else acc + term
                row.append(acc)
            out.append(row)
        return ExactMatrix(out)

    def rank_det_symbolic(self):
        """(rank over Q(x), determinant as Poly when square else None) of a
        matrix with Poly or rational entries.

        A square determinant is computed multimodularly; a nonzero one
        certifies full rank.  Non-square or singular input goes to Bareiss.
        """
        if self.nrows == self.ncols:
            det = self._det_multimodular()
            if det:
                return self.nrows, det
        return self._bareiss()

    def _det_multimodular(self):
        """Determinant of a square matrix of Poly or rational entries.

        Each row is scaled by the lcm of its coefficient denominators into
        integer polynomials g_ij.  Every term of the Leibniz sum has degree
        between v = min_sigma sum_i ldeg g_i,sigma(i) and D = max_sigma
        sum_i deg g_i,sigma(i), both assignment bounds
        (``_min_assignment``); when every sigma meets a zero entry the
        determinant is identically 0.  Its coefficients are at most
        H = prod_i (sum_j |g_ij|_1^2)^(1/2) in absolute value
        (Hadamard-Cauchy): on |z| = 1, |g_ij(z)| <= |g_ij|_1, so Hadamard's
        inequality gives |det G(z)| <= H; by Cauchy's estimate every
        coefficient of det G is at most max_{|z|=1} |det G|.  Modulo each
        prime, det / x^v is evaluated at the D - v + 1 points x = 1..D - v + 1
        and Newton-interpolated; primes are combined by CRT until their
        product exceeds 2H (compared squared, so in exact integers), then
        lifted to the symmetric range, multiplied by x^v and divided by the
        row scale.
        """
        polys = [[(e if isinstance(e, Poly) else Poly.const(e)).coeffs
                  for e in row] for row in self.entries]
        low = _min_assignment([[min(c) if c else None for c in row]
                               for row in polys])
        if low is None:
            return Poly()
        high = -_min_assignment([[-max(c) if c else None for c in row]
                                 for row in polys])
        rows, scale = [], 1
        for row in polys:
            den = lcm(*(v.denominator for c in row for v in c.values()))
            rows.append([{d: int(v * den) for d, v in c.items()}
                         for c in row])
            scale *= den
        bound_sq = prod(sum(sum(map(abs, c.values())) ** 2 for c in row)
                        for row in rows)
        top = max((d for row in rows for c in row for d in c), default=0)
        npoints = high - low + 1
        coeffs, modulus, i = [0] * npoints, 1, 0
        while modulus * modulus <= 4 * bound_sq:
            field = _crt_prime(i)
            p = field.p
            i += 1
            # Each entry mod p as (d, c) for the monomial c x^d, 0 as
            # (0, 0), or as (None, [(d, c), ...]) for a longer sum.  Gram
            # entries are monomials, and one product each beats both the
            # general sum and ScalarField.eval_poly: about 10% of the
            # gram-k3 answer time (2-vCPU Xeon).
            entries = []
            for row in rows:
                reduced = []
                for c in row:
                    terms = [(d, v % p) for d, v in c.items() if v % p]
                    reduced.append(terms[0] if len(terms) == 1 else
                                   (None, terms) if terms else (0, 0))
                entries.append(reduced)
            values = []
            for x in range(1, npoints + 1):
                powers = [1] * (top + 1)
                for d in range(1, top + 1):
                    powers[d] = powers[d - 1] * x % p
                at_x = ExactMatrix([
                    [c * powers[d] % p if d is not None else
                     sum(v * powers[e] for e, v in c) % p for d, c in row]
                    for row in entries])
                values.append(at_x._echelon(field)[2] * pow(x, -low, p) % p)
            residues = _interpolate(values, p)
            lift = pow(modulus, -1, p)
            coeffs = [a + modulus * ((b - a) * lift % p)
                      for a, b in zip(coeffs, residues)]
            modulus *= p
        out = {}
        for d, c in enumerate(coeffs, low):
            if c > modulus // 2:
                c -= modulus
            q = Fraction(c, scale)
            out[d] = q.numerator if q.denominator == 1 else q
        return Poly(out)

    def _bareiss(self):
        """Fraction-free Bareiss elimination on Poly entries: the fallback
        of ``rank_det_symbolic`` and its test oracle.

        Returns (rank over Q(x), determinant as Poly when square else None).
        """
        m = [[e if isinstance(e, Poly) else Poly.const(e) for e in row]
             for row in self.entries]
        n, nc = self.nrows, self.ncols
        prev = ONE
        rank = 0
        sign = 1
        row = 0
        for col in range(nc):
            if row >= n:
                break
            pivot = None
            for r in range(row, n):
                if not m[r][col].is_zero():
                    pivot = r
                    break
            if pivot is None:
                continue
            if pivot != row:
                m[row], m[pivot] = m[pivot], m[row]
                sign = -sign
            for r in range(row + 1, n):
                for c in range(col + 1, nc):
                    num = m[row][col] * m[r][c] - m[r][col] * m[row][c]
                    m[r][c] = num.exact_div(prev)
                m[r][col] = ZERO
            prev = m[row][col]
            rank += 1
            row += 1
        det = None
        if n == nc:
            if rank < n:
                det = ZERO
            else:
                det = m[n - 1][n - 1] if sign == 1 else -m[n - 1][n - 1]
        return rank, det

    def _echelon(self, field):
        """Forward Gaussian elimination over a field; entries must be field
        scalars, reduced (so that a zero is falsy).

        Returns (rows, pivots, det): the nonzero rows of a row echelon form,
        each scaled to a leading one at its pivot column, those columns in
        order, and the determinant (None unless square).
        """
        reduce = field.reduce
        p = field.p                     # 0 on Q, where reduce is the identity
        m = [list(row) for row in self.entries]
        n, nc = self.nrows, self.ncols
        pivots = []
        det = 1
        for col in range(nc):
            row = len(pivots)
            if row >= n:
                break
            pivot = next((r for r in range(row, n) if m[r][col]), None)
            if pivot is None:
                continue
            if pivot != row:
                m[row], m[pivot] = m[pivot], m[row]
                det = -det
            det = reduce(det * m[row][col])
            pinv = field.inv(m[row][col])
            tail = ([pinv * e % p for e in m[row][col:]] if p else
                    [pinv * e for e in m[row][col:]])
            m[row][col:] = tail
            for r in range(row + 1, n):
                factor = m[r][col]
                if not factor:
                    continue
                if p:
                    m[r][col:] = [(a - factor * b) % p
                                  for a, b in zip(m[r][col:], tail)]
                else:
                    m[r][col:] = [a - factor * b
                                  for a, b in zip(m[r][col:], tail)]
            pivots.append(col)
        if n != nc:
            det = None
        elif len(pivots) < n:
            det = 0
        return m[:len(pivots)], pivots, det

    def rank_det_field(self, field):
        """Rank and determinant (None unless square) over an explicit field;
        entries must be field scalars."""
        _, pivots, det = self._echelon(field)
        return len(pivots), det

    def nullspace_field(self, field):
        """Basis of the right kernel over a field, as lists of field scalars:
        one vector per non-pivot column, 1 there and 0 at the others."""
        rows, pivots, _ = self._echelon(field)
        nc = self.ncols
        basis = []
        for fc in sorted(set(range(nc)) - set(pivots)):
            vec = [0] * nc
            vec[fc] = 1
            # back-substitution over the nonzero entries, all right of pc
            support = [fc]
            for row, pc in zip(reversed(rows), reversed(pivots)):
                if pc < fc:
                    acc = field.reduce(-sum(row[c] * vec[c] for c in support))
                    if acc:
                        vec[pc] = acc
                        support.append(pc)
            basis.append(vec)
        return basis

    def inverse_rational(self):
        """Inverse of a square matrix with rational entries: the kernel of
        [A | -I] over Q has the basis (x_j, e_j) exactly when A is
        invertible, and then x_j is the j-th column of the inverse."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("not square")
        kernel = ExactMatrix(
            [row + [-int(i == j) for j in range(n)]
             for i, row in enumerate(self.entries)]).nullspace_field(QQ)
        if any(v[n:] != [int(i == j) for i in range(n)]
               for j, v in enumerate(kernel)):
            raise ArithmeticError("singular matrix")
        return ExactMatrix([[v[i] for v in kernel] for i in range(n)])

    def to_csv(self):
        lines = []
        for row in self.entries:
            lines.append(",".join('"%s"' % e for e in row))
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return "ExactMatrix(%d x %d)" % (self.nrows, self.ncols)


def poly_matrix_from_csv(text):
    rows = []
    for line in text.strip().splitlines():
        cells = next(iter(json.loads("[[%s]]" % line)))
        rows.append([Poly.parse(c) for c in cells])
    return ExactMatrix(rows)
