"""Exact linear algebra over polynomial rings.

Kernels come from Bareiss's fraction-free elimination on integer
polynomials, followed by fraction-free back substitution: every division
is exact, so entries grow like minors instead of like nested
cross-products, and no rational-function entry appears. Both run on packed
monomials (one int per exponent tuple, see `poly`) in fields wide enough
for every minor and every product of two. Kernel vectors are returned
unnormalised; the one normal form of an operator vector is
`qde.DiffOperator.normalize`. The same elimination gives determinants: its
last pivot, signed by the order of the pivot rows, is the determinant of
the rows scaled to integers.
`rref` is Gauss-Jordan over Q for the small numeric systems of the
ansatz, the solver and the cohomology coordinates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, List, Tuple

from .poly import Poly, _pack, _packing, _pdot, _unpack, _zdiv, _zdot


class Matrix:
    __slots__ = ("rows", "nrows", "ncols", "vars")

    def __init__(self, rows: Iterable[Iterable[Poly]]):
        self.rows = [list(r) for r in rows]
        if not self.rows or not self.rows[0]:
            raise ValueError("empty matrix")
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0])
        self.vars = self.rows[0][0].vars
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")
            for p in r:
                if p.vars != self.vars:
                    raise ValueError("mixed variable sets in matrix")

    @classmethod
    def from_scalars(cls, variables, rows) -> "Matrix":
        variables = tuple(variables)
        return cls([[Poly.const(variables, c) for c in r] for r in rows])

    def transpose(self) -> "Matrix":
        return Matrix([[self.rows[i][j] for i in range(self.nrows)]
                       for j in range(self.ncols)])

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Product; each entry sums only its nonzero pairs, into one term dict."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        self.rows[0][0]._check(other.rows[0][0])
        cols = [[(k, p.terms) for k, p in enumerate(col) if p] for col in zip(*other.rows)]
        return Matrix([[Poly(self.vars, _zdot((r[k].terms, b) for k, b in col if r[k]))
                        for col in cols] for r in self.rows])

    def map(self, fn: Callable[[Poly], Poly]) -> "Matrix":
        return Matrix([[fn(p) for p in r] for r in self.rows])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and \
            all(a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))

    def __repr__(self):
        body = "; ".join("[" + ", ".join(p.render() for p in r) + "]" for r in self.rows)
        return f"Matrix({body})"


# -- elimination over Q and kernel computation -------------------------------

def rref(rows: List[List[Fraction]], ncols: int) -> List[int]:
    """In-place reduced row echelon form over the first ncols columns;
    returns the pivot columns.

    Rows past the pivot rows are kept. Columns past ncols (an augmented
    right-hand side) are reduced along, so a caller can check consistency
    on those rows. Zero entries of the pivot row are skipped.
    """
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv if x else x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _int_row(row: List[Poly]) -> Tuple[List[dict], int]:
    """(den * row as integer term dicts, den), den the lcm of its denominators."""
    den = math.lcm(*(c.denominator for p in row for c in p.terms.values()))
    return [{ex: c.numerator * (den // c.denominator) for ex, c in p.terms.items()}
            for p in row], den


def _bareiss(rows: List[List[dict]], nvars: int) -> Tuple[list, int, int]:
    """Column-ordered fraction-free (Bareiss) elimination over Z.

    At each column c in turn, the pivot is the remaining row whose entry at
    c has the least total degree (the first such row on a tie), and every
    other remaining row r becomes (p_k r - r[c] P_k) / p_(k-1) past c, with
    P_k the pivot row, p_k = P_k[c] and p_0 = 1; a column where no remaining
    row is nonzero has no pivot. By Sylvester's identity every division is
    exact, and after k pivots entry j of a remaining row i is the minor on
    the pivot rows and i against the pivot columns and j. Returns the
    pivots (column, row index, row as it was when chosen) in column order,
    on packed monomials over nvars variables, and the packing width and guard.

    Every entry is a minor of the rows, of total degree at most S, the sum
    of the rows' largest total degrees, so a product of two has degree at
    most 2 S: fields of 2 S's bit length plus a guard bit hold every
    monomial the elimination and a back substitution make.
    """
    width, guard = _packing(nvars, 2 * sum(max((sum(ex) for x in r for ex in x), default=0)
                                            for r in rows))
    shift = width * nvars
    rest = [(i, [_pack(x, width) for x in r]) for i, r in enumerate(rows)]
    pivots, prev = [], None
    for col in range(len(rows[0])):
        nonzero = [n for n, (_, r) in enumerate(rest) if r[col]]
        if not nonzero:
            continue
        i, prow = rest.pop(min(nonzero, key=lambda n: max(rest[n][1][col]) >> shift))
        pv = prow[col]
        for n, (k, row) in enumerate(rest):
            ne = {key: -c for key, c in row[col].items()}
            nxt = [{}] * (col + 1)
            for x, y in zip(row[col + 1:], prow[col + 1:]):
                v = _pdot(((pv, x), (ne, y)))
                if prev is not None:
                    v = _zdiv(v, prev, guard)
                    if v is None:
                        raise RuntimeError("inexact Bareiss division")
                nxt.append(v)
            rest[n] = (k, nxt)
        pivots.append((col, i, prow))
        prev = pv
    return pivots, width, guard


def left_nullspace(m: Matrix) -> List[List[Poly]]:
    """Basis of {v : v . m = 0}, in the order of the row each vector ends at.

    The vectors are returned as the elimination leaves them: integer
    coefficients, neither content-free nor sign-normalised (callers that
    need a normal form take it, as `DiffOperator.normalize` does).

    Each row i of m is scaled to integers by den_i, and the transpose of the
    result, whose rows are the columns of m, is eliminated. A column f of it
    without a pivot gives the vector x with x_f the last pivot p_k before f
    (1 if none), zero past f and at the other columns without a pivot, and,
    from the last pivot back, p_t x_(c_t) = -(the pivot row's entries . x)
    at each pivot column c_t < f: the Cramer numerators, so every division
    is exact (fraction-free back substitution). Then v_i = den_i x_i.
    """
    scaled = [_int_row(r) for r in m.rows]
    nvars = len(m.vars)
    pivots, width, guard = _bareiss([list(c) for c in zip(*(r for r, _ in scaled))], nvars)
    kernel = []
    for f in sorted(set(range(m.nrows)).difference(col for col, _, _ in pivots)):
        before = [p for p in pivots if p[0] < f]
        if not before:
            x = {f: {0: 1}}  # the packed constant one
        else:  # the last pivot row gives p_k x_(c_k) = -p_k row[f]
            col, _, row = before.pop()
            x = {f: row[col], col: {key: -c for key, c in row[f].items()}}
        for col, _, row in reversed(before):
            neg = {key: -c for key, c in row[col].items()}
            x[col] = _zdiv(_pdot((row[j], v) for j, v in x.items()), neg, guard)
            if x[col] is None:
                raise RuntimeError("inexact back-substitution division")
        kernel.append([Poly(m.vars, {ex: c * den for ex, c in
                                     _unpack(x.get(i, {}), nvars, width).items()})
                       for i, (_, den) in enumerate(scaled)])
    return kernel


# -- determinants and characteristic polynomials -----------------------------

def det(m: Matrix) -> Poly:
    """Determinant from the last Bareiss pivot.

    With each row i scaled to integers by den_i, the last pivot is the
    determinant of the scaled rows taken in the order of the pivot rows
    r_1..r_n, so det m = sign(r) * p_n / (den_1 ... den_n); fewer than n
    pivots make it 0.
    """
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    scaled = [_int_row(r) for r in m.rows]
    pivots, width, _ = _bareiss([row for row, _ in scaled], len(m.vars))
    if len(pivots) < m.nrows:
        return Poly.zero(m.vars)
    order = [i for _, i, _ in pivots]
    inversions = sum(a > b for k, a in enumerate(order) for b in order[k + 1:])
    scale = Fraction((-1) ** inversions, math.prod(den for _, den in scaled))
    col, _, row = pivots[-1]
    return Poly(m.vars, {ex: c * scale for ex, c in _unpack(row[col], len(m.vars), width).items()})


# the outer variable of characteristic polynomials
LAM = "lam"


def char_poly(m: Matrix) -> Poly:
    """det(lam I - m), exact, over m.vars + (LAM,)."""
    if LAM in m.vars:
        raise ValueError(f"matrix ring already uses {LAM!r}")
    ext = m.vars + (LAM,)
    lam = Poly.var(ext, LAM)
    return det(Matrix([[(lam if i == j else 0) - p.rename_vars(ext) for j, p in enumerate(r)]
                       for i, r in enumerate(m.rows)]))
