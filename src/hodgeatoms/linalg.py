"""Exact linear algebra over polynomial rings.

Kernels come from Bareiss's fraction-free elimination on integer
polynomials: every division is exact, so entries grow like minors instead
of like nested cross-products, and no rational-function entry appears. It
runs on packed monomials (one int per exponent tuple, see `poly`) in
fields wide enough for every minor and every product of two. Kernel
vectors are returned unnormalised; the one normal form of an operator
vector is `qde.DiffOperator.normalize`. The same elimination gives
determinants: its last pivot, signed by the order of the pivot columns, is
the determinant of the rows scaled to integers.
`rref` is Gauss-Jordan over Q for the small numeric systems of the
ansatz, the solver and the cohomology coordinates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, List, Mapping, Tuple

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

    def entry(self, i: int, j: int) -> Poly:
        return self.rows[i][j]

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

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Matrix([[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.map(lambda p: -p)

    def map(self, fn: Callable[[Poly], Poly]) -> "Matrix":
        return Matrix([[fn(p) for p in r] for r in self.rows])

    def substitute(self, values: Mapping) -> "Matrix":
        return self.map(lambda p: p.substitute(values))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and \
            all(a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))

    def is_zero(self) -> bool:
        return all(p.is_zero() for r in self.rows for p in r)

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


def _bareiss(rows: Iterable[List[dict]], ncols: int) -> Tuple[list, list]:
    """Row-incremental Bareiss elimination over Z on the first ncols entries.

    A new row r is reduced against the pivot rows P_1..P_k found so far by
    r <- (p_k r - r[c_k] P_k) / p_(k-1), with c_k the pivot column of P_k,
    p_k = P_k[c_k] and p_0 = 1. By Sylvester's identity every division is
    exact and entry j of the reduced row is the minor of the rows so far on
    the columns c_1..c_k, j. A row whose first ncols entries vanish is
    dependent; any other row becomes a pivot row at its nonzero entry of
    least total degree. Returns the pivots (column, pivot, row) and the
    dependent rows, each in the order the rows came in.

    Rows are packed on entry and unpacked on exit. Every entry is a minor of
    the rows, of total degree at most S, the sum of the rows' largest total
    degrees, so a product p_k x has degree at most 2 S: fields of 2 S's bit
    length plus a guard bit hold every monomial the elimination makes.
    """
    rows = list(rows)
    nvars = next((len(ex) for r in rows for x in r for ex in x), 0)
    width, guard = _packing(nvars, 2 * sum(max((sum(ex) for x in r for ex in x), default=0)
                                            for r in rows))
    shift = width * nvars
    pivots, dependent = [], []
    for row in rows:
        row = [_pack(x, width) for x in row]
        prev = None
        for col, pv, prow in pivots:
            ne = {k: -c for k, c in row[col].items()}
            nxt = []
            for x, y in zip(row, prow):
                v = _pdot(((pv, x), (ne, y)))
                if prev is not None:
                    v = _zdiv(v, prev, guard)
                    if v is None:
                        raise RuntimeError("inexact Bareiss division")
                nxt.append(v)
            row, prev = nxt, pv
        left = row[:ncols]
        if any(left):
            col = min((j for j in range(ncols) if left[j]),
                      key=lambda j: (max(left[j]) >> shift, j))
            pivots.append((col, left[col], row))
        else:
            dependent.append(row)
    return ([(col, _unpack(pv, nvars, width), [_unpack(x, nvars, width) for x in row])
             for col, pv, row in pivots],
            [[_unpack(x, nvars, width) for x in row] for row in dependent])


def left_nullspace(m: Matrix) -> List[List[Poly]]:
    """Basis of {v : v . m = 0}, in the order of the row each vector ends at.

    The vectors are returned as the elimination leaves them: integer
    coefficients, neither content-free nor sign-normalised (callers that
    need a normal form take it, as `DiffOperator.normalize` does).

    Bareiss elimination on [m | I], each row first scaled to integer
    coefficients; a dependent row's right part is a kernel vector.
    """
    one = (0,) * len(m.vars)
    rows = []
    for i, src in enumerate(m.rows):
        row, den = _int_row(src)
        rows.append(row + [{one: den} if j == i else {} for j in range(m.nrows)])
    _, dependent = _bareiss(rows, m.ncols)
    return [[Poly(m.vars, x) for x in row[m.ncols:]] for row in dependent]


# -- determinants and characteristic polynomials -----------------------------

def det(m: Matrix) -> Poly:
    """Determinant from the last Bareiss pivot.

    With each row i scaled to integers by den_i, the last pivot is the
    determinant of the scaled rows on the pivot columns c_1..c_n, so
    det m = sign(c) * p_n / (den_1 ... den_n); a dependent row makes it 0.
    """
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    scaled = [_int_row(r) for r in m.rows]
    pivots, dependent = _bareiss((row for row, _ in scaled), m.ncols)
    if dependent:
        return Poly.zero(m.vars)
    cols = [col for col, _, _ in pivots]
    inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:])
    scale = Fraction((-1) ** inversions, math.prod(den for _, den in scaled))
    return Poly(m.vars, {ex: c * scale for ex, c in pivots[-1][1].items()})


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
