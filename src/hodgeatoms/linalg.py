"""Exact linear algebra over polynomial rings.

Kernels come from Bareiss's fraction-free elimination on integer
polynomials: every division is exact, so entries grow like minors
instead of like nested cross-products, and no rational-function entry
appears. Kernel vectors are returned unnormalised; the one normal form
of an operator vector is `qde.DiffOperator.normalize`. Determinants
expand by minors with subset memoisation; `rref` is Gauss-Jordan over Q
for the small numeric systems of the ansatz, the solver and the
cohomology coordinates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, List, Mapping

from .poly import Poly, _zdiv, _zmul, _zsub


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
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = Poly.zero(self.vars)
                for k in range(self.ncols):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return Matrix(out)

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
    on those rows.
    """
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def left_nullspace(m: Matrix) -> List[List[Poly]]:
    """Basis of {v : v . m = 0}, in the order of the row each vector ends at.

    The vectors are returned as the elimination leaves them: integer
    coefficients, neither content-free nor sign-normalised (callers that
    need a normal form take it, as `DiffOperator.normalize` does).

    Row-incremental Bareiss elimination over Z on [m | I], each row first
    scaled to integer coefficients. A new row r is reduced against the pivot
    rows P_1..P_k found so far by r <- (p_k r - r[c_k] P_k) / p_(k-1), with
    c_k the pivot column of P_k, p_k = P_k[c_k] and p_0 = 1; by Sylvester's
    identity every division is exact. A row whose left part vanishes yields a
    kernel vector; any other row becomes a pivot row at its nonzero entry of
    least total degree.
    """
    ncols = m.ncols
    one = (0,) * len(m.vars)
    pivots = []  # (column, pivot, row)
    kernel = []
    for i, src in enumerate(m.rows):
        den = math.lcm(*(c.denominator for p in src for c in p.terms.values()))
        row = [{ex: c.numerator * (den // c.denominator) for ex, c in p.terms.items()}
               for p in src]
        row += [{one: den} if j == i else {} for j in range(m.nrows)]
        prev = {one: 1}
        for col, pv, prow in pivots:
            e = row[col]
            nxt = []
            for x, y in zip(row, prow):
                v = _zsub(_zmul(pv, x), _zmul(e, y)) if e and y else _zmul(pv, x)
                v = _zdiv(v, prev)
                if v is None:
                    raise RuntimeError("inexact Bareiss division in left_nullspace")
                nxt.append(v)
            row, prev = nxt, pv
        left = row[:ncols]
        if any(left):
            col = min((j for j in range(ncols) if left[j]),
                      key=lambda j: (max(map(sum, left[j])), j))
            pivots.append((col, left[col], row))
        else:
            kernel.append([Poly(m.vars, x) for x in row[ncols:]])
    return kernel


# -- determinants and characteristic polynomials -----------------------------

def det(m: Matrix) -> Poly:
    """Determinant by division-free minor expansion with subset memoization."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    # minors[mask] = det of rows 0..k-1 against the column set mask (k = popcount)
    minors = {0: Poly.const(m.vars, 1)}
    for k in range(1, n + 1):
        nxt = {}
        for mask in _masks_of_size(n, k):
            acc = Poly.zero(m.vars)
            idx = 0
            for j in range(n):
                if not (mask >> j) & 1:
                    continue
                entry = m.rows[k - 1][j]
                if not entry.is_zero():
                    term = entry * minors[mask & ~(1 << j)]
                    acc = acc + (term if (k - 1 + idx) % 2 == 0 else -term)
                idx += 1
            nxt[mask] = acc
        minors = nxt
    return minors[(1 << n) - 1]


def _masks_of_size(n: int, k: int):
    from itertools import combinations
    for cols in combinations(range(n), k):
        mask = 0
        for c in cols:
            mask |= 1 << c
        yield mask


# the outer variable of characteristic polynomials
LAM = "lam"


class BiPoly:
    """Polynomial in the outer variable LAM with Poly coefficients."""

    __slots__ = ("coeffs", "vars")

    def __init__(self, coeffs: Mapping[int, Poly], variables=("q",)):
        self.coeffs = {int(k): p for k, p in coeffs.items() if not p.is_zero()}
        self.vars = next((p.vars for p in self.coeffs.values()), tuple(variables))

    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def coeff(self, k: int) -> Poly:
        return self.coeffs.get(k, Poly.zero(self.vars))

    def zero_multiplicity(self) -> int:
        """Largest a with lam^a dividing the polynomial."""
        if not self.coeffs:
            return 0
        return min(self.coeffs)

    def shift_down(self, a: int) -> "BiPoly":
        if any(k < a for k in self.coeffs):
            raise ValueError(f"not divisible by {LAM}^{a}")
        return BiPoly({k - a: p for k, p in self.coeffs.items()})

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        out: dict = {}
        for k1, p1 in self.coeffs.items():
            for k2, p2 in other.coeffs.items():
                k = k1 + k2
                cur = out.get(k)
                out[k] = p1 * p2 if cur is None else cur + p1 * p2
        return BiPoly(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            p = self.coeffs[k]
            lk = LAM if k == 1 else f"{LAM}^{k}"
            if k == 0:
                parts.append(f"({p.render()})")
            elif p.constant_value() == 1:
                parts.append(lk)
            elif p.constant_value() is not None:
                parts.append(f"{p.constant_value()}*{lk}")
            else:
                parts.append(f"({p.render()})*{lk}")
        return " + ".join(parts)

    def __repr__(self):
        return f"BiPoly({self.render()})"


def char_poly(m: Matrix) -> BiPoly:
    """det(lam I - m), exact, grouped by powers of lam."""
    if m.nrows != m.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    if LAM in m.vars:
        raise ValueError(f"matrix ring already uses {LAM!r}")
    ext = m.vars + (LAM,)
    n = m.nrows
    lam = Poly.var(ext, LAM)
    big = Matrix([[lam.scale(1 if i == j else 0) - m.rows[i][j].rename_vars(ext)
                   for j in range(n)] for i in range(n)])
    full = det(big)
    out: dict = {}
    for k in range(full.degree_in(LAM) + 1):
        ck = full.coeff_of(LAM, k)
        if not ck.is_zero():
            # project back onto the original variable tuple
            out[k] = ck.rename_vars(m.vars)
    return BiPoly(out)
