"""Quantum differential engine: scalar operators, cyclic-vector elimination,
operator application, and coefficient matching.

Operators are Sum c_k(q, params) D^k with D = q d/dq. The cyclic rows of a
first-order system D y = M y satisfy D^k f = r_k . y for f the chosen
solution component, so a left-kernel vector of the stacked rows gives a
scalar operator annihilating that component for every solution.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterator, Mapping, Sequence, Tuple

from .linalg import Matrix, _int_row, left_nullspace
from .poly import (Poly, _pack, _packing, _pdot, _zadd, _zdot, poly_gcd_many, rational_content,
                   signed_join)
from .series import Series


class DiffOperator:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Tuple[Poly, ...]):  # c_0 .. c_order
        if not coeffs:
            raise ValueError("operator needs at least one coefficient")
        if coeffs[-1].is_zero() and len(coeffs) > 1:
            raise ValueError("leading coefficient must be nonzero")
        self.coeffs = coeffs

    def __eq__(self, other):
        return type(other) is DiffOperator and self.coeffs == other.coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def vars(self) -> Tuple[str, ...]:
        return self.coeffs[0].vars

    def substitute(self, values: Mapping[str, Fraction]) -> "DiffOperator":
        subs = {k: Fraction(v) for k, v in values.items()}
        coeffs = [c.substitute(subs).rename_vars(("q",)) for c in self.coeffs]
        return DiffOperator(tuple(coeffs)).normalize()

    def normalize(self) -> "DiffOperator":
        """The coefficients over their gcd, scaled once: monic when the top
        coefficient is a rational constant, otherwise content-free with a
        positive leading coefficient."""
        g, coeffs = poly_gcd_many(self.coeffs)
        if g.is_zero():
            return self
        k = coeffs[-1].constant_value()
        if not k:
            k = rational_content(v for c in coeffs for v in c.terms.values())
            if coeffs[-1].leading_coefficient() < 0:
                k = -k
        return DiffOperator(tuple(c.scale(Fraction(1) / k) for c in coeffs))

    def render(self, texts: Sequence[str] = ()) -> str:
        """Highest order first; texts, when given, are the coefficients' renders."""
        parts = []
        for k in range(self.order, -1, -1):
            c = self.coeffs[k]
            if c.is_zero():
                continue
            text = texts[k] if texts else c.render()
            if len(c.terms) > 1:
                sign, body = "+ ", f"({text})"
            else:
                sign, body = ("- ", text[1:]) if text.startswith("-") else ("+ ", text)
            if k:
                dk = "D" if k == 1 else f"D^{k}"
                body = dk if body == "1" else f"{body}*{dk}"
            parts.append(sign + body)
        return signed_join(parts)


def cyclic_rows(m: Matrix, component: int, count: int) -> Matrix:
    """Rows r_0..r_count with r_0 the unit covector at the component and
    r_{k+1} = D(r_k) + r_k M, so that D^k f = r_k . y along solutions."""
    if m.nrows != m.ncols:
        raise ValueError("system matrix must be square")
    if not (0 <= component < m.ncols):
        raise ValueError(f"component {component} out of range")
    q = m.vars.index("q")
    cols = [[(k, p.terms) for k, p in enumerate(col) if p] for col in zip(*m.rows)]
    rows = [[{(0,) * len(m.vars): 1} if j == component else {} for j in range(m.ncols)]]
    for _ in range(count):  # on term dicts: D(r_k) by q's exponent, r_k M over nonzero pairs
        prev = rows[-1]
        rows.append([_zadd({ex: c * ex[q] for ex, c in p.items() if ex[q]},
                           _zdot((prev[k], b) for k, b in col if prev[k]))
                     for p, col in zip(prev, cols)])
    return Matrix([[Poly(m.vars, t) for t in row] for row in rows])


def eliminate(rows: Matrix) -> DiffOperator:
    """Least-order scalar operator from the cyclic rows r_0..r_n, n + 1 rows of length n.

    The first kernel vector of the rows ends at the least k with r_k
    dependent on r_0..r_(k-1), the first column without a pivot when the
    transposed rows are eliminated; that kernel is one-dimensional, so the
    vector, back-substituted from that column, is the operator up to
    normalisation.
    """
    vec = left_nullspace(rows)[0]
    top = max(k for k, c in enumerate(vec) if not c.is_zero())
    return DiffOperator(tuple(vec[:top + 1])).normalize()


def cofactor_identity_holds(op: DiffOperator, rows: Matrix) -> bool:
    """Check Sum c_k r_k = 0 exactly on the cyclic rows, parameters included.

    Over Z and independent of the kernel that gave op: the operator is
    cleared of denominators by one lcm and the rows it uses by another, and
    each column's sum goes into one integer dict on packed monomials, every
    value of which must be zero.
    """
    if op.vars != rows.vars:
        raise ValueError(f"variable sets differ: {op.vars} vs {rows.vars}")
    if op.order >= rows.nrows:
        return False
    used = [p for r in rows.rows[:op.order + 1] for p in r]
    width, _ = _packing(len(op.vars), max(c.total_degree() for c in op.coeffs) +
                        max(p.total_degree() for p in used))
    coeffs, entries = ([_pack(t, width) for t in _int_row(ps)[0]] for ps in (op.coeffs, used))
    return not any(_pdot(zip(coeffs, entries[j::rows.ncols])) for j in range(rows.ncols))


def _graded_terms(op: DiffOperator, f: Series) -> Iterator[tuple]:
    """The one pass over op applied to f, in integers: per output order m,
    (dv, L, parts), dv the lcm of op's denominators, L that of the series
    coefficients used, and per q-power j <= m of op a part (f_(m-j), pairs):
    for each parameter monomial ex (op.vars less q) at q^j, a pair (ex, w),
    w = dv * sum_k c_k (m-j)^k small. With N / d = f_(m-j) in lowest terms,
    the pair adds w * N * (L / d) to the numerator of x^ex over dv * L."""
    ints, dv = _int_row(op.coeffs)
    qi, slices = op.vars.index("q"), {}  # j -> ex -> k -> dv * its coefficient in c_k
    for k, c in enumerate(ints):
        for ex, v in c.items():
            slices.setdefault(ex[qi], {}).setdefault(ex[:qi] + ex[qi + 1:], {})[k] = v
    # Horner in m - j, from each monomial's highest D-power down
    graded = [(j, [(ex, [ks.get(k, 0) for k in range(max(ks), -1, -1)]) for ex, ks in row.items()])
              for j, row in sorted(slices.items())]
    fc = f.coeffs
    for m in range(f.order + 1):
        parts = []
        for j, row in graded:
            if j > m:
                break
            n, pairs = m - j, []
            for ex, ks in row:
                w = 0
                for v in ks:
                    w = w * n + v
                pairs.append((ex, w))
            parts.append((fc[n], pairs))
        yield dv, math.lcm(*[x.denominator for x, _ in parts]), parts


def apply(op: DiffOperator, f: Series) -> Series:
    """Apply a parameter-free operator; coefficient m of the result reads
    only f_0..f_m, so it is exact through f.order."""
    extra = tuple(dict.fromkeys(v for c in op.coeffs for v in c.variables_present() if v != "q"))
    if extra:
        raise ValueError(f"operator carries unknown parameters {extra}")
    out, zero = [], Fraction(0)
    for dv, lcd, parts in _graded_terms(op, f):
        # with no parameters, each part's one monomial is the constant one
        t = sum(w * (x.numerator * (lcd // x.denominator)) for x, pairs in parts for _, w in pairs)
        out.append(Fraction(t, dv * lcd) if t else zero)
    return Series(out)


def apply_symbolic(op: DiffOperator, f: Series) -> Iterator[Tuple[int, Dict[tuple, int]]]:
    """Coefficients of apply(op, f) when the operator still carries parameters,
    in integers, yielded in order as they are made: entry m is (den, terms), the
    polynomial sum terms[ex] / den * x^ex in the parameters x (op.vars less q),
    with den = dv * L > 0 of _graded_terms and no zero in terms."""
    for dv, lcd, parts in _graded_terms(op, f):
        acc: dict = {}
        for x, pairs in parts:
            ns = x.numerator * (lcd // x.denominator)
            for ex, w in pairs:
                acc[ex] = acc.get(ex, 0) + w * ns
        yield dv * lcd, {ex: v for ex, v in acc.items() if v}


def match_equations(op: DiffOperator, f: Series, depth: int, params: Sequence[str]) -> list:
    """The nonzero entries m <= depth of apply_symbolic as (m, den, terms, lowest), ex over
    params, through the first of parameter degree > 2, where solve_parameters stops; ValueError
    if op has a variable besides q and the params. lowest[ex] = (n, d, g, k) is terms[ex] / den
    in lowest terms, n / ((d / g) * k). For a monomial at one q-power (all, if op is derived) it
    is (w / g * N / h, d, g, dv / h), from terms[ex] = w * N * den / (dv * d) of _graded_terms,
    N / d = f_(m-j), g = gcd(d, w) and h = gcd(w / g * N, dv); others take G = gcd(v, den)."""
    op = DiffOperator(tuple(c.rename_vars((*params, "q")) for c in op.coeffs))
    grade: dict = {}  # parameter monomial -> its q-power, None at several
    for ex in (ex for c in op.coeffs for ex in c.terms):
        grade[ex[:-1]] = ex[-1] if grade.get(ex[:-1], ex[-1]) == ex[-1] else None
    high = {ex for ex in grade if sum(ex) > 2}  # monomials that solve_parameters rejects
    out = []
    for m, (dv, lcd, parts) in zip(range(depth + 1), _graded_terms(op, f)):
        den, acc, terms, lowest = dv * lcd, {}, {}, {}
        for x, pairs in parts:
            n, d = x.numerator, x.denominator
            ns, r = n * (lcd // d), n % dv
            for ex, w in pairs:
                if grade[ex] is None:
                    acc[ex] = acc.get(ex, 0) + w * ns
                elif w and n:
                    g = math.gcd(d, w)
                    h = math.gcd(w // g * r, dv)
                    terms[ex], lowest[ex] = w * ns, (w // g * n // h, d, g, dv // h)
        for ex, v in acc.items():
            if v:
                g = math.gcd(v, den)
                terms[ex], lowest[ex] = v, (v // g, den, g, 1)
        if terms:
            out.append((m, den, terms, lowest))
            if not high.isdisjoint(terms):
                break
    return out


def transform_even_operator(op: DiffOperator) -> Tuple[DiffOperator, Fraction]:
    """Change of variables q = t^2 for an operator with even coefficients:
    D_t becomes 2 D_q on even series, so c_k(t) D_t^k maps to
    c_k(sqrt q) 2^k D^k. Returns the content-divided operator and the
    removed content."""
    new_coeffs = []
    for k, c in enumerate(op.coeffs):
        out = {}
        for ex, v in c.terms.items():
            e = ex[c.vars.index("t")]
            if e % 2:
                raise ValueError(f"coefficient of D^{k} has an odd power t^{e}")
            out[(e // 2,)] = v * Fraction(2) ** k
        new_coeffs.append(Poly(("q",), out))
    content = rational_content(v for c in new_coeffs for v in c.terms.values()) or Fraction(1)
    return DiffOperator(tuple(c.scale(Fraction(1) / content) for c in new_coeffs)), content
