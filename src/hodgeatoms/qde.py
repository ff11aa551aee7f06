"""Quantum differential engine: scalar operators, cyclic-vector elimination,
operator application, and coefficient matching.

Operators are Sum c_k(q, params) D^k with D = q d/dq. The cyclic rows of a
first-order system D y = M y satisfy D^k f = r_k . y for f the chosen
solution component, so a left-kernel vector of the stacked rows gives a
scalar operator annihilating that component for every solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

from .linalg import Matrix, _int_row, left_nullspace
from .poly import (Poly, _pack, _packing, _pdot, exact_div, poly_gcd_many, rational_content,
                   signed_join)
from .series import Series


@dataclass(frozen=True)
class DiffOperator:
    coeffs: Tuple[Poly, ...]  # c_0 .. c_order

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("operator needs at least one coefficient")
        if self.coeffs[-1].is_zero() and len(self.coeffs) > 1:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def vars(self) -> Tuple[str, ...]:
        return self.coeffs[0].vars

    def q_degree(self) -> int:
        return max(c.degree_in("q") for c in self.coeffs)

    def substitute(self, values: Mapping[str, Fraction]) -> "DiffOperator":
        subs = {k: Fraction(v) for k, v in values.items()}
        coeffs = [c.substitute(subs).rename_vars(("q",)) for c in self.coeffs]
        return DiffOperator(tuple(coeffs)).normalize()

    def normalize(self) -> "DiffOperator":
        """The coefficients over their gcd, scaled once: monic when the top
        coefficient is a rational constant, otherwise content-free with a
        positive leading coefficient."""
        g = poly_gcd_many(self.coeffs)
        if g.is_zero():
            return self
        coeffs = list(self.coeffs)
        if g.constant_value() != 1:
            coeffs = [exact_div(c, g) for c in coeffs]
        k = coeffs[-1].constant_value()
        if not k:
            k = rational_content(v for c in coeffs for v in c.terms.values())
            if coeffs[-1].leading_coefficient() < 0:
                k = -k
        return DiffOperator(tuple(c.scale(1 / k) for c in coeffs))

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
    rows = [[Poly.const(m.vars, 1 if j == component else 0) for j in range(m.ncols)]]
    for _ in range(count):  # r_k M by the matrix product, over nonzero pairs only
        prev = rows[-1]
        rows.append([p.euler_derivative() + x
                     for p, x in zip(prev, (Matrix([prev]) * m).rows[0])])
    return Matrix(rows)


def eliminate(rows: Matrix) -> DiffOperator:
    """Least-order scalar operator from the cyclic rows r_0..r_n.

    The first kernel vector of the rows ends at the least k with r_k
    dependent on r_0..r_(k-1), the first column without a pivot when the
    transposed rows are eliminated; that kernel is one-dimensional, so the
    vector, back-substituted from that column, is the operator up to
    normalisation.
    """
    kernel = left_nullspace(rows)
    if not kernel:
        raise RuntimeError("no dependence found through order n (cannot happen)")
    vec = kernel[0]
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


def apply(op: DiffOperator, f: Series) -> Series:
    """Apply a parameter-free operator; the result is exact through
    f.order minus the operator's q-degree."""
    extra = tuple(dict.fromkeys(v for c in op.coeffs for v in c.variables_present() if v != "q"))
    if extra:
        raise ValueError(f"operator carries unknown parameters {extra}")
    if f.order < op.q_degree():
        raise ValueError("series too short for this operator")
    # with no parameters, each entry's one monomial is the constant one
    return Series([Fraction(sum(t.values()), den) for den, t in apply_symbolic(op, f)])


def apply_symbolic(op: DiffOperator, f: Series) -> List[Tuple[int, Dict[tuple, int]]]:
    """Coefficients of apply(op, f) when the operator still carries parameters,
    in integers: entry m is (den, terms), the polynomial sum terms[ex] / den * x^ex
    in the parameters x (op.vars less q), with den > 0 and no zero in terms.

    The operator is cleared of denominators once (lcm dv), and for each
    output order the few series coefficients it uses are put over their lcm,
    so den is that lcm times dv and each numerator one integer sum."""
    out_order = f.order - op.q_degree()
    dv = math.lcm(*(v.denominator for c in op.coeffs for v in c.terms.values()))
    # (j, parameter monomial) -> dv times its coefficients in c_0 .. c_order at q^j
    qi = op.vars.index("q")
    slices: dict = {}
    for k, c in enumerate(op.coeffs):
        for ex, v in c.terms.items():
            key = (ex[qi], ex[:qi] + ex[qi + 1:])
            slices.setdefault(key, [0] * len(op.coeffs))[k] = v.numerator * (dv // v.denominator)
    js = sorted({j for j, _ in slices})
    fc = f.coeffs
    out = []
    for mo in range(out_order + 1):
        used = {j: fc[mo - j] for j in js if j <= mo}
        den = math.lcm(*(x.denominator for x in used.values()))
        scale = {j: x.numerator * (den // x.denominator) for j, x in used.items()}
        acc: dict = {}
        for (j, ex), ks in slices.items():
            if j <= mo:
                n, w = mo - j, 0
                for v in reversed(ks):  # sum_k v_k (mo - j)^k
                    w = w * n + v
                acc[ex] = acc.get(ex, 0) + w * scale[j]
        out.append((den * dv, {ex: v for ex, v in acc.items() if v}))
    return out


def match_equations(op: DiffOperator, f: Series, depth: int,
                    params: Sequence[str]) -> List[Tuple[int, int, Dict[tuple, int]]]:
    """The nonzero entries m <= depth of apply_symbolic as (m, den, terms), ex
    over params; ValueError when op has a variable besides q and the params."""
    op = DiffOperator(tuple(c.rename_vars((*params, "q")) for c in op.coeffs))
    return [(m, den, terms) for m, (den, terms) in enumerate(apply_symbolic(op, f))
            if m <= depth and terms]


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
    return DiffOperator(tuple(c.scale(1 / content) for c in new_coeffs)), content
