"""Spectrum of the quantum multiplication kappa = 2 m_H on each block.

Everything is kept inside rational arithmetic: the characteristic
polynomial is factored against the template lam^a * prod(lam^2 - c q)
by exact division, so the eigenvalue data is the multiset of squares
{c} and no radical is ever materialized. Reciprocity compares those
squares with the singular squares t^2 of the regularized operator's
leading coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .linalg import LAM, Matrix, char_poly
from .poly import Poly
from .qde import DiffOperator


class TemplateError(ValueError):
    pass


@dataclass(frozen=True)
class BlockSpectrum:
    chi: Poly                              # over (..., LAM)
    dim: int
    zero_multiplicity: int
    square_factors: Tuple[Fraction, ...]   # multiset {c} with (lam^2 - c q) | chi

    def factored_render(self) -> str:
        parts = []
        if self.zero_multiplicity == 1:
            parts.append(LAM)
        elif self.zero_multiplicity > 1:
            parts.append(f"{LAM}^{self.zero_multiplicity}")
        for c in self.square_factors:
            if c > 0:
                parts.append(f"({LAM}^2 - {c}*q)")
            else:
                parts.append(f"({LAM}^2 + {-c}*q)")
        return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class ReciprocityResult:
    singular_squares: Tuple[Fraction, ...]
    eigen_squares: Tuple[Fraction, ...]
    passed: bool


def rational_roots(coeffs: List[Fraction]) -> List[Fraction]:
    """All rational roots with multiplicity; coeffs[k] is the y^k coefficient.

    Zero roots come off first. A linear factor's root is taken directly and a
    quadratic's from its discriminant; only degree 3 and up searches the
    divisor candidates. The callers demand a full split over Q and raise when
    the returned count falls short of the degree.
    """
    work = list(coeffs)
    while work and work[-1] == 0:
        work.pop()
    if len(work) <= 1:
        raise TemplateError("degenerate polynomial in the square variable")
    roots: List[Fraction] = []
    while work[0] == 0:
        roots.append(Fraction(0))
        work = work[1:]
    while len(work) > 3:
        found = next((cand for cand in _root_candidates(work)
                      if _eval_poly(work, cand) == 0), None)
        if found is None:
            return roots
        roots.append(found)
        work = _synthetic_div(work, found)
    if len(work) == 2:
        return roots + [-work[0] / work[1]]
    if len(work) == 3:
        c, b, a = work
        disc = b * b - 4 * a * c
        if disc >= 0:
            rn, rd = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
            if rn * rn == disc.numerator and rd * rd == disc.denominator:
                root = Fraction(rn, rd)
                roots += [(-b - root) / (2 * a), (-b + root) / (2 * a)]
    return roots


def _root_candidates(coeffs: List[Fraction]):
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    dens = _divisors(ints[-1])
    for p in _divisors(ints[0]):
        for qd in dens:
            yield Fraction(p, qd)
            yield Fraction(-p, qd)


def _divisors(n: int) -> List[int]:
    """Positive divisors of n in ascending order, each d <= sqrt|n| paired
    with |n| / d."""
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _eval_poly(coeffs: List[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _synthetic_div(coeffs: List[Fraction], root: Fraction) -> List[Fraction]:
    n = len(coeffs) - 1
    out = [Fraction(0)] * n
    carry = coeffs[n]
    for k in range(n - 1, -1, -1):
        out[k] = carry
        carry = coeffs[k] + root * carry
    return out


def factor_template(chi: Poly, block: str) -> BlockSpectrum:
    """Match chi, a polynomial over (..., LAM), against
    lam^a * prod(lam^2 - c_i q), exactly."""
    dim = chi.degree_in(LAM)
    li = chi.vars.index(LAM)
    a = min((ex[li] for ex in chi.terms), default=0)
    if any((ex[li] - a) % 2 for ex in chi.terms):
        raise TemplateError(f"{block}: odd eigenvalue powers outside the zero factor")
    f = (dim - a) // 2
    alphas: List[Fraction] = []
    for k in range(f + 1):
        p = chi.coeff_of(LAM, 2 * k + a)
        want = f - k
        if p.is_zero():
            alphas.append(Fraction(0))
            continue
        if len(p.terms) != 1:
            raise TemplateError(f"{block}: lam^{2 * k + a} coefficient is not a monomial in q")
        (ex, c), = p.terms.items()
        if p.degree_in("q") != want or sum(ex) != want:
            raise TemplateError(f"{block}: lam^{2 * k + a} coefficient has q-degree != {want}")
        alphas.append(c)
    roots = rational_roots(alphas) if f else []
    if len(roots) != f:
        raise TemplateError(f"{block}: square polynomial does not split over Q")

    # rebuild and compare, the template match is verified by multiplication
    lam = Poly.var(chi.vars, LAM)
    rebuilt = lam ** a
    for c in roots:
        rebuilt = rebuilt * (lam * lam - Poly.var(chi.vars, "q", 1, c))
    if rebuilt != chi:
        raise TemplateError(f"{block}: template product does not reproduce chi")
    return BlockSpectrum(chi=chi, dim=dim, zero_multiplicity=a,
                         square_factors=tuple(sorted(roots, reverse=True)))


def block_spectrum(m: Matrix, block: str) -> BlockSpectrum:
    """Template-factored characteristic polynomial of kappa = 2*m on one block."""
    bad = [v for r in m.rows for p in r for v in p.variables_present() if v != "q"]
    if bad:
        raise ValueError(f"{block} matrix still has parameters: {sorted(set(bad))}")
    return factor_template(char_poly(m.map(lambda p: p.scale(2))), block)


def reciprocity_check(regularized: DiffOperator, plus: BlockSpectrum) -> ReciprocityResult:
    """Singular squares of the regularized operator vs eigenvalue squares.

    The regularized operator's leading coefficient is a polynomial in
    t^2; its roots in the square variable must be exactly the
    reciprocals of the symmetric block's nonzero eigenvalue squares.
    """
    lead = regularized.coeffs[-1]
    if any(not lead.coeff_of("t", k).is_zero()
           for k in range(1, lead.degree_in("t") + 1, 2)):
        raise TemplateError("leading coefficient has odd powers of t")
    ycoeffs = []
    for k in range(0, lead.degree_in("t") + 1, 2):
        c = lead.coeff_of("t", k).constant_value()
        if c is None:
            raise TemplateError("leading coefficient is not constant in the parameters")
        ycoeffs.append(c)
    roots = rational_roots(ycoeffs)
    if len(roots) != (len(ycoeffs) - 1):
        raise TemplateError("leading coefficient does not split into linear factors in t^2")
    singular = tuple(sorted(set(roots)))
    eigen = tuple(sorted({c for c in plus.square_factors if c != 0}))
    recip = tuple(sorted({Fraction(1, 1) / c for c in eigen}))
    return ReciprocityResult(singular_squares=singular, eigen_squares=eigen,
                             passed=singular == recip)
