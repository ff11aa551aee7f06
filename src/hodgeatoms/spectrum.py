"""Spectrum of the quantum multiplication kappa = 2 m_H on each block.

Everything is kept inside rational arithmetic: the characteristic
polynomial is factored against the template lam^a * prod(lam^2 - c q)
by exact division, so the eigenvalue data is the multiset of squares
{c} and no radical is ever materialized. The squares are rational roots
in closed form, up to degree 2. Reciprocity compares them with the
singular points q = t^2 of the q-form regularized operator's leading
coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Tuple

from .linalg import LAM, Matrix, char_poly
from .poly import Poly, rat_str
from .qde import DiffOperator


class TemplateError(ValueError):
    pass


class BlockSpectrum:
    __slots__ = ("chi", "dim", "zero_multiplicity", "square_factors")

    def __init__(self, chi: Poly, dim: int, zero_multiplicity: int,  # chi over (..., LAM)
                 square_factors: Tuple[Fraction, ...]):  # the multiset {c}, (lam^2 - c q) | chi
        self.chi, self.dim = chi, dim
        self.zero_multiplicity, self.square_factors = zero_multiplicity, square_factors

    def factored_render(self) -> str:
        parts = []
        if self.zero_multiplicity == 1:
            parts.append(LAM)
        elif self.zero_multiplicity > 1:
            parts.append(f"{LAM}^{self.zero_multiplicity}")
        for c in self.square_factors:
            parts.append(f"({LAM}^2 - {rat_str(c)}*q)" if c > 0 else
                         f"({LAM}^2 + {rat_str(-c)}*q)")
        return "*".join(parts) if parts else "1"


class ReciprocityResult:
    __slots__ = ("singular_squares", "eigen_squares", "passed")

    def __init__(self, singular_squares: Tuple[Fraction, ...],
                 eigen_squares: Tuple[Fraction, ...], passed: bool):
        self.singular_squares, self.eigen_squares = singular_squares, eigen_squares
        self.passed = passed


def rational_roots(coeffs: List[Fraction]) -> List[Fraction]:
    """All rational roots with multiplicity; coeffs[k] is the y^k coefficient.

    Zero roots come off first. A linear factor's root is taken directly and a
    quadratic's from its discriminant; past degree 2 there is no closed form
    and TemplateError names the degree. The callers demand a full split over
    Q and raise when the returned count falls short of the degree.
    """
    work = [Fraction(c) for c in coeffs]
    while work and work[-1] == 0:
        work.pop()
    if len(work) <= 1:
        raise TemplateError("degenerate polynomial in the square variable")
    roots: List[Fraction] = []
    while work[0] == 0:
        roots.append(Fraction(0))
        work = work[1:]
    if len(work) > 3:
        raise TemplateError(f"degree {len(work) - 1} factor past the closed-form "
                            "rational roots of degree <= 2")
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
    return BlockSpectrum(chi, dim, a, tuple(sorted(roots, reverse=True)))


def block_spectrum(m: Matrix, block: str) -> BlockSpectrum:
    """Template-factored characteristic polynomial of kappa = 2*m on one block."""
    bad = [v for r in m.rows for p in r for v in p.variables_present() if v != "q"]
    if bad:
        raise ValueError(f"{block} matrix still has parameters: {sorted(set(bad))}")
    return factor_template(char_poly(m.map(lambda p: p.scale(2))), block)


def reciprocity_check(reg_q: DiffOperator, plus: BlockSpectrum) -> ReciprocityResult:
    """Singular points of the regularized operator vs eigenvalue squares.

    reg_q is the regularized operator after q = t^2, over ("q",); the
    q-roots of its leading coefficient must be exactly the reciprocals of
    the symmetric block's nonzero eigenvalue squares.
    """
    lead = reg_q.coeffs[-1]
    qcoeffs = [lead.coeff_of("q", k).constant_value() for k in range(lead.degree_in("q") + 1)]
    roots = rational_roots(qcoeffs)
    if len(roots) != (len(qcoeffs) - 1):
        raise TemplateError("leading coefficient does not split into linear factors in q")
    singular = tuple(sorted(set(roots)))
    eigen = tuple(sorted({c for c in plus.square_factors if c != 0}))
    recip = tuple(sorted({Fraction(1, 1) / c for c in eigen}))
    return ReciprocityResult(singular, eigen, singular == recip)
