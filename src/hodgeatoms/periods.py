"""Builtin quantum period sources.

A period source provides the deregularised coefficient sequence a_m of
G(q) = Sum a_m q^m together, when published, with the regularized scalar
operator in the variable t. The regularized period carries factorially
rescaled coefficients: its t^(2m) coefficient is (2m)! a_m, and it is the
series the regularized operator annihilates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Optional

from .poly import Poly
from .qde import DiffOperator
from .series import Series


@dataclass(frozen=True)
class PeriodSource:
    name: str
    description: str
    coefficient: Callable[[int], Fraction]
    regularized: Optional[DiffOperator]  # in t, with D_t = t d/dt


def _verra_coefficient(m: int) -> Fraction:
    # closed two-point sum for the double cover of P2 x P2 in the
    # anticanonical Novikov slice, a_m = (2m)! Sum_l C(m,l)^3 / m!^4; the
    # binomials come from the integer term ratio C(m,l+1) = C(m,l)(m-l)/(l+1)
    total, binom = 0, 1
    for l in range(m + 1):
        total += binom ** 3
        binom = binom * (m - l) // (l + 1)
    f = math.factorial
    return Fraction(f(2 * m) * total, f(m) ** 4)


def _verra_regularized() -> DiffOperator:
    T = ("t",)

    def tp(*pairs) -> Poly:
        return Poly(T, {(e,): c for e, c in pairs})

    return DiffOperator((
        tp((4, 18432), (2, 128)),           # 128 t^2 (144 t^2 + 1)
        tp((4, 49152), (2, 480)),           # 96 t^2 (512 t^2 + 5)
        tp((4, 45056), (2, 688)),           # 16 t^2 (2816 t^2 + 43)
        tp((4, 16384), (2, 448)),           # 64 t^2 (256 t^2 + 7)
        tp((4, 2048), (2, 112), (0, -1)),   # (16 t^2 + 1)(128 t^2 - 1)
    ))


REGISTRY: Dict[str, PeriodSource] = {
    "verra-eq3": PeriodSource(
        name="verra-eq3",
        description="quantum period of the very general Verra fourfold",
        coefficient=_verra_coefficient,
        regularized=_verra_regularized(),
    ),
}


def get_source(name: str) -> PeriodSource:
    if name not in REGISTRY:
        raise KeyError(f"unknown period source {name!r}; known: {sorted(REGISTRY)}")
    return REGISTRY[name]


def period_coefficients(source: str, order: int) -> Series:
    """G(q) of the named source through q^order, exactly."""
    if order < 0:
        raise ValueError("order must be non-negative")
    src = get_source(source)
    coeffs = [src.coefficient(m) for m in range(order + 1)]
    if coeffs[0] != 1:
        raise ValueError(f"period source {source!r} does not start at 1")
    return Series(coeffs)


def regularized_coefficients(g: Series) -> Series:
    """The factorially rescaled series: coefficient of q^m is (2m)! a_m."""
    out, fact = [], 1
    for m, c in enumerate(g.coeffs):
        if m:
            fact *= (2 * m - 1) * (2 * m)
        out.append(fact * c)
    return Series(out)
