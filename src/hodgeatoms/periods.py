"""Builtin quantum period sources.

A period source provides the deregularised coefficient sequence a_m of
G(q) = Sum a_m q^m together, when published, with the regularized scalar
operator in the variable t. The regularized period carries factorially
rescaled coefficients: its t^(2m) coefficient is (2m)! a_m, and it is the
series the regularized operator annihilates.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .poly import Poly
from .qde import DiffOperator
from .series import Series


class PeriodSource:
    __slots__ = ("name", "description", "coefficients", "regularized")

    def __init__(self, name: str, description: str,
                 coefficients: Callable[[int], list[Fraction]],  # a_0 .. a_order
                 regularized: DiffOperator | None):  # in t, with D_t = t d/dt
        self.name, self.description = name, description
        self.coefficients, self.regularized = coefficients, regularized


def _verra_coefficients(order: int) -> list[Fraction]:
    # closed two-point sum for the double cover of P2 x P2 in the
    # anticanonical Novikov slice, a_m = (2m)! f_m / m!^4 = C(2m,m) f_m / m!^2,
    # with f_m = Sum_l C(m,l)^3 the Franel numbers from their recurrence
    # (n+1)^2 f_(n+1) = (7n^2 + 7n + 2) f_n + 8n^2 f_(n-1), and the central
    # binomials from C(2m,m) = C(2m-2,m-1) (2m-1) 2 / m
    out, prev, franel, central, bottom = [], 0, 1, 1, 1
    for m in range(order + 1):
        if m:
            n = m - 1
            prev, franel = franel, ((7 * n * n + 7 * n + 2) * franel + 8 * n * n * prev) // (m * m)
            central = central * (2 * m - 1) * 2 // m
            bottom *= m * m
        out.append(Fraction(central * franel, bottom))
    return out


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


REGISTRY: dict[str, PeriodSource] = {"verra-eq3": PeriodSource(
    name="verra-eq3", description="quantum period of the very general Verra fourfold",
    coefficients=_verra_coefficients, regularized=_verra_regularized())}


def get_source(name: str) -> PeriodSource:
    if name not in REGISTRY:
        raise KeyError(f"unknown period source {name!r}; known: {sorted(REGISTRY)}")
    return REGISTRY[name]


def period_coefficients(source: str, order: int) -> Series:
    """G(q) of the named source through q^order, exactly."""
    if order < 0:
        raise ValueError("order must be non-negative")
    coeffs = get_source(source).coefficients(order)
    if coeffs[0] != 1:
        raise ValueError(f"period source {source!r} does not start at 1")
    return Series(coeffs)


def regularized_coefficients(g: Series) -> Series:
    """The factorially rescaled series: coefficient of q^m is (2m)! a_m, formed
    as an int product when integral, which spares the Fraction product's gcd."""
    out, fact = [], 1
    for m, c in enumerate(g.coeffs):
        if m:
            fact *= (2 * m - 1) * (2 * m)
        k, r = divmod(fact, c.denominator)
        out.append(fact * c if r else k * c.numerator)
    return Series(out)
