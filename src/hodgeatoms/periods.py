"""Builtin quantum period sources.

A period source provides the deregularised coefficient sequence a_m of
G(q) = Sum a_m q^m together with the recurrence of its factorially
rescaled coefficients b_m = (2m)! a_m. The regularized period Sum b_m t^(2m)
is the series the regularized operator annihilates, and the source derives
that operator from the recurrence.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from math import comb

from .poly import Poly
from .qde import DiffOperator
from .series import Series


class PeriodSource:
    __slots__ = ("name", "description", "coefficients", "regularized")

    def __init__(self, name: str, description: str,
                 coefficients: Callable[[int], list[Fraction]],  # a_0 .. a_order
                 recurrence: tuple[tuple[int, ...], ...]):  # S_0 .. S_r, each S_j(m) from m^0 up
        self.name, self.description = name, description
        self.coefficients, self.regularized = coefficients, _regularize(recurrence)


def _regularize(recurrence: tuple[tuple[int, ...], ...]) -> DiffOperator:
    """Sum_j S_j(m) b_(m-j) = 0 as an operator on Sum b_m t^(2m): D_t = t d/dt takes
    t^(2m) to 2m t^(2m), so it is Sum_j t^(2j) 2^deg S_j(D_t/2 + j), each 2^deg
    (D_t/2 + j)^i = 2^(deg-i) (D_t + 2j)^i expanded in integers; then in normal form."""
    deg = max(map(len, recurrence)) - 1
    rows = [[0] * len(recurrence) for _ in range(deg + 1)]  # [k][j]: at t^(2j) D_t^k
    for j, s in enumerate(recurrence):
        for i, c in enumerate(s):
            for k in range(i + 1):
                rows[k][j] += (c << deg - i) * comb(i, k) * (2 * j) ** (i - k)
    return DiffOperator(tuple(Poly(("t",), {(2 * j,): v for j, v in enumerate(row)})
                              for row in rows)).normalize()


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


# b_m = (2m)! a_m = C(2m,m)^2 f_m, by the Franel recurrence: S_0 = m^4,
# S_1 = -4 (2m-1)^2 (7m^2 - 7m + 2) and S_2 = -128 (2m-1)^2 (2m-3)^2
_VERRA_RECURRENCE = ((0, 0, 0, 0, 1), (-8, 60, -172, 224, -112),
                     (-1152, 6144, -11264, 8192, -2048))
REGISTRY: dict[str, PeriodSource] = {"verra-eq3": PeriodSource(
    name="verra-eq3", description="quantum period of the very general Verra fourfold",
    coefficients=_verra_coefficients, recurrence=_VERRA_RECURRENCE)}


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
