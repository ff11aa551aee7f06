"""Truncated formal power series over exact rationals.

A Series keeps a dense coefficient list c[0..order], exact through its
stated order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .poly import Scalar, _as_scalar


class Series:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        self.coeffs = [c if isinstance(c, Fraction) else Fraction(_as_scalar(c)) for c in coeffs]
        if not self.coeffs:
            raise ValueError("series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, m: int) -> Fraction:
        if m < 0 or m > self.order:
            raise IndexError(f"coefficient q^{m} beyond truncation order {self.order}")
        return self.coeffs[m]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"Series([{shown}{tail}], order={self.order})"
