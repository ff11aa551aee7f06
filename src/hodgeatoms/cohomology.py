"""Ambient cohomology ring of a double cover of P2 x P2.

The ring is Q[H1, H2] / (H1^n, H2^n) with n the nilpotency order (3 for
the fourfold), graded by topological degree deg(H1^a H2^b) = 2(a+b).
The Poincare pairing reads off the top monomial and multiplies by the
instance's top intersection number. The factor-swap involution exchanges
H1 and H2; its eigenbasis splits the ring into a symmetric and an
antisymmetric block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .linalg import Matrix, rref
from .poly import signed_join


class AmbientRing:
    def __init__(self, nilpotency: int = 3, pairing: Fraction = Fraction(2)):
        if nilpotency < 1:
            raise ValueError("nilpotency must be positive")
        if pairing <= 0:
            raise ValueError("pairing normalization must be positive")
        self.nilpotency = nilpotency
        self.pairing_norm = Fraction(pairing)
        n = nilpotency
        self.monomials: List[Tuple[int, int]] = [(a, b) for a in range(n) for b in range(n)]
        self.top = (n - 1, n - 1)

    def monomial(self, a: int, b: int, c: Fraction = Fraction(1)) -> "AmbientClass":
        if not (0 <= a < self.nilpotency and 0 <= b < self.nilpotency):
            raise ValueError(f"monomial H1^{a} H2^{b} outside the ring")
        return AmbientClass(self, {(a, b): Fraction(c)})

    @property
    def H1(self) -> "AmbientClass":
        return self.monomial(1, 0)

    @property
    def H2(self) -> "AmbientClass":
        return self.monomial(0, 1)

    @property
    def H(self) -> "AmbientClass":
        return self.H1 + self.H2

    def eigenbasis(self) -> "EigenBasis":
        """Involution eigenbasis, ordered by degree then exponent spread."""
        n = self.nilpotency
        sym, anti = [], []
        for lo in range(n):
            for hi in range(lo, n):
                if lo == hi:
                    sym.append(self.monomial(lo, lo))
                else:
                    sym.append(self.monomial(lo, hi) + self.monomial(hi, lo))
                    anti.append(self.monomial(hi, lo) - self.monomial(lo, hi))
        key = lambda x: (x.degree(), -_spread(x))
        sym.sort(key=key)
        anti.sort(key=key)
        return EigenBasis(tuple(sym), tuple(anti))


def _spread(x: "AmbientClass") -> int:
    return max(abs(a - b) for (a, b) in x.coeffs)


class AmbientClass:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: AmbientRing, coeffs: Dict[Tuple[int, int], Fraction]):
        self.ring = ring
        self.coeffs = {k: Fraction(v) for k, v in coeffs.items() if v != 0}

    def __add__(self, other: "AmbientClass") -> "AmbientClass":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return AmbientClass(self.ring, out)

    def __sub__(self, other: "AmbientClass") -> "AmbientClass":
        return self + other.scale(-1)

    def scale(self, c) -> "AmbientClass":
        c = Fraction(c)
        return AmbientClass(self.ring, {k: v * c for k, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, AmbientClass):
            return NotImplemented
        return self.coeffs == other.coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, a: int, b: int) -> Fraction:
        return self.coeffs.get((a, b), Fraction(0))

    def degree(self) -> int:
        """Topological degree; defined only for homogeneous classes."""
        degs = {2 * (a + b) for (a, b) in self.coeffs}
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous class with degrees {sorted(degs)}")
        return degs.pop() if degs else 0

    def cup(self, other: "AmbientClass") -> "AmbientClass":
        """Product in Q[H1,H2]/(H1^n, H2^n): drop monomials hitting a relation."""
        n = self.ring.nilpotency
        out: Dict[Tuple[int, int], Fraction] = {}
        for (a1, b1), c1 in self.coeffs.items():
            for (a2, b2), c2 in other.coeffs.items():
                a, b = a1 + a2, b1 + b2
                if a >= n or b >= n:
                    continue
                out[(a, b)] = out.get((a, b), Fraction(0)) + c1 * c2
        return AmbientClass(self.ring, out)

    def pair(self, other: "AmbientClass") -> Fraction:
        """Poincare pairing: top-monomial coefficient of the cup product,
        times the top intersection number."""
        prod = self.cup(other)
        return prod.coeff(*self.ring.top) * self.ring.pairing_norm

    def involution(self) -> "AmbientClass":
        return AmbientClass(self.ring, {(b, a): c for (a, b), c in self.coeffs.items()})

    def render(self) -> str:
        def mono(a, b):
            ps = []
            if a:
                ps.append("H1" if a == 1 else f"H1^{a}")
            if b:
                ps.append("H2" if b == 1 else f"H2^{b}")
            return "*".join(ps) or "1"
        parts = []
        for (a, b) in sorted(self.coeffs, key=lambda k: (k[0] + k[1], k)):
            c = self.coeffs[(a, b)]
            m = mono(a, b)
            body = m if abs(c) == 1 and m != "1" else (str(abs(c)) if m == "1" else f"{abs(c)}*{m}")
            parts.append(("- " if c < 0 else "+ ") + body)
        return signed_join(parts)

    def __repr__(self):
        return f"AmbientClass({self.render()})"


@dataclass(frozen=True)
class EigenBasis:
    symmetric: Tuple[AmbientClass, ...]
    antisymmetric: Tuple[AmbientClass, ...]

    def degrees(self, block: str) -> Tuple[int, ...]:
        return tuple(x.degree() for x in getattr(self, block))


def gram_matrix(basis, variables=("q",)) -> Matrix:
    """Pairing matrix of an ordered basis, as constant polynomial entries."""
    variables = tuple(variables)
    return Matrix.from_scalars(
        variables, [[x.pair(y) for y in basis] for x in basis])


def coordinates(targets, basis) -> List[List[Fraction]]:
    """Exact coordinates of each target in the given basis, from one reduction
    of the basis columns augmented by every target; error if a target is
    outside the span."""
    monos = basis[0].ring.monomials
    ncols = len(basis)
    aug = [[b.coeff(*mono) for b in basis] + [x.coeff(*mono) for x in targets]
           for mono in monos]
    pivots = rref(aug, ncols)
    sols = [[Fraction(0)] * ncols for _ in targets]
    for row, c in zip(aug, pivots):
        for t, sol in enumerate(sols):
            sol[c] = row[ncols + t]
    # consistency: residual must vanish, which also rejects an inconsistent system
    for x, sol in zip(targets, sols):
        for mono in monos:
            if sum(s * b.coeff(*mono) for s, b in zip(sol, basis)) != x.coeff(*mono):
                raise ValueError("class does not lie in the span of the basis")
    return sols
