"""Ambient cohomology ring of a double cover of P2 x P2.

The ring is Q[H1, H2] / (H1^n, H2^n) with n the nilpotency order (3 for
the fourfold), graded by topological degree deg(H1^a H2^b) = 2(a+b). A
class is a Poly over (H1, H2) with every exponent below n; the ring's cup
product drops the monomials that hit a relation. The Poincare pairing
reads off the top monomial's coefficient; the instance's top intersection
number would scale all of G alike, changing neither M^T G = G M nor the
ratios G[i][s(i)] : G[j][s(j)] that pair the ansatz's slots, so it is not
carried. The factor-swap involution exchanges H1 and H2; x + swap(x) and
x - swap(x) over the monomials split the ring into a symmetric and an
antisymmetric block.
"""

from __future__ import annotations


from .poly import Poly, Scalar

VARS = ("H1", "H2")


class AmbientRing:
    def __init__(self, nilpotency: int = 3):
        if nilpotency < 1:
            raise ValueError("nilpotency must be positive")
        self.nilpotency = nilpotency
        self.top = (nilpotency - 1, nilpotency - 1)

    def monomial(self, a: int, b: int) -> Poly:
        if not (0 <= a < self.nilpotency and 0 <= b < self.nilpotency):
            raise ValueError(f"monomial H1^{a} H2^{b} outside the ring")
        return Poly(VARS, {(a, b): 1})

    @property
    def H1(self) -> Poly:
        return self.monomial(1, 0)

    @property
    def H2(self) -> Poly:
        return self.monomial(0, 1)

    @property
    def H(self) -> Poly:
        return self.H1 + self.H2

    def cup(self, x: Poly, y: Poly) -> Poly:
        """Product in Q[H1,H2]/(H1^n, H2^n): drop monomials hitting a relation."""
        n = self.nilpotency
        return Poly(VARS, {ex: c for ex, c in (x * y).terms.items() if max(ex) < n})

    def pair(self, x: Poly, y: Poly) -> Scalar:
        """Poincare pairing: top-monomial coefficient of the cup product, read
        as the sum over complementary monomials of x's and y's coefficients
        (an int when they are)."""
        x._check(y)
        return sum(c * y.terms[m] for (a, b), c in x.terms.items()
                   for m in [(self.top[0] - a, self.top[1] - b)] if m in y.terms)

    def eigenbasis(self) -> "EigenBasis":
        """Involution eigenbasis, ordered by degree then exponent spread."""
        n = self.nilpotency
        sym, anti = [], []
        for a in range(n):
            for b in range(a + 1):
                x = self.monomial(a, b)
                if a == b:
                    sym.append(x)
                else:
                    sym.append(x + swap(x))
                    anti.append(x - swap(x))
        key = lambda x: (degree(x), -max(abs(a - b) for (a, b) in x.terms))
        sym.sort(key=key)
        anti.sort(key=key)
        return EigenBasis(tuple(sym), tuple(anti))


def swap(x: Poly) -> Poly:
    """The factor-swap involution H1 <-> H2."""
    return x.rename_vars(VARS, {"H1": "H2", "H2": "H1"})


def degree(x: Poly) -> int:
    """Topological degree; defined only for homogeneous classes."""
    degs = {2 * sum(ex) for ex in x.terms}
    if len(degs) > 1:
        raise ValueError(f"inhomogeneous class with degrees {sorted(degs)}")
    return degs.pop() if degs else 0


class EigenBasis:
    __slots__ = ("symmetric", "antisymmetric")

    def __init__(self, symmetric: tuple[Poly, ...], antisymmetric: tuple[Poly, ...]):
        self.symmetric, self.antisymmetric = symmetric, antisymmetric

    def degrees(self, block: str) -> tuple[int, ...]:
        return tuple(degree(x) for x in getattr(self, block))


def gram_matrix(ring: AmbientRing, basis) -> list[list[Scalar]]:
    """Pairing matrix of an ordered basis, as rows of scalars."""
    return [[ring.pair(x, y) for y in basis] for x in basis]

