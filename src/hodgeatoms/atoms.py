"""Atom invariant calculus and the irrationality decision.

Each atom carries (rho, P): the count of rational Hodge classes and the
Laurent polynomial recording Hodge types by p - q, a Poly over (t,) with
negative exponents. Blowing up along a centre of local multiplicity r
adds r - 1 copies of the centre's invariants, so a rational fourfold
can only contain atoms assembled from point, curve and surface
contributions. An atom with a nonzero t^2 coefficient and rho < 3
cannot be assembled that way: points and curves contribute no t^2 and
any surface forces rho >= 3.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import List, Mapping, Optional, Tuple

from .instance import InstanceSpec
from .poly import Poly


class AtomError(ValueError):
    pass


class AtomInvariants:
    __slots__ = ("rho", "hodge", "label")

    def __init__(self, rho: int, hodge: Poly, label: str):
        if rho < 0:
            raise AtomError(f"{label}: negative rho")
        if any(c < 0 for c in hodge.terms.values()):
            raise AtomError(f"{label}: negative Hodge multiplicity")
        pp = hodge.terms.get((0,), 0)
        if rho > pp:
            raise AtomError(f"{label}: rho = {rho} exceeds the (p,p) dimension {pp}")
        self.rho, self.hodge, self.label = rho, hodge, label

    def t2_coefficient(self) -> int:
        return int(self.hodge.terms.get((2,), 0))

    def render(self) -> str:
        return f"{self.label}: rho = {self.rho}, P = {self.hodge.render()}"


def hodge_poly(coeffs: Mapping[int, int]) -> Poly:
    """P(t) from its coefficients by exponent p - q."""
    return Poly(("t",), {(k,): c for k, c in coeffs.items()})


def atom_sum(a: AtomInvariants, b: AtomInvariants, label: str) -> AtomInvariants:
    return AtomInvariants(a.rho + b.rho, a.hodge + b.hodge, label)


def obstruction_applies(atom: AtomInvariants) -> bool:
    """True when no blowup bookkeeping can produce this atom."""
    return atom.t2_coefficient() != 0 and atom.rho < 3


# -- the zero eigenspace of the Verra-type instance ---------------------------

def transcendental_invariants(instance: InstanceSpec) -> AtomInvariants:
    """(rho, P) of the transcendental summand T.

    The Hodge types come from the instance's decomposition of T, listed
    from the top piece down, so the i-th entry sits at p - q = (L-1) - 2i.
    Simplicity forces rho = 0: a rational Hodge class would span a proper
    sub-Hodge structure.
    """
    if instance.dim_t and not instance.simple:
        raise AtomError("transcendental part not flagged simple; rho unknown")
    parts = instance.tdecomp
    span = len(parts) - 1
    hodge = hodge_poly({span - 2 * i: parts[i] for i in range(len(parts))})
    return AtomInvariants(0, hodge, "T")


class PlacementCase:
    __slots__ = ("name", "plus", "minus")

    def __init__(self, name: str, plus: AtomInvariants, minus: AtomInvariants):
        self.name, self.plus, self.minus = name, plus, minus

    def atoms(self) -> Tuple[AtomInvariants, AtomInvariants]:
        return (self.plus, self.minus)

    def obstructed(self) -> Optional[AtomInvariants]:
        for atom in self.atoms():
            if obstruction_applies(atom):
                return atom
        return None


def assemble_zero_atoms(trans: AtomInvariants, zero_plus: int,
                        zero_minus: int) -> Tuple[PlacementCase, PlacementCase]:
    """Both placements of T against the ambient zero eigenspaces.

    The ambient pieces are algebraic, contributing (dim, dim*t^0); T lands
    entirely in one of the two involution eigenspaces, and which one is
    not known, so both cases are returned.
    """
    ambient_plus = AtomInvariants(zero_plus, hodge_poly({0: zero_plus}), "E_0^+")
    ambient_minus = AtomInvariants(zero_minus, hodge_poly({0: zero_minus}), "E_0^-")
    return (PlacementCase("T_in_plus", plus=atom_sum(ambient_plus, trans, "E_0^+"),
                          minus=ambient_minus),
            PlacementCase("T_in_minus", plus=ambient_plus,
                          minus=atom_sum(ambient_minus, trans, "E_0^-")))


# -- exhaustive exclusion over centre multisets --------------------------------

def exclusion_search(target: AtomInvariants, max_centres: int,
                     max_genus: int) -> List[Tuple[Tuple[str, int], ...]]:
    """Centre multisets that could assemble the target atom.

    Enumerates every multiset of at most max_centres weighted centre
    contributions (weight = multiplicity r - 1 >= 1) whose total t^2
    coefficient matches the target's without the total rho exceeding the
    target's. A centre contributes (t^2 coefficient, rho): a point (0, 1),
    a curve of any genus (0, 2), and a surface (h20, 3), since its H^0, H^4
    and one (1,1) class are rational. An empty result excludes the target
    from every blowup of the bounded shape; when obstruction_applies(target)
    the result is empty for all bounds.
    """
    if max_centres < 0 or max_genus < 0:
        raise AtomError("bounds must be non-negative")
    t2 = target.t2_coefficient()
    kinds = [(0, 1, "point")]
    kinds += [(0, 2, f"curve(g={g})") for g in range(max_genus + 1)]
    if target.rho >= 3:  # a surface's rho; below it no surface fits
        kinds += [(h20, 3, f"surface(h20={h20},h10=0,h11=1)") for h20 in range(t2 + 1)]
    hits = []
    for count in range(1, max_centres + 1):
        for combo in combinations_with_replacement(kinds, count):
            if sum(k[0] for k in combo) == t2 and sum(k[1] for k in combo) <= target.rho:
                weighted: dict = {}
                for _, _, label in combo:
                    weighted[label] = weighted.get(label, 0) + 1
                hit = tuple(sorted(weighted.items()))
                if hit not in hits:
                    hits.append(hit)
    return sorted(hits)
