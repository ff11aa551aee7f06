"""Ambient ring of the double cover: pairing, involution, eigenbasis.

The block structure feeds everything downstream, so the basis order and
the orthogonality of the two blocks are pinned exactly. Ring classes are
Polys over (H1, H2); AmbientClass below, the dict-based class the package
used for them before, is the reference they are checked against on random
classes.
"""

from fractions import Fraction
from typing import Dict, Tuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hodgeatoms.ansatz import classical_matrix
from hodgeatoms.cohomology import VARS, AmbientRing, degree, gram_matrix, swap
from hodgeatoms.poly import Poly, signed_join
from conftest import sympy_rref

MONOMIALS = [(a, b) for a in range(3) for b in range(3)]


def test_ring_construction():
    r = AmbientRing()
    assert r.top == (2, 2)
    assert r.monomial(1, 2) == Poly(VARS, {(1, 2): 1})
    with pytest.raises(ValueError):
        AmbientRing(nilpotency=0)
    with pytest.raises(ValueError):
        r.monomial(3, 0)


def test_cup_product_respects_relations(ring):
    h1, h2 = ring.H1, ring.H2
    assert ring.cup(ring.cup(h1, h1), h1).is_zero()
    top = ring.cup(ring.cup(ring.cup(h1, h1), h2), h2)
    assert top == ring.monomial(2, 2)
    assert ring.cup(ring.H, ring.H) == (ring.cup(h1, h1) + ring.cup(h1, h2).scale(2)
                                        + ring.cup(h2, h2))


def test_degree():
    r = AmbientRing()
    assert degree(r.monomial(1, 2)) == 6
    assert degree(Poly.zero(VARS)) == 0
    with pytest.raises(ValueError, match="inhomogeneous"):
        degree(r.H1 + r.monomial(1, 1))


def test_pairing_values(ring):
    one = ring.monomial(0, 0)
    top = ring.monomial(2, 2)
    # the top monomial pairs to 1: the instance's top intersection number
    # would scale every pairing alike and is not carried
    assert ring.pair(one, top) == 1
    assert ring.pair(ring.H1, ring.monomial(1, 2)) == 1
    assert ring.pair(ring.H1, ring.H2) == 0              # too low to reach the top
    assert ring.pair(ring.H, ring.monomial(1, 2)) == 1


def test_pairing_is_symmetric(ring):
    mons = [ring.monomial(a, b) for (a, b) in MONOMIALS]
    for x in mons:
        for y in mons:
            assert ring.pair(x, y) == ring.pair(y, x)


def test_involution_is_a_ring_automorphism(ring):
    mons = [ring.monomial(a, b) for (a, b) in MONOMIALS]
    for x in mons:
        assert swap(swap(x)) == x
        for y in mons:
            assert swap(ring.cup(x, y)) == ring.cup(swap(x), swap(y))
            assert ring.pair(swap(x), swap(y)) == ring.pair(x, y)


def test_eigenbasis_order_and_degrees(basis):
    assert [x.render(ascending=True) for x in basis.symmetric] == [
        "1", "H2 + H1", "H2^2 + H1^2", "H1*H2", "H1*H2^2 + H1^2*H2", "H1^2*H2^2"]
    assert [x.render(ascending=True) for x in basis.antisymmetric] == [
        "-H2 + H1", "-H2^2 + H1^2", "-H1*H2^2 + H1^2*H2"]
    assert basis.degrees("symmetric") == (0, 2, 4, 4, 6, 8)
    assert basis.degrees("antisymmetric") == (2, 4, 6)


def test_eigenbasis_eigenvalues(basis):
    for x in basis.symmetric:
        assert swap(x) == x
    for x in basis.antisymmetric:
        assert swap(x) == x.scale(-1)


def test_blocks_are_orthogonal(ring, basis):
    # exhaustively over the 6 x 3 grid
    for x in basis.symmetric:
        for y in basis.antisymmetric:
            assert ring.pair(x, y) == 0


def test_gram_matrices(ring, basis):
    # scalar rows; the top monomial pairs to 1 (the top intersection number
    # is not carried)
    assert gram_matrix(ring, basis.symmetric) == [
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 2, 0],
        [0, 0, 2, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 2, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0]]
    assert gram_matrix(ring, basis.antisymmetric) == [
        [0, 0, -2], [0, -2, 0], [-2, 0, 0]]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pair_is_the_top_coefficient_of_the_cup(n):
    ring = AmbientRing(n)
    eigen = ring.eigenbasis()
    classes = (list(eigen.symmetric + eigen.antisymmetric) +
               [ring.monomial(a, b) for a in range(n) for b in range(n)])
    for x in classes:
        for y in classes:
            assert ring.pair(x, y) == ring.cup(x, y).terms.get(ring.top, 0)


# -- reference: ring classes as dicts (a, b) -> coefficient ---------------------

class AmbientClass:
    """A class of Q[H1,H2]/(H1^n, H2^n) as a dict (a, b) -> coefficient."""

    def __init__(self, ring, coeffs: Dict[Tuple[int, int], Fraction]):
        self.ring = ring
        self.coeffs = {k: Fraction(v) for k, v in coeffs.items() if v != 0}

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return AmbientClass(self.ring, out)

    def __sub__(self, other):
        return self + AmbientClass(self.ring, {k: -v for k, v in other.coeffs.items()})

    def coeff(self, a, b):
        return self.coeffs.get((a, b), Fraction(0))

    def degree(self):
        degs = {2 * (a + b) for (a, b) in self.coeffs}
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous class with degrees {sorted(degs)}")
        return degs.pop() if degs else 0

    def cup(self, other):
        n = self.ring.nilpotency
        out: Dict[Tuple[int, int], Fraction] = {}
        for (a1, b1), c1 in self.coeffs.items():
            for (a2, b2), c2 in other.coeffs.items():
                a, b = a1 + a2, b1 + b2
                if a >= n or b >= n:
                    continue
                out[(a, b)] = out.get((a, b), Fraction(0)) + c1 * c2
        return AmbientClass(self.ring, out)

    def pair(self, other):
        n = self.ring.nilpotency
        return self.cup(other).coeff(n - 1, n - 1)

    def involution(self):
        return AmbientClass(self.ring, {(b, a): c for (a, b), c in self.coeffs.items()})

    def render(self):
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


def ref_eigenbasis(ring):
    """Both blocks as (symmetric, antisymmetric) lists, in eigenbasis order."""
    n = ring.nilpotency
    mono = lambda a, b: AmbientClass(ring, {(a, b): 1})
    sym, anti = [], []
    for lo in range(n):
        for hi in range(lo, n):
            if lo == hi:
                sym.append(mono(lo, lo))
            else:
                sym.append(mono(lo, hi) + mono(hi, lo))
                anti.append(mono(hi, lo) - mono(lo, hi))
    key = lambda x: (x.degree(), -max(abs(a - b) for (a, b) in x.coeffs))
    return sorted(sym, key=key), sorted(anti, key=key)


def ref_coordinates(targets, basis):
    """Coordinates by one reduction over every monomial of the ring."""
    n = basis[0].ring.nilpotency
    monos = [(a, b) for a in range(n) for b in range(n)]
    ncols = len(basis)
    aug = [[b.coeff(*m) for b in basis] + [x.coeff(*m) for x in targets] for m in monos]
    aug, pivots = sympy_rref(aug)
    if pivots[-1] >= ncols:
        raise ValueError("class does not lie in the span of the basis")
    sols = [[Fraction(0)] * ncols for _ in targets]
    for row, c in zip(aug, pivots):
        for t, sol in enumerate(sols):
            sol[c] = row[ncols + t]
    return sols


def ref(ring, x: Poly) -> AmbientClass:
    return AmbientClass(ring, dict(x.terms))


def outcome(f, *args):
    """f's value, or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as e:
        return f"ValueError: {e}"


# rational coefficients, about half of them zero
COEFFS = st.one_of(st.just(0), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5)))


@st.composite
def ring_and_classes(draw, count=2):
    n = draw(st.integers(min_value=2, max_value=4))
    ring = AmbientRing(n)
    monos = [(a, b) for a in range(n) for b in range(n)]
    classes = [Poly(VARS, dict(zip(monos, draw(st.lists(COEFFS, min_size=n * n, max_size=n * n)))))
               for _ in range(count)]
    return ring, classes


@given(ring_and_classes())
def test_cup_matches_reference(case):
    ring, (x, y) = case
    assert ring.cup(x, y).terms == ref(ring, x).cup(ref(ring, y)).coeffs
    top = ring.monomial(ring.nilpotency - 1, 0)
    assert ring.cup(top, ring.H1).is_zero()


@given(ring_and_classes())
def test_pair_matches_reference(case):
    ring, (x, y) = case
    assert ring.pair(x, y) == ref(ring, x).pair(ref(ring, y))
    assert ring.pair(ring.monomial(0, 0), ring.monomial(*ring.top)) == 1


@given(ring_and_classes())
def test_swap_matches_reference(case):
    ring, (x, y) = case
    assert swap(x).terms == ref(ring, x).involution().coeffs
    assert swap(swap(x)) == x
    assert swap(ring.cup(x, y)) == ring.cup(swap(x), swap(y))
    assert ring.pair(swap(x), swap(y)) == ring.pair(x, y)


@given(ring_and_classes())
def test_degree_matches_reference(case):
    ring, (x, y) = case
    parts = [Poly(VARS, {ex: c for ex, c in x.terms.items() if sum(ex) == k})
             for k in range(2 * ring.nilpotency - 1)]
    for z in [x] + parts:
        assert outcome(degree, z) == outcome(ref(ring, z).degree)
    assert outcome(degree, ring.cup(x, y)) == outcome(ref(ring, x).cup(ref(ring, y)).degree)


@given(ring_and_classes())
def test_render_matches_reference(case):
    ring, (x, y) = case
    assert x.render(ascending=True) == ref(ring, x).render()
    assert swap(x).render(ascending=True) == ref(ring, x).involution().render()
    assert ring.cup(x, y).render(ascending=True) == ref(ring, x).cup(ref(ring, y)).render()


def test_classical_matrix_matches_reference():
    # column i of the cup matrix holds the reference coordinates of H b_i
    for n in (2, 3, 4, 5):
        ring = AmbientRing(n)
        basis = ring.eigenbasis()
        ref_h = AmbientClass(ring, {(1, 0): 1, (0, 1): 1})
        for block, ref_block in zip((basis.symmetric, basis.antisymmetric), ref_eigenbasis(ring)):
            cols = ref_coordinates([ref_h.cup(b) for b in ref_block], ref_block)
            assert classical_matrix(block, ring) == [list(row) for row in zip(*cols)]
