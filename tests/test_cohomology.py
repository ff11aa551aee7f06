"""Ambient ring of the double cover: pairing, involution, eigenbasis.

The block structure feeds everything downstream, so the basis order and
the orthogonality of the two blocks are pinned exactly.
"""

from fractions import Fraction

import pytest

from hodgeatoms.cohomology import AmbientClass, AmbientRing, coordinates, gram_matrix


def test_ring_construction():
    r = AmbientRing()
    assert len(r.monomials) == 9
    assert r.top == (2, 2)
    with pytest.raises(ValueError):
        AmbientRing(nilpotency=0)
    with pytest.raises(ValueError):
        AmbientRing(pairing=0)
    with pytest.raises(ValueError):
        r.monomial(3, 0)


def test_cup_product_respects_relations(ring):
    h1, h2 = ring.H1, ring.H2
    assert h1.cup(h1).cup(h1).is_zero()
    top = h1.cup(h1).cup(h2).cup(h2)
    assert top.coeff(2, 2) == 1
    assert ring.H.cup(ring.H) == h1.cup(h1) + h1.cup(h2).scale(2) + h2.cup(h2)


def test_degree():
    r = AmbientRing()
    assert r.monomial(1, 2).degree() == 6
    assert AmbientClass(r, {}).degree() == 0
    with pytest.raises(ValueError, match="inhomogeneous"):
        (r.H1 + r.monomial(1, 1)).degree()


def test_pairing_values(ring):
    one = ring.monomial(0, 0)
    top = ring.monomial(2, 2)
    assert one.pair(top) == 2                      # top intersection number
    assert ring.H1.pair(ring.monomial(1, 2)) == 2
    assert ring.H1.pair(ring.H2) == 0              # too low to reach the top
    assert ring.H.pair(ring.monomial(1, 2)) == 2


def test_pairing_is_symmetric(ring):
    mons = [ring.monomial(a, b) for (a, b) in ring.monomials]
    for x in mons:
        for y in mons:
            assert x.pair(y) == y.pair(x)


def test_involution_is_a_ring_automorphism(ring):
    mons = [ring.monomial(a, b) for (a, b) in ring.monomials]
    for x in mons:
        assert x.involution().involution() == x
        for y in mons:
            assert x.cup(y).involution() == x.involution().cup(y.involution())
            assert x.involution().pair(y.involution()) == x.pair(y)


def test_eigenbasis_order_and_degrees(basis):
    assert [x.render() for x in basis.symmetric] == [
        "1", "H2 + H1", "H2^2 + H1^2", "H1*H2", "H1*H2^2 + H1^2*H2", "H1^2*H2^2"]
    assert [x.render() for x in basis.antisymmetric] == [
        "-H2 + H1", "-H2^2 + H1^2", "-H1*H2^2 + H1^2*H2"]
    assert basis.degrees("symmetric") == (0, 2, 4, 4, 6, 8)
    assert basis.degrees("antisymmetric") == (2, 4, 6)


def test_eigenbasis_eigenvalues(basis):
    for x in basis.symmetric:
        assert x.involution() == x
    for x in basis.antisymmetric:
        assert x.involution() == x.scale(-1)


def test_blocks_are_orthogonal(basis):
    # exhaustively over the 6 x 3 grid
    for x in basis.symmetric:
        for y in basis.antisymmetric:
            assert x.pair(y) == 0


def test_gram_matrices(basis):
    g = gram_matrix(basis.symmetric)
    vals = [[p.constant_value() for p in r] for r in g.rows]
    assert vals == [
        [0, 0, 0, 0, 0, 2],
        [0, 0, 0, 0, 4, 0],
        [0, 0, 4, 0, 0, 0],
        [0, 0, 0, 2, 0, 0],
        [0, 4, 0, 0, 0, 0],
        [2, 0, 0, 0, 0, 0]]
    ga = gram_matrix(basis.antisymmetric)
    assert [[p.constant_value() for p in r] for r in ga.rows] == [
        [0, 0, -4], [0, -4, 0], [-4, 0, 0]]


def test_coordinates_roundtrip(ring, basis):
    x = basis.symmetric[2] + basis.symmetric[3].scale(Fraction(1, 2))
    coords = coordinates([x, basis.symmetric[0]], basis.symmetric)
    assert coords == [[0, 0, 1, Fraction(1, 2), 0, 0], [1, 0, 0, 0, 0, 0]]
    with pytest.raises(ValueError, match="span"):
        coordinates([x, ring.H1], basis.symmetric)
