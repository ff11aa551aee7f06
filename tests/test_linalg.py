"""Exact linear algebra: kernels, determinants, characteristic polynomials."""

import random
from fractions import Fraction

import pytest
import sympy

from hodgeatoms.linalg import BiPoly, Matrix, char_poly, det, left_nullspace
from hodgeatoms.poly import Poly

Q = ("q",)
TU = ("t", "u", "q")


def M(rows):
    return Matrix.from_scalars(Q, rows)


def test_shape_validation():
    with pytest.raises(ValueError):
        Matrix([])
    with pytest.raises(ValueError):
        M([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix([[Poly.const(Q, 1), Poly.const(TU, 1)]])


def test_identity_and_product():
    a = M([[1, 2], [3, 4]])
    i = M([[1, 0], [0, 1]])
    assert a * i == a and i * a == a
    b = M([[0, 1], [1, 0]])
    assert a * b == M([[2, 1], [4, 3]])
    with pytest.raises(ValueError):
        a * M([[1, 2, 3]])


def test_transpose_add_sub_map():
    a = M([[1, 2], [3, 4]])
    assert a.transpose() == M([[1, 3], [2, 4]])
    assert a + a == a.map(lambda p: p.scale(2))
    assert (a - a).is_zero()


def test_left_nullspace_rational():
    m = M([[1, 2], [2, 4]])
    assert left_nullspace(m) == [[Poly.const(Q, 2), Poly.const(Q, -1)]]
    assert left_nullspace(M([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == []


def test_left_nullspace_strips_polynomial_content():
    # raw cross-multiplied kernel of this stack is (u q, -t q); the collective
    # factor q must come out, not just the rational content
    t = Poly.var(TU, "t") * Poly.var(TU, "q")
    u = Poly.var(TU, "u") * Poly.var(TU, "q")
    m = Matrix([[t], [u]])
    kernel = left_nullspace(m)
    assert kernel == [[Poly.var(TU, "u"), Poly.var(TU, "t").scale(-1)]]


def test_left_nullspace_sign_convention():
    m = M([[-1, -2], [-2, -4]])
    [vec] = left_nullspace(m)
    assert vec[0].leading_coefficient() > 0


def test_det_examples():
    assert det(M([[1, 2], [3, 4]])).constant_value() == -2
    q = Poly.var(Q, "q")
    one = Poly.const(Q, 1)
    zero = Poly.zero(Q)
    assert det(Matrix([[q, one], [zero, q]])) == q * q
    with pytest.raises(ValueError):
        det(M([[1, 2]]))


def test_det_matches_sympy():
    rng = random.Random(5)
    for _ in range(5):
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
                for _ in range(4)]
        ours = det(M(rows)).constant_value()
        ref = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in r]
                            for r in rows]).det()
        assert sympy.Rational(ours.numerator, ours.denominator) == ref


def test_char_poly_examples():
    chi = char_poly(M([[0, 1], [1, 0]]))
    assert chi.coeff(2).constant_value() == 1
    assert chi.coeff(0).constant_value() == -1
    assert chi.coeff(1).is_zero()
    assert chi.degree() == 2
    with pytest.raises(ValueError):
        char_poly(M([[1, 2]]))
    # outer variable must be fresh
    lam_ring = Matrix.from_scalars(("lam",), [[1]])
    with pytest.raises(ValueError):
        char_poly(lam_ring)


def test_char_poly_matches_sympy():
    rng = random.Random(23)
    lam = sympy.Symbol("lam")
    for _ in range(4):
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        chi = char_poly(M(rows))
        ref = sympy.Matrix([[int(c) for c in r] for r in rows]).charpoly(lam)
        for k in range(4):
            c = chi.coeff(k).constant_value()
            assert sympy.Rational(c.numerator, c.denominator) == ref.as_expr().coeff(lam, k)


def test_char_poly_of_block_diagonal_is_the_product(mplus, mminus):
    n, m = mplus.nrows, mminus.nrows
    zero = Poly.zero(Q)
    rows = []
    for i in range(n + m):
        row = []
        for j in range(n + m):
            if i < n and j < n:
                row.append(mplus.rows[i][j])
            elif i >= n and j >= n:
                row.append(mminus.rows[i - n][j - n])
            else:
                row.append(zero)
        rows.append(row)
    assert char_poly(Matrix(rows)) == char_poly(mplus) * char_poly(mminus)


def test_bipoly_structure():
    q = Poly.var(Q, "q")
    chi = BiPoly({3: Poly.const(Q, 1), 1: q.scale(-4)})     # lam^3 - 4 q lam
    assert chi.zero_multiplicity() == 1
    shifted = chi.shift_down(1)
    assert shifted.coeff(2).constant_value() == 1
    with pytest.raises(ValueError):
        chi.shift_down(2)
    assert chi.render() == "lam^3 + (-4*q)*lam"
    prod = BiPoly({1: Poly.const(Q, 1)}) * BiPoly({1: Poly.const(Q, 1)})
    assert prod == BiPoly({2: Poly.const(Q, 1)})
