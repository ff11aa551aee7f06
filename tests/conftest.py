"""Shared fixtures: everything expensive is built once per session."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import settings

from hodgeatoms.ansatz import build_ansatz, substitute_params
from hodgeatoms.cohomology import AmbientRing
from hodgeatoms.instance import load_instance
from hodgeatoms.periods import period_coefficients
from hodgeatoms.pipeline import run_pipeline
from hodgeatoms.poly import Poly
from hodgeatoms.qde import cyclic_rows, eliminate
from hodgeatoms.spectrum import block_spectrum

# the same examples on every run, and no wall-clock deadline on a slow host
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")

SOLUTION = {"s": Fraction(2), "t": Fraction(6), "u": Fraction(2), "v": Fraction(16)}


def integer_equations(equations):
    """(q-order, Poly) equations in the (q-order, den, terms, lowest) form that
    match_equations returns: den the lcm of the coefficients' denominators,
    terms the integer numerators over it and lowest[ex] = (v / g, den, g, 1)
    with g = gcd(v, den), each term in lowest terms."""
    out = []
    for m, e in equations:
        den = math.lcm(*(c.denominator for c in e.terms.values()))
        terms = {ex: (c * den).numerator for ex, c in e.terms.items()}
        out.append((m, den, terms, {ex: (v // g, den, g, 1) for ex, v in terms.items()
                                    for g in [math.gcd(v, den)]}))
    return out


def sympy_rref(rows):
    """The nonzero rows of the reduced row echelon form of rows over Q, as
    Fraction lists, and their pivot columns, by sympy. Where the last
    columns are right-hand sides, a pivot on one of them means the system
    is inconsistent."""
    m, pivots = sympy.Matrix(rows).rref()
    return [[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(len(pivots))], pivots


def to_sympy(p):
    """p as an expanded sympy expression in symbols named after its variables."""
    syms = sympy.symbols(p.vars)
    expr = sympy.Integer(0)
    for ex, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for sym, e in zip(syms, ex):
            term *= sym ** e
        expr += term
    return sympy.expand(expr)


def equation_poly(variables, den, terms):
    """The Poly sum terms[ex] / den * variables^ex."""
    return Poly(variables, {ex: Fraction(v, den) for ex, v in terms.items()})


def dense_product(a, b):
    """The product of two matrices given as rows of Polys over one variable
    set, every pair of entries multiplied, zeros included."""
    zero = Poly.zero(a[0][0].vars)
    return [[sum((x * y for x, y in zip(r, col)), zero) for col in zip(*b)] for r in a]


def fundamental_period(matrix, component, order):
    """Component `component` of the power-series solution of q dy/dq = M y
    with y(0) = e_component, through q^order, in Fractions. M is a numeric
    matrix in q alone, in the column convention of `substitute_params`, and
    M = sum_d M_d q^d turns the equation into y_0 = e_component and
    (m I - M_0) y_m = sum_(d>=1) M_d y_(m-d). M_0, the cup matrix, raises
    degree and so is nilpotent: n rounds of y_m <- (rhs + M_0 y_m) / m
    reach the solution, and each y_m is checked against its equation."""
    n = matrix.nrows
    top = max(ex[0] for row in matrix.rows for p in row for ex in p.terms)
    parts = [[[Fraction(p.terms.get((d,), 0)) for p in row] for row in matrix.rows]
             for d in range(top + 1)]

    def times(m, y):
        return [sum((a * b for a, b in zip(row, y)), Fraction(0)) for row in m]

    ys = [[Fraction(int(i == component)) for i in range(n)]]
    for m in range(1, order + 1):
        rhs = [Fraction(0)] * n
        for d in range(1, min(top, m) + 1):
            rhs = [r + x for r, x in zip(rhs, times(parts[d], ys[m - d]))]
        y = [Fraction(0)] * n
        for _ in range(n):
            y = [(r + x) / m for r, x in zip(rhs, times(parts[0], y))]
        assert [m * a - b for a, b in zip(y, times(parts[0], y))] == rhs
        ys.append(y)
    return [y[component] for y in ys]


@pytest.fixture(scope="session")
def verra():
    return load_instance("verra")


@pytest.fixture(scope="session")
def ring():
    return AmbientRing()


@pytest.fixture(scope="session")
def basis(ring):
    return ring.eigenbasis()


@pytest.fixture(scope="session")
def sym_ansatz(verra, ring, basis):
    return build_ansatz(basis.symmetric, ring, basis.degrees("symmetric"), verra.param_names)


@pytest.fixture(scope="session")
def anti_ansatz(ring, basis):
    return build_ansatz(basis.antisymmetric, ring, basis.degrees("antisymmetric"), None)


@pytest.fixture(scope="session")
def parametric_op(sym_ansatz, verra):
    m = sym_ansatz.matrix
    return eliminate(cyclic_rows(m, verra.component, m.ncols))


@pytest.fixture(scope="session")
def period16(verra):
    return period_coefficients(verra.period_source, verra.order)


@pytest.fixture(scope="session")
def solution():
    return dict(SOLUTION)


@pytest.fixture(scope="session")
def solved_op(parametric_op, solution):
    return parametric_op.substitute(solution)


@pytest.fixture(scope="session")
def mplus(sym_ansatz, solution):
    return substitute_params(sym_ansatz, solution)


@pytest.fixture(scope="session")
def mminus(anti_ansatz):
    return substitute_params(anti_ansatz, {anti_ansatz.params[0]: Fraction(2)})


@pytest.fixture(scope="session")
def plus_spectrum(mplus):
    return block_spectrum(mplus, "symmetric")


@pytest.fixture(scope="session")
def minus_spectrum(mminus):
    return block_spectrum(mminus, "antisymmetric")


@pytest.fixture(scope="session")
def full_run(verra):
    return run_pipeline(verra)
