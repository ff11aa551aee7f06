"""Shared fixtures: everything expensive is built once per session."""

import math
from fractions import Fraction

import pytest
from hypothesis import settings

from hodgeatoms.ansatz import apply_param_names, build_ansatz, substitute_params
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
    """(q-order, Poly) equations in the (q-order, den, terms) form that
    match_equations returns: den the lcm of the coefficients' denominators,
    terms the integer numerators over it."""
    out = []
    for m, e in equations:
        den = math.lcm(*(c.denominator for c in e.terms.values()))
        out.append((m, den, {ex: (c * den).numerator for ex, c in e.terms.items()}))
    return out


def equation_poly(variables, den, terms):
    """The Poly sum terms[ex] / den * variables^ex."""
    return Poly(variables, {ex: Fraction(v, den) for ex, v in terms.items()})


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
    raw = build_ansatz(basis.symmetric, ring,
                       basis.degrees("symmetric"))
    return apply_param_names(raw, verra.param_names)


@pytest.fixture(scope="session")
def anti_ansatz(ring, basis):
    return build_ansatz(basis.antisymmetric, ring,
                        basis.degrees("antisymmetric"))


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
