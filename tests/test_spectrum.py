"""Eigenvalue template factoring and the reciprocity comparison."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hodgeatoms.certificate import chi_render
from hodgeatoms.linalg import LAM, char_poly
from hodgeatoms.periods import get_source
from hodgeatoms.poly import Poly
from hodgeatoms.qde import DiffOperator
from hodgeatoms.spectrum import (TemplateError, _divisors, block_spectrum, rational_roots,
                                 factor_template, reciprocity_check)

Q = ("q",)
QL = ("q", LAM)


def bp(coeffs):
    """chi over (q, lam) from {lam power: {q power: coefficient}}."""
    return Poly(QL, {(e, k): Fraction(c) for k, terms in coeffs.items()
                     for e, c in terms.items()})


def test_plus_block(plus_spectrum):
    plus = plus_spectrum
    assert plus.dim == 6
    assert plus.zero_multiplicity == 2
    assert plus.square_factors == (Fraction(128), Fraction(-16))
    assert plus.factored_render() == "lam^2*(lam^2 - 128*q)*(lam^2 + 16*q)"


def test_minus_block(minus_spectrum):
    minus = minus_spectrum
    assert minus.dim == 3
    assert minus.zero_multiplicity == 1
    assert minus.square_factors == (Fraction(16),)
    assert minus.factored_render() == "lam*(lam^2 - 16*q)"


def test_char_poly_of_unscaled_minus(mminus):
    assert chi_render(char_poly(mminus)) == "lam^3 + (-4*q)*lam"


def test_kappa_char_rejects_parameters(sym_ansatz):
    with pytest.raises(ValueError, match="symmetric matrix still has parameters"):
        block_spectrum(sym_ansatz.matrix, "symmetric")


def test_classical_limit_is_nilpotent(mplus):
    at_q0 = mplus.substitute({"q": Fraction(0)})
    spec = factor_template(char_poly(at_q0), "symmetric")
    assert spec.zero_multiplicity == 6
    assert spec.square_factors == ()
    assert spec.factored_render() == "lam^6"


def test_factored_render_without_zero_factor():
    spec = factor_template(bp({2: {0: 1}, 0: {1: -16}}), "demo")
    assert spec.zero_multiplicity == 0
    assert spec.factored_render() == "(lam^2 - 16*q)"


def test_template_odd_power():
    with pytest.raises(TemplateError, match="odd eigenvalue powers"):
        factor_template(bp({2: {0: 1}, 1: {1: 1}}), "demo")


def test_template_wrong_q_degree():
    with pytest.raises(TemplateError, match="q-degree != 1"):
        factor_template(bp({2: {0: 1}, 0: {2: -1}}), "demo")


def test_template_non_split():
    # lam^4 - 2 q^2 would need irrational square factors
    with pytest.raises(TemplateError, match="does not split over Q"):
        factor_template(bp({4: {0: 1}, 0: {2: -2}}), "demo")


def test_reciprocity_passes(plus_spectrum, verra):
    reg = get_source(verra.period_source).regularized
    rec = reciprocity_check(reg, plus_spectrum)
    assert rec.passed
    assert rec.eigen_squares == (Fraction(-16), Fraction(128))
    assert rec.singular_squares == (Fraction(-1, 16), Fraction(1, 128))


def test_reciprocity_detects_mismatch(plus_spectrum):
    # flip the constant sign of the leading coefficient: the singular
    # squares move to {1/16, -1/128} and the comparison must fail
    T = ("t",)
    perturbed = DiffOperator((
        Poly(T, {(0,): Fraction(1)}),
        Poly(T, {(4,): Fraction(2048), (2,): Fraction(-112), (0,): Fraction(-1)}),
    ))
    rec = reciprocity_check(perturbed, plus_spectrum)
    assert not rec.passed
    assert rec.singular_squares == (Fraction(-1, 128), Fraction(1, 16))


def test_reciprocity_rejects_odd_t_powers(plus_spectrum):
    T = ("t",)
    bad = DiffOperator((Poly(T, {(0,): Fraction(1)}),
                        Poly(T, {(1,): Fraction(1), (0,): Fraction(1)})))
    with pytest.raises(TemplateError, match="odd powers of t"):
        reciprocity_check(bad, plus_spectrum)


def test_reciprocity_rejects_parametric_lead(plus_spectrum):
    TS = ("t", "a")
    bad = DiffOperator((Poly(TS, {(0, 0): Fraction(1)}),
                        Poly(TS, {(2, 1): Fraction(1), (0, 0): Fraction(1)})))
    with pytest.raises(TemplateError, match="not constant in the parameters"):
        reciprocity_check(bad, plus_spectrum)


def test_divisors_ascending():
    assert _divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    assert _divisors(-10) == [1, 2, 5, 10]
    assert _divisors(1) == [1]
    assert _divisors(0) == []


def test_rational_roots_large_coefficients():
    # (y - 2) (4000000000001 y + 3): a quadratic, then a linear factor
    coeffs = [Fraction(-6), Fraction(-8000000000002 + 3), Fraction(4000000000001)]
    assert sorted(rational_roots(coeffs)) == [Fraction(-3, 4000000000001), Fraction(2)]


def test_rational_roots_of_a_quadratic_come_from_the_discriminant():
    # y^2 - 10^24 (a divisor search would trial-divide up to 10^12), a double
    # root that comes back twice, no rational root, a zero root then a quadratic
    code = ("from fractions import Fraction as F\n"
            "from hodgeatoms.spectrum import rational_roots\n"
            "print(sorted(rational_roots([F(-10**24), F(0), F(1)])))\n"
            "print(rational_roots([F(9, 4), F(-3), F(1)]))\n"
            "print(rational_roots([F(2), F(0), F(1)]))\n"
            "print(sorted(rational_roots([F(0), F(-4), F(0), F(1)])))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[Fraction(-1000000000000, 1), Fraction(1000000000000, 1)]",
        "[Fraction(3, 2), Fraction(3, 2)]",
        "[]",
        "[Fraction(-2, 1), Fraction(0, 1), Fraction(2, 1)]"]
