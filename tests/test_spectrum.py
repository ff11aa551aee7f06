"""Eigenvalue template factoring and the reciprocity comparison."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from hodgeatoms.certificate import chi_render
from hodgeatoms.linalg import LAM, char_poly
from hodgeatoms.periods import get_source
from hodgeatoms.poly import Poly
from hodgeatoms.qde import DiffOperator, transform_even_operator
from hodgeatoms.spectrum import (ReciprocityResult, TemplateError, block_spectrum,
                                 rational_roots, factor_template, reciprocity_check)

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
    at_q0 = mplus.map(lambda p: p.substitute({"q": Fraction(0)}))
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


def test_template_past_degree_two_names_the_degree():
    # (lam^2 - q)(lam^2 - 4q)(lam^2 - 9q): a cubic in the square variable
    lam, q = Poly.var(QL, LAM), Poly.var(QL, "q")
    chi = (lam * lam - q) * (lam * lam - q.scale(4)) * (lam * lam - q.scale(9))
    with pytest.raises(TemplateError, match="degree 3 factor past the closed-form"):
        factor_template(chi, "demo")


# the verra-eq3 leading coefficient with its constant's sign flipped: the
# singular squares move to {1/16, -1/128} and the comparison must fail
PERTURBED_T = DiffOperator((
    Poly(("t",), {(0,): Fraction(1)}),
    Poly(("t",), {(4,): Fraction(2048), (2,): Fraction(-112), (0,): Fraction(-1)}),
))


def test_reciprocity_passes(plus_spectrum, verra):
    reg_q = transform_even_operator(get_source(verra.period_source).regularized)[0]
    rec = reciprocity_check(reg_q, plus_spectrum)
    assert rec.passed
    assert rec.eigen_squares == (Fraction(-16), Fraction(128))
    assert rec.singular_squares == (Fraction(-1, 16), Fraction(1, 128))


def test_reciprocity_detects_mismatch(plus_spectrum):
    rec = reciprocity_check(transform_even_operator(PERTURBED_T)[0], plus_spectrum)
    assert not rec.passed
    assert rec.singular_squares == (Fraction(-1, 128), Fraction(1, 16))


def t_form_reciprocity_reference(regularized, plus):
    """The comparison read from the operator in t, before q = t^2: the
    singular squares are the roots of the leading coefficient in t^2."""
    lead = regularized.coeffs[-1]
    if any(not lead.coeff_of("t", k).is_zero()
           for k in range(1, lead.degree_in("t") + 1, 2)):
        raise TemplateError("leading coefficient has odd powers of t")
    ycoeffs = []
    for k in range(0, lead.degree_in("t") + 1, 2):
        c = lead.coeff_of("t", k).constant_value()
        if c is None:
            raise TemplateError("leading coefficient is not constant in the parameters")
        ycoeffs.append(c)
    roots = rational_roots(ycoeffs)
    if len(roots) != (len(ycoeffs) - 1):
        raise TemplateError("leading coefficient does not split into linear factors in t^2")
    singular = tuple(sorted(set(roots)))
    eigen = tuple(sorted({c for c in plus.square_factors if c != 0}))
    recip = tuple(sorted({Fraction(1, 1) / c for c in eigen}))
    return ReciprocityResult(singular_squares=singular, eigen_squares=eigen,
                             passed=singular == recip)


@pytest.mark.parametrize("which", ["verra", "perturbed"])
def test_reciprocity_matches_the_t_form_reference(plus_spectrum, verra, which):
    reg_t = (get_source(verra.period_source).regularized if which == "verra"
             else PERTURBED_T)
    got = reciprocity_check(transform_even_operator(reg_t)[0], plus_spectrum)
    want = t_form_reciprocity_reference(reg_t, plus_spectrum)
    assert (got.singular_squares, got.eigen_squares, got.passed) == (
        want.singular_squares, want.eigen_squares, want.passed)
    assert got.passed == (which == "verra")


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


def test_rational_roots_past_degree_two_raise_at_once():
    # (y - 1)(y - 2)(y - 10^30) + 1 has 10^30-sized coefficients; a divisor
    # search would trial-divide up to 10^15, the closed form stops at degree 2
    code = ("import time\n"
            "from fractions import Fraction as F\n"
            "from hodgeatoms.spectrum import TemplateError, rational_roots\n"
            "big = 10**30\n"
            "coeffs = [F(1 - 2 * big), F(2 + 3 * big), F(-3 - big), F(1)]\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    rational_roots(coeffs)\n"
            "except TemplateError as e:\n"
            "    print(e)\n"
            "print(time.perf_counter() - start < 1)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "degree 3 factor past the closed-form rational roots of degree <= 2", "True"]


@given(st.fractions(min_value=-50, max_value=50, max_denominator=20).filter(bool),
       st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=20), max_size=2),
       st.integers(0, 3))
def test_rational_roots_return_the_multiset_they_were_built_from(lead, roots, zeros):
    # coefficients of lead * y^zeros * prod(y - r), lowest power first; a
    # constant has no roots to find and is rejected as degenerate
    assume(roots or zeros)
    coeffs = [Fraction(0)] * zeros + [lead]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([Fraction(0)] + coeffs, coeffs + [Fraction(0)])]
    assert sorted(rational_roots(coeffs)) == sorted([Fraction(0)] * zeros + roots)


def test_rational_roots_of_int_coefficients_are_fractions():
    linear, quadratic = rational_roots([1, 2]), rational_roots([-1, 0, 4])
    assert linear == [Fraction(-1, 2)]
    assert sorted(quadratic) == [Fraction(-1, 2), Fraction(1, 2)]
    assert all(type(r) is Fraction for r in linear + quadratic)
