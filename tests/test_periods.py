"""Period sources: exact coefficients, the declared recurrence of the rescaled
coefficients and the regularized operator derived from it."""

import math
from fractions import Fraction

import pytest

from hodgeatoms import periods
from hodgeatoms.periods import (REGISTRY, get_source, period_coefficients,
                                regularized_coefficients)
from hodgeatoms.poly import Poly
from hodgeatoms.qde import DiffOperator
from hodgeatoms.series import Series
from conftest import fundamental_period


def test_coefficients_match_the_closed_sum():
    g = period_coefficients("verra-eq3", 5)
    assert g.coeffs == [Fraction(1), Fraction(4), Fraction(15),
                        Fraction(280, 9), Fraction(6055, 144), Fraction(3941, 100)]


def _closed_sum_reference(m):
    # the two-point sum term by term, with one Fraction add per term
    f = math.factorial
    total = Fraction(0)
    for l in range(m + 1):
        total += Fraction(f(2 * m), f(l) ** 3 * f(m) * f(m - l) ** 3)
    return total


def test_term_ratio_construction_matches_the_fraction_sum():
    g = period_coefficients("verra-eq3", 60)
    assert g.coeffs == [_closed_sum_reference(m) for m in range(61)]


def test_quantum_lefschetz_sum_matches_the_bundled_period():
    # quantum Lefschetz for X: w^2 = f(x, y), a (2,2) hypersurface with w of
    # bidegree (1,1): the two-variable period sum over bidegrees (d1, d2),
    # (2d1 + 2d2)! / ((d1 + d2)! d1!^3 d2!^3), restricted to q1 = q2 = q
    f = math.factorial
    two = {(d1, d2): Fraction(f(2 * (d1 + d2)), f(d1 + d2) * f(d1) ** 3 * f(d2) ** 3)
           for d1 in range(61) for d2 in range(61 - d1)}
    assert [two[(0, 0)], two[(1, 0)], two[(0, 1)], two[(2, 0)], two[(1, 1)], two[(0, 2)]] == [
        1, 2, 2, Fraction(3, 2), 12, Fraction(3, 2)]
    lefschetz = [sum(two[(d1, m - d1)] for d1 in range(m + 1)) for m in range(61)]
    assert period_coefficients("verra-eq3", 60).coeffs == lefschetz


def test_the_solved_matrix_regenerates_the_bundled_period(mplus, verra):
    # the solution of q dy/dq = M+ y with y(0) = e_5, the top class, has the
    # quantum period as its component 5
    assert verra.component == 5
    assert fundamental_period(mplus, 5, 200) == period_coefficients("verra-eq3", 200).coeffs


def _term_ratio_reference(m):
    # the closed two-point sum, binomials by their integer term ratio
    total, binom = 0, 1
    for l in range(m + 1):
        total += binom ** 3
        binom = binom * (m - l) // (l + 1)
    f = math.factorial
    return Fraction(f(2 * m) * total, f(m) ** 4)


def test_franel_recurrence_matches_the_closed_form_through_300():
    g = period_coefficients("verra-eq3", 300)
    assert g.coeffs == [_term_ratio_reference(m) for m in range(301)]


def test_order_and_validation():
    g = period_coefficients("verra-eq3", 2)
    assert g.order == 2
    with pytest.raises(ValueError):
        period_coefficients("verra-eq3", -1)


def test_regularized_rescaling():
    g = period_coefficients("verra-eq3", 3)
    r = regularized_coefficients(g)
    # q^m coefficient picks up (2m)!
    assert r.coeffs == [g.coeffs[0], 2 * g.coeffs[1], 24 * g.coeffs[2], 720 * g.coeffs[3]]
    assert r.coeff(2) == 360


def test_regularized_rescaling_off_the_integer_path():
    # a_m = 1 / m!^3: (2m)! a_m is not integral from m = 3 on (720 / 216 = 10 / 3)
    f = math.factorial
    g = Series([Fraction(1, f(m) ** 3) for m in range(12)])
    r = regularized_coefficients(g)
    assert r.coeffs == [f(2 * m) * Fraction(1, f(m) ** 3) for m in range(12)]
    assert r.coeff(3) == Fraction(10, 3)


def test_regularized_verra_is_integral_at_order_200():
    # b_m = (2m)! a_m = C(2m, m)^2 f_m with f_m = sum_l C(m, l)^3 the Franel numbers
    g = period_coefficients("verra-eq3", 200)
    r = regularized_coefficients(g)
    assert r.coeffs == [math.factorial(2 * m) * a for m, a in enumerate(g.coeffs)]
    assert all(b.denominator == 1 for b in r.coeffs)
    assert r.coeffs == [math.comb(2 * m, m) ** 2 * sum(math.comb(m, l) ** 3 for l in range(m + 1))
                        for m in range(201)]


def test_unknown_source():
    with pytest.raises(KeyError, match="unknown period source"):
        get_source("nope")


def test_registry_source_metadata():
    src = get_source("verra-eq3")
    assert src.name == "verra-eq3"
    assert "verra-eq3" in REGISTRY

    def tp(*pairs):
        return Poly(("t",), {(e,): c for e, c in pairs})

    # the operator derived from the declared recurrence, written out number
    # for number; every coefficient is an int
    expected = DiffOperator((
        tp((4, 18432), (2, 128)),           # 128 t^2 (144 t^2 + 1)
        tp((4, 49152), (2, 480)),           # 96 t^2 (512 t^2 + 5)
        tp((4, 45056), (2, 688)),           # 16 t^2 (2816 t^2 + 43)
        tp((4, 16384), (2, 448)),           # 64 t^2 (256 t^2 + 7)
        tp((4, 2048), (2, 112), (0, -1)),   # (16 t^2 + 1)(128 t^2 - 1)
    ))
    assert src.regularized == expected
    assert {type(v) for c in src.regularized.coeffs for v in c.terms.values()} == {int}
    assert src.regularized.render() == (
        "(2048*t^4 + 112*t^2 - 1)*D^4 + (16384*t^4 + 448*t^2)*D^3 + "
        "(45056*t^4 + 688*t^2)*D^2 + (49152*t^4 + 480*t^2)*D + "
        "(18432*t^4 + 128*t^2)")


def _declared_s(m):
    """S_0(m), S_1(m), S_2(m) of the declared recurrence Sum_j S_j(m) b_(m-j) = 0."""
    return [sum(c * m ** i for i, c in enumerate(s)) for s in periods._VERRA_RECURRENCE]


def test_the_declared_recurrence_gives_the_rescaled_period_through_200():
    # the coefficient tuples are the factored forms: quartics equal at 40 points
    for m in range(-20, 20):
        assert _declared_s(m) == [m ** 4, -4 * (2 * m - 1) ** 2 * (7 * m * m - 7 * m + 2),
                                  -128 * (2 * m - 1) ** 2 * (2 * m - 3) ** 2]
    # run from b_0 = 1, each b_m an exact integer quotient by S_0(m) = m^4
    b = [1]
    for m in range(1, 201):
        s = _declared_s(m)
        top, rest = divmod(-sum(s[j] * b[m - j] for j in range(1, min(m, len(s) - 1) + 1)), s[0])
        assert rest == 0
        b.append(top)
    assert regularized_coefficients(period_coefficients("verra-eq3", 200)).coeffs == b


def test_first_coefficient_must_be_one(monkeypatch):
    src = get_source("verra-eq3")
    bad = type(src)(name="bad", description="",
                    coefficients=lambda n: [Fraction(2)] * (n + 1),
                    recurrence=periods._VERRA_RECURRENCE)
    monkeypatch.setitem(REGISTRY, "bad", bad)
    with pytest.raises(ValueError, match="does not start at 1"):
        period_coefficients("bad", 2)
