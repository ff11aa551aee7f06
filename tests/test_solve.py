"""Exact parameter solving on the matched equations."""

from fractions import Fraction

import pytest

from hodgeatoms.periods import period_coefficients
from hodgeatoms.poly import Poly
from hodgeatoms.qde import match_equations
from hodgeatoms.solve import SolveError, solve_parameters

XY = ("x", "y")


def e2(terms):
    return Poly(XY, {ex: Fraction(c) for ex, c in terms.items()})


@pytest.fixture(scope="module")
def report(parametric_op, period16, verra):
    eqs = match_equations(parametric_op, period16, verra.order - 6)
    return solve_parameters(eqs, verra.parameter_order(), verra.enumerative)


def test_solution_set(report):
    F = Fraction
    assert report.solutions == (
        (F(2), F(2, 3), F(14, 3), F(16)),
        (F(2), F(6), F(2), F(16)))
    assert report.accepted == ((F(2), F(6), F(2), F(16)),)
    assert report.rejected == (
        ((F(2), F(2, 3), F(14, 3), F(16)),
         "not a non-negative integer: t = 2/3, u = 14/3"),)
    assert report.params == ("s", "t", "u", "v")


def test_reduced_system(report):
    assert [p.render() for p in report.reduced] == [
        "s^2 + s*t + 2*s*u - 3*v + 24",
        "t^2 - 2*t*u + u^2 - 16",
        "s - 2",
        "t + 2*u - 10"]
    assert len(report.equations) == 9


def test_stability_across_truncation_orders(parametric_op, verra):
    sets = []
    for order in (12, 16):
        g = period_coefficients(verra.period_source, order)
        eqs = match_equations(parametric_op, g, order - 6)
        rep = solve_parameters(eqs, verra.parameter_order(), verra.enumerative)
        sets.append((rep.solutions, rep.accepted))
    assert sets[0] == sets[1]


def test_empty_equations():
    with pytest.raises(SolveError, match="empty equation list"):
        solve_parameters([], XY, ())


def test_unknown_enumerative():
    with pytest.raises(SolveError, match="'z' is not an unknown"):
        solve_parameters([(2, e2({(1, 0): 1}))], XY, ("z",))


def test_degree_cap():
    with pytest.raises(SolveError, match="degree 3 > 2"):
        solve_parameters([(2, e2({(3, 0): 1}))], XY, ())


def test_inconsistent():
    eqs = [(2, e2({(1, 0): 1, (0, 0): -1})),
           (3, e2({(1, 0): 1, (0, 0): -2}))]
    with pytest.raises(SolveError, match="inconsistent linearized system"):
        solve_parameters(eqs, XY, ())


def test_underdetermined():
    eqs = [(2, e2({(1, 0): 1, (0, 1): 1, (0, 0): -1}))]
    with pytest.raises(SolveError, match=r"no constraint fixes \['y'\]"):
        solve_parameters(eqs, XY, ())


def test_quadratic_branching():
    eqs = [(2, e2({(2, 0): 1, (0, 0): -4})), (3, e2({(0, 1): 1}))]
    rep = solve_parameters(eqs, XY, ())
    assert rep.solutions == ((Fraction(-2), Fraction(0)),
                             (Fraction(2), Fraction(0)))


def test_irrational_roots():
    for const in (-2, 1):
        eqs = [(2, e2({(2, 0): 1, (0, 0): const})), (3, e2({(0, 1): 1}))]
        with pytest.raises(SolveError, match="irrational roots"):
            solve_parameters(eqs, XY, ())


def test_bilinear_unsolved():
    eqs = [(2, e2({(1, 1): 1, (0, 0): -1}))]
    with pytest.raises(SolveError, match="no degree <= 2"):
        solve_parameters(eqs, XY, ())


def test_enumerative_filter_rejects_negatives():
    # x = -1 is an integer but not a count
    eqs = [(2, e2({(1, 0): 1, (0, 0): 1})), (3, e2({(0, 1): 1, (0, 0): -2}))]
    rep = solve_parameters(eqs, XY, ("x",))
    assert rep.accepted == ()
    assert rep.rejected[0][1] == "not a non-negative integer: x = -1"
