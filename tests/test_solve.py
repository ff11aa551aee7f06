"""Exact parameter solving on the matched equations."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hodgeatoms import solve
from hodgeatoms.ansatz import substitute_params
from hodgeatoms.periods import period_coefficients
from hodgeatoms.poly import Poly, normal_form
from hodgeatoms.qde import match_equations
from hodgeatoms.series import Series
from hodgeatoms.solve import SolveError, _classify, solve_parameters
from hodgeatoms.spectrum import rational_roots
from conftest import equation_poly, fundamental_period, integer_equations, sympy_rref

XY = ("x", "y")


def e2(terms):
    return Poly(XY, {ex: Fraction(c) for ex, c in terms.items()})


@pytest.fixture(scope="module")
def eqs(parametric_op, period16, verra):
    return match_equations(parametric_op, period16, verra.order - 6, verra.parameter_order())


@pytest.fixture(scope="module")
def report(eqs, verra):
    return solve_parameters(eqs, verra.parameter_order(), verra.enumerative)


def test_solution_set(report):
    F = Fraction
    assert report.solutions == (
        (F(2), F(2, 3), F(14, 3), F(16)),
        (F(2), F(6), F(2), F(16)))
    assert report.accepted == ((F(2), F(6), F(2), F(16)),)
    assert report.unverified == ()
    assert report.rejected == (
        ((F(2), F(2, 3), F(14, 3), F(16)),
         "not a non-negative integer: t = 2/3, u = 14/3"),)


def test_reduced_system(report, eqs):
    assert [p.render() for p in report.reduced] == [
        "s^2 + s*t + 2*s*u - 3*v + 24",
        "t^2 - 2*t*u + u^2 - 16",
        "s - 2",
        "t + 2*u - 10"]
    assert len(eqs) == 9


def test_stability_across_truncation_orders(parametric_op, verra):
    sets = []
    for order in (12, 16):
        g = period_coefficients(verra.period_source, order)
        eqs = match_equations(parametric_op, g, order - 6, verra.parameter_order())
        rep = solve_parameters(eqs, verra.parameter_order(), verra.enumerative)
        sets.append((rep.solutions, rep.accepted))
    assert sets[0] == sets[1]


def involution(p):
    """The second root of the matching system: (s, t, u, v) to
    (s, (4u - t) / 3, (2t + u) / 3, v), which fixes every point with t = u."""
    s, t, u, v = p
    return (s, (4 * u - t) / 3, (2 * t + u) / 3, v)


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 3))


@settings(max_examples=40)
@given(st.tuples(rationals, rationals, rationals, rationals))
def test_a_drawn_matrix_period_is_matched_by_its_point_and_its_involution(
        sym_ansatz, parametric_op, p):
    # the period a drawn point's matrix regenerates, matched by the
    # component-5 operator at depth 18 with no enumerative filter
    params = sym_ansatz.params
    period = fundamental_period(substitute_params(sym_ansatz, dict(zip(params, p))), 5, 24)
    eqs = match_equations(parametric_op, Series(period), 18, params)
    if p[0] == p[3] == 0:
        # s and v are the only entries of column 5, so M+ kills e_5 and the
        # period is 1: the match keeps the family s^2 + st + 2su = 3v, one
        # equation in four unknowns
        assert period == [1] + [0] * 24
        with pytest.raises(SolveError, match=r"underdetermined: 1 equation\(s\) in 4 unknowns "
                                             r"\[s\^2 \+ s\*t \+ 2\*s\*u - 3\*v\]"):
            solve_parameters(eqs, params, ())
        return
    report = solve_parameters(eqs, params, ())
    assert set(report.solutions) == {p, involution(p)}
    assert report.unverified == ()


def test_empty_equations():
    with pytest.raises(SolveError, match="empty equation list"):
        solve_parameters([], XY, ())


def test_unknown_enumerative():
    with pytest.raises(SolveError, match="'z' is not an unknown"):
        solve_parameters(integer_equations([(2, e2({(1, 0): 1}))]), XY, ("z",))


def test_degree_cap():
    with pytest.raises(SolveError, match="degree 3 > 2"):
        solve_parameters(integer_equations([(2, e2({(3, 0): 1}))]), XY, ())


def test_inconsistent():
    eqs = [(2, e2({(1, 0): 1, (0, 0): -1})),
           (3, e2({(1, 0): 1, (0, 0): -2}))]
    with pytest.raises(SolveError, match="inconsistent linearized system"):
        solve_parameters(integer_equations(eqs), XY, ())


def test_underdetermined():
    eqs = [(2, e2({(1, 0): 1, (0, 1): 1, (0, 0): -1}))]
    with pytest.raises(SolveError, match=r"no constraint fixes \['y'\]"):
        solve_parameters(integer_equations(eqs), XY, ())


def test_quadratic_branching():
    eqs = [(2, e2({(2, 0): 1, (0, 0): -4})), (3, e2({(0, 1): 1}))]
    rep = solve_parameters(integer_equations(eqs), XY, ())
    assert rep.solutions == ((Fraction(-2), Fraction(0)),
                             (Fraction(2), Fraction(0)))


def test_assign_before_an_earlier_rewrite_and_quadratic(monkeypatch):
    # listed first: a rewrite a + b = 3 and a quadratic b^2 = 1; the first
    # univariate linear equation, c = 2, is still the first step taken,
    # ahead of the later one, a = 2
    abc = ("a", "b", "c")
    eqs = [Poly(abc, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 0): -3}),
           Poly(abc, {(0, 2, 0): 1, (0, 0, 0): -1}),
           Poly(abc, {(0, 0, 1): 1, (0, 0, 0): -2}),
           Poly(abc, {(0, 0, 1): 1, (0, 1, 0): -1, (0, 0, 0): -1}),
           Poly(abc, {(1, 0, 0): 1, (0, 0, 0): -2})]
    steps = []
    original = Poly.substitute

    def recorded(p, values):
        steps.append(dict(values))
        return original(p, values)

    monkeypatch.setattr(Poly, "substitute", recorded)
    assert solve._back_substitute(eqs, abc) == [(Fraction(2), Fraction(1), Fraction(2))]
    assert steps[0] == {"c": Poly.const(abc, 2)}


def test_irrational_roots():
    for const in (-2, 1):
        eqs = [(2, e2({(2, 0): 1, (0, 0): const})), (3, e2({(0, 1): 1}))]
        with pytest.raises(SolveError, match="irrational roots"):
            solve_parameters(integer_equations(eqs), XY, ())


def test_bilinear_unsolved():
    # x^2 + y^2 = 2 and xy + y^2 = 2: two equations in two unknowns, neither
    # univariate nor linear
    eqs = [(2, e2({(2, 0): 1, (0, 2): 1, (0, 0): -2})),
           (3, e2({(1, 1): 1, (0, 2): 1, (0, 0): -2}))]
    with pytest.raises(SolveError, match=r"unsolved: no degree <= 2 univariate or linear step "
                                         r"in \[x\^2 \+ y\^2 - 2; x\*y \+ y\^2 - 2\]"):
        solve_parameters(integer_equations(eqs), XY, ())


def test_bilinear_underdetermined():
    # xy = 1 is one equation in two unknowns
    eqs = [(2, e2({(1, 1): 1, (0, 0): -1}))]
    with pytest.raises(SolveError, match=r"underdetermined: 1 equation\(s\) in 2 unknowns "
                                         r"\[x\*y - 1\]"):
        solve_parameters(integer_equations(eqs), XY, ())


def test_enumerative_filter_rejects_negatives():
    # x = -1 is an integer but not a count
    eqs = [(2, e2({(1, 0): 1, (0, 0): 1})), (3, e2({(0, 1): 1, (0, 0): -2}))]
    rep = solve_parameters(integer_equations(eqs), XY, ("x",))
    assert rep.accepted == ()
    assert rep.rejected[0][1] == "not a non-negative integer: x = -1"


def _full_rref_reference(equations, params):
    # the reduced system from one Gauss-Jordan pass over every row
    canon = [normal_form(e.rename_vars(params)) for _, e in equations]
    zero_ex = (0,) * len(params)
    monos = sorted({ex for e in canon for ex in e.terms if ex != zero_ex},
                   key=lambda ex: (-sum(ex), tuple(-x for x in ex)))
    rows = [[e.terms.get(ex, Fraction(0)) for ex in monos]
            + [e.terms.get(zero_ex, Fraction(0))] for e in canon]
    rows, pivots = sympy_rref(rows)
    if pivots[-1] == len(monos):
        raise SolveError("inconsistent linearized system")
    reduced = []
    for row in rows:
        terms = {ex: c for ex, c in zip(monos, row[:-1]) if c != 0}
        if row[-1] != 0:
            terms[zero_ex] = row[-1]
        reduced.append(Poly(params, terms))
    return reduced


XYZ = ("x", "y", "z")
_MONOS = [ex for ex in ((a, b, c) for a in range(3) for b in range(3) for c in range(3))
          if 1 <= sum(ex) <= 2]
_SMALL = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


def _evaluate(terms, point):
    total = Fraction(0)
    for ex, c in terms.items():
        for x, k in zip(point, ex):
            c *= x ** k
        total += c
    return total


@st.composite
def consistent_systems(draw):
    """Degree <= 2 equations in x, y, z vanishing at one rational point, with
    rational combinations of them mixed in as dependent rows."""
    point = draw(st.tuples(_SMALL, _SMALL, _SMALL))
    base = []
    for _ in range(draw(st.integers(1, 5))):
        terms = draw(st.dictionaries(st.sampled_from(_MONOS), _SMALL.filter(bool),
                                     min_size=1, max_size=4))
        terms[(0, 0, 0)] = -_evaluate(terms, point)
        base.append(Poly(XYZ, terms))
    eqs = list(base)
    for _ in range(draw(st.integers(0, 6))):
        combo = Poly.zero(XYZ)
        for e in base:
            combo = combo + e.scale(draw(st.integers(-3, 3)))
        if not combo.is_zero():
            eqs.insert(draw(st.integers(0, len(eqs))), combo)
    return [(k + 2, e) for k, e in enumerate(eqs)], point


@given(consistent_systems())
def test_reduced_system_matches_a_full_rref(system):
    eqs, _ = system
    # back-substitution left out: the reduced system is compared as reduced
    with mock.patch.object(solve, "_back_substitute", lambda reduced, params: []):
        report = solve_parameters(integer_equations(eqs), XYZ, ())
    assert list(report.reduced) == _full_rref_reference(eqs, XYZ)


@given(consistent_systems(), st.data())
def test_inconsistent_systems_still_raise(system, data):
    eqs, _ = system
    # a dependent combination shifted by a nonzero constant has no solution
    shifted = eqs[0][1].scale(data.draw(st.integers(1, 3))) + data.draw(_SMALL.filter(bool))
    eqs.insert(data.draw(st.integers(0, len(eqs))), (99, shifted))
    with pytest.raises(SolveError, match="inconsistent linearized system"):
        _full_rref_reference(eqs, XYZ)
    with mock.patch.object(solve, "_back_substitute", lambda reduced, params: []), \
            pytest.raises(SolveError, match="inconsistent linearized system"):
        solve_parameters(integer_equations(eqs), XYZ, ())


def test_reduced_system_at_depth_matches_a_full_rref(parametric_op, verra):
    params = verra.parameter_order()
    for order in (120, 200):
        g = period_coefficients(verra.period_source, order)
        eqs = match_equations(parametric_op, g, order - 6, params)
        report = solve_parameters(eqs, params, verra.enumerative)
        polys = [(m, equation_poly(params, den, terms)) for m, den, terms, _ in eqs]
        assert list(report.reduced) == _full_rref_reference(polys, params)
        # a late row shifted off the span by a constant makes both raise
        polys.insert(len(polys) - 3, (999, polys[-1][1] + 1))
        with pytest.raises(SolveError, match="inconsistent linearized system"):
            _full_rref_reference(polys, params)
        with pytest.raises(SolveError, match="inconsistent linearized system"):
            solve_parameters(integer_equations(polys), params, verra.enumerative)


def test_wrong_candidate_is_an_internal_error(monkeypatch):
    # x = 2 satisfies the q^2 equation x^2 = 4 but not the q^3 one, y = 0:
    # the report names the candidate and the first equation it fails
    eqs = [(2, e2({(2, 0): 1, (0, 0): -4})), (3, e2({(0, 1): 1}))]
    monkeypatch.setattr(solve, "_back_substitute",
                        lambda reduced, params: [(Fraction(2), Fraction(0)),
                                                 (Fraction(2), Fraction(1, 3))])
    report = solve_parameters(integer_equations(eqs), XY, ())
    assert report.unverified == (((Fraction(2), Fraction(1, 3)), 3),)
    assert report.solutions == ((Fraction(2), Fraction(0)), (Fraction(2), Fraction(1, 3)))
    # rows of degree 1 and 2: 10x^2 + 18xy - 9x and 10x + 18y - 9 vanish at
    # both (3/2, -1/3) and (0, 1/2), y^2 + x - 29/18 only at the first; the
    # second fails first at q^5 (scaled to D^2 = 4, the q^3 row reads
    # 18 * 1 * 2 - 9 * 4 = 0 there, and 18 - 9 without the D^(top - deg) factor)
    eqs = [(2, e2({(2, 0): 10, (1, 1): 18, (1, 0): -9})),
           (3, e2({(1, 0): 10, (0, 1): 18, (0, 0): -9})),
           (5, e2({(0, 2): 1, (1, 0): 1, (0, 0): Fraction(-29, 18)}))]
    wrong, right = (Fraction(0), Fraction(1, 2)), (Fraction(3, 2), Fraction(-1, 3))
    monkeypatch.setattr(solve, "_back_substitute", lambda reduced, params: [wrong, right])
    report = solve_parameters(integer_equations(eqs), XY, ())
    assert report.unverified == ((wrong, 5),)
    assert report.solutions == (wrong, right)


# -- back-substitution against the two-binding reference -----------------------

def back_substitute_reference(reduced, params):
    """Back-substitution with two binding kinds: univariate linear equations
    and quadratic roots become fixed assignments, multivariate linear ones
    become rewrite rules, resolved newest-first once every variable is bound."""
    nvars = len(params)
    zero_ex = (0,) * nvars
    stack = [([], {}, list(reduced))]
    terminal = []
    steps = 0
    while stack:
        steps += 1
        if steps > 10000:
            raise SolveError("unsolved: branching did not terminate")
        rules, assign, eqs = stack.pop()
        eqs = [e for e in eqs if not e.is_zero()]
        if any(set(e.terms) == {zero_ex} for e in eqs):
            continue
        if not eqs:
            terminal.append((rules, assign))
            continue
        deg, multi, n, var = min((deg, len(present) > 1, n, present[0])
                                 for n, (present, deg) in enumerate(map(_classify, eqs)))
        if deg == 2 and multi:
            shown = "; ".join(e.render() for e in eqs)
            unknowns = set().union(*(e.variables_present() for e in eqs))
            if len(eqs) < len(unknowns):
                raise SolveError(f"underdetermined: {len(eqs)} equation(s) in {len(unknowns)} "
                                 f"unknowns [{shown}]")
            raise SolveError(f"unsolved: no degree <= 2 univariate or linear step in [{shown}]")
        e = eqs[n]
        rest = [x for x in eqs if x is not e]
        unit = tuple(1 if i == var else 0 for i in range(nvars))
        if deg == 1:
            c = e.terms[unit]
            rule = Poly(params, {ex: -Fraction(v) / c for ex, v in e.terms.items() if ex != unit})
            new_eqs = [x.substitute({params[var]: rule}) for x in rest]
            if multi:
                stack.append((rules + [(var, rule)], assign, new_eqs))
            else:
                stack.append((rules, {**assign, var: rule.constant_value() or Fraction(0)},
                              new_eqs))
        else:
            roots = rational_roots([e.terms.get(tuple(k * u for u in unit), Fraction(0))
                                    for k in range(3)])
            if len(roots) < 2:
                raise SolveError(f"unsolved: irrational roots of {e.render()} = 0")
            for r in sorted(set(roots)):
                new_eqs = [x.substitute({params[var]: r}) for x in rest]
                stack.append((rules, {**assign, var: r}, new_eqs))

    solutions = set()
    for rules, assign in terminal:
        known = set(assign) | {var for var, _ in rules}
        if len(known) != nvars:
            missing = [params[i] for i in range(nvars) if i not in known]
            raise SolveError(f"underdetermined: no constraint fixes {missing}")
        values = {params[i]: v for i, v in assign.items()}
        for var, rule in reversed(rules):
            values[params[var]] = rule.substitute(values).constant_value()
        solutions.add(tuple(values[p] for p in params))
    return sorted(solutions)


def _outcome(back_substitute, reduced, params):
    try:
        return back_substitute(reduced, params)
    except SolveError as e:
        return str(e)


def test_contradictory_branch_is_dropped():
    # x^2 = 1 branches on x = -1 and x = 1; the second equation turns the
    # x = -1 branch into the contradiction -2 = 0
    x = ("x",)
    eqs = [Poly(x, {(2,): 1, (0,): -1}), Poly(x, {(2,): 1, (1,): 1, (0,): -2})]
    assert solve._back_substitute(eqs, x) == [(Fraction(1),)]
    assert back_substitute_reference(eqs, x) == [(Fraction(1),)]


def test_chain_of_multivariate_rules_resolves_newest_first():
    # a = 3 - b, then b = 5 - c, then c = 3: each rule's right side is fixed
    # only by the rules taken after it
    abc = ("a", "b", "c")
    eqs = [Poly(abc, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 0): -3}),
           Poly(abc, {(0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): -5}),
           Poly(abc, {(1, 0, 0): 1, (0, 0, 1): 1, (0, 0, 0): -4})]
    resolved = []
    original = Poly.substitute

    def recorded(p, values):
        out = original(p, values)
        if out.variables_present() == ():
            resolved.append(sorted(values))
        return out

    with mock.patch.object(Poly, "substitute", recorded):
        got = solve._back_substitute(eqs, abc)
    assert got == [(Fraction(1), Fraction(2), Fraction(3))]
    assert got == back_substitute_reference(eqs, abc)
    # the last three substitutions resolve c, then b from c, then a from b, c
    assert resolved[-3:] == [[], ["c"], ["b", "c"]]


def test_free_variable_names_what_no_constraint_fixes():
    # x^2 = 4 fixes x on both branches; nothing fixes y
    eqs = [e2({(2, 0): 1, (0, 0): -4})]
    with pytest.raises(SolveError, match=r"no constraint fixes \['y'\]"):
        solve._back_substitute(eqs, XY)


def test_back_substitution_matches_the_reference_on_verra(report, verra):
    reduced, params = list(report.reduced), verra.parameter_order()
    got = solve._back_substitute(reduced, params)
    assert got == back_substitute_reference(reduced, params)
    assert tuple(got) == report.solutions


@given(consistent_systems())
def test_back_substitution_matches_the_reference(system):
    eqs, _ = system
    reduced = _full_rref_reference(eqs, XYZ)
    assert (_outcome(solve._back_substitute, reduced, XYZ)
            == _outcome(back_substitute_reference, reduced, XYZ))


def test_int_pivots_solve_exactly():
    # 2x + 1 = 0 and y - 1 = 0: the rewrite x = -1/2 divides by an int pivot
    eqs = [(2, e2({(1, 0): 2, (0, 0): 1})), (3, e2({(0, 1): 1, (0, 0): -1}))]
    rep = solve_parameters(integer_equations(eqs), XY, ())
    assert rep.solutions == ((Fraction(-1, 2), Fraction(1)),)
    assert all(type(v) is Fraction for sol in rep.solutions for v in sol)


def test_reduced_rows_come_in_pivot_order():
    # y's row arrives first, yet x's reduced row leads; the third row is
    # 2 times the second plus the first, so it adds nothing
    eqs = [(2, e2({(0, 1): 2, (0, 0): -1})), (3, e2({(1, 0): 3, (0, 1): 1})),
           (4, e2({(1, 0): 6, (0, 1): 4, (0, 0): -1}))]
    report = solve_parameters(integer_equations(eqs), XY, ())
    assert [e.render() for e in report.reduced] == ["x + 1/6", "y - 1/2"]
    assert report.solutions == ((Fraction(-1, 6), Fraction(1, 2)),)
    eqs[2] = (4, e2({(1, 0): 6, (0, 1): 4, (0, 0): -2}))
    with pytest.raises(SolveError, match="inconsistent linearized system"):
        solve_parameters(integer_equations(eqs), XY, ())
