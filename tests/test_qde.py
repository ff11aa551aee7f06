"""Scalar operators, cyclic-vector elimination, matching, regularization."""

import math
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from hodgeatoms import pipeline, qde
from hodgeatoms.linalg import Matrix, left_nullspace
from hodgeatoms.periods import get_source, period_coefficients, regularized_coefficients
from hodgeatoms.poly import Poly, exact_div, poly_gcd_many, rational_content
from hodgeatoms.qde import (DiffOperator, apply, apply_symbolic,
                            cofactor_identity_holds, cyclic_rows, eliminate,
                            match_equations, transform_even_operator)
from hodgeatoms.pipeline import run_pipeline
from hodgeatoms.series import Series
from hodgeatoms.solve import SolveError, solve_parameters
from conftest import equation_poly
from test_linalg import square_matrices

Q = ("q",)


def qp(*pairs):
    return Poly(Q, {(e,): Fraction(c) for e, c in pairs})


PARAMETRIC_RENDER = (
    "D^6 - D^5 + (-4*s*q - 2*t*q - 4*u*q)*D^4 + (-6*s*q - 3*t*q - 6*u*q)*D^3"
    " + (4*s^2*q^2 + 4*s*t*q^2 + 8*s*u*q^2 - 2*t^2*q^2 + 4*t*u*q^2 - 2*u^2*q^2"
    " - 12*v*q^2 - 6*s*q - t*q - 2*u*q)*D^2 + (8*s^2*q^2 + 8*s*t*q^2"
    " + 16*s*u*q^2 - 4*t^2*q^2 + 8*t*u*q^2 - 4*u^2*q^2 - 24*v*q^2 - 2*s*q)*D"
    " + (4*s^2*q^2 + 4*s*t*q^2 + 8*s*u*q^2 - 12*v*q^2)")

NUMERIC_RENDER = (
    "D^6 - D^5 - 28*q*D^4 - 42*q*D^3 + (-128*q^2 - 22*q)*D^2"
    " + (-256*q^2 - 4*q)*D - 96*q^2")


def test_operator_basics():
    op = DiffOperator((qp((1, -2)), qp((0, 1))))
    assert op.order == 1
    assert op.render() == "D - 2*q"
    with pytest.raises(ValueError, match="leading coefficient"):
        DiffOperator((qp((0, 1)), qp()))
    with pytest.raises(ValueError, match="at least one"):
        DiffOperator(())


def test_render_paths():
    assert DiffOperator((qp(),)).render() == "0"
    assert DiffOperator((qp((0, 5)),)).render() == "5"
    assert DiffOperator((qp(), qp((0, -1)))).render() == "-D"
    assert DiffOperator((qp((1, 1), (0, 1)), qp((0, 3)))).render() == "3*D + (q + 1)"
    assert DiffOperator((qp(), qp((1, 2)), qp((0, 1)))).render() == "D^2 + 2*q*D"


def render_reference(op):
    """The join DiffOperator.render replaced: each part as written, then
    " - " for a part that starts with "-" and " + " otherwise."""
    parts = []
    for k in range(op.order, -1, -1):
        c = op.coeffs[k]
        if c.is_zero():
            continue
        dk = "" if k == 0 else ("D" if k == 1 else f"D^{k}")
        cv = c.constant_value()
        if not dk:
            parts.append(f"({c.render()})" if len(c.terms) > 1 else c.render())
        elif cv == 1:
            parts.append(dk)
        elif cv == -1:
            parts.append(f"-{dk}")
        elif cv is not None:
            parts.append(f"{cv}*{dk}")
        elif len(c.terms) == 1:
            parts.append(f"{c.render()}*{dk}")
        else:
            parts.append(f"({c.render()})*{dk}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


RENDER_COEFFS = [qp(), qp((0, 1)), qp((0, -1)), qp((0, -3)), qp((0, Fraction(-5, 2))),
                 qp((0, Fraction(7, 3))), qp((1, 1)), qp((1, -1)), qp((2, -4)),
                 qp((1, 1), (0, -1)), qp((2, -1), (0, 3))]


@given(st.lists(st.sampled_from(RENDER_COEFFS), min_size=1, max_size=5),
       st.sampled_from(RENDER_COEFFS[1:]))
def test_render_matches_the_old_join(low, top):
    op = DiffOperator(tuple(low) + (top,))
    assert op.render() == render_reference(op)


def test_normalize():
    # common polynomial content q comes out, then monic on the constant top
    op = DiffOperator((qp((2, 4)), qp((1, 6)))).normalize()
    assert op.render() == "D + 2/3*q"
    # monic whenever the top coefficient is a nonzero constant
    op = DiffOperator((qp((1, 9)), qp((0, -3)))).normalize()
    assert op.render() == "D - 3*q"
    # otherwise the leading coefficient is made positive; note the shared
    # factor q is content too
    vars3 = ("s", "q")
    c1 = Poly(vars3, {(1, 1): Fraction(-2)})
    c0 = Poly(vars3, {(0, 1): Fraction(4)})
    op = DiffOperator((c0, c1)).normalize()
    assert op.render() == "s*D - 2"


def test_normalize_strips_polynomial_content():
    # the kernel of the stack (t q, u q) is (u q, -t q) up to a constant; the
    # collective factor q comes out in the operator normal form, not just the
    # rational content, and the top coefficient's sign is made positive
    TU = ("t", "u", "q")
    t = Poly.var(TU, "t") * Poly.var(TU, "q")
    u = Poly.var(TU, "u") * Poly.var(TU, "q")
    [vec] = left_nullspace(Matrix([[t], [u]]))
    op = DiffOperator(tuple(vec)).normalize()
    assert op.coeffs == (Poly.var(TU, "u").scale(-1), Poly.var(TU, "t"))
    assert DiffOperator((u.scale(3), t.scale(-3))).normalize() == op


def test_cyclic_rows_first_two(sym_ansatz, verra):
    rows = cyclic_rows(sym_ansatz.matrix, verra.component, 2)
    assert [p.render() for p in rows.rows[0]] == ["0", "0", "0", "0", "0", "1"]
    assert [p.render() for p in rows.rows[1]] == ["0", "0", "0", "0", "2", "0"]


def euler_derivative_reference(p):
    """q d/dq as the sum of e q^e times the coefficient of q^e."""
    return sum((p.coeff_of("q", e) * Poly.var(p.vars, "q", e, e)
                for e in range(1, p.degree_in("q") + 1)), Poly.zero(p.vars))


def cyclic_rows_reference(m, component, count):
    """cyclic_rows as it was: every product r_k[i] M[i][j] formed, zeros included."""
    rows = [[Poly.const(m.vars, 1 if j == component else 0) for j in range(m.ncols)]]
    for _ in range(count):
        prev = rows[-1]
        rows.append([sum((p * m.rows[k][j] for k, p in enumerate(prev)),
                         euler_derivative_reference(prev[j])) for j in range(m.ncols)])
    return rows


@given(square_matrices(4), st.data())
def test_cyclic_rows_match_the_dense_loop(m, data):
    component = data.draw(st.integers(0, m.ncols - 1))
    assert cyclic_rows(m, component, 3).rows == cyclic_rows_reference(m, component, 3)


def test_verra_cyclic_rows_match_the_dense_loop(sym_ansatz, verra):
    m = sym_ansatz.matrix
    c = verra.component
    assert cyclic_rows(m, c, 6).rows == cyclic_rows_reference(m, c, 6)


def test_cyclic_rows_errors(sym_ansatz):
    with pytest.raises(ValueError, match="out of range"):
        cyclic_rows(sym_ansatz.matrix, 6, 1)
    from hodgeatoms.linalg import Matrix
    with pytest.raises(ValueError, match="square"):
        cyclic_rows(Matrix([[qp((0, 1)), qp()]]), 0, 1)


def test_eliminate_one_by_one():
    from hodgeatoms.linalg import Matrix
    op = eliminate(cyclic_rows(Matrix([[qp((1, 2))]]), 0, 1))
    assert op.render() == "D - 2*q"


def test_eliminate_parametric(parametric_op):
    assert parametric_op.order == 6
    assert parametric_op.render() == PARAMETRIC_RENDER


def test_eliminate_numeric(mplus, verra, solved_op):
    direct = eliminate(cyclic_rows(mplus, verra.component, mplus.ncols))
    assert direct.render() == NUMERIC_RENDER
    # substitute-then-eliminate agrees with eliminate-then-substitute
    assert solved_op.render() == NUMERIC_RENDER


def test_cofactor_identity(parametric_op, sym_ansatz, verra):
    rows = cyclic_rows(sym_ansatz.matrix, verra.component, sym_ansatz.matrix.ncols)
    assert cofactor_identity_holds(parametric_op, rows)
    # drop the top coefficient: no longer an identity
    broken = DiffOperator(parametric_op.coeffs[:-1])
    assert not cofactor_identity_holds(broken, rows)
    # an operator of higher order than the rows reach cannot be checked on them
    assert not cofactor_identity_holds(parametric_op, Matrix(rows.rows[:-1]))


def cofactor_reference(op, rows):
    # the Fraction Poly loop the integer check replaced
    if op.order >= rows.nrows:
        return False
    for j in range(rows.ncols):
        acc = Poly.zero(rows.vars)
        for k, c in enumerate(op.coeffs):
            acc = acc + c * rows.rows[k][j]
        if not acc.is_zero():
            return False
    return True


SQ = ("s", "q")
sq_polys = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 3)),
                           st.fractions(-5, 5, max_denominator=6),
                           max_size=3).map(lambda t: Poly(SQ, t))


@given(st.integers(1, 3), st.integers(1, 6), st.integers(0, 1), st.data())
def test_cofactor_identity_matches_the_fraction_loop(order, ncols, unused, data):
    # rows r_0..r_order with c_order r_order = -sum_(k < order) c_k r_k times
    # c_order, so that the identity holds; then one used entry perturbed
    coeffs = [data.draw(sq_polys) for _ in range(order)]
    top = data.draw(sq_polys.filter(lambda p: not p.is_zero()))
    base = [[data.draw(sq_polys) for _ in range(ncols)] for _ in range(order)]
    rows = [[top * p for p in r] for r in base]
    rows.append([-sum((c * r[j] for c, r in zip(coeffs, base)), Poly.zero(SQ))
                 for j in range(ncols)])
    rows += [[data.draw(sq_polys) for _ in range(ncols)] for _ in range(unused)]
    op = DiffOperator(tuple(coeffs) + (top,))
    assert cofactor_identity_holds(op, Matrix(rows))
    assert cofactor_reference(op, Matrix(rows))
    k, j = data.draw(st.integers(0, order)), data.draw(st.integers(0, ncols - 1))
    rows[k][j] = rows[k][j] + data.draw(sq_polys)
    assert cofactor_identity_holds(op, Matrix(rows)) == cofactor_reference(op, Matrix(rows))
    # an operator that reaches past the rows cannot be checked on them
    assert not cofactor_identity_holds(op, Matrix(rows[:order]))
    with pytest.raises(ValueError, match="variable sets differ"):
        cofactor_identity_holds(DiffOperator((Poly.const(Q, 1),)), Matrix(rows))


def cofactor_bound(op, rows):
    # B = sum_k |c_k|_1 max_j |r_k[j]|_1 on the values as given; the check scales
    # both sides to integers, which scales B and every column sum alike
    return sum(sum(map(abs, c.terms.values())) * max(sum(map(abs, p.terms.values())) for p in r)
               for c, r in zip(op.coeffs, rows.rows))


@pytest.mark.parametrize("sign", [1, -1])
def test_cofactor_identity_at_the_bound(sign):
    # constant coefficients and entries put every product on one monomial, so
    # the column sums are sign * B, -sign * B and 0: each fills its slot
    op = DiffOperator((Poly.const(SQ, 3), Poly.const(SQ, -2)))
    rows = Matrix([[Poly.const(SQ, v) for v in (5 * sign, -5 * sign, 1)],
                   [Poly.const(SQ, v) for v in (-7 * sign, 7 * sign, Fraction(3, 2))]])
    assert cofactor_bound(op, rows) == 29
    sums = [sum((c * r[j] for c, r in zip(op.coeffs, rows.rows)), Poly.zero(SQ))
            for j in range(3)]
    assert [p.constant_value() for p in sums] == [29 * sign, -29 * sign, 0]
    assert not cofactor_identity_holds(op, rows)
    assert not cofactor_reference(op, rows)


@pytest.mark.parametrize("w", [1, 5, 20, 64])
@pytest.mark.parametrize("monomial", [(0, 0), (2, 3)])
def test_cofactor_identity_one_bit_short_would_cancel(w, monomial):
    # column sums 2^w = B and -1: in slots of w bits, one fewer than B's bit
    # length, the packed value 2^w - 2^w would be zero
    x = Poly(SQ, {monomial: 1})
    op = DiffOperator((x,))
    rows = Matrix([[x.scale(2 ** w), x.scale(-1), Poly.zero(SQ)]])
    assert cofactor_bound(op, rows) == 2 ** w
    assert not cofactor_identity_holds(op, rows)
    assert not cofactor_reference(op, rows)
    # and in a later pair of columns, with a zero sum before them
    rows = Matrix([[Poly.zero(SQ), x.scale(2 ** w), x.scale(-1)]])
    assert not cofactor_identity_holds(op, rows)
    assert cofactor_identity_holds(op, Matrix([[Poly.zero(SQ)] * 3]))


def normalize_reference(op):
    """DiffOperator.normalize as it was: the nonzero coefficients' gcd divided
    out, then the rational content, then the constant top or the sign."""
    nonzero = [c for c in op.coeffs if not c.is_zero()]
    if not nonzero:
        return op
    g = poly_gcd_many(nonzero)[0]
    coeffs = list(op.coeffs)
    if g.constant_value() != 1:
        coeffs = [exact_div(c, g) for c in coeffs]
    content = rational_content(v for c in coeffs for v in c.terms.values())
    coeffs = [c.scale(1 / content) for c in coeffs]
    top = coeffs[-1].constant_value()
    if top is not None and top != 0:
        coeffs = [c.scale(1 / top) for c in coeffs]
    elif coeffs[-1].leading_coefficient() < 0:
        coeffs = [c.scale(-1) for c in coeffs]
    return DiffOperator(tuple(coeffs))


# q^k and q^k s, the shapes of the monomial factors the shift takes off
sq_monomials = st.builds(lambda k, s: Poly(SQ, {(s, k): 1}), st.integers(1, 4), st.integers(0, 1))


# the three scalings: integral quotients over their signed content (6, leading
# coefficient -12 s q), an integer constant top (4), a non-integral content (1/3)
@example([Poly(SQ, {(0, 1): 18, (1, 0): -24})], Poly(SQ, {(1, 1): -12, (0, 0): 6}),
         Poly(SQ, {(1, 0): 1}), "common factor", Poly(SQ, {(0, 1): 1}))
@example([Poly(SQ, {(0, 1): 2, (1, 0): 3})], Poly(SQ, {(0, 0): 4}),
         Poly(SQ, {(1, 0): 1}), "plain", Poly(SQ, {(0, 1): 1}))
@example([Poly(SQ, {(0, 1): Fraction(1, 3)})], Poly(SQ, {(1, 1): Fraction(2, 3), (0, 0): -1}),
         Poly(SQ, {(1, 0): 1}), "plain", Poly(SQ, {(0, 1): 1}))
# a constant top -4 that divides 8 s but not 2 q: an int and a Fraction quotient
@example([Poly(SQ, {(0, 1): 2, (1, 0): 8})], Poly(SQ, {(0, 0): -4}),
         Poly(SQ, {(1, 0): 1}), "plain", Poly(SQ, {(0, 1): 1}))
@given(st.lists(sq_polys, max_size=3), sq_polys.filter(bool), sq_polys.filter(bool),
       st.sampled_from(["constant top", "common factor", "monomial factor",
                        "monomial times binomial", "plain"]), sq_monomials)
def test_normalize_matches_the_three_step_definition(low, top, factor, shape, monomial):
    # zero coefficients come from sq_polys, negative leading coefficients
    # from the signs it draws
    if shape == "constant top":
        top = Poly.const(SQ, top.leading_coefficient())
    coeffs = (*low, top)
    if shape == "common factor":
        coeffs = tuple(c * factor for c in coeffs)
    if shape == "monomial factor":
        coeffs = tuple(c * monomial for c in coeffs)
    if shape == "monomial times binomial":  # the gcd's shape on components 0 and 1
        binomial = Poly(SQ, {(1, 0): 1, (0, 1): -2})
        coeffs = tuple(c * monomial * binomial for c in coeffs)
    op = DiffOperator(coeffs)
    got, want = op.normalize(), normalize_reference(op)
    assert got == want
    assert [list(c.terms) for c in got.coeffs] == [list(c.terms) for c in want.coeffs]
    # an int wherever the value is integral, as the reference holds it
    types = [[type(v) for v in c.terms.values()] for c in got.coeffs]
    assert types == [[int if Fraction(v).denominator == 1 else Fraction
                      for v in c.terms.values()] for c in want.coeffs]


def test_normalize_leaves_the_zero_operator():
    zero = DiffOperator((Poly.zero(SQ),))
    assert zero.normalize() == zero == normalize_reference(zero)


def test_apply_rejects_parametric(parametric_op, period16):
    with pytest.raises(ValueError, match="unknown parameters"):
        apply(parametric_op, period16)


def test_apply_worked_example():
    # D - 2q annihilates exp(2q); coefficient m reads only f_0..f_m, so
    # truncation costs no order
    op = DiffOperator((qp((1, -2)), qp((0, 1))))
    f = Series([Fraction(2) ** m / Fraction(
        __import__("math").factorial(m)) for m in range(6)])
    out = apply(op, f)
    assert out.order == 5
    assert out.is_zero()


def test_apply_linearity(solved_op):
    rng = random.Random(11)
    f = Series([Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(9)])
    g = Series([Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(9)])
    lhs = apply(solved_op, Series([a + b for a, b in zip(f.coeffs, g.coeffs)]))
    rhs = [a + b for a, b in zip(apply(solved_op, f).coeffs, apply(solved_op, g).coeffs)]
    assert lhs.coeffs == rhs
    assert apply(solved_op, Series([c * Fraction(3, 2) for c in f.coeffs])).coeffs == \
        [c * Fraction(3, 2) for c in apply(solved_op, f).coeffs]


def test_solved_operator_annihilates_period(solved_op, period16):
    out = apply(solved_op, period16)
    assert out.order == 16
    assert out.is_zero()


def _parameters(op):
    return tuple(v for v in op.vars if v != "q")


def _symbolic_polys(op, f):
    """apply_symbolic(op, f) as Polys over the operator's parameters."""
    return [equation_poly(_parameters(op), den, terms) for den, terms in apply_symbolic(op, f)]


def test_apply_symbolic_consistency(parametric_op, period16, solution):
    sym = _symbolic_polys(parametric_op, period16)
    num = apply(parametric_op.substitute(solution), period16)
    for m, p in enumerate(sym):
        assert p.substitute(solution).constant_value() == num.coeff(m)


def test_apply_symbolic_equals_apply_without_parameters(solved_op, period16):
    sym = _symbolic_polys(solved_op, period16)
    num = apply(solved_op, period16)
    assert [p.constant_value() for p in sym] == num.coeffs


def _apply_symbolic_reference(op, f):
    # one Fraction multiply-add per operator term and output order
    table = []
    for k, c in enumerate(op.coeffs):
        for j in range(c.degree_in("q") + 1):
            cj = c.coeff_of("q", j)
            if not cj.is_zero():
                table.append((k, j, list(cj.terms.items())))
    fc = f.coeffs
    out = []
    for mo in range(f.order + 1):
        acc = {}
        for k, j, terms in table:
            if j <= mo:
                w = (mo - j) ** k * fc[mo - j]
                for ex, v in terms:
                    acc[ex] = acc.get(ex, 0) + v * w
        out.append(Poly(op.vars, acc))
    return out


_RATIONALS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def parametric_operators(draw):
    # q in any position among two parameters, coefficients with denominators
    variables = draw(st.permutations(("s", "t", "q")))
    qi = variables.index("q")
    exps = [ex for ex in ((a, b, c) for a in range(3) for b in range(3) for c in range(3))
            if sum(ex) - ex[qi] <= 2]
    coeffs = [Poly(variables, draw(st.dictionaries(st.sampled_from(exps), _RATIONALS,
                                                   max_size=5)))
              for _ in range(draw(st.integers(1, 4)))]
    if coeffs[-1].is_zero():
        coeffs[-1] = Poly.const(variables, draw(_RATIONALS.filter(bool)))
    return DiffOperator(tuple(coeffs))


def _reference_in(params, reference):
    # the reference's q exponents are 0, so re-embedding drops q
    return [p.rename_vars(params) for p in reference]


@given(parametric_operators(), st.lists(_RATIONALS, min_size=3, max_size=12))
def test_apply_symbolic_matches_the_per_term_fraction_loop(op, values):
    f = Series(values)
    entries = apply_symbolic(op, f)
    assert all(den > 0 and all(terms.values()) for den, terms in entries)
    assert _symbolic_polys(op, f) == _reference_in(_parameters(op),
                                                   _apply_symbolic_reference(op, f))


def test_apply_symbolic_at_depth_matches_the_per_term_fraction_loop(parametric_op, verra):
    f = Series(get_source(verra.period_source).coefficients(60))
    assert _symbolic_polys(parametric_op, f) == _reference_in(
        _parameters(parametric_op), _apply_symbolic_reference(parametric_op, f))


def _constants(reference):
    return [p.terms.get((0,), Fraction(0)) for p in reference]


_Q_TERMS = st.dictionaries(st.integers(0, 3), _RATIONALS.filter(bool), max_size=4)


@given(st.lists(_Q_TERMS, max_size=4), _Q_TERMS.filter(bool),
       st.lists(_RATIONALS, min_size=4, max_size=12))
def test_apply_matches_the_per_term_fraction_loop(low, top, values):
    op = DiffOperator(tuple(Poly(Q, {(e,): c for e, c in d.items()}) for d in low + [top]))
    f = Series(values)
    assert apply(op, f).coeffs == _constants(_apply_symbolic_reference(op, f))


@pytest.mark.parametrize("which", ["solved", "regularized", "regularized on the plain series"])
def test_apply_matches_the_per_term_fraction_loop_at_order_200(solved_op, verra, which):
    reg_q, _ = transform_even_operator(get_source(verra.period_source).regularized)
    op = solved_op if which == "solved" else reg_q
    f = period_coefficients(verra.period_source, 200)
    if which == "regularized":
        f = regularized_coefficients(f)
    out = apply(op, f)
    assert out.order == 200
    assert out.coeffs == _constants(_apply_symbolic_reference(op, f))
    assert out.is_zero() == (which != "regularized on the plain series")


@given(st.integers(0, 4), st.integers(0, 10), st.data())
def test_a_prefix_gives_the_first_coefficients_of_a_longer_series(d, n, data):
    # coefficient m of op f reads only f_0..f_m, so an operator of q-degree d
    # applied to the prefix through q^n loses no order to it: the result is
    # the first n + 1 coefficients of op applied to the series d terms longer
    terms = st.dictionaries(st.integers(0, d), _RATIONALS.filter(bool), max_size=4)
    low = data.draw(st.lists(terms, max_size=3))
    top = {**data.draw(terms), d: data.draw(_RATIONALS.filter(bool))}
    op = DiffOperator(tuple(Poly(Q, {(e,): c for e, c in t.items()}) for t in low + [top]))
    f = data.draw(st.lists(_RATIONALS, min_size=n + d + 1, max_size=n + d + 1))
    prefix, whole = Series(f[:n + 1]), Series(f)
    assert apply(op, prefix).coeffs == apply(op, whole).coeffs[:n + 1]
    assert list(apply_symbolic(op, prefix)) == list(apply_symbolic(op, whole))[:n + 1]


@given(parametric_operators(), st.lists(_RATIONALS, min_size=3, max_size=12),
       st.integers(-1, 12), st.data())
def test_match_equations_in_any_parameter_order(op, values, depth, data):
    # the parameters in another order than op.vars, and one more, unused
    params = data.draw(st.permutations(_parameters(op) + ("w",)))
    f = Series(values)
    expected = [(m, p) for m, p in enumerate(_reference_in(
        params, _apply_symbolic_reference(op, f))) if m <= depth and not p.is_zero()]
    got = match_equations(op, f, depth, params)
    assert [(m, equation_poly(params, den, terms)) for m, den, terms, _ in got] == expected


def test_match_equations_reject_a_variable_outside_the_parameters(parametric_op, period16):
    with pytest.raises(ValueError):
        match_equations(parametric_op, period16, 10, ("s", "t", "u"))


def test_match_equations_vanish_at_the_solution(parametric_op, period16, solution):
    # every matched equation through the pipeline's depth order - 6 = 10
    params = tuple(solution)
    eqs = match_equations(parametric_op, period16, 10, params)
    assert eqs
    assert all(equation_poly(params, den, e).substitute(solution).constant_value() == 0
               for _, den, e, _ in eqs)


def test_match_equations(parametric_op, period16):
    # the pipeline matches through depth order - 6 = 10
    params = ("s", "t", "u", "v")
    eqs = match_equations(parametric_op, period16, 10, params)
    # orders 0 and 1 vanish identically; the first constraint sits at q^2
    assert eqs[0][0] == 2
    assert equation_poly(params, *eqs[0][1:3]).render() == (
        "4*s^2 + 4*s*t + 8*s*u - 72*s - 24*t - 48*u - 12*v + 480")
    assert len(eqs) == 9
    assert [m for m, *_ in eqs] == list(range(2, 11))
    # the depth argument clamps to what the series supports
    assert len(match_equations(parametric_op, period16, 99, params)) == 15


def _parameter_monomial_powers(op):
    """Each parameter monomial of op (q dropped) -> the q-powers it appears at."""
    qi = op.vars.index("q")
    powers: dict = {}
    for c in op.coeffs:
        for ex in c.terms:
            powers.setdefault(ex[:qi] + ex[qi + 1:], set()).add(ex[qi])
    return powers


@pytest.mark.parametrize("component", range(6))
def test_derived_operators_are_graded(sym_ansatz, component):
    # the ansatz puts each parameter at one q-power, and the derived operator
    # keeps that grading: each parameter monomial sits at exactly one q-power,
    # which is what lets match_equations hand on each term's gcd cheaply
    m = sym_ansatz.matrix
    powers = _parameter_monomial_powers(eliminate(cyclic_rows(m, component, m.ncols)))
    assert len(powers) > 1
    assert all(len(js) == 1 for js in powers.values())


@pytest.mark.parametrize("component", range(6))
def test_eliminate_is_the_reference_normal_form_of_the_kernel_vector(sym_ansatz, component):
    # the shifted monomial factor and the gcd scan's quotients give the same
    # operator as dividing each coefficient by the whole gcd, term for term
    rows = cyclic_rows(sym_ansatz.matrix, component, sym_ansatz.matrix.ncols)
    vec = left_nullspace(rows)[0]
    top = max(k for k, c in enumerate(vec) if not c.is_zero())
    got, want = eliminate(rows), normalize_reference(DiffOperator(tuple(vec[:top + 1])))
    assert got == want
    assert [list(c.terms) for c in got.coeffs] == [list(c.terms) for c in want.coeffs]


# component -> (q-orders matched, solve_parameters' error) at order 16, depth 10
MATCHED_AT_ORDER_16 = {
    0: ([1], "equation at q^1 has degree 8 > 2"),
    1: ([1], "equation at q^1 has degree 4 > 2"),
    2: ([2], "equation at q^2 has degree 6 > 2"),
    3: ([2], "equation at q^2 has degree 6 > 2"),
    4: (list(range(1, 11)), "inconsistent linearized system"),
    5: (list(range(2, 11)), None),
}


@pytest.mark.parametrize("component", range(6))
def test_matching_stops_at_the_solvers_degree_bound(sym_ansatz, verra, period16, component):
    # the list ends with the first equation of parameter degree > 2, where
    # the solver stops with the same message at the same q-order
    mat = sym_ansatz.matrix
    op = eliminate(cyclic_rows(mat, component, mat.ncols))
    params = verra.parameter_order()
    eqs = match_equations(op, period16, 10, params)
    orders, error = MATCHED_AT_ORDER_16[component]
    assert [m for m, *_ in eqs] == orders
    assert [max(map(sum, terms)) > 2 for _, _, terms, _ in eqs] == \
        [False] * (len(eqs) - 1) + ["degree" in (error or "")]
    if error is None:
        solve_parameters(eqs, params, verra.enumerative)
    else:
        with pytest.raises(SolveError, match=re.escape(error)):
            solve_parameters(eqs, params, verra.enumerative)


_ST = ("s", "t", "q")
# s at q^0 and q^1 in c_0, so it falls back to gcd(v, den), with dv = 6
TWO_POWERS = DiffOperator((Poly(_ST, {(1, 0, 0): Fraction(1, 2), (1, 0, 1): Fraction(-5, 3),
                                      (0, 1, 2): Fraction(7, 3)}),
                           Poly(_ST, {(0, 0, 0): Fraction(1), (0, 2, 1): Fraction(3)})))
# every parameter monomial at one q-power, with dv = 10
GRADED = DiffOperator((Poly(_ST, {(1, 0, 1): Fraction(3, 5), (0, 0, 0): Fraction(-1)}),
                       Poly(_ST, {(1, 0, 1): Fraction(1, 2), (1, 1, 2): Fraction(9, 10)}),
                       Poly(_ST, {(0, 0, 0): Fraction(1)})))
# large enough that no small gcd's arguments equal a term and its den
_SERIES = [Fraction((-3) ** (k + 40) + k, (k + 2) ** 30) for k in range(8)]


def test_matching_stops_after_a_degree_3_equation():
    # s^3 at q^1 makes the q^1 equation the last one handed on
    op = DiffOperator((Poly(_ST, {(0, 0, 0): 1, (3, 0, 1): 1}), Poly(_ST, {(0, 1, 0): 1})))
    f = Series([Fraction(k + 1) for k in range(6)])
    assert [m for m, *_ in match_equations(op, f, 99, ("s", "t"))] == [0, 1]


def _assert_in_lowest_terms(eqs):
    """Each handed-on (n, d, g, k) is terms[ex] / den in lowest terms, n / ((d / g) * k)."""
    for _, den, terms, lowest in eqs:
        assert lowest.keys() == terms.keys()
        for ex, (n, d, g, k) in lowest.items():
            x = Fraction(terms[ex], den)
            assert d % g == 0 and (n, d // g * k) == (x.numerator, x.denominator)


@given(parametric_operators(), st.lists(_RATIONALS, min_size=3, max_size=12))
@example(TWO_POWERS, _SERIES)
@example(GRADED, _SERIES)
def test_match_equations_hand_on_each_term_in_lowest_terms(op, values):
    _assert_in_lowest_terms(match_equations(op, Series(values), 99, _parameters(op)))


def test_match_equations_hand_on_lowest_terms_at_order_200(parametric_op, verra):
    f = period_coefficients(verra.period_source, 200)
    eqs = match_equations(parametric_op, f, 194, verra.parameter_order())
    assert len(eqs) == 193
    _assert_in_lowest_terms(eqs)


def _counted_gcds(monkeypatch):
    """The argument tuples of every math.gcd call that qde makes from now on."""
    calls = []

    def gcd(*args):
        calls.append(args)
        return math.gcd(*args)

    monkeypatch.setattr(qde, "math", SimpleNamespace(**{**vars(math), "gcd": gcd}))
    return calls


def _fallbacks(calls, eqs):
    """How many of the calls were gcd(v, den) of a term v of an equation over den.

    Every such call is counted; a call for the small gcds could only be
    mistaken for one if its arguments happened to equal a term and its den."""
    pairs = {(v, den) for _, den, terms, _ in eqs for v in terms.values()}
    return sum(args in pairs for args in calls)


def test_only_a_monomial_at_several_q_powers_takes_the_full_gcd(monkeypatch):
    calls = _counted_gcds(monkeypatch)
    eqs = match_equations(TWO_POWERS, Series(_SERIES), 99, ("s", "t"))
    assert _fallbacks(calls, eqs) == sum((1, 0) in terms for _, _, terms, _ in eqs) > 0
    _assert_in_lowest_terms(eqs)
    calls.clear()
    eqs = match_equations(GRADED, Series(_SERIES), 99, ("s", "t"))
    assert eqs and calls and _fallbacks(calls, eqs) == 0
    _assert_in_lowest_terms(eqs)


@pytest.mark.parametrize("order", [16, 200])
def test_the_pipeline_matches_with_no_full_gcd(verra, monkeypatch, order):
    # every term of the pipeline's matched equations is put in lowest terms by small gcds
    matched = []

    def recorded(*args):
        eqs = match_equations(*args)
        matched.extend(eqs)
        return eqs

    monkeypatch.setattr(pipeline, "match_equations", recorded)
    calls = _counted_gcds(monkeypatch)
    run = run_pipeline(verra, through="solve", order=order)
    assert run.stages[3] == {"name": "solve", "status": "ok"}
    assert len(matched) == order - 7 and calls
    assert _fallbacks(calls, matched) == 0
    _assert_in_lowest_terms(matched)


def test_transform_even_operator(verra):
    reg = get_source(verra.period_source).regularized
    assert reg.render() == (
        "(2048*t^4 + 112*t^2 - 1)*D^4 + (16384*t^4 + 448*t^2)*D^3"
        " + (45056*t^4 + 688*t^2)*D^2 + (49152*t^4 + 480*t^2)*D"
        " + (18432*t^4 + 128*t^2)")
    op, content = transform_even_operator(reg)
    assert content == 16
    assert op.render() == (
        "(2048*q^2 + 112*q - 1)*D^4 + (8192*q^2 + 224*q)*D^3"
        " + (11264*q^2 + 172*q)*D^2 + (6144*q^2 + 60*q)*D"
        " + (1152*q^2 + 8*q)")


def test_transform_rejects_odd_powers():
    c = Poly(("t",), {(1,): Fraction(1)})
    with pytest.raises(ValueError, match="odd power"):
        transform_even_operator(DiffOperator((c,)))


def test_regularized_annihilation(verra, period16):
    reg = get_source(verra.period_source).regularized
    op, _ = transform_even_operator(reg)
    rescaled = regularized_coefficients(period16)
    assert apply(op, rescaled).is_zero()
    # the unrescaled period is NOT annihilated; the residual is fixed
    plain = apply(op, period16)
    assert [plain.coeff(m) for m in range(4)] == [0, 4, 3216, 178680]


def test_normalize_divides_int_constants_exactly():
    op = DiffOperator((Poly.const(Q, 1), Poly.const(Q, 3))).normalize()
    assert [c.constant_value() for c in op.coeffs] == [Fraction(1, 3), 1]
    assert all(type(v) in (int, Fraction) for c in op.coeffs for v in c.terms.values())
