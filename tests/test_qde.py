"""Scalar operators, cyclic-vector elimination, matching, regularization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hodgeatoms.linalg import Matrix, left_nullspace
from hodgeatoms.periods import get_source, regularized_coefficients
from hodgeatoms.poly import Poly, exact_div, poly_gcd_many, rational_content
from hodgeatoms.qde import (DiffOperator, apply, apply_symbolic,
                            cofactor_identity_holds, cyclic_rows, eliminate,
                            match_equations, transform_even_operator)
from hodgeatoms.series import Series
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
    assert op.q_degree() == 1
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


def cyclic_rows_reference(m, component, count):
    """cyclic_rows as it was: every product r_k[i] M[i][j] formed, zeros included."""
    rows = [[Poly.const(m.vars, 1 if j == component else 0) for j in range(m.ncols)]]
    for _ in range(count):
        prev = rows[-1]
        rows.append([sum((p * m.rows[k][j] for k, p in enumerate(prev)),
                         prev[j].euler_derivative()) for j in range(m.ncols)])
    return Matrix(rows)


@given(square_matrices(4), st.data())
def test_cyclic_rows_match_the_dense_loop(m, data):
    component = data.draw(st.integers(0, m.ncols - 1))
    assert cyclic_rows(m, component, 3) == cyclic_rows_reference(m, component, 3)


def test_verra_cyclic_rows_match_the_dense_loop(sym_ansatz, verra):
    m = sym_ansatz.matrix
    assert cyclic_rows(m, verra.component, 6) == cyclic_rows_reference(m, verra.component, 6)


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


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 1), st.data())
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


def normalize_reference(op):
    """DiffOperator.normalize as it was: the nonzero coefficients' gcd divided
    out, then the rational content, then the constant top or the sign."""
    nonzero = [c for c in op.coeffs if not c.is_zero()]
    if not nonzero:
        return op
    g = poly_gcd_many(nonzero)
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


@given(st.lists(sq_polys, max_size=3), sq_polys.filter(bool), sq_polys.filter(bool),
       st.sampled_from(["constant top", "common factor", "plain"]))
def test_normalize_matches_the_three_step_definition(low, top, factor, shape):
    # zero coefficients come from sq_polys, negative leading coefficients
    # from the signs it draws
    if shape == "constant top":
        top = Poly.const(SQ, top.leading_coefficient())
    coeffs = (*low, top)
    if shape == "common factor":
        coeffs = tuple(c * factor for c in coeffs)
    op = DiffOperator(coeffs)
    got, want = op.normalize(), normalize_reference(op)
    assert got == want
    assert [list(c.terms) for c in got.coeffs] == [list(c.terms) for c in want.coeffs]


def test_normalize_leaves_the_zero_operator():
    zero = DiffOperator((Poly.zero(SQ),))
    assert zero.normalize() == zero == normalize_reference(zero)


def test_apply_rejects_parametric(parametric_op, period16):
    with pytest.raises(ValueError, match="unknown parameters"):
        apply(parametric_op, period16)


def test_apply_rejects_short_series(solved_op):
    with pytest.raises(ValueError, match="too short"):
        apply(solved_op, Series([Fraction(1)]))


def test_apply_worked_example():
    # D - 2q annihilates exp(2q); truncation costs one order
    op = DiffOperator((qp((1, -2)), qp((0, 1))))
    f = Series([Fraction(2) ** m / Fraction(
        __import__("math").factorial(m)) for m in range(6)])
    out = apply(op, f)
    assert out.order == 4
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
    assert out.order == 14
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
    out_order = f.order - op.q_degree()
    table = []
    for k, c in enumerate(op.coeffs):
        for j in range(c.degree_in("q") + 1):
            cj = c.coeff_of("q", j)
            if not cj.is_zero():
                table.append((k, j, list(cj.terms.items())))
    fc = f.coeffs
    out = []
    for mo in range(out_order + 1):
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


@given(parametric_operators(), st.lists(_RATIONALS, min_size=3, max_size=12),
       st.integers(-1, 12), st.data())
def test_match_equations_in_any_parameter_order(op, values, depth, data):
    # the parameters in another order than op.vars, and one more, unused
    params = data.draw(st.permutations(_parameters(op) + ("w",)))
    f = Series(values)
    expected = [(m, p) for m, p in enumerate(_reference_in(
        params, _apply_symbolic_reference(op, f))) if m <= depth and not p.is_zero()]
    got = match_equations(op, f, depth, params)
    assert [(m, equation_poly(params, den, terms)) for m, den, terms in got] == expected


def test_match_equations_reject_a_variable_outside_the_parameters(parametric_op, period16):
    with pytest.raises(ValueError):
        match_equations(parametric_op, period16, 10, ("s", "t", "u"))


def test_match_equations_vanish_at_the_solution(parametric_op, period16, solution):
    # every matched equation through the pipeline's depth order - 6 = 10
    params = tuple(solution)
    eqs = match_equations(parametric_op, period16, 10, params)
    assert eqs
    assert all(equation_poly(params, den, e).substitute(solution).constant_value() == 0
               for _, den, e in eqs)


def test_match_equations(parametric_op, period16):
    # the pipeline matches through depth order - 6 = 10
    params = ("s", "t", "u", "v")
    eqs = match_equations(parametric_op, period16, 10, params)
    # orders 0 and 1 vanish identically; the first constraint sits at q^2
    assert eqs[0][0] == 2
    assert equation_poly(params, *eqs[0][1:]).render() == (
        "4*s^2 + 4*s*t + 8*s*u - 72*s - 24*t - 48*u - 12*v + 480")
    assert len(eqs) == 9
    assert [m for m, _, _ in eqs] == list(range(2, 11))
    # the depth argument clamps to what the series supports
    assert len(match_equations(parametric_op, period16, 99, params)) == 13


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
