"""Acceptance gate: one test per shipped guarantee, all exact arithmetic.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion. Every comparison below is equality of integers, rationals, or
rendered strings; there are no tolerances anywhere.
"""

from fractions import Fraction

from hodgeatoms.atoms import (assemble_zero_atoms, atom_sum, exclusion_search,
                              transcendental_invariants)
from hodgeatoms.certificate import chi_render, dump_json
from hodgeatoms.cohomology import gram_matrix, swap
from hodgeatoms.instance import load_instance
from hodgeatoms.linalg import char_poly
from hodgeatoms.periods import (get_source, period_coefficients,
                                regularized_coefficients)
from hodgeatoms.pipeline import build_certificate, exit_code, run_pipeline
from hodgeatoms.poly import Poly
from hodgeatoms.qde import (apply, cofactor_identity_holds, cyclic_rows,
                            match_equations, transform_even_operator)
from hodgeatoms.solve import solve_parameters
from hodgeatoms.spectrum import reciprocity_check
from conftest import dense_product
from test_atoms import curve_centre, point_centre


def test_criterion_01_period_reproduction(period16):
    want = [Fraction(1), Fraction(4), Fraction(15),
            Fraction(280, 9), Fraction(6055, 144)]
    assert [period16.coeff(m) for m in range(5)] == want


def test_criterion_02_regularized_annihilation(verra, period16):
    reg = get_source(verra.period_source).regularized
    op, content = transform_even_operator(reg)
    assert content == 16
    rescaled = regularized_coefficients(period16)
    residual = apply(op, rescaled)
    assert residual.order == 16
    assert residual.is_zero()
    # the operator is the annihilator of the factorially rescaled series;
    # on the raw series it leaves this fixed nonzero residual, so the two
    # readings are not interchangeable
    plain = apply(op, period16)
    assert [plain.coeff(m) for m in range(4)] == [0, 4, 3216, 178680]


def test_criterion_03_ansatz_rederivation(sym_ansatz, anti_ansatz):
    assert len(sym_ansatz.params) == 4
    assert [[p.render() for p in r] for r in sym_ansatz.matrix.rows] == [
        ["0", "2*s*q", "0", "0", "2*v*q^2", "0"],
        ["1", "0", "t*q", "u*q", "0", "v*q^2"],
        ["0", "1", "0", "0", "t*q", "0"],
        ["0", "2", "0", "0", "2*u*q", "0"],
        ["0", "0", "1", "1", "0", "s*q"],
        ["0", "0", "0", "0", "2", "0"],
    ]
    assert len(anti_ansatz.params) == 1
    assert [[p.render() for p in r] for r in anti_ansatz.matrix.rows] == [
        ["0", "p_0_1*q", "0"],
        ["1", "0", "p_0_1*q"],
        ["0", "1", "0"],
    ]


def test_criterion_04_elimination(parametric_op, solved_op):
    assert parametric_op.order == 6
    assert solved_op.render() == (
        "D^6 - D^5 - 28*q*D^4 - 42*q*D^3 + (-128*q^2 - 22*q)*D^2"
        " + (-256*q^2 - 4*q)*D - 96*q^2")


def test_criterion_05_parameter_solving(parametric_op, verra):
    F = Fraction
    expected = ((F(2), F(2, 3), F(14, 3), F(16)), (F(2), F(6), F(2), F(16)))
    reports = []
    for order in (12, 16):
        g = period_coefficients(verra.period_source, order)
        eqs = match_equations(parametric_op, g, order - 6, verra.parameter_order())
        reports.append(solve_parameters(eqs, verra.parameter_order(),
                                        verra.enumerative))
    for rep in reports:
        assert set(rep.solutions) == set(expected)
        assert rep.accepted == ((F(2), F(6), F(2), F(16)),)
    assert reports[0].solutions == reports[1].solutions


def test_criterion_06_spectrum(plus_spectrum, minus_spectrum, mminus):
    assert plus_spectrum.factored_render() == "lam^2*(lam^2 - 128*q)*(lam^2 + 16*q)"
    assert minus_spectrum.factored_render() == "lam*(lam^2 - 16*q)"
    assert plus_spectrum.zero_multiplicity == 2
    assert minus_spectrum.zero_multiplicity == 1
    # unscaled cross-check: chi(M_-) = lam^3 - 4q lam halves each square
    assert chi_render(char_poly(mminus)) == "lam^3 + (-4*q)*lam"


def test_criterion_07_reciprocity(plus_spectrum, verra):
    reg_q = transform_even_operator(get_source(verra.period_source).regularized)[0]
    rec = reciprocity_check(reg_q, plus_spectrum)
    assert rec.singular_squares == (Fraction(-1, 16), Fraction(1, 128))
    assert rec.eigen_squares == (Fraction(-16), Fraction(128))
    assert rec.passed


def test_criterion_08_obstruction(verra, plus_spectrum, minus_spectrum, full_run):
    cases = assemble_zero_atoms(transcendental_invariants(verra),
                                plus_spectrum.zero_multiplicity,
                                minus_spectrum.zero_multiplicity)
    for case in cases:
        assert case.plus.rho == 2
        bearing = case.obstructed()
        assert bearing is not None
        assert bearing.t2_coefficient() == 1
        assert exclusion_search(bearing, 4, 4) == []
    assert full_run.verdict == "IRRATIONAL_CERTIFIED"


def test_criterion_09_property_suites(ring, basis, sym_ansatz, anti_ansatz,
                                      parametric_op, verra):
    # orthogonality of the two blocks, all 18 cross pairs
    assert all(ring.pair(x, y) == 0 for x in basis.symmetric for y in basis.antisymmetric)

    # the involution is a ring automorphism preserving the pairing
    monomials = [ring.monomial(a, b) for a in range(3) for b in range(3)]
    for x in monomials:
        assert swap(swap(x)) == x
        for y in monomials:
            assert swap(ring.cup(x, y)) == ring.cup(swap(x), swap(y))
            assert ring.pair(swap(x), swap(y)) == ring.pair(x, y)

    # parametric self-adjointness for both blocks
    for am, block in ((sym_ansatz, basis.symmetric),
                      (anti_ansatz, basis.antisymmetric)):
        m = am.matrix.rows
        gram = [[Poly.const(am.matrix.vars, c) for c in r] for r in gram_matrix(ring, block)]
        assert dense_product(list(zip(*m)), gram) == dense_product(gram, m)

    # the eliminated operator satisfies its defining symbolic identity
    rows = cyclic_rows(sym_ansatz.matrix, verra.component, parametric_op.order)
    assert cofactor_identity_holds(parametric_op, rows)
    for j in range(6):
        acc = Poly.zero(sym_ansatz.matrix.vars)
        for k, c in enumerate(parametric_op.coeffs):
            acc = acc + c * rows.rows[k][j]
        assert acc.is_zero()

    # blowup additivity: centre contributions add in any order
    base = curve_centre(0)
    c = curve_centre(3)
    points = atom_sum(atom_sum(point_centre(), point_centre(), "p"), point_centre(), "p")
    split = atom_sum(atom_sum(base, c, "X"), points, "X")
    joint = atom_sum(atom_sum(base, points, "X"), c, "X")
    assert (split.rho, split.hodge) == (joint.rho, joint.hodge)
    assert split.rho == base.rho + c.rho + 3 * point_centre().rho
    assert split.hodge == base.hodge + c.hodge + Poly(("t",), {(0,): 3})

    # byte-identical certificates from two independent runs
    j1 = dump_json(build_certificate(run_pipeline(verra)))
    j2 = dump_json(build_certificate(run_pipeline(load_instance("verra"))))
    assert j1 == j2


def test_criterion_10_negative_fixtures():
    expectations = {
        "broken-nonsimple": "atoms.transcendental_simple",
        "broken-a0plus": "atoms.case_T_plus_obstructed",
    }
    for name, check in expectations.items():
        run = run_pipeline(load_instance(name))
        assert run.verdict == "INCONCLUSIVE"
        failing = [c["name"] for c in run.checks if not c["passed"]]
        assert failing == [check]
        assert exit_code(run) == 2
