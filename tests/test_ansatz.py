"""Ansatz construction: degree slots, self-adjoint reduction, naming."""

import dataclasses
import math
from fractions import Fraction
from typing import List

import pytest

from hodgeatoms import ansatz, pipeline
from hodgeatoms.ansatz import (admissible_powers, build_ansatz, classical_matrix, self_adjoint,
                               substitute_params)
from hodgeatoms.cli import main
from hodgeatoms.cohomology import AmbientRing, gram_matrix
from hodgeatoms.instance import load_instance, parse_instance_text
from hodgeatoms.pipeline import exit_code, run_pipeline
from hodgeatoms.poly import Poly, rational_content
from conftest import dense_product, sympy_rref
from test_cohomology import AmbientClass, ref, ref_coordinates
from test_instance_mutations import VERRA

SYM_DEGREES = (0, 2, 4, 4, 6, 8)
ANTI_DEGREES = (2, 4, 6)


@pytest.mark.parametrize("nilpotency", [2, 3, 4, 5])
def test_admissible_powers_match_the_capped_loop(nilpotency):
    # the search up to ceil((max degree + 2) / 4) that admissible_powers replaced
    basis = AmbientRing(nilpotency).eigenbasis()
    for block in ("symmetric", "antisymmetric"):
        degrees = basis.degrees(block)
        cap = math.ceil((max(degrees) + 2) / 4)
        for j in range(len(degrees)):
            for i in range(len(degrees)):
                lhs = degrees[i] + 2 - degrees[j]
                capped = tuple(d for d in range(cap + 1) if 4 * d == lhs)
                assert admissible_powers(j, i, degrees) == capped


def test_admissible_powers():
    degrees = SYM_DEGREES
    assert admissible_powers(0, 1, degrees) == (1,)
    assert admissible_powers(1, 0, degrees) == (0,)
    assert admissible_powers(0, 4, degrees) == (2,)
    assert admissible_powers(5, 4, degrees) == (0,)
    assert admissible_powers(0, 0, degrees) == ()
    assert admissible_powers(5, 0, degrees) == ()


def test_canonical_parameters(basis, ring):
    am = build_ansatz(basis.symmetric, ring, SYM_DEGREES, None)
    assert am.params == ("p_0_1", "p_0_4", "p_1_2", "p_1_3")
    assert am.positions["p_0_1"][0][:2] == (0, 1)
    assert am.positions["p_0_4"][0][:2] == (0, 4)


def test_named_positions(sym_ansatz):
    assert sym_ansatz.params == ("s", "t", "u", "v")
    one = Fraction(1)
    two = Fraction(2)
    assert sym_ansatz.positions["s"] == ((0, 1, two, 1), (4, 5, one, 1))
    assert sym_ansatz.positions["t"] == ((1, 2, one, 1), (2, 4, one, 1))
    assert sym_ansatz.positions["u"] == ((1, 3, one, 1), (3, 4, two, 1))
    assert sym_ansatz.positions["v"] == ((0, 4, two, 2), (1, 5, one, 2))


def test_symmetric_matrix_frozen(sym_ansatz):
    assert [[p.render() for p in r] for r in sym_ansatz.matrix.rows] == [
        ["0", "2*s*q", "0", "0", "2*v*q^2", "0"],
        ["1", "0", "t*q", "u*q", "0", "v*q^2"],
        ["0", "1", "0", "0", "t*q", "0"],
        ["0", "2", "0", "0", "2*u*q", "0"],
        ["0", "0", "1", "1", "0", "s*q"],
        ["0", "0", "0", "0", "2", "0"],
    ]


def test_antisymmetric_matrix_frozen(anti_ansatz):
    assert anti_ansatz.params == ("p_0_1",)
    assert anti_ansatz.positions["p_0_1"] == (
        (0, 1, Fraction(1), 1), (1, 2, Fraction(1), 1))
    assert [[p.render() for p in r] for r in anti_ansatz.matrix.rows] == [
        ["0", "p_0_1*q", "0"],
        ["1", "0", "p_0_1*q"],
        ["0", "1", "0"],
    ]


def test_self_adjointness_both_blocks(sym_ansatz, anti_ansatz, ring, basis):
    for am, block in ((sym_ansatz, basis.symmetric), (anti_ansatz, basis.antisymmetric)):
        m = am.matrix.rows
        gram = [[Poly.const(am.matrix.vars, c) for c in r] for r in gram_matrix(ring, block)]
        assert dense_product(list(zip(*m)), gram) == dense_product(gram, m)
        assert self_adjoint(am)


def test_classical_limit(sym_ansatz, basis, ring):
    zeroed = substitute_params(sym_ansatz, {p: Fraction(0) for p in sym_ansatz.params})
    classical = classical_matrix(basis.symmetric, ring)
    assert [[p.constant_value() for p in r] for r in zeroed.rows] == classical
    # the same limit by killing q instead of the parameters
    at_q0 = sym_ansatz.matrix.map(lambda p: p.substitute({"q": Fraction(0)}))
    assert [[p.constant_value() for p in r] for r in at_q0.rows] == classical


def test_support_respects_degree_rule(sym_ansatz, basis, ring):
    degrees = SYM_DEGREES
    classical = classical_matrix(basis.symmetric, ring)
    for j in range(6):
        for i in range(6):
            quantum = substitute_params(
                sym_ansatz, {"s": Fraction(1), "t": Fraction(1),
                             "u": Fraction(1), "v": Fraction(1)}
            ).rows[j][i] - classical[j][i]
            allowed = {d for d in admissible_powers(j, i, degrees) if d >= 1}
            for ex in quantum.terms:
                assert ex[0] in allowed


def test_substitute_missing_param(sym_ansatz):
    with pytest.raises(ValueError, match="missing parameter values"):
        substitute_params(sym_ansatz, {"s": Fraction(2)})


def test_solved_matrices_frozen(mplus, mminus):
    assert [[p.render() for p in r] for r in mplus.rows] == [
        ["0", "4*q", "0", "0", "32*q^2", "0"],
        ["1", "0", "6*q", "2*q", "0", "16*q^2"],
        ["0", "1", "0", "0", "6*q", "0"],
        ["0", "2", "0", "0", "4*q", "0"],
        ["0", "0", "1", "1", "0", "2*q"],
        ["0", "0", "0", "0", "2", "0"],
    ]
    assert [[p.render() for p in r] for r in mminus.rows] == [
        ["0", "2*q", "0"],
        ["1", "0", "2*q"],
        ["0", "1", "0"],
    ]


def test_apply_param_names_errors(basis, ring, verra):
    def named(names):
        return build_ansatz(basis.symmetric, ring, SYM_DEGREES, names)

    with pytest.raises(ValueError, match="names 2 parameters, ansatz has 4"):
        named((("a", (0, 1)), ("b", (1, 2))))
    with pytest.raises(ValueError, match="names 0 parameters, ansatz has 4"):
        named(())  # an empty mapping is checked too; None asks for the canonical names
    with pytest.raises(ValueError, match="no ansatz parameter starts at"):
        named((("a", (0, 0)), ("b", (0, 4)), ("c", (1, 2)), ("d", (1, 3))))
    with pytest.raises(ValueError, match="duplicate parameter names"):
        named((("a", (0, 1)), ("a", (0, 4)), ("c", (1, 2)), ("d", (1, 3))))
    with pytest.raises(ValueError, match="duplicate parameter positions"):
        named((("a", (0, 1)), ("b", (0, 1)), ("c", (1, 2)), ("d", (1, 3))))


def test_apply_param_names_declared_order(basis, ring):
    renamed = build_ansatz(basis.symmetric, ring, SYM_DEGREES,
                           (("v", (0, 4)), ("s", (0, 1)), ("t", (1, 2)), ("u", (1, 3))))
    assert renamed.params == ("v", "s", "t", "u")
    assert renamed.canonical == ("p_0_1", "p_0_4", "p_1_2", "p_1_3")
    assert renamed.matrix.rows[0][1].render() == "2*s*q"
    # the canonical matrix with its parameters renamed
    canonical = build_ansatz(basis.symmetric, ring, SYM_DEGREES, None)
    rename = {"p_0_4": "v", "p_0_1": "s", "p_1_2": "t", "p_1_3": "u"}
    assert renamed.matrix.rows == canonical.matrix.map(
        lambda p: p.rename_vars(renamed.matrix.vars, rename)).rows
    assert renamed.positions == {rename[p]: v for p, v in canonical.positions.items()}
    assert canonical.params == canonical.canonical == renamed.canonical


NAMED = "enumerative=t,u, component=5, param_names=s@(0,1),t@(1,2),u@(1,3),v@(0,4)"


@pytest.mark.parametrize("edits, named, count", [
    ((("nilpotency=3", "nilpotency=12"), ("middle=24", "middle=33")), 4, 756),
    ((("nilpotency=3", "nilpotency=16"), ("middle=24", "middle=37")), 4, 2304),
    # param_names= parses to (), which is checked like any other mapping
    (((NAMED, "enumerative=, component=5, param_names="),), 0, 4),
], ids=["nilpotency-12", "nilpotency-16", "no-names"])
def test_a_mapping_that_cannot_fit_fails_before_any_entry_is_built(edits, named, count,
                                                                    monkeypatch):
    # the parameters are counted from the slot pairs, and the mapping fails
    # before any entry of either block's parametric matrix is made
    def entry(*args):
        raise AssertionError("a parametric entry was built")

    monkeypatch.setattr(ansatz, "Poly", entry)
    text = VERRA
    for old, new in edits:
        text = text.replace(old, new)
    run = run_pipeline(parse_instance_text(text))
    assert [(c["name"], c["detail"]) for c in run.checks if not c["passed"]] == [
        ("ansatz.param_mapping", f"instance names {named} parameters, ansatz has {count}")]
    assert run.stages[1] == {"name": "ansatz", "status": "failed",
                             "reason": "parameter name mapping failed"}
    assert exit_code(run) == 2


def test_param_mapping_reads_the_built_matrix(monkeypatch, capsys):
    # build_ansatz made to put s in t's slots and t in s's: the declared
    # names still come back, in the declared order, but the entry at s@(0,1)
    # is linear in t, so ansatz.param_mapping fails and certify exits 2
    built = build_ansatz

    def swapped(basis, ring, degrees, names):
        am = built(basis, ring, degrees, names)
        if names is None:
            return am
        m = am.matrix.map(lambda p: p.rename_vars(p.vars, {"s": "t", "t": "s"}))
        return dataclasses.replace(am, matrix=m)

    verra = load_instance("verra")
    run = run_pipeline(verra)
    mapping = "s@(0, 1), t@(1, 2), u@(1, 3), v@(0, 4)"
    assert {"name": "ansatz.param_mapping", "passed": True, "detail": mapping} in run.checks
    monkeypatch.setattr(pipeline, "build_ansatz", swapped)
    run = run_pipeline(verra)
    checks = {c["name"]: c for c in run.checks}
    assert checks["ansatz.param_mapping"] == {
        "name": "ansatz.param_mapping", "passed": False, "detail": mapping}
    assert exit_code(run) == 2
    assert main(["certify"]) == 2
    assert "[FAIL] ansatz.param_mapping  (" + mapping + ")" in capsys.readouterr().out


def symbolic_ansatz(basis, ring, degrees, pairing):
    """Reference construction: the unknowns as ring variables, M^T G - G M
    expanded symbolically, with G scaled by the top intersection number
    pairing, and its linear relations read off the coefficients."""
    n = len(basis)
    slots = [(j, i, d) for j in range(n) for i in range(n)
             for d in admissible_powers(j, i, degrees) if d >= 1]
    nun = len(slots)
    ref_basis = [ref(ring, b) for b in basis]
    ref_h = AmbientClass(ring, {(1, 0): 1, (0, 1): 1})
    cols = ref_coordinates([ref_h.cup(b) for b in ref_basis], ref_basis)

    def cup(variables):
        return [[Poly.const(variables, cols[i][j]) for i in range(n)] for j in range(n)]

    tmp_vars = tuple(f"x{k}" for k in range(nun)) + ("q",)
    m = cup(tmp_vars)
    for k, (j, i, d) in enumerate(slots):
        m[j][i] = m[j][i] + Poly.var(tmp_vars, f"x{k}") * Poly.var(tmp_vars, "q", d)
    gram = [[Poly.const(tmp_vars, c * pairing) for c in r] for r in gram_matrix(ring, basis)]
    rows: List[List[Fraction]] = []
    for ra, rb in zip(dense_product(list(zip(*m)), gram), dense_product(gram, m)):
        for p in (a - b for a, b in zip(ra, rb)):
            for qp in range(p.degree_in("q") + 1):
                cq = p.coeff_of("q", qp)
                row = [Fraction(0)] * nun
                for ex, c in cq.terms.items():
                    active = [k for k in range(nun) if ex[k]]
                    assert len(active) == 1 and ex[active[0]] == 1
                    row[active[0]] += c
                if any(row):
                    rows.append(row)
    rows, pivots = sympy_rref(rows)
    named = []
    for f in (k for k in range(nun) if k not in pivots):
        vec = [Fraction(0)] * nun
        vec[f] = Fraction(1)
        for row, pcol in zip(rows, pivots):
            vec[pcol] = -row[f]
        content = rational_content(vec)
        vec = [c / content for c in vec]
        if next(c for c in vec if c) < 0:
            vec = [-c for c in vec]
        j, i, _ = slots[next(k for k in range(nun) if vec[k])]
        named.append(((j, i), f"p_{j}_{i}", vec))
    named.sort(key=lambda item: item[0])
    params = tuple(name for _, name, _ in named)
    final_vars = params + ("q",)
    out = cup(final_vars)
    positions = {p: [] for p in params}
    for _, name, vec in named:
        for k, c in enumerate(vec):
            if c:
                j, i, d = slots[k]
                out[j][i] = out[j][i] + (
                    Poly.var(final_vars, name) * Poly.var(final_vars, "q", d) * c)
                positions[name].append((j, i, c, d))
    return (params, {p: tuple(v) for p, v in positions.items()}, out,
            [[cols[i][j] for i in range(n)] for j in range(n)])


@pytest.mark.parametrize("pairing", [Fraction(2), Fraction(7, 3)], ids=str)
@pytest.mark.parametrize("nilpotency", [2, 3, 4, 5])
def test_direct_system_matches_symbolic_construction(nilpotency, pairing):
    # a uniform scale of G changes neither M^T G = G M nor its reduction
    ring = AmbientRing(nilpotency)
    basis = ring.eigenbasis()
    for block in ("symmetric", "antisymmetric"):
        degrees = basis.degrees(block)
        am = build_ansatz(getattr(basis, block), ring, degrees, None)
        params, positions, matrix, classical = symbolic_ansatz(
            getattr(basis, block), ring, degrees, pairing)
        assert am.params == params
        assert am.positions == positions
        assert am.matrix.rows == matrix
        assert am.classical == classical


def test_one_cup_matrix_per_block(basis, ring, monkeypatch):
    calls = []
    original = ansatz.classical_matrix

    def counted(b, r):
        calls.append(b)
        return original(b, r)

    monkeypatch.setattr(ansatz, "classical_matrix", counted)
    build_ansatz(basis.symmetric, ring, SYM_DEGREES, None)
    build_ansatz(basis.antisymmetric, ring, ANTI_DEGREES, None)
    assert calls == [basis.symmetric, basis.antisymmetric]


def test_classical_matrix_rejects_a_basis_without_its_own_leading_monomials(basis, ring):
    # H * H1 has no H1 term, and x + swap(x), x - swap(x) share their leading
    # monomial, so the coordinates read off leave a residual
    for b in ([ring.H1], basis.symmetric + basis.antisymmetric):
        with pytest.raises(RuntimeError, match="H-multiple leaves the block span"):
            classical_matrix(b, ring)


def test_the_pairing_matches_each_class_with_one_other():
    # the facts the slot pairing rests on, for nilpotency 2-12: one nonzero
    # per Gram row, an involution s, and the partner (s(i), s(j), d) of
    # every admissible slot (j, i, d) admissible too
    for nilpotency in range(2, 13):
        ring = AmbientRing(nilpotency)
        basis = ring.eigenbasis()
        for block in ("symmetric", "antisymmetric"):
            classes, degrees = getattr(basis, block), basis.degrees(block)
            gram = [[ring.pair(x, y) for y in classes] for x in classes]
            assert all(sum(1 for g in row if g) == 1 for row in gram)
            partner = [next(k for k, g in enumerate(row) if g) for row in gram]
            assert [partner[k] for k in partner] == list(range(len(classes)))
            for j in range(len(classes)):
                for i in range(len(classes)):
                    assert (admissible_powers(partner[i], partner[j], degrees)
                            == admissible_powers(j, i, degrees))


def test_a_gram_row_with_two_entries_fails_the_construction(verra, monkeypatch, capsys):
    gram_of = ansatz.gram_matrix

    def coupled(ring, basis):
        gram = gram_of(ring, basis)
        for j, i in ((0, 1), (1, 0)):
            gram[j][i] += 1
        return gram

    monkeypatch.setattr(ansatz, "gram_matrix", coupled)
    run = run_pipeline(verra)
    message = "Gram row pairs with 2 classes, not one"
    assert [(c["name"], c["detail"]) for c in run.checks if not c["passed"]] == [
        ("ansatz.construction", message)]
    assert run.stages[1] == {"name": "ansatz", "status": "failed",
                             "reason": f"ansatz construction failed: {message}"}
    assert exit_code(run) == 2
    assert main(["certify"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_one_gram_matrix_per_block(basis, ring, sym_ansatz, anti_ansatz, monkeypatch):
    # the ansatz carries its block's Gram matrix as scalar rows, also when its
    # parameters are named, and the pipeline's self-adjointness check reads it instead of pairing again
    assert sym_ansatz.gram == gram_matrix(ring, basis.symmetric)
    assert anti_ansatz.gram == gram_matrix(ring, basis.antisymmetric)
    calls = []
    original = AmbientRing.pair

    def counted(self, x, y):
        calls.append((x, y))
        return original(self, x, y)

    monkeypatch.setattr(AmbientRing, "pair", counted)
    run = run_pipeline(load_instance("verra"))
    assert run.verdict == "IRRATIONAL_CERTIFIED"
    # one pairing per entry of the 6 x 6 and 3 x 3 Gram matrices
    assert len(calls) == len(basis.symmetric) ** 2 + len(basis.antisymmetric) ** 2 == 45
