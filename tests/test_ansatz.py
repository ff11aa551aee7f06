"""Ansatz construction: degree slots, self-adjoint reduction, naming."""

import math
from fractions import Fraction
from typing import List

import pytest

from hodgeatoms import ansatz
from hodgeatoms.ansatz import (admissible_powers, build_ansatz, classical_matrix,
                               substitute_params)
from hodgeatoms.cohomology import AmbientRing, coordinates, gram_matrix
from hodgeatoms.instance import load_instance
from hodgeatoms.linalg import Matrix, rref
from hodgeatoms.pipeline import run_pipeline
from hodgeatoms.poly import Poly, rational_content

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
    am = build_ansatz(basis.symmetric, ring, SYM_DEGREES)
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
        gram = gram_matrix(ring, block, am.matrix.rows[0][0].vars)
        assert am.matrix.transpose() * gram == gram * am.matrix


def test_classical_limit(sym_ansatz, basis, ring):
    zeroed = substitute_params(sym_ansatz, {p: Fraction(0) for p in sym_ansatz.params})
    classical = Matrix.from_scalars(("q",), classical_matrix(basis.symmetric, ring))
    assert zeroed.rows == classical.rows
    # the same limit by killing q instead of the parameters
    at_q0 = sym_ansatz.matrix.map(lambda p: p.substitute({"q": Fraction(0)}))
    for j in range(6):
        for i in range(6):
            assert at_q0.rows[j][i].constant_value() == classical.rows[j][i].constant_value()


def test_support_respects_degree_rule(sym_ansatz, basis, ring):
    degrees = SYM_DEGREES
    classical = Matrix.from_scalars(("q",), classical_matrix(basis.symmetric, ring))
    for j in range(6):
        for i in range(6):
            quantum = substitute_params(
                sym_ansatz, {"s": Fraction(1), "t": Fraction(1),
                             "u": Fraction(1), "v": Fraction(1)}
            ).rows[j][i] - classical.rows[j][i]
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
    from hodgeatoms.ansatz import apply_param_names
    am = build_ansatz(basis.symmetric, ring, SYM_DEGREES)
    with pytest.raises(ValueError, match="names 2 parameters, ansatz has 4"):
        apply_param_names(am, (("a", (0, 1)), ("b", (1, 2))))
    with pytest.raises(ValueError, match="no ansatz parameter starts at"):
        apply_param_names(am, (("a", (0, 0)), ("b", (0, 4)),
                               ("c", (1, 2)), ("d", (1, 3))))
    with pytest.raises(ValueError, match="duplicate parameter names"):
        apply_param_names(am, (("a", (0, 1)), ("a", (0, 4)),
                               ("c", (1, 2)), ("d", (1, 3))))


def test_apply_param_names_declared_order(basis, ring):
    from hodgeatoms.ansatz import apply_param_names
    am = build_ansatz(basis.symmetric, ring, SYM_DEGREES)
    renamed = apply_param_names(am, (("v", (0, 4)), ("s", (0, 1)),
                                     ("t", (1, 2)), ("u", (1, 3))))
    assert renamed.params == ("v", "s", "t", "u")
    assert renamed.matrix.rows[0][1].render() == "2*s*q"


def symbolic_ansatz(basis, ring, degrees, pairing):
    """Reference construction: the unknowns as ring variables, M^T G - G M
    expanded symbolically, with G scaled by the top intersection number
    pairing, and its linear relations read off the coefficients."""
    n = len(basis)
    slots = [(j, i, d) for j in range(n) for i in range(n)
             for d in admissible_powers(j, i, degrees) if d >= 1]
    nun = len(slots)
    cols = coordinates([ring.cup(ring.H, b) for b in basis], basis)

    def cup(variables):
        return Matrix([[Poly.const(variables, cols[i][j]) for i in range(n)]
                       for j in range(n)])

    tmp_vars = tuple(f"x{k}" for k in range(nun)) + ("q",)
    m = cup(tmp_vars)
    for k, (j, i, d) in enumerate(slots):
        m.rows[j][i] = m.rows[j][i] + Poly.var(tmp_vars, f"x{k}") * Poly.var(tmp_vars, "q", d)
    gram = gram_matrix(ring, basis, tmp_vars).map(lambda p: p.scale(pairing))
    rows: List[List[Fraction]] = []
    for ra, rb in zip((m.transpose() * gram).rows, (gram * m).rows):
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
    pivots = rref(rows, nun)
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
                out.rows[j][i] = out.rows[j][i] + (
                    Poly.var(final_vars, name) * Poly.var(final_vars, "q", d) * c)
                positions[name].append((j, i, c, d))
    return params, {p: tuple(v) for p, v in positions.items()}, out, cup(("q",))


@pytest.mark.parametrize("pairing", [Fraction(2), Fraction(7, 3)], ids=str)
@pytest.mark.parametrize("nilpotency", [2, 3, 4, 5])
def test_direct_system_matches_symbolic_construction(nilpotency, pairing):
    # a uniform scale of G changes neither M^T G = G M nor its reduction
    ring = AmbientRing(nilpotency)
    basis = ring.eigenbasis()
    for block in ("symmetric", "antisymmetric"):
        degrees = basis.degrees(block)
        am = build_ansatz(getattr(basis, block), ring, degrees)
        params, positions, matrix, classical = symbolic_ansatz(
            getattr(basis, block), ring, degrees, pairing)
        assert am.params == params
        assert am.positions == positions
        assert am.matrix == matrix
        assert am.classical == classical


def test_classical_part_must_be_self_adjoint(basis, ring, monkeypatch):
    cup = classical_matrix(basis.symmetric, ring)
    cup[0][1] += 1
    monkeypatch.setattr(ansatz, "classical_matrix", lambda b, r: cup)
    with pytest.raises(RuntimeError, match="classical part is not self-adjoint"):
        build_ansatz(basis.symmetric, ring, SYM_DEGREES)


def test_one_cup_matrix_per_block(basis, ring, monkeypatch):
    calls = []
    original = ansatz.coordinates

    def counted(targets, b):
        calls.append(targets)
        return original(targets, b)

    monkeypatch.setattr(ansatz, "coordinates", counted)
    build_ansatz(basis.symmetric, ring, SYM_DEGREES)
    # one reduction for all of the block's H-multiples
    assert [len(targets) for targets in calls] == [len(basis.symmetric)]


def test_one_gram_matrix_per_block(basis, ring, sym_ansatz, anti_ansatz, monkeypatch):
    # the ansatz carries its block's Gram matrix, also through the renaming,
    # and the pipeline's self-adjointness check reads it instead of pairing again
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
