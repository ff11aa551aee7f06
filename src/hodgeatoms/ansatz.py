"""Quantum multiplication ansatz from degree and self-adjointness constraints.

The entry (j, i) of the multiplication matrix can receive a q^d
contribution only when deg(b_j) = 2 + deg(b_i) - 4d. We place one fresh
unknown at every admissible position with d >= 1 on top of the classical
cup matrix, impose self-adjointness for the block's pairing matrix, and
reduce the unknowns by exact elimination. Surviving parameters are named
canonically by the first matrix position they occupy; instance files
attach conventional names by those positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Tuple

from .cohomology import AmbientRing, coordinates, gram_matrix
from .linalg import Matrix, rref
from .poly import Poly, rational_content


@dataclass(frozen=True)
class DegreeRule:
    degrees: Tuple[int, ...]
    novikov_degree: int = 4
    multiplier_degree: int = 2

    def max_power(self) -> int:
        # beyond this cap the degree equation has no solutions
        return math.ceil((max(self.degrees) + self.multiplier_degree) / self.novikov_degree)


def admissible_powers(j: int, i: int, rule: DegreeRule) -> Tuple[int, ...]:
    """All d >= 0 with deg(b_j) = multiplier + deg(b_i) - novikov*d."""
    lhs = rule.degrees[i] + rule.multiplier_degree - rule.degrees[j]
    out = []
    for d in range(rule.max_power() + 1):
        if rule.novikov_degree * d == lhs:
            out.append(d)
    return tuple(out)


def classical_matrix(basis, ring: AmbientRing, variables=("q",)) -> Matrix:
    """Cup multiplication by H in the given block basis, column convention."""
    H = ring.H
    cols = []
    for b in basis:
        try:
            cols.append(coordinates(H.cup(b), basis))
        except ValueError as e:
            raise RuntimeError(f"H-multiple leaves the block span: {e}") from e
    variables = tuple(variables)
    return Matrix([[Poly.const(variables, cols[i][j]) for i in range(len(basis))]
                   for j in range(len(basis))])


@dataclass(frozen=True)
class AnsatzMatrix:
    block: str
    matrix: Matrix
    params: Tuple[str, ...]
    # parameter -> positions it occupies, as (row, col, multiplier, q-power)
    positions: Dict[str, Tuple[Tuple[int, int, Fraction, int], ...]]
    classical: Matrix

    def first_position(self, param: str) -> Tuple[int, int]:
        row, col, _, _ = self.positions[param][0]
        return (row, col)


def build_ansatz(basis, ring: AmbientRing, rule: DegreeRule, block: str) -> AnsatzMatrix:
    n = len(basis)
    slots: List[Tuple[int, int, int]] = []  # (row j, col i, power d), row-major
    for j in range(n):
        for i in range(n):
            for d in admissible_powers(j, i, rule):
                if d >= 1:
                    slots.append((j, i, d))
    nun = len(slots)

    tmp_vars = tuple(f"x{k}" for k in range(nun)) + ("q",)
    classical = classical_matrix(basis, ring, tmp_vars)
    quantum = Matrix([[Poly.zero(tmp_vars) for _ in range(n)] for _ in range(n)])
    for k, (j, i, d) in enumerate(slots):
        term = Poly.var(tmp_vars, f"x{k}") * Poly.var(tmp_vars, "q", d)
        quantum.rows[j][i] = quantum.rows[j][i] + term
    m = classical + quantum

    gram = gram_matrix(basis, tmp_vars)
    residual = m.transpose() * gram - gram * m

    # each residual entry is affine in the unknowns; collect one linear
    # relation per entry per q-power
    rows: List[List[Fraction]] = []
    for r in residual.rows:
        for p in r:
            for qp in range(p.degree_in("q") + 1):
                cq = p.coeff_of("q", qp)
                if cq.is_zero():
                    continue
                row = [Fraction(0)] * nun
                const = Fraction(0)
                for ex, c in cq.terms.items():
                    active = [k for k in range(nun) if ex[k]]
                    if not active:
                        const += c
                    elif len(active) == 1 and ex[active[0]] == 1:
                        row[active[0]] += c
                    else:
                        raise RuntimeError("self-adjointness produced a nonlinear relation")
                if const != 0:
                    raise RuntimeError(
                        "classical part is not self-adjoint (pairing or degree bug)")
                if any(row):
                    rows.append(row)

    pivots = rref(rows, nun)
    free = [k for k in range(nun) if k not in pivots]

    # nullspace basis vector per free unknown, primitive integers
    vectors: List[List[Fraction]] = []
    for f in free:
        vec = [Fraction(0)] * nun
        vec[f] = Fraction(1)
        for row, pcol in zip(rows, sorted(pivots)):
            vec[pcol] = -row[f]
        content = rational_content(vec)
        vec = [c / content for c in vec]
        lead = next(c for c in vec if c)
        if lead < 0:
            vec = [-c for c in vec]
        vectors.append(vec)

    # canonical parameter names from the first row-major slot each vector hits
    named: List[Tuple[Tuple[int, int], str, List[Fraction]]] = []
    for vec in vectors:
        k0 = next(k for k in range(nun) if vec[k])
        j, i, _ = slots[k0]
        named.append(((j, i), f"p_{j}_{i}", vec))
    named.sort(key=lambda item: item[0])
    params = tuple(name for _, name, _ in named)
    if len(set(params)) != len(params):
        raise RuntimeError("parameter naming collision between reduction vectors")

    final_vars = params + ("q",)
    out = classical_matrix(basis, ring, final_vars)
    positions: Dict[str, List[Tuple[int, int, Fraction, int]]] = {p: [] for p in params}
    for (_, name, vec) in named:
        pvar = Poly.var(final_vars, name)
        for k, c in enumerate(vec):
            if c == 0:
                continue
            j, i, d = slots[k]
            out.rows[j][i] = out.rows[j][i] + pvar * Poly.var(final_vars, "q", d) * c
            positions[name].append((j, i, c, d))
    return AnsatzMatrix(
        block=block, matrix=out, params=params,
        positions={p: tuple(v) for p, v in positions.items()},
        classical=classical_matrix(basis, ring))


def apply_param_names(am: AnsatzMatrix,
                      mapping: Tuple[Tuple[str, Tuple[int, int]], ...]) -> AnsatzMatrix:
    """Rename canonical parameters to conventional names by first position."""
    by_first = {am.first_position(p): p for p in am.params}
    if len(mapping) != len(am.params):
        raise ValueError(
            f"instance names {len(mapping)} parameters, ansatz has {len(am.params)}")
    rename: Dict[str, str] = {}
    for name, pos in mapping:
        if pos not in by_first:
            raise ValueError(f"no ansatz parameter starts at position {pos}")
        rename[by_first[pos]] = name
    if len(set(rename.values())) != len(rename):
        raise ValueError("duplicate parameter names in mapping")
    # downstream reports follow the declared order, not the position order
    new_params = tuple(name for name, _ in mapping)
    new_vars = new_params + ("q",)
    return AnsatzMatrix(
        block=am.block,
        matrix=am.matrix.map(lambda p: p.rename_vars(new_vars, rename)),
        params=new_params,
        positions={rename[p]: v for p, v in am.positions.items()},
        classical=am.classical)


def substitute_params(am: AnsatzMatrix, values: Mapping[str, Fraction]) -> Matrix:
    """Numeric matrix in q alone; every free parameter needs a value."""
    missing = [p for p in am.params if p not in values]
    if missing:
        raise ValueError(f"missing parameter values: {missing}")
    subs = {p: Fraction(values[p]) for p in am.params}
    return am.matrix.substitute(subs).map(lambda p: p.rename_vars(("q",)))
