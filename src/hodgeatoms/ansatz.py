"""Quantum multiplication ansatz from degree and self-adjointness constraints.

The entry (j, i) of the multiplication matrix can receive a q^d
contribution only when deg(b_j) = 2 + deg(b_i) - 4d. We place one fresh
unknown at every admissible position with d >= 1 on top of the classical
cup matrix C. Self-adjointness M^T G = G M for the block's pairing matrix
G is linear in the unknowns, so it is written down directly on scalars:
the unknown at (j, i, d) adds [r = i] G[j][c] - G[r][j] [c = i] to the
relation of entry (r, c) at q^d (its q^0 part, C^T G = G C, the pipeline
checks with the rest). Exact elimination reduces the unknowns. The cup
matrix is computed once per block and serves both the parametric matrix
and its classical limit; the Gram matrix is carried for that check.
Surviving parameters are named canonically by the first matrix position
they occupy; instance files attach conventional names by those positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Tuple

from .cohomology import AmbientRing, coordinates, gram_matrix
from .linalg import Matrix, rref
from .poly import Poly, rational_content

# degree of the Novikov variable q, and of the multiplier H
NOVIKOV_DEGREE = 4
MULTIPLIER_DEGREE = 2


def admissible_powers(j: int, i: int, degrees: Tuple[int, ...]) -> Tuple[int, ...]:
    """All d >= 0 with deg(b_j) = multiplier + deg(b_i) - novikov*d."""
    d, r = divmod(degrees[i] + MULTIPLIER_DEGREE - degrees[j], NOVIKOV_DEGREE)
    return (d,) if d >= 0 and not r else ()


def classical_matrix(basis, ring: AmbientRing) -> List[List[Fraction]]:
    """Cup multiplication by H in the given block basis, column convention:
    entry [j][i] is the b_j coordinate of H b_i."""
    try:
        cols = coordinates([ring.cup(ring.H, b) for b in basis], basis)
    except ValueError as e:
        raise RuntimeError(f"H-multiple leaves the block span: {e}") from e
    return [list(row) for row in zip(*cols)]


@dataclass(frozen=True)
class AnsatzMatrix:
    matrix: Matrix
    params: Tuple[str, ...]
    # parameter -> positions it occupies, as (row, col, multiplier, q-power)
    positions: Dict[str, Tuple[Tuple[int, int, Fraction, int], ...]]
    classical: Matrix
    gram: Matrix  # the block's pairing matrix, over ("q",)


def build_ansatz(basis, ring: AmbientRing, degrees: Tuple[int, ...]) -> AnsatzMatrix:
    n = len(basis)
    slots = [(j, i, d) for j in range(n) for i in range(n)  # (row, col, power), row-major
             for d in admissible_powers(j, i, degrees) if d >= 1]
    nun = len(slots)
    cup = classical_matrix(basis, ring)
    classical, gram_q = Matrix.from_scalars(("q",), cup), gram_matrix(ring, basis)
    gram = [[p.constant_value() for p in row] for row in gram_q.rows]

    # M^T G - G M, one linear relation per entry (r, c) per q-power d
    relations: Dict[Tuple[int, int, int], List[Fraction]] = {}
    for k, (j, i, d) in enumerate(slots):
        for c in range(n):
            relations.setdefault((i, c, d), [Fraction(0)] * nun)[k] += gram[j][c]
        for r in range(n):
            relations.setdefault((r, i, d), [Fraction(0)] * nun)[k] -= gram[r][j]
    rows = [row for row in relations.values() if any(row)]
    pivots = rref(rows, nun)

    # nullspace basis vector per free unknown, primitive integers, named
    # canonically by the first row-major slot it hits
    named: List[Tuple[Tuple[int, int], str, List[Fraction]]] = []
    for f in (k for k in range(nun) if k not in pivots):
        vec = [Fraction(0)] * nun
        vec[f] = Fraction(1)
        for row, pcol in zip(rows, pivots):
            vec[pcol] = -row[f]
        content = rational_content(vec)
        vec = [c / content for c in vec]
        if next(c for c in vec if c) < 0:
            vec = [-c for c in vec]
        j, i, _ = slots[next(k for k, c in enumerate(vec) if c)]
        named.append(((j, i), f"p_{j}_{i}", vec))
    named.sort(key=lambda item: item[0])
    params = tuple(name for _, name, _ in named)
    if len(set(params)) != len(params):
        raise RuntimeError("parameter naming collision between reduction vectors")

    # term dicts over (params..., q): the cup entry, then each parameter's slots
    entries = [[{(0,) * (len(params) + 1): c} for c in row] for row in cup]
    positions: Dict[str, List[Tuple[int, int, Fraction, int]]] = {p: [] for p in params}
    for idx, (_, name, vec) in enumerate(named):
        for k, c in enumerate(vec):
            if c:
                j, i, d = slots[k]
                ex = [0] * (len(params) + 1)
                ex[idx], ex[-1] = 1, d
                entries[j][i][tuple(ex)] = c
                positions[name].append((j, i, c, d))
    return AnsatzMatrix(
        matrix=Matrix([[Poly(params + ("q",), t) for t in row] for row in entries]),
        params=params,
        positions={p: tuple(v) for p, v in positions.items()},
        classical=classical,
        gram=gram_q)


def apply_param_names(am: AnsatzMatrix,
                      mapping: Tuple[Tuple[str, Tuple[int, int]], ...]) -> AnsatzMatrix:
    """Rename canonical parameters to conventional names by first position."""
    by_first = {am.positions[p][0][:2]: p for p in am.params}
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
        matrix=am.matrix.map(lambda p: p.rename_vars(new_vars, rename)),
        params=new_params,
        positions={rename[p]: v for p, v in am.positions.items()},
        classical=am.classical,
        gram=am.gram)


def substitute_params(am: AnsatzMatrix, values: Mapping[str, Fraction]) -> Matrix:
    """Numeric matrix in q alone; every free parameter needs a value."""
    missing = [p for p in am.params if p not in values]
    if missing:
        raise ValueError(f"missing parameter values: {missing}")
    subs = {p: Fraction(values[p]) for p in am.params}
    return am.matrix.map(lambda p: p.substitute(subs).rename_vars(("q",)))
