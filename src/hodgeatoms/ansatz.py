"""Quantum multiplication ansatz from degree and self-adjointness constraints.

The entry (j, i) of the multiplication matrix can receive a q^d
contribution only when deg(b_j) = 2 + deg(b_i) - 4d. Unknowns sit at
every admissible position with d >= 1, on top of the classical cup matrix
C, which is read off the basis: each eigenbasis class has a leading
(largest) monomial, with coefficient 1, that no other class of its block
holds. The block's pairing matrix G pairs each b_j with exactly one class
b_s(j), so the q^d part of M^T G = G M reads
G[j][s(j)] x(j, i) = G[i][s(i)] x(s(i), s(j)): each slot is tied to one
partner slot, or to itself, and each pair is one parameter with entries
(G[i][s(i)], G[j][s(j)]), primitive and positive on its first slot. The
q^0 part, C^T G = G C, `self_adjoint` checks with the rest, entry by entry;
the cup and Gram matrices are carried as rows of scalars for its checks.
The cup matrix is computed once per block and serves both the parametric
matrix and its classical limit. Parameters are named canonically by the
first matrix position they occupy; instance files attach conventional
names by those positions, checked before the matrix is built.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from .cohomology import AmbientRing, gram_matrix
from .linalg import Matrix
from .poly import Poly, Scalar, _zdot, rational_content

# degree of the Novikov variable q, and of the multiplier H
NOVIKOV_DEGREE = 4
MULTIPLIER_DEGREE = 2


def admissible_powers(j: int, i: int, degrees: Tuple[int, ...]) -> Tuple[int, ...]:
    """All d >= 0 with deg(b_j) = multiplier + deg(b_i) - novikov*d."""
    d, r = divmod(degrees[i] + MULTIPLIER_DEGREE - degrees[j], NOVIKOV_DEGREE)
    return (d,) if d >= 0 and not r else ()


def classical_matrix(basis, ring: AmbientRing) -> List[List[Scalar]]:
    """Cup multiplication by H in the given block basis, column convention:
    entry [j][i] is the b_j coordinate of H b_i, its coefficient at b_j's
    leading monomial."""
    leads = [max(b.terms) for b in basis]
    cols = []
    for b in basis:
        hb = ring.cup(ring.H, b).terms
        cols.append([hb.get(m, 0) for m in leads])
        # the classes summed back over the nonzero coordinates must give H b
        if _zdot(({(0, 0): s}, x.terms) for s, x in zip(cols[-1], basis) if s) != hb:
            raise RuntimeError("H-multiple leaves the block span")
    return [list(row) for row in zip(*cols)]


class AnsatzMatrix:
    __slots__ = ("matrix", "params", "canonical", "positions", "classical", "gram")

    def __init__(self, matrix: Matrix, params: Tuple[str, ...],
                 canonical: Tuple[str, ...],  # canonical names, row-major by first position
                 # parameter -> positions it occupies, as (row, col, multiplier, q-power)
                 positions: Dict[str, Tuple[Tuple[int, int, Fraction, int], ...]],
                 classical: List[List[Scalar]],  # the cup matrix, as rows of scalars
                 gram: List[List[Scalar]]):  # the block's pairing matrix, as rows of scalars
        self.matrix, self.params, self.canonical = matrix, params, canonical
        self.positions, self.classical, self.gram = positions, classical, gram


def build_ansatz(basis, ring: AmbientRing, degrees: Tuple[int, ...],
                 names: Optional[Tuple[Tuple[str, Tuple[int, int]], ...]]) -> AnsatzMatrix:
    """The block's parametric matrix. names gives each parameter a conventional
    name by its first position, in the declared order, or is None for the
    canonical names; it is checked against the slot pairs (ValueError) before
    any entry of the matrix is built."""
    n = len(basis)
    cup, gram = classical_matrix(basis, ring), gram_matrix(ring, basis)
    partner = []  # s(j), the one class that b_j pairs with
    for row in gram:
        nonzero = [k for k, x in enumerate(row) if x]
        if len(nonzero) != 1:
            raise RuntimeError(f"Gram row pairs with {len(nonzero)} classes, not one")
        partner += nonzero
    g = [gram[j][k] for j, k in enumerate(partner)]  # G[j][s(j)]

    # one parameter per slot pair (j, i, d) ~ (s(i), s(j), d), row-major by first slot
    pairs: List[Tuple[Tuple[int, int, Fraction, int], ...]] = []
    for j, i, d in ((j, i, d) for j in range(n) for i in range(n)
                    for d in admissible_powers(j, i, degrees) if d >= 1):
        other = (partner[i], partner[j])
        if other == (j, i):
            pairs.append(((j, i, Fraction(1), d),))
        elif other > (j, i):
            content = rational_content((g[i], g[j]))
            scale = content if g[i] > 0 else -content
            pairs.append(((j, i, g[i] / scale, d), (*other, g[j] / scale, d)))
    params = canonical = tuple(f"p_{pos[0][0]}_{pos[0][1]}" for pos in pairs)
    if names is not None:  # downstream reports follow the declared order, not the position order
        by_first = {pos[0][:2]: pos for pos in pairs}
        if len(names) != len(pairs):
            raise ValueError(f"instance names {len(names)} parameters, ansatz has {len(pairs)}")
        for _, at in names:
            if at not in by_first:
                raise ValueError(f"no ansatz parameter starts at position {at}")
        if len({name for name, _ in names}) != len(names):
            raise ValueError("duplicate parameter names in mapping")
        if len({at for _, at in names}) != len(names):
            raise ValueError("duplicate parameter positions in mapping")
        params, pairs = tuple(name for name, _ in names), [by_first[at] for _, at in names]

    # term dicts over (params..., q): the cup entry, then each parameter's slots
    zero = (0,) * (len(params) + 1)
    entries = [[{zero: c} for c in row] for row in cup]
    for idx, pos in enumerate(pairs):
        for j, i, c, d in pos:
            ex = [0] * (len(params) + 1)
            ex[idx], ex[-1] = 1, d
            entries[j][i][tuple(ex)] = c
    return AnsatzMatrix(
        matrix=Matrix([[Poly(params + ("q",), t) for t in row] for row in entries]),
        params=params,
        canonical=canonical,
        positions=dict(zip(params, pairs)),
        classical=cup,
        gram=gram)


def substitute_params(am: AnsatzMatrix, values: Mapping[str, Fraction]) -> Matrix:
    """Numeric matrix in q alone; every free parameter needs a value."""
    missing = [p for p in am.params if p not in values]
    if missing:
        raise ValueError(f"missing parameter values: {missing}")
    subs = {p: Fraction(values[p]) for p in am.params}
    return am.matrix.map(lambda p: p.substitute(subs).rename_vars(("q",)))


def self_adjoint(am: AnsatzMatrix) -> bool:
    """M^T G = G M entry by entry, each (a, b) the term sum
    Sum_k M[k][a] G[k][b] - G[a][k] M[k][b] with G a block's scalar rows."""
    m, g = am.matrix.rows, am.gram
    for a in range(len(g)):
        for b in range(len(g)):
            acc: dict = {}
            for k in range(len(g)):
                for p, x in ((m[k][a], g[k][b]), (m[k][b], -g[a][k])):
                    for ex, c in p.terms.items() if x else ():
                        acc[ex] = acc.get(ex, 0) + x * c
            if any(acc.values()):
                return False
    return True
