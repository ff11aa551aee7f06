"""Exact solver for the matched coefficient equations.

The equations are polynomials of total degree at most 2 in the unknown
parameters. Strategy: treat every occurring monomial as an independent
linear unknown, reduce that system exactly, translate the reduced rows
back into polynomial equations, then finish by substitution, branching
only on univariate polynomials of degree at most 2 with rational roots.
Nothing is ever guessed: states the loop cannot reduce are reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Dict, List, Sequence, Tuple

from .poly import Poly, rat_str
from .spectrum import rational_roots


class SolveError(ValueError):
    pass


@dataclass(frozen=True)
class SolveReport:
    reduced: Tuple[Poly, ...]                    # de-linearized equations
    solutions: Tuple[Tuple[Fraction, ...], ...]  # full solution set, param order
    accepted: Tuple[Tuple[Fraction, ...], ...]
    rejected: Tuple[Tuple[Tuple[Fraction, ...], str], ...]
    unverified: Tuple[Tuple[Tuple[Fraction, ...], int], ...]  # and the q^m they fail first


def _classify(e: Poly) -> Tuple[List[int], int]:
    present = sorted({i for ex in e.terms for i, k in enumerate(ex) if k})
    return present, e.total_degree()


def solve_parameters(equations: Sequence[Tuple[int, int, Dict[tuple, int], Dict[tuple, int]]],
                     params: Sequence[str],
                     enumerative: Sequence[str]) -> SolveReport:
    """Every solution of the equations (q-order, den, terms, gcds) of
    match_equations, each sum terms[ex] / den * params^ex = 0."""
    params = tuple(params)
    if not equations:
        raise SolveError("underdetermined: empty equation list")
    for name in enumerative:
        if name not in params:
            raise SolveError(f"enumerative parameter {name!r} is not an unknown")

    for order, _, terms, _ in equations:
        degree = max(map(sum, terms), default=0)
        if degree > 2:
            raise SolveError(f"equation at q^{order} has degree {degree} > 2")

    # linearize over the occurring monomials, constants aside; each row is
    # its equation's numerators, since the span test and the candidate check
    # below do not change when a row is scaled
    zero_ex = (0,) * len(params)
    monos = sorted({ex for _, _, terms, _ in equations for ex in terms if ex != zero_ex},
                   key=lambda ex: (-sum(ex), tuple(-x for x in ex)))
    cols = monos + [zero_ex]
    rows = [[terms.get(ex, 0) for ex in cols] for _, _, terms, _ in equations]

    # Gauss-Jordan over Z on the rows found independent so far, kept as
    # basis = d R (R their reduced echelon form, p_c its pivots, |d| its least
    # common denominator). A row r reduces to e = d r - sum_c r[p_c] basis_c,
    # 0 at each pivot, whose column is None; r lies in the span iff e is zero
    # on the monomials, and then its constant must be too. Otherwise e joins at
    # its first nonzero column p: the rows e[p] basis_c - basis_c[p] e and d e
    # are (d e[p]) R', cut by their gcd.
    basis: List[List[int]] = []
    pivots: List[int] = []
    d, columns = 1, [()] * len(cols)
    for row in rows:
        at = [row[p] for p in pivots]
        e = [0 if col is None else d * x - sum(map(mul, at, col)) for x, col in zip(row, columns)]
        p = next((j for j, x in enumerate(e[:-1]) if x), None)
        if p is None:
            if e[-1]:
                raise SolveError("inconsistent linearized system")
            continue
        basis = [[e[p] * x - b[p] * y for x, y in zip(b, e)] for b in basis] + [[d * y for y in e]]
        pivots.append(p)
        g = math.gcd(*(x for b in basis for x in b))
        basis, d = [[x // g for x in b] for b in basis], d * e[p] // g
        columns = [None if j in pivots else col for j, col in enumerate(zip(*basis))]

    # de-linearize the reduced rows, in pivot order, back into polynomial equations
    reduced = [Poly(params, {ex: Fraction(x, d) for ex, x in zip(cols, b)})
               for _, b in sorted(zip(pivots, basis))]

    solutions = _back_substitute(reduced, params)

    # every candidate must satisfy every raw equation exactly: with D the lcm of
    # its denominators and a_i = x_i D, row i vanishes on it iff it does on the
    # integers prod a_i^e_i D^(top - deg), each monomial's value times D^top
    top = max(map(sum, cols))
    unverified = []
    for sol in solutions:
        den = math.lcm(*(x.denominator for x in sol))
        nums = [x.numerator * (den // x.denominator) for x in sol]
        ints = [math.prod(a ** k for a, k in zip(nums, ex)) * den ** (top - sum(ex))
                for ex in cols]
        unverified += [(sol, order) for (order, *_), row in zip(equations, rows)
                       if sum(map(mul, row, ints))][:1]

    accepted, rejected = [], []
    for sol in solutions:
        values = dict(zip(params, sol))
        bad = [n for n in enumerative
               if values[n].denominator != 1 or values[n] < 0]
        if bad:
            detail = ", ".join(f"{n} = {rat_str(values[n])}" for n in bad)
            rejected.append((sol, f"not a non-negative integer: {detail}"))
        else:
            accepted.append(sol)

    return SolveReport(
        reduced=tuple(reduced),
        solutions=tuple(solutions),
        accepted=tuple(accepted),
        rejected=tuple(rejected),
        unverified=tuple(unverified))


def _back_substitute(reduced: List[Poly], params: Tuple[str, ...]):
    nvars = len(params)
    zero_ex = (0,) * nvars
    # state: rewrite rules (var, Poly or a quadratic's Fraction root) in order, equations left
    stack = [([], list(reduced))]
    terminal = []
    steps = 0
    while stack:
        steps += 1
        if steps > 10000:
            raise SolveError("unsolved: branching did not terminate")
        rules, eqs = stack.pop()
        eqs = [e for e in eqs if not e.is_zero()]
        if any(set(e.terms) == {zero_ex} for e in eqs):
            continue  # contradictory branch
        if not eqs:
            terminal.append(rules)
            continue

        # the first equation of the best kind: univariate linear, then linear
        # in several unknowns (one rewrite each), then univariate quadratic
        # (one constant rewrite per root)
        deg, multi, n, var = min((deg, len(present) > 1, n, present[0])
                                 for n, (present, deg) in enumerate(map(_classify, eqs)))
        if deg == 2 and multi:
            shown = "; ".join(e.render() for e in eqs)
            raise SolveError(f"unsolved: no degree <= 2 univariate or linear step in [{shown}]")

        e = eqs[n]
        rest = [x for x in eqs if x is not e]
        unit = tuple(1 if i == var else 0 for i in range(nvars))
        if deg == 1:
            c = Fraction(e.terms[unit])
            choices = [Poly(params, {ex: -v / c for ex, v in e.terms.items() if ex != unit})]
        else:
            roots = rational_roots([e.terms.get(tuple(k * u for u in unit), Fraction(0))
                                    for k in range(3)])
            if len(roots) < 2:
                raise SolveError(f"unsolved: irrational roots of {e.render()} = 0")
            choices = sorted(set(roots))
        for rule in choices:
            new_eqs = [x.substitute({params[var]: rule}) for x in rest]
            stack.append((rules + [(var, rule)], new_eqs))

    solutions = set()
    for rules in terminal:
        known = {var for var, _ in rules}
        if len(known) != nvars:
            missing = [params[i] for i in range(nvars) if i not in known]
            raise SolveError(f"underdetermined: no constraint fixes {missing}")
        # a rule's right side only mentions variables eliminated later, so
        # newest-first resolution always has what it needs
        values: Dict[str, Fraction] = {}
        for var, rule in reversed(rules):
            values[params[var]] = (rule.substitute(values).constant_value()
                                   if isinstance(rule, Poly) else rule)
        solutions.add(tuple(values[p] for p in params))
    return sorted(solutions)
