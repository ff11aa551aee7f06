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
from typing import Dict, List, Sequence, Tuple

from .linalg import rref
from .poly import Poly, rat_str
from .spectrum import rational_roots


class SolveError(ValueError):
    pass


@dataclass(frozen=True)
class SolveReport:
    params: Tuple[str, ...]
    equations: Tuple[Tuple[int, int, Dict[tuple, int]], ...]  # raw (q-order, den, terms)
    reduced: Tuple[Poly, ...]                    # de-linearized equations
    solutions: Tuple[Tuple[Fraction, ...], ...]  # full solution set, param order
    accepted: Tuple[Tuple[Fraction, ...], ...]
    rejected: Tuple[Tuple[Tuple[Fraction, ...], str], ...]


def _classify(e: Poly) -> Tuple[List[int], int]:
    present = sorted({i for ex in e.terms for i, k in enumerate(ex) if k})
    return present, e.total_degree()


def solve_parameters(equations: Sequence[Tuple[int, int, Dict[tuple, int]]],
                     params: Sequence[str],
                     enumerative: Sequence[str]) -> SolveReport:
    """Every solution of the equations (q-order, den, terms) of match_equations,
    each sum terms[ex] / den * params^ex = 0."""
    params = tuple(params)
    if not equations:
        raise SolveError("underdetermined: empty equation list")
    for name in enumerative:
        if name not in params:
            raise SolveError(f"enumerative parameter {name!r} is not an unknown")

    for order, _, terms in equations:
        degree = max(map(sum, terms), default=0)
        if degree > 2:
            raise SolveError(f"equation at q^{order} has degree {degree} > 2")

    # linearize over the occurring monomials, constants aside; each row is
    # its equation's integer primitive part, the numerators over their gcd
    canon = [{ex: v // g for ex, v in terms.items()}
             for _, _, terms in equations for g in [math.gcd(*terms.values())]]
    zero_ex = (0,) * len(params)
    monos = sorted({ex for e in canon for ex in e if ex != zero_ex},
                   key=lambda ex: (-sum(ex), tuple(-x for x in ex)))
    cols = monos + [zero_ex]
    rows = [[e.get(ex, 0) for ex in cols] for e in canon]

    # Gauss-Jordan only on the rows found independent so far. Any other row r
    # lies in their span iff d r[j] = sum_c r[p_c] (d R_c)[j] on every
    # non-pivot column j, with R the reduced rows, p_c their pivots and d
    # their common denominator; the right-hand side must follow.
    basis: List[List[Fraction]] = []
    pivots: List[int] = []
    scaled: List[List[int]] = []
    d, free = 1, list(range(len(cols)))
    for row in rows:
        excess = [d * row[j] - sum(row[p] * s[j] for p, s in zip(pivots, scaled))
                  for j in free]
        if not any(excess[:-1]):
            if excess[-1]:
                raise SolveError("inconsistent linearized system")
            continue
        basis.append([Fraction(x) for x in row])
        pivots = rref(basis, len(monos))
        d = math.lcm(*(x.denominator for r in basis for x in r))
        scaled = [[(x * d).numerator for x in r] for r in basis]
        free = [j for j in range(len(cols)) if j not in pivots]

    # de-linearize the reduced rows back into polynomial equations
    reduced = [Poly(params, dict(zip(cols, r))) for r in basis]

    solutions = _back_substitute(reduced, params)

    # every candidate must satisfy every raw equation exactly: over one
    # denominator of its monomial values, equation i vanishes iff rows[i]
    # dotted with the scaled values does
    for sol in solutions:
        vals = [math.prod(x ** k for x, k in zip(sol, ex)) for ex in cols]
        den = math.lcm(*(Fraction(v).denominator for v in vals))
        ints = [(v * den).numerator for v in vals]
        for (order, _, _), row in zip(equations, rows):
            if sum(a * b for a, b in zip(row, ints)):
                raise SolveError(f"candidate {dict(zip(params, sol))} fails the "
                                 f"q^{order} equation (internal error)")

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
        params=params,
        equations=tuple(equations),
        reduced=tuple(reduced),
        solutions=tuple(solutions),
        accepted=tuple(accepted),
        rejected=tuple(rejected))


def _back_substitute(reduced: List[Poly], params: Tuple[str, ...]):
    nvars = len(params)
    zero_ex = (0,) * nvars
    # state: rewrite rules (var, value) in the order taken, remaining equations
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
            c = e.terms[unit]
            choices = [Poly(params, {ex: -v / c for ex, v in e.terms.items() if ex != unit})]
        else:
            roots = rational_roots([e.terms.get(tuple(k * u for u in unit), Fraction(0))
                                    for k in range(3)])
            if len(roots) < 2:
                raise SolveError(f"unsolved: irrational roots of {e.render()} = 0")
            choices = [Poly.const(params, r) for r in sorted(set(roots))]
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
            values[params[var]] = rule.substitute(values).constant_value()
        solutions.add(tuple(values[p] for p in params))
    return sorted(solutions)
