"""Staged pipeline: instance file in, certificate out.

Stages run in a fixed order (period, ansatz, eliminate, solve, spectrum,
atoms, verdict). Every named check lands in the certificate with a
pass/fail flag; a stage that throws marks itself failed and everything
downstream "not run". The verdict is IRRATIONAL_CERTIFIED only when all
stages ran and every check passed; the engine never claims rationality,
so everything else is INCONCLUSIVE.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from . import __version__
from .ansatz import admissible_powers, build_ansatz, self_adjoint, substitute_params
from .atoms import AtomError, assemble_zero_atoms, exclusion_search, transcendental_invariants
from .certificate import (chi_json, equations_json, matrix_json, operator_json, rat_str, rats_json,
                          rendered)
from .cohomology import AmbientRing
from .instance import InstanceSpec
from .periods import get_source, period_coefficients, regularized_coefficients
from .qde import (apply, apply_symbolic, cofactor_identity_holds, cyclic_rows, eliminate,
                  match_equations, transform_even_operator)
from .solve import SolveError, solve_parameters
from .spectrum import TemplateError, block_spectrum, reciprocity_check

STAGES = ("period", "ansatz", "eliminate", "solve", "spectrum", "atoms", "verdict")

# certificate section fed by each stage
_SECTION_OF = {"eliminate": "operator"}

EXCLUSION_CENTRES = 4
EXCLUSION_GENUS = 4

# least truncation order whose matching system saturates (order 10 leaves it unsolved)
SATURATION_ORDER = 11


class StageFailure(RuntimeError):
    """Raised inside a stage to abort it after recording a failed check."""


class PipelineRun:
    __slots__ = ("instance", "order", "checks", "stages", "sections", "notes", "verdict")

    def __init__(self, instance: InstanceSpec, order: int):
        self.instance, self.order = instance, order
        self.checks: list[dict[str, object]] = []
        self.stages: list[dict[str, str]] = []
        self.sections: dict[str, dict[str, object]] = {}
        self.notes: list[str] = []
        self.verdict = "INCONCLUSIVE"

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "passed": bool(passed), "detail": detail})

    def require(self, name: str, passed: bool, detail: str, reason: str) -> None:
        """Record a check and abort the stage with reason when it fails."""
        self.check(name, passed, detail)
        if not passed:
            raise StageFailure(reason)


def run_pipeline(instance: InstanceSpec, through: str = "verdict",
                 order: int | None = None) -> PipelineRun:
    if through not in STAGES:
        raise ValueError(f"unknown stage {through!r}; stages are {', '.join(STAGES)}")
    run = PipelineRun(instance, instance.order if order is None else order)
    limit = STAGES.index(through)
    state: dict[str, object] = {}
    failed_at: str | None = None
    for idx, stage in enumerate(STAGES):
        status = "not run"
        reason = (f"run limited through {through}" if idx > limit else
                  f"upstream failure in {failed_at}" if failed_at is not None else None)
        if reason is None:
            try:
                _STAGE_RUNNERS[stage](run, state)
                run.stages.append({"name": stage, "status": "ok"})
                continue
            except StageFailure as e:
                status, reason, failed_at = "failed", str(e), stage
        run.stages.append({"name": stage, "status": status, "reason": reason})
        run.sections.setdefault(_SECTION_OF.get(stage, stage), {"status": status, "reason": reason})
    if through != "verdict":
        run.notes.append(f"partial run through {through}; the verdict reflects only "
                         f"the executed stages")
    return run


# -- stages --------------------------------------------------------------------

def _stage_period(run: PipelineRun, state: dict[str, object]) -> None:
    inst = run.instance
    order = run.order
    try:
        src = get_source(inst.period_source)
    except KeyError as e:
        run.require("period.source_known", False, str(e.args[0]),
                    f"unknown period source {inst.period_source!r}")
    run.check("period.source_known", True, f"{src.name}: {src.description}")
    try:
        if src.regularized is None:
            raise ValueError(f"period source {src.name!r} publishes no regularized operator")
        reg_q, content = transform_even_operator(src.regularized)
    except ValueError as e:
        run.require("period.regularized_annihilation", False, str(e), str(e))

    try:  # the one period series of the run
        g = period_coefficients(inst.period_source, order)
    except ValueError as e:
        run.require("period.initial_coefficient", False, str(e), str(e))
    run.check("period.initial_coefficient", g.coeff(0) == 1, "a_0 = 1")

    run.require("period.regularized_annihilation",
                apply(reg_q, regularized_coefficients(g)).is_zero(),
                f"transformed operator (content {rat_str(content)} divided) kills the "
                f"factorially rescaled series through q^{order}",
                "regularized operator does not annihilate the rescaled series")

    # the plain-series residual's first 3 nonzero terms, in one lazy pass
    resid = (f"{rat_str(Fraction(t[()], den))}*q^{m}"
             for m, (den, t) in enumerate(apply_symbolic(reg_q, g)) if t)
    first = list(islice(resid, 3))
    if first:
        run.notes.append("the transformed regularized operator annihilates the "
                         "factorially rescaled series, not the plain period series; "
                         "residual on the plain series starts " + " + ".join(first))

    state.update(period=g, reg_q=reg_q)
    run.sections["period"] = {
        "status": "ok",
        "source": src.name,
        "description": src.description,
        "order": order,
        "coefficients": rats_json(g.coeffs),
        "regularized_operator_t": operator_json(src.regularized),
        "transformed_operator_q": operator_json(reg_q),
        "transform_content": rat_str(content),
    }


def _stage_ansatz(run: PipelineRun, state: dict[str, object]) -> None:
    inst = run.instance
    ring = AmbientRing(nilpotency=inst.nilpotency)
    basis = ring.eigenbasis()

    sym_degrees, anti_degrees = basis.degrees("symmetric"), basis.degrees("antisymmetric")
    try:  # the symmetric block first: a mapping that cannot fit fails before either matrix
        sym = build_ansatz(basis.symmetric, ring, sym_degrees, inst.param_names)
        anti = build_ansatz(basis.antisymmetric, ring, anti_degrees, None)
    except RuntimeError as e:
        run.require("ansatz.construction", False, str(e), f"ansatz construction failed: {e}")
    except ValueError as e:
        run.require("ansatz.param_mapping", False, str(e), "parameter name mapping failed")
    mapping = ", ".join(f"{n}@{pos}" for n, pos in inst.param_names)
    variables = sym.matrix.vars  # each declared entry has a term linear in its name
    run.check("ansatz.param_mapping", all(n in variables and any(
        ex[variables.index(n)] == 1 and sum(ex[:-1]) == 1 for ex in sym.matrix.rows[r][c].terms)
        for n, (r, c) in inst.param_names), mapping)

    ok = all(self_adjoint(am) for am in (sym, anti))
    run.require("ansatz.self_adjointness", ok,
                "M^T G = G M identically in the parameters, both blocks",
                "ansatz is not self-adjoint")

    support_ok = True
    for am, degrees in ((sym, sym_degrees), (anti, anti_degrees)):
        n = len(degrees)
        for j in range(n):
            for i in range(n):
                allowed = set(admissible_powers(j, i, degrees))
                got = {ex[-1] for ex in am.matrix.rows[j][i].terms}  # q is the last variable
                if not got <= allowed or not {d for d in allowed if d >= 1} <= got:
                    support_ok = False
    run.check("ansatz.support", support_ok,
              "entries live exactly on the admissible q-powers")

    classical_ok = all(  # the q^0 part of each entry, parameter terms too, is its cup entry
        {ex: v for ex, v in p.terms.items() if not ex[-1]} == ({zero: c} if c else {})
        for am in (sym, anti) for zero in [(0,) * len(am.matrix.vars)]
        for row, cup_row in zip(am.matrix.rows, am.classical) for p, c in zip(row, cup_row))
    run.check("ansatz.classical_limit", classical_ok,
              "q = 0 recovers the cup product matrix")

    nval = -inst.n_invariant / 2
    run.require("ansatz.antisymmetric_reduction", len(anti.params) == 1,
                f"one free parameter {anti.params[0] if anti.params else '?'}; "
                f"set to -N/2 = {rat_str(nval)} from instance data",
                "antisymmetric reduction did not leave one parameter")
    mminus = substitute_params(anti, {anti.params[0]: nval})

    state.update(basis=basis, sym=sym, mminus=mminus)
    sym_json, anti_json = matrix_json(sym.matrix), matrix_json(mminus)
    run.sections["ansatz"] = {
        "status": "ok",
        "symmetric_parameters": list(sym.params),
        "canonical_parameters": list(sym.canonical),
        "parameter_positions": {
            p: [[r, c, rat_str(m), d] for (r, c, m, d) in sym.positions[p]]
            for p in sym.params},
        "symmetric_matrix": sym_json,
        "symmetric_display": [rendered(r, x) for r, x in zip(sym.matrix.rows, sym_json)],
        "antisymmetric_parameter": anti.params[0],
        "antisymmetric_value": rat_str(nval),
        "antisymmetric_matrix": anti_json,
        "antisymmetric_display": [rendered(r, x) for r, x in zip(mminus.rows, anti_json)],
        "annotation": f"the antisymmetric parameter is -N/2 with N = "
                      f"{rat_str(inst.n_invariant)} taken from the instance, "
                      f"not computed",
    }


def _stage_eliminate(run: PipelineRun, state: dict[str, object]) -> None:
    inst = run.instance
    m = state["sym"].matrix
    rows = cyclic_rows(m, inst.component, m.ncols)
    try:
        op = eliminate(rows)
    except RuntimeError as e:
        run.require("eliminate.operator_found", False, str(e), f"elimination failed: {e}")
    run.require("eliminate.cofactor_identity", cofactor_identity_holds(op, rows),
                "sum c_k r_k = 0 symbolically, parameters included",
                "cofactor identity violated")
    state["operator"] = op
    run.sections["operator"] = {
        "status": "ok",
        "component": inst.component,
        "order": op.order,
        "parametric": operator_json(op),
    }


def _stage_solve(run: PipelineRun, state: dict[str, object]) -> None:
    inst = run.instance
    order = run.order
    op = state["operator"]
    g = state["period"]

    run.require("solve.saturation", order >= SATURATION_ORDER,
                f"truncation order {order} supports matching depth {order - 6}",
                f"truncation order {order} < {SATURATION_ORDER} cannot saturate the system")

    params = inst.parameter_order()
    eqs = match_equations(op, g, order - 6, params)
    try:
        report = solve_parameters(eqs, params, inst.enumerative)
    except SolveError as e:
        run.require("solve.consistent", False, str(e), f"solve failed: {e}")
    run.check("solve.consistent", True,
              f"{len(eqs)} matched equations reduce to "
              f"{len(report.reduced)} independent ones")
    points = {sol: "(" + ", ".join(f"{n}={rat_str(x)}" for n, x in zip(params, sol)) + ")"
              for sol in report.solutions}
    failed = "; ".join(f"{points[sol]} fails the q^{m} equation" for sol, m in report.unverified)
    run.require("solve.verified", not failed,
                failed or f"all {len(report.solutions)} solutions satisfy every matched equation",
                "a solution fails a matched equation (internal error)")

    detail = "; ".join(points[sol] for sol in report.accepted) or "none accepted"
    run.require("solve.enumerative_unique", len(report.accepted) == 1, detail,
                "enumerativity filter did not leave a unique solution")

    values = dict(zip(params, report.accepted[0]))
    numeric = op.substitute(values)
    run.require("solve.annihilation", apply(numeric, g).is_zero(),
                f"solved operator annihilates the period through q^{order}",
                "solved operator does not annihilate the period")

    state["mplus"] = substitute_params(state["sym"], values)
    run.sections["solve"] = {
        "status": "ok",
        "equations": equations_json(params, eqs),
        "reduced_system": [e.render() for e in report.reduced],
        "solutions": [{n: rat_str(x) for n, x in zip(params, sol)}
                      for sol in report.solutions],
        "accepted": [{n: rat_str(x) for n, x in zip(params, sol)}
                     for sol in report.accepted],
        "rejected": [{"solution": {n: rat_str(x) for n, x in zip(params, sol)},
                      "reason": why} for sol, why in report.rejected],
        "solved_operator": operator_json(numeric),
        "solved_matrix": matrix_json(state["mplus"]),
    }


def _stage_spectrum(run: PipelineRun, state: dict[str, object]) -> None:
    mplus, mminus = state["mplus"], state["mminus"]
    basis = state["basis"]

    blocks = {}
    for name, m, key in (("symmetric", mplus, "plus"),
                         ("antisymmetric", mminus, "minus")):
        try:
            blocks[key] = block_spectrum(m, name)
        except TemplateError as e:
            run.require(f"spectrum.template_{key}", False, str(e),
                        f"spectrum template failed: {e}")
        run.check(f"spectrum.template_{key}", True, blocks[key].factored_render())

    plus, minus = blocks["plus"], blocks["minus"]
    run.require("spectrum.block_dims",
                plus.dim == len(basis.symmetric) and minus.dim == len(basis.antisymmetric),
                f"dims {plus.dim}+{minus.dim}, zero multiplicities "
                f"{plus.zero_multiplicity} and {minus.zero_multiplicity}",
                "characteristic polynomial degree mismatch")

    try:
        rec = reciprocity_check(state["reg_q"], plus)
    except TemplateError as e:
        run.require("spectrum.reciprocity", False, str(e), f"reciprocity check failed: {e}")
    run.require("spectrum.reciprocity", rec.passed,
                f"singular squares {{{', '.join(rat_str(x) for x in rec.singular_squares)}}} "
                f"vs eigenvalue squares {{{', '.join(rat_str(x) for x in rec.eigen_squares)}}}",
                "singular squares are not the reciprocal eigenvalue squares")

    state["spectrum"] = blocks
    run.sections["spectrum"] = {
        "status": "ok",
        "symmetric": _block_json(plus),
        "antisymmetric": _block_json(minus),
        "reciprocity": {
            "singular_squares": [rat_str(x) for x in rec.singular_squares],
            "eigen_squares": [rat_str(x) for x in rec.eigen_squares],
            "passed": rec.passed,
        },
    }


def _block_json(b) -> dict[str, object]:
    return {
        "chi": chi_json(b.chi),
        "factored": b.factored_render(),
        "dim": b.dim,
        "zero_multiplicity": b.zero_multiplicity,
        "eigenvalue_squares": [rat_str(c) for c in b.square_factors],
    }


def _stage_atoms(run: PipelineRun, state: dict[str, object]) -> None:
    inst = run.instance
    plus, minus = state["spectrum"]["plus"], state["spectrum"]["minus"]

    simple_ok = inst.simple or inst.dim_t == 0
    run.require("atoms.transcendental_simple", simple_ok,
                "simplicity pins rho(T) = 0" if simple_ok
                else "T not flagged simple; rho(T) unknown",
                "transcendental part not known simple")

    zero_plus = plus.zero_multiplicity
    if inst.a0plus_override is not None:
        zero_plus = inst.a0plus_override
        run.notes.append(f"dim E_0^+ overridden to {zero_plus} by the instance file "
                         f"(computed value {plus.zero_multiplicity})")
    zero_minus = minus.zero_multiplicity

    try:
        trans = transcendental_invariants(inst)
        cases = assemble_zero_atoms(trans, zero_plus, zero_minus)
    except AtomError as e:
        run.require("atoms.invariants_valid", False, str(e), f"atom assembly failed: {e}")
    run.check("atoms.invariants_valid", True,
              "rho within the (p,p) dimension and non-negative Hodge multiplicities")

    case_json = {}
    targets = []
    for case, check_name in ((cases[0], "atoms.case_T_plus_obstructed"),
                             (cases[1], "atoms.case_T_minus_obstructed")):
        ob = case.obstructed()
        detail_parts = []
        for atom in case.atoms():
            detail_parts.append(
                f"{atom.label}: t^2 coeff {atom.t2_coefficient()}, rho {atom.rho}")
        run.check(check_name, ob is not None,
                  ("obstructed by " + ob.label + "; " if ob else "no obstructed atom; ")
                  + "; ".join(detail_parts))
        if ob is not None:
            targets.append(ob)
        case_json[case.name] = {
            "E_0^+": {"rho": case.plus.rho, "hodge": case.plus.hodge.render()},
            "E_0^-": {"rho": case.minus.rho, "hodge": case.minus.hodge.render()},
            "obstructed_by": ob.label if ob else None,
        }

    if targets:
        hits = {t.label: exclusion_search(t, EXCLUSION_CENTRES, EXCLUSION_GENUS)
                for t in targets}
        empty = all(not h for h in hits.values())
        run.check("atoms.exclusion_empty", empty,
                  f"no point/curve/surface multiset matches the obstructed atoms "
                  f"(bounds: {EXCLUSION_CENTRES} centres, genus {EXCLUSION_GENUS})")
    else:
        run.check("atoms.exclusion_empty", False, "no obstructed atom to exclude")

    run.sections["atoms"] = {
        "status": "ok",
        "transcendental": {"rho": trans.rho, "hodge": trans.hodge.render(),
                           "decomposition": list(inst.tdecomp)},
        "zero_dimensions": {"E_0^+": zero_plus, "E_0^-": zero_minus},
        "cases": case_json,
        "exclusion_bounds": {"max_centres": EXCLUSION_CENTRES,
                             "max_genus": EXCLUSION_GENUS},
    }


def _stage_verdict(run: PipelineRun, state: dict[str, object]) -> None:
    # this stage runs only after every earlier one ran ok, and the atoms stage
    # records each placement's obstruction as a check: the checks decide alone
    passed = all(c["passed"] for c in run.checks)
    run.verdict = "IRRATIONAL_CERTIFIED" if passed else "INCONCLUSIVE"


_STAGE_RUNNERS = {
    "period": _stage_period,
    "ansatz": _stage_ansatz,
    "eliminate": _stage_eliminate,
    "solve": _stage_solve,
    "spectrum": _stage_spectrum,
    "atoms": _stage_atoms,
    "verdict": _stage_verdict,
}


# -- certificate assembly -------------------------------------------------------

def build_certificate(run: PipelineRun) -> dict[str, object]:
    inst = run.instance
    cert: dict[str, object] = {
        "engine_version": __version__,
        "verdict": run.verdict,
        "checks": run.checks,
        "stages": run.stages,
        "instance": {
            "name": inst.name,
            "sha256": inst.source_sha256,
            "order": run.order,
            "component": inst.component,
            "period_source": inst.period_source,
            "parameters": list(inst.parameter_order()),
            "enumerative": list(inst.enumerative),
            "N": rat_str(inst.n_invariant),
            "hodge": {"h31": inst.h31, "middle": inst.middle, "dimT": inst.dim_t,
                      "tdecomp": list(inst.tdecomp), "simple": inst.simple},
            "metadata": inst.metadata,
        },
        "notes": run.notes,
    }
    for section in ("period", "ansatz", "operator", "solve", "spectrum", "atoms"):
        cert[section] = run.sections[section]
    return cert


def exit_code(run: PipelineRun) -> int:
    return 0 if run.verdict == "IRRATIONAL_CERTIFIED" else 2
