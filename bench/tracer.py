"""Run-time span tracer for the hodgeatoms layers.

The tracer wraps public functions of the engine without editing its source.
Each wrapped name is patched in every ``hodgeatoms`` module that binds it, so
calls are caught where the caller looks the name up (``pipeline.eliminate``,
``qde.left_nullspace``, ``poly.poly_gcd``'s own recursion, ...). Stage spans
come from wrapping the entries of ``pipeline._STAGE_RUNNERS``.

A span is ``[name, start, end, parent, case]``; spans stay in memory and are
written once, when the run ends. Size counts are taken from the arguments and
return values of a few functions (see ``_OBSERVERS``).
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from typing import Callable, Dict, List, Sequence

# Functions reported as <module>.<function>.calls and .self_s.
TRACED_FUNCTIONS = (
    "instance.parse_instance_text",
    "periods.period_coefficients", "periods.regularized_coefficients",
    "cohomology.gram_matrix",
    "ansatz.build_ansatz", "ansatz.substitute_params",
    "qde.transform_even_operator", "qde.apply", "qde.eliminate", "qde.cyclic_rows",
    "qde.cofactor_identity_holds", "qde.match_equations", "qde.apply_symbolic",
    "linalg.left_nullspace", "linalg.char_poly", "linalg.det",
    "poly.poly_gcd", "poly.exact_div",
    "solve.solve_parameters",
    "spectrum.factor_template", "spectrum.reciprocity_check",
    "atoms.assemble_zero_atoms", "atoms.exclusion_search",
    "certificate.dump_json",
    "pipeline.run_pipeline", "pipeline.build_certificate",
    "cli.main",
)

STAGES = ("period", "ansatz", "eliminate", "solve", "spectrum", "atoms", "verdict")

# Size counts: name -> (unit, per). They are summed over the traced cases and
# divided by the number of cases ("case") or of calls to the named function;
# with per None, the largest value seen is reported.
SIZE_METRICS = {
    "periods.terms": ("terms/case", "case"),
    "qde.kernel_max_terms": ("terms", None),
    "qde.kernel_max_degree": ("degree", None),
    "qde.kernel_max_coeff_bits": ("bits", None),
    "qde.operator_terms": ("terms", "qde.eliminate"),
    "solve.equations": ("count", "solve.solve_parameters"),
    "solve.reduced": ("count", "solve.solve_parameters"),
    "solve.solutions": ("count", "solve.solve_parameters"),
    "certificate.bytes": ("bytes", "certificate.dump_json"),
}

RUN_METRICS = {
    "trace.overhead_cases_per_s": ("1/s", "higher"),
    "trace.stage_share": ("share", "higher"),
    "trace.accounted_share": ("share", "higher"),
}


def per_layer_spec() -> List[Dict[str, str]]:
    """Every per-layer metric the traced run reports, in report order."""
    out = []
    for fn in TRACED_FUNCTIONS:
        out.append({"name": f"{fn}.calls", "unit": "calls/case", "better": "lower"})
        out.append({"name": f"{fn}.self_s", "unit": "s/case", "better": "lower"})
    for stage in STAGES:
        out.append({"name": f"pipeline.{stage}.self_s", "unit": "s/case", "better": "lower"})
        out.append({"name": f"pipeline.{stage}.total_s", "unit": "s/case", "better": "lower"})
    for name, (unit, _) in SIZE_METRICS.items():
        out.append({"name": name, "unit": unit, "better": "lower"})
    for name, (unit, better) in RUN_METRICS.items():
        out.append({"name": name, "unit": unit, "better": better})
    return out


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Duration of each span minus the time covered by its direct children.

    Spans nest strictly (one thread), so the children's intervals are
    disjoint and lie inside the parent's.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _kernel_sizes(kernel) -> tuple:
    terms = degree = bits = 0
    for vec in kernel:
        for p in vec:
            terms = max(terms, len(p.terms))
            degree = max(degree, p.total_degree())
            for c in p.terms.values():
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return terms, degree, bits


def _observe_periods(t, args, result):
    t.add("periods.terms", len(result.coeffs))


def _observe_kernel(t, args, result):
    terms, degree, bits = _kernel_sizes(result)
    t.peak("qde.kernel_max_terms", terms)
    t.peak("qde.kernel_max_degree", degree)
    t.peak("qde.kernel_max_coeff_bits", bits)


def _observe_operator(t, args, result):
    t.add("qde.operator_terms", sum(len(c.terms) for c in result.coeffs))


def _observe_solve(t, args, result):
    t.add("solve.equations", len(args[0]))
    t.add("solve.reduced", len(result.reduced))
    t.add("solve.solutions", len(result.solutions))


def _observe_dump(t, args, result):
    t.add("certificate.bytes", len(result.encode("utf-8")))


_OBSERVERS: Dict[str, Callable] = {
    "periods.period_coefficients": _observe_periods,
    "linalg.left_nullspace": _observe_kernel,
    "qde.eliminate": _observe_operator,
    "solve.solve_parameters": _observe_solve,
    "certificate.dump_json": _observe_dump,
}


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.spans: List[list] = []
        self.sizes: Dict[str, float] = {name: 0 for name in SIZE_METRICS}
        self._stack: List[int] = []
        self.case = -1

    def add(self, name: str, value: float) -> None:
        self.sizes[name] += value

    def peak(self, name: str, value: float) -> None:
        self.sizes[name] = max(self.sizes[name], value)

    def wrap(self, fn: Callable, label: str) -> Callable:
        name_id = len(self.names)
        self.names.append(label)
        observe = _OBSERVERS.get(label)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name_id, clock(), 0.0, stack[-1] if stack else -1, self.case])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function and stage runner of the imported engine."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and k.startswith("hodgeatoms.")]
        for label in TRACED_FUNCTIONS:
            mod_name, fn_name = label.split(".")
            orig = getattr(sys.modules[f"hodgeatoms.{mod_name}"], fn_name)
            wrapped = self.wrap(orig, label)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        runners = sys.modules["hodgeatoms.pipeline"]._STAGE_RUNNERS
        for stage in STAGES:
            runners[stage] = self.wrap(runners[stage], f"pipeline.{stage}")

    def begin_case(self, case: int) -> int:
        self.case = case
        self._stack.clear()
        return len(self.spans)

    def end_case(self, first_span: int) -> None:
        """Close, with zero length, a span whose function never ran: a timeout
        alarm can land between the span's creation and its try block."""
        for span in self.spans[first_span:]:
            if span[2] == 0.0:
                span[2] = span[1]
        self._stack.clear()

    def report(self, case_seconds: Sequence[float]) -> Dict[str, float]:
        """Per-layer metrics over the traced cases, whose wall times are given."""
        cases = max(len(case_seconds), 1)
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        total = [0.0] * len(self.names)
        for span, self_s in zip(self.spans, self_times(self.spans)):
            calls[span[0]] += 1
            own[span[0]] += self_s
            total[span[0]] += span[2] - span[1]
        by_name = {n: i for i, n in enumerate(self.names)}
        out: Dict[str, float] = {}
        for fn in TRACED_FUNCTIONS:
            out[f"{fn}.calls"] = calls[by_name[fn]] / cases
            out[f"{fn}.self_s"] = own[by_name[fn]] / cases
        for stage in STAGES:
            i = by_name[f"pipeline.{stage}"]
            out[f"pipeline.{stage}.self_s"] = own[i] / cases
            out[f"pipeline.{stage}.total_s"] = total[i] / cases
        for name, (_, per) in SIZE_METRICS.items():
            count = cases if per == "case" else calls[by_name[per]] if per else 1
            out[name] = self.sizes[name] / max(count, 1)
        wall = sum(case_seconds) or 1.0
        out["trace.stage_share"] = sum(total[by_name[f"pipeline.{s}"]] for s in STAGES) / wall
        out["trace.accounted_share"] = total[by_name["cli.main"]] / wall
        return out

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "parent", "case"]}, fh)
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
