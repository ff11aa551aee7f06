"""Benchmark cases: generated instance files, seeded workloads, one in-process
case run under a hard timeout, and the output gate.

A case is ``(kind, component, order)``. Its instance file is generated from
the template of ``kind`` with ``component`` and ``order`` substituted, and is
written as ``<work>/<kind>/c<component>/o<order>/<kind>.instance``: the
certificate embeds the file's basename and the sha256 of its text, so both
must be the same on every run. At component 5 and order 16 each template is
byte-identical to the bundled instance of the same name.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import signal
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

TEMPLATES = {
    "verra": """\
# Very general Verra fourfold: double cover of P2 x P2 branched in a (2,2)-divisor.
# Quantum parameters: s, t, u are two-point degree-1 invariants, v has degree 2;
# positions name the first matrix slot each parameter occupies in the symmetric block.
[ring] generators=2, nilpotency=3, pairing=2/1
[involution] swap=H1:H2
[hodge] h31=1, middle=24, dimT=21, tdecomp=1,19,1, simple=true
[quantum] N=-4/1, enumerative=t,u, component=5, param_names=s@(0,1),t@(1,2),u@(1,3),v@(0,4)
[period] source=verra-eq3
[run] order=16
""",
    "broken-nonsimple": """\
# Deliberately broken fixture: the simplicity flag is cleared, so the
# transcendental Hodge class count is unknown and no verdict can be certified.
[ring] generators=2, nilpotency=3, pairing=2/1
[involution] swap=H1:H2
[hodge] h31=1, middle=24, dimT=21, tdecomp=1,19,1, simple=false
[quantum] N=-4/1, enumerative=t,u, component=5, param_names=s@(0,1),t@(1,2),u@(1,3),v@(0,4)
[period] source=verra-eq3
[run] order=16
""",
    "broken-a0plus": """\
# Deliberately broken fixture: the symmetric zero-eigenspace dimension is
# overridden to 3, so the rho < 3 obstruction clause fails in one branch.
[ring] generators=2, nilpotency=3, pairing=2/1
[involution] swap=H1:H2
[hodge] h31=1, middle=24, dimT=21, tdecomp=1,19,1, simple=true, a0plus=3
[quantum] N=-4/1, enumerative=t,u, component=5, param_names=s@(0,1),t@(1,2),u@(1,3),v@(0,4)
[period] source=verra-eq3
[run] order=16
""",
}

Case = Tuple[str, int, int]  # kind, component, order

SHALLOW_ORDERS = range(11, 25)
DEEP_CENTRE, DEEP_REACH = 200, 20
ALT_COMPONENT_4_CASES = 6
# run once, untimed, before a run's first timed case
WARMUP: Case = ("verra", 5, 16)


def instance_text(case: Case) -> str:
    kind, component, order = case
    text = TEMPLATES[kind]
    for old, new in (("component=5", f"component={component}"),
                     ("[run] order=16", f"[run] order={order}")):
        if text.count(old) != 1:
            raise ValueError(f"template {kind!r} must hold {old!r} exactly once")
        text = text.replace(old, new)
    return text


def case_key(case: Case) -> str:
    kind, component, order = case
    return f"{kind}/c{component}/o{order}"


def instance_path(work: str, case: Case) -> str:
    return os.path.join(work, case_key(case), f"{case[0]}.instance")


def case_argv(work: str, case: Case) -> List[str]:
    return ["certify", "--format", "json", "--instance", instance_path(work, case)]


# -- workloads ------------------------------------------------------------------
#
# A workload yields rounds of cases; a run takes whole rounds until its time
# is up, so every run sees the same mix. The seed picks only the inputs.

def _deck(rng: random.Random, items) -> Iterator:
    """Endless draws that take every item once, in a seeded order, before any
    item repeats, so that a run's mix hardly depends on the seed."""
    while True:
        deck = list(items)
        rng.shuffle(deck)
        yield from deck


def _shallow_rounds(rng: random.Random) -> Iterator[List[Case]]:
    # two Verra cases and one of each INCONCLUSIVE fixture (exit 2)
    kinds = ("verra", "verra", "broken-nonsimple", "broken-a0plus")
    orders = {k: _deck(rng, SHALLOW_ORDERS) for k in dict.fromkeys(kinds)}
    while True:
        out = [(k, 5, next(orders[k])) for k in kinds]
        rng.shuffle(out)
        yield out


def _deep_rounds(rng: random.Random) -> Iterator[List[Case]]:
    # a pair of orders placed symmetrically about 200, so that the run's
    # median stays near the order-200 cost whatever the seed draws
    while True:
        d = rng.randint(0, DEEP_REACH)
        out = [("verra", 5, DEEP_CENTRE - d), ("verra", 5, DEEP_CENTRE + d)]
        rng.shuffle(out)
        yield out


def _alt_rounds(rng: random.Random) -> Iterator[List[Case]]:
    # Components 0-3 run past the budget today; each round holds one of them,
    # in a seeded rotation, so overruns cost one budget per round. Component
    # 4, the alternate component that finishes, runs at several orders so the
    # latency median lies inside its cluster; component 5, the default, once.
    # The slow component ends the round, so the first round's finished cases
    # run before the first overrun and count towards peak_rss_mb.
    slow = _deck(rng, (0, 1, 2, 3))
    orders = {c: _deck(rng, SHALLOW_ORDERS) for c in range(6)}
    while True:
        finished = [5] + [4] * ALT_COMPONENT_4_CASES
        rng.shuffle(finished)
        yield [("verra", c, next(orders[c])) for c in finished + [next(slow)]]


@dataclass(frozen=True)
class Workload:
    name: str
    budget_s: float  # hard per-case timeout
    rounds: Callable[[random.Random], Iterator[List[Case]]]
    pool: Tuple[Case, ...]  # every case a seed can pick


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("verra-shallow", 10.0, _shallow_rounds,
             tuple((k, 5, o) for k in TEMPLATES for o in SHALLOW_ORDERS)),
    Workload("verra-deep", 60.0, _deep_rounds,
             tuple(("verra", 5, o) for o in range(DEEP_CENTRE - DEEP_REACH,
                                                   DEEP_CENTRE + DEEP_REACH + 1))),
    # 4 s: the peak memory of a run is set by how far component 3 swells
    # before its budget ends, and it is level from about 3 s to 4.5 s
    Workload("alt-components", 4.0, _alt_rounds,
             tuple(("verra", c, o) for c in range(6) for o in SHALLOW_ORDERS)),
)}


def write_instances(work: str, cases) -> None:
    """Write each case's instance file."""
    for case in cases:
        path = instance_path(work, case)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(instance_text(case))


# -- one case -------------------------------------------------------------------

class CaseTimeout(BaseException):
    """Raised by the alarm; a BaseException so the engine cannot swallow it."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


@dataclass
class Outcome:
    key: str
    status: str           # "done", "timeout" or "error"
    seconds: float
    exit_code: Optional[int] = None
    output: str = ""
    error: str = ""


def run_case(main: Callable, argv: List[str], key: str, budget_s: float) -> Outcome:
    """Run ``main(argv)`` in this process under a SIGALRM timeout, capturing
    its standard output and error. The process stays usable after a timeout."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 1
        status, error = "done", ""
    except CaseTimeout:
        status, code, error = "timeout", None, ""
    except Exception:
        status, code, error = "error", None, traceback.format_exc()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    return Outcome(key, status, seconds, code, out.getvalue(), error + err.getvalue())


# -- output gate ------------------------------------------------------------------

def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def gate(outcome: Outcome, expected: Dict[str, dict], instance_sha: str) -> str:
    """Classify a case: "ok", "timeout", "unpinned" or "wrong: <why>".

    ``expected[key]`` pins the exit code and output sha256 recorded on a
    trusted commit; ``{"exit": null, "sha256": null}`` records a case that did
    not finish within its budget there. Such a case, once it finishes, has no
    pinned bytes and is accepted as "unpinned" only if its certificate is
    consistent: a verdict that matches the exit code and the checks, the
    generated instance's sha256, an operator section with status ok and a
    passed cofactor identity. These cases exist to time the elimination, so a
    run whose elimination failed is wrong, whatever its verdict.
    """
    if outcome.status == "error":
        return "wrong: traceback"
    if outcome.status == "timeout":
        return "timeout"
    pin = expected.get(outcome.key)
    if pin is None:
        return "wrong: case not in the pinned table"
    if pin["sha256"] is not None:
        if outcome.exit_code != pin["exit"]:
            return f"wrong: exit {outcome.exit_code}, pinned {pin['exit']}"
        if digest(outcome.output) != pin["sha256"]:
            return "wrong: output differs from the pinned sha256"
        return "ok"
    try:
        cert = json.loads(outcome.output)
        verdict = cert["verdict"]
        sha = cert["instance"]["sha256"]
        operator_status = cert["operator"]["status"]
        cofactor = [c["passed"] for c in cert["checks"]
                    if c["name"] == "eliminate.cofactor_identity"]
        all_passed = all(c["passed"] for c in cert["checks"])
    except (ValueError, KeyError, TypeError):
        return "wrong: output is not a certificate"
    want_exit = 0 if verdict == "IRRATIONAL_CERTIFIED" else 2
    if verdict not in ("IRRATIONAL_CERTIFIED", "INCONCLUSIVE") or outcome.exit_code != want_exit:
        return f"wrong: verdict {verdict} with exit {outcome.exit_code}"
    if verdict == "IRRATIONAL_CERTIFIED" and not all_passed:
        return "wrong: certified with a failed check"
    if sha != instance_sha:
        return "wrong: certificate names another instance text"
    if operator_status != "ok" or cofactor != [True]:
        return "wrong: no derived operator with a passed cofactor identity"
    return "unpinned"


# -- statistics -------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Linear-interpolated q-quantile (0 <= q <= 1) of a non-empty sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_samples(n: int, q: float) -> int:
    """Samples strictly beyond the q-quantile position of n samples."""
    return n - 1 - int(q * (n - 1))
