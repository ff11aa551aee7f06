"""End-to-end benchmark of the hodgeatoms engine.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verra-shallow --seed 1 --seconds 25 --trace 0

The benchmark drives ``hodgeatoms.cli.main(argv)`` in this process as a
closed loop: one client, one case at a time, single-threaded. Each case
runs ``certify --format json`` on a generated instance file under a hard
per-case timeout, and its exit code and output bytes are checked against the
table pinned in ``bench/expected.json``.

With ``--trace 0`` the run reports the end-to-end metrics. With ``--trace 1``
it runs the same cases twice, for half the time each: untraced, then with
every layer wrapped by ``tracer.Tracer``; it reports the per-layer metrics and
the tracing overhead, and writes the spans under ``bench/results/``. Every
run writes its record (versions, seed, command line, metrics with units,
sample counts) to ``bench/results/<workload>-seed<seed>-trace<t>.json``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end metrics. The two timings are scaled to a host of nominal speed:
on a shared 2-vCPU VM the host's speed drifted by up to 20 % over tens of
seconds, and so did the time of every case. A fixed reference kernel of exact
arithmetic, which does not touch the engine, is timed next to each set-up;
set-up and case times are scaled by REF_NOMINAL_S over the run's median
kernel time (the budget of a case that ran past it is not scaled). Over 90 s
there, this cut the variation of 5 s windows of verra-shallow throughput from
7.4 % to 2.7 %. The record keeps the raw values and the kernel time as well.

  setup_s      median of the run's set-ups, each importing the engine afresh
               and generating and parsing every instance the workload can
               pick: one before the first case, then one for each second of
               case time, at case boundaries and outside the timed loop, so
               that the median spans the run as cases_per_s does (the files
               are written once, before the first set-up)
  cases_per_s  cases that ended within their budget with the pinned output,
               per second of the timed loop
  peak_rss_mb  ru_maxrss of this process, which runs one workload only, read
               before its first case that runs past the budget: an overrun
               case's memory is how far it got when stopped, which depends
               on the host's speed, not the memory of completed work
  ok_share     such cases over cases attempted, that is 1 - failed_share

``failed`` counts wrong outputs and tracebacks, which also make ``correct``
false. A case that runs past its budget is a timeout: it lowers ok_share and
is not a wrong output. The record also holds the median case time over the
cases that ended within budget (case_p50_s), case_p90_s where at least ten
samples lie beyond it, failed_share and timeout_share. On a host whose speed
changes in bursts of seconds, the run-to-run spread of the median case time
was about twice that of cases_per_s, so only the latter is gated.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from fractions import Fraction

from cases import (WARMUP, WORKLOADS, case_argv, case_key, digest, gate, instance_path,
                   instance_text, percentile, run_case, tail_samples, write_instances)
from tracer import Tracer, per_layer_spec

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "work")
RESULTS = os.path.join(BENCH, "results")
SETUP_EVERY_S = 1.0
# about the reference kernel's time on a 2-vCPU x86_64 VM under Python 3.11
REF_NOMINAL_S = 0.02

END_TO_END_UNITS = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}


class BenchError(RuntimeError):
    pass


def import_engine():
    """Import hodgeatoms afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "hodgeatoms" or n.startswith("hodgeatoms.")]:
        del sys.modules[name]
    cli = importlib.import_module("hodgeatoms.cli")
    if os.path.commonpath([os.path.abspath(cli.__file__), SRC]) != SRC:
        raise BenchError(f"hodgeatoms was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload):
    """Import the engine afresh, from a collected heap, and generate and parse
    every instance the workload can pick; the files must have been written by
    ``write_instances``. Returns the CLI module, the sha256 of each instance's
    text and the time taken."""
    gc.collect()
    start = time.perf_counter()
    cli = import_engine()
    load = sys.modules["hodgeatoms.instance"].load_instance
    shas = {}
    for case in workload.pool + (WARMUP,):
        key = case_key(case)
        shas[key] = digest(instance_text(case))
        if load(instance_path(WORK, case)).source_sha256 != shas[key]:
            raise BenchError(f"instance {key} did not read back intact")
    return cli, shas, time.perf_counter() - start


def reference_kernel_s() -> float:
    """Time a fixed piece of pure-Python exact arithmetic of the engine's kind,
    a sum of fractions whose denominators grow to about 1300 digits."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction(i % 97, i)
    return time.perf_counter() - start


def run_checked(cli, workload, case, expected, shas, wrong):
    """Run one case and gate it; a wrong outcome is appended to ``wrong``."""
    key = case_key(case)
    outcome = run_case(cli.main, case_argv(WORK, case), key, workload.budget_s)
    verdict = gate(outcome, expected, shas[key])
    if verdict.startswith("wrong"):
        wrong.append({"case": key, "verdict": verdict, "status": outcome.status,
                      "exit": outcome.exit_code, "detail": outcome.error[-2000:]})
    return key, verdict, outcome.seconds


def max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_phase(cli, workload, seed, seconds, expected, shas, wrong, tracer=None,
              setups=None):
    """Closed loop over whole rounds until ``seconds`` of case time have
    passed. If ``setups`` is a list, a set-up is made for each second of case
    time, at case boundaries and outside the timed loop, and its time is
    appended with a reference kernel time. Returns the (key, verdict,
    seconds) rows, the timed loop's elapsed time and the peak RSS read before
    the first case that ran past its budget."""
    rounds = workload.rounds(random.Random(seed))
    rows = []
    rss_mb = None
    elapsed = next_setup = 0.0
    while elapsed < seconds:
        for case in next(rounds):
            before = max_rss_mb()
            start = time.perf_counter()
            first = tracer.begin_case(len(rows)) if tracer else 0
            rows.append(run_checked(cli, workload, case, expected, shas, wrong))
            if tracer:
                tracer.end_case(first)
            elapsed += time.perf_counter() - start
            if rss_mb is None and rows[-1][1] == "timeout":
                rss_mb = before
            while setups is not None and elapsed >= next_setup + SETUP_EVERY_S:
                cli, _, setup_s = setup(workload)
                setups.append((setup_s, reference_kernel_s()))
                next_setup += SETUP_EVERY_S
    return rows, elapsed, max_rss_mb() if rss_mb is None else rss_mb


def summarize(rows, elapsed, speed=1.0):
    """Metrics, sample counts and record-only figures of a phase. ``speed``
    scales the time of the cases that ended within budget to a host of
    nominal speed; a case that ran past its budget lasted the budget."""
    ok = [s for _, v, s in rows if v in ("ok", "unpinned")]
    overrun_s = sum(s for _, v, s in rows if v == "timeout")
    timeouts = sum(v == "timeout" for _, v, _ in rows)
    latencies = ok or [s for _, _, s in rows]
    counts = {
        "attempted": len(rows),
        "ok": len(ok),
        "unpinned": sum(v == "unpinned" for _, v, _ in rows),
        "timeouts": timeouts,
        "wrong": sum(v.startswith("wrong") for _, v, _ in rows),
        "latency_samples": len(latencies),
    }
    metrics = {"cases_per_s": len(ok) / (overrun_s + (elapsed - overrun_s) * speed),
               "ok_share": len(ok) / len(rows)}
    extra = {"case_p50_s": statistics.median(latencies),
             "failed_share": 1 - len(ok) / len(rows), "timeout_share": timeouts / len(rows)}
    if tail_samples(len(latencies), 0.9) >= 10:
        extra["case_p90_s"] = percentile(latencies, 0.9)
    return metrics, counts, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as fh:
            expected = json.load(fh)["cases"]
        sys.path.insert(0, SRC)
        write_instances(WORK, workload.pool + (WARMUP,))
        cli, shas, setup_s = setup(workload)
    except (OSError, ImportError, BenchError) as e:
        print(f"bench: cannot set up the engine: {e}", file=sys.stderr)
        return 1

    # the first run in a process is slower than the rest; keep it untimed
    wrong = []
    run_checked(cli, workload, WARMUP, expected, shas, wrong)

    os.makedirs(RESULTS, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "command": [os.path.basename(sys.executable)] + sys.argv,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "machine": platform.machine(), "case_budget_s": workload.budget_s,
        "loop": "closed, one client, single-threaded",
    }
    if args.trace:
        half = args.seconds / 2
        plain_rows, plain_elapsed, _ = run_phase(cli, workload, args.seed, half,
                                                 expected, shas, wrong)
        tracer = Tracer()
        tracer.install()
        rows, elapsed, _ = run_phase(cli, workload, args.seed, half, expected, shas,
                                     wrong, tracer)
        plain, _, _ = summarize(plain_rows, plain_elapsed)
        traced, counts, extra = summarize(rows, elapsed)
        values = tracer.report([s for _, _, s in rows])
        values["trace.overhead_cases_per_s"] = traced["cases_per_s"] - plain["cases_per_s"]
        units = {m["name"]: m["unit"] for m in per_layer_spec()}
        all_rows = plain_rows + rows
        record["untraced"] = dict(plain, samples=len(plain_rows))
        record["traced"] = dict(traced, **extra, samples=counts)
        tracer.write(os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
    else:
        setups = [(setup_s, reference_kernel_s())]
        rows, elapsed, rss_mb = run_phase(cli, workload, args.seed, args.seconds,
                                          expected, shas, wrong, setups=setups)
        ref_s = statistics.median(r for _, r in setups)
        speed = REF_NOMINAL_S / ref_s  # above 1 on a host faster than nominal
        values, counts, extra = summarize(rows, elapsed, speed)
        raw = {"setup_s": statistics.median(s for s, _ in setups),
               "cases_per_s": summarize(rows, elapsed)[0]["cases_per_s"]}
        values["setup_s"] = raw["setup_s"] * speed
        counts["setup_samples"] = len(setups)
        values["peak_rss_mb"] = rss_mb
        record.update(raw=raw, reference_kernel_s=ref_s, host_speed=speed)
        units = END_TO_END_UNITS
        all_rows = rows
        record.update(samples=counts, **extra)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record.update(metrics=metrics, wrong=wrong, cases=all_rows)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": not wrong, "attempted": len(all_rows),
                      "failed": len(wrong), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
