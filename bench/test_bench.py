"""Self-tests of the benchmark's own logic: percentiles, span self time, the
output gate, the per-case timeout and the tracer's wrapping.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import itertools
import json
import os
import random
import statistics
import sys
import time

import pytest

from cases import (SHALLOW_ORDERS, TEMPLATES, WORKLOADS, Outcome, Workload, case_argv, digest,
                   gate, instance_text, percentile, run_case, tail_samples, write_instances)
from run import (BENCH, END_TO_END_UNITS, ROOT, SRC, import_engine, max_rss_mb, run_phase,
                 summarize)
from tracer import Tracer, per_layer_spec, self_times

with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as fh:
    EXPECTED = json.load(fh)["cases"]


def test_percentile_interpolates_between_ranks():
    xs = [3.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert percentile(xs, 0.5) == pytest.approx(statistics.median(xs))
    assert percentile(xs, 0.9) == pytest.approx(9.1)
    assert percentile(xs, 0.0) == 1.0 and percentile(xs, 1.0) == 10.0
    assert percentile([7.0], 0.9) == 7.0


def test_tail_samples_counts_what_lies_beyond_the_percentile():
    assert tail_samples(100, 0.9) == 10
    assert tail_samples(92, 0.9) == 10  # the 0.9 point lies between ranks 81 and 82
    assert tail_samples(91, 0.9) == 9
    assert tail_samples(10, 0.5) == 5


def test_host_speed_scales_finished_cases_but_not_overruns():
    rows = [("a", "ok", 1.0), ("b", "unpinned", 1.0), ("c", "timeout", 4.0),
            ("d", "wrong: traceback", 1.0)]
    metrics, counts, _ = summarize(rows, 7.0)
    assert metrics == {"cases_per_s": 2 / 7.0, "ok_share": 0.5}
    # on a host at half the nominal speed, the 3 s of finished cases count 1.5 s
    assert summarize(rows, 7.0, 0.5)[0]["cases_per_s"] == pytest.approx(2 / 5.5)
    assert (counts["ok"], counts["timeouts"], counts["wrong"]) == (2, 1, 1)


def test_self_time_subtracts_direct_children_only():
    spans = [
        [0, 0.0, 10.0, -1, 0],   # root
        [1, 1.0, 4.0, 0, 0],     # child of root
        [2, 2.0, 3.0, 1, 0],     # grandchild
        [1, 5.0, 9.0, 0, 0],     # second child of root
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_gate_accepts_pinned_bytes_and_flags_a_mutated_output():
    out = '{"verdict": "IRRATIONAL_CERTIFIED"}\n'
    table = {"k": {"exit": 0, "sha256": digest(out)}}
    assert gate(Outcome("k", "done", 0.1, 0, out), table, "") == "ok"
    mutated = out.replace("IRRATIONAL", "IRRATIONAl")
    assert gate(Outcome("k", "done", 0.1, 0, mutated), table, "").startswith("wrong")
    assert gate(Outcome("k", "done", 0.1, 2, out), table, "").startswith("wrong")
    assert gate(Outcome("other", "done", 0.1, 0, out), table, "").startswith("wrong")
    assert gate(Outcome("k", "error", 0.1), table, "") == "wrong: traceback"
    assert gate(Outcome("k", "timeout", 5.0), table, "") == "timeout"


def test_gate_checks_an_unpinned_certificate_for_consistency():
    table = {"k": {"exit": None, "sha256": None}}

    def cert(verdict, sha="abc", cofactor=True, op="ok"):
        return json.dumps({"verdict": verdict, "instance": {"sha256": sha},
                           "operator": {"status": op},
                           "checks": [{"name": "eliminate.cofactor_identity",
                                       "passed": cofactor}]})

    def verdict_of(code, text):
        return gate(Outcome("k", "done", 0.1, code, text), table, "abc")

    assert verdict_of(0, cert("IRRATIONAL_CERTIFIED")) == "unpinned"
    assert verdict_of(2, cert("INCONCLUSIVE")) == "unpinned"
    # an elimination that failed is wrong even behind a clean INCONCLUSIVE
    assert verdict_of(2, cert("INCONCLUSIVE", cofactor=False, op="failed")).startswith("wrong")
    assert verdict_of(2, cert("INCONCLUSIVE", op="not run")).startswith("wrong")
    assert verdict_of(2, cert("IRRATIONAL_CERTIFIED")).startswith("wrong")
    assert verdict_of(0, cert("IRRATIONAL_CERTIFIED", cofactor=False)).startswith("wrong")
    assert verdict_of(2, cert("INCONCLUSIVE", sha="other")).startswith("wrong")
    assert verdict_of(2, cert("INCONCLUSIVE", cofactor=False)).startswith("wrong")
    assert verdict_of(2, "not json").startswith("wrong")


def test_every_case_a_workload_can_pick_is_pinned():
    for workload in WORKLOADS.values():
        for case in workload.pool:
            key = "{}/c{}/o{}".format(*case)
            assert key in EXPECTED, key


def test_rounds_follow_the_seed_and_take_every_order_before_repeating():
    def first(name, n, seed=3):
        return list(itertools.islice(WORKLOADS[name].rounds(random.Random(seed)), n))

    for name in WORKLOADS:
        assert first(name, 20) == first(name, 20)
        assert first(name, 20) != first(name, 20, seed=4)
    shallow = first("verra-shallow", len(SHALLOW_ORDERS))
    for kind in ("verra", "broken-nonsimple", "broken-a0plus"):
        orders = [o for r in shallow for k, _, o in r if k == kind]
        assert sorted(set(orders)) == list(SHALLOW_ORDERS)
        assert len(orders) == len(SHALLOW_ORDERS) * (2 if kind == "verra" else 1)
    alt = first("alt-components", 8)
    assert sorted(r[-1][1] for r in alt) == [0, 0, 1, 1, 2, 2, 3, 3]
    assert all(c in (4, 5) for r in alt for _, c, _ in r[:-1])


def test_peak_rss_is_read_before_the_first_overrun():
    # the overrun case swells by 64 MB before its budget ends
    def main(argv):
        if "/c0/" in argv[-1]:
            swell = b"x" * (64 << 20)
            while swell:
                pass
        print("done")
        return 0

    class Cli:
        pass

    cli = Cli()
    cli.main = main
    workload = Workload("fake", 0.3, lambda rng: iter([[("verra", 5, 16), ("verra", 0, 16)]]),
                        ())
    expected = {"verra/c5/o16": {"exit": 0, "sha256": digest("done\n")},
                "verra/c0/o16": {"exit": None, "sha256": None}}
    wrong = []
    shas = dict.fromkeys(expected, "")
    rows, _, rss_mb = run_phase(cli, workload, 0, 0.01, expected, shas, wrong)
    assert [v for _, v, _ in rows] == ["ok", "timeout"] and not wrong
    assert rss_mb < max_rss_mb() - 48


def test_order_16_templates_are_the_bundled_instances():
    data = os.path.join(SRC, "hodgeatoms", "data")
    if not os.path.isdir(data):
        pytest.skip("engine sources not present")
    for kind in TEMPLATES:
        with open(os.path.join(data, f"{kind}.instance"), encoding="utf-8") as fh:
            assert instance_text((kind, 5, 16)) == fh.read()


def test_pinned_order_16_certificate_is_the_committed_one():
    path = os.path.join(ROOT, "certificate.json")
    if not os.path.exists(path):
        pytest.skip("certificate.json not in this checkout")
    with open(path, "rb") as fh:
        committed = fh.read()
    assert EXPECTED["verra/c5/o16"] == {"exit": 0, "sha256": digest(committed.decode("utf-8"))}


def test_timeout_stops_a_case_and_leaves_the_process_usable():
    def spin(argv):
        while True:
            pass

    start = time.perf_counter()
    outcome = run_case(spin, [], "k", 0.2)
    assert outcome.status == "timeout"
    assert 0.2 <= outcome.seconds < 2.0 and time.perf_counter() - start < 2.0
    after = run_case(lambda argv: print("fine") or 2, [], "k", 1.0)
    assert (after.status, after.exit_code, after.output) == ("done", 2, "fine\n")


def test_tracer_leaves_output_bytes_unchanged_and_accounts_for_the_case(tmp_path):
    if not os.path.isdir(SRC):
        pytest.skip("engine sources not present")
    sys.path.insert(0, SRC)
    case = ("verra", 5, 16)
    write_instances(str(tmp_path), [case])
    try:
        cli = import_engine()
        tracer = Tracer()
        tracer.install()
        first = tracer.begin_case(0)
        outcome = run_case(cli.main, case_argv(str(tmp_path), case), "verra/c5/o16", 30.0)
        tracer.end_case(first)
        assert gate(outcome, EXPECTED, "") == "ok"
        report = tracer.report([outcome.seconds])
        flipped = outcome.output.replace('"order": 16', '"order": 17', 1)
        assert flipped != outcome.output
        assert gate(Outcome(outcome.key, "done", 0.1, 0, flipped), EXPECTED, "").startswith("wrong")
    finally:
        import_engine()  # drop the patched modules
    spec = [m["name"] for m in per_layer_spec() if m["name"] != "trace.overhead_cases_per_s"]
    assert sorted(report) == sorted(spec)
    for name, value in report.items():
        if name.endswith(".calls") or name.endswith("_s"):
            assert value > 0, name
    assert report["qde.eliminate.calls"] == 1
    assert report["certificate.bytes"] == len(outcome.output.encode("utf-8"))
    # the stages cover the run and the root span covers nearly the whole case
    assert 0.8 < report["trace.stage_share"] <= 1.0
    assert 0.95 < report["trace.accounted_share"] <= 1.0


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert spec["per_layer"] == per_layer_spec()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
