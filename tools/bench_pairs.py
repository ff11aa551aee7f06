"""Run one benchmark workload in alternating pairs on two checkouts and test
the gain rule on every end-to-end metric.

    python3 tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload NAME \\
        --pairs N --seconds S --seed-base B

PARENT_ROOT and CHANGE_ROOT are the roots of two checkouts. Pair i runs
``bench/run.py --workload NAME --seed B+i --seconds S --trace 0`` once in
each checkout, from that checkout's root and with its own benchmark code,
the parent first in even pairs and the change first in odd ones. Which way
each end-to-end metric is better is read from this checkout's BENCHMARK.json.

Printed: one line per run, then per metric each side's median and
quartiles, the pairs the change won (ties count for neither) and whether
the gain rule holds: the change wins at least nine tenths of the pairs, and
its median is better than the parent's by more than the distance between
the parent's quartiles. The exit code is 1 if a run fails or reports a
wrong output, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_bench(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The last output line of one run of the checkout's bench/run.py, parsed."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {root}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values):
    """(Q1, median, Q3), inclusive of the extremes; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root")
    parser.add_argument("change_root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    roots = (args.parent_root, args.change_root)
    values = {name: ([], []) for name in better}
    wrong = 0
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s, "
          f"seeds {args.seed_base}-{args.seed_base + args.pairs - 1}")
    for i in range(args.pairs):
        seed = args.seed_base + i
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            out = run_bench(roots[side], args.workload, seed, args.seconds)
            wrong += out["failed"]
            for name in better:
                values[name][side].append(out["metrics"][name]["value"])
            shown = " ".join(f"{name}={out['metrics'][name]['value']:.4g}" for name in better)
            print(f"pair {i} seed {seed} {('parent', 'change')[side]}: {shown} "
                  f"failed={out['failed']}")
    print(f"{'metric':<12} {'better':<6} {'parent Q1 median Q3':>30} "
          f"{'change Q1 median Q3':>30} {'won':>5}  gain rule")
    for name, way in better.items():
        parent, change = values[name]
        sign = 1 if way == "higher" else -1
        won = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        holds = won * 10 >= 9 * args.pairs and sign * (cm - pm) > p3 - p1
        print(f"{name:<12} {way:<6} {p1:10.4g} {pm:9.4g} {p3:9.4g} {c1:10.4g} {cm:9.4g} "
              f"{c3:9.4g} {won:>2}/{args.pairs:<2}  {'holds' if holds else 'not met'}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
