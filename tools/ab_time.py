"""Time two engine source trees side by side on one seeded set of bench cases.

    python3 tools/ab_time.py PARENT_SRC CHANGE_SRC --workload NAME [--rounds N]
    python3 tools/ab_time.py PARENT_SRC CHANGE_SRC --imports N [--workload NAME]

Run from a checkout's root. Both trees are imported into this process,
each afresh as ``bench/run.py`` imports its engine. The cases are the first
32 in the workload's rounds for seed 1. Each round times every case once
per tree, AB and BA by turns; each case keeps its least time per tree.
Printed per component and in total: their sums, the ratio parent / change
and the share of the parent's total.

With ``--imports N`` no case runs: after one untimed set-up of each tree,
N fresh imports of ``hodgeatoms.cli`` from each are timed, AB and BA by
turns, each from a collected heap, and the least and median milliseconds
per tree are printed with the ratio parent / change. With ``--workload``
as well, each timed set-up is the one ``bench/run.py`` makes and reports
as ``setup_s``: the fresh import, then a read of every instance the
workload can pick, from files written once before the first.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import os
import random
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from cases import (WARMUP, WORKLOADS, case_argv, case_key, digest, instance_path,  # noqa: E402
                   instance_text, run_case, write_instances)


def import_main(src: str):
    """cli.main of the hodgeatoms under src, imported afresh (and kept alive)."""
    for name in [n for n in sys.modules if n == "hodgeatoms" or n.startswith("hodgeatoms.")]:
        del sys.modules[name]
    sys.path.insert(0, os.path.abspath(src))
    cli = importlib.import_module("hodgeatoms.cli")
    if os.path.commonpath([cli.__file__, sys.path.pop(0)]) != os.path.abspath(src):
        raise SystemExit(f"hodgeatoms was imported from {cli.__file__}, not from {src}")
    return cli.main


def set_up(src: str, work: str, cases) -> None:
    """A fresh import from src, then a read of each case's instance file,
    checked against its text as bench/run.py checks it."""
    import_main(src)
    load = sys.modules["hodgeatoms.instance"].load_instance
    for case in cases:
        if load(instance_path(work, case)).source_sha256 != digest(instance_text(case)):
            raise SystemExit(f"{src}: instance {case_key(case)} did not read back intact")


def time_imports(srcs, n: int, workload) -> int:
    """Print the least and median ms of n fresh imports from each tree, each
    with a read of the workload's instances unless workload is None."""
    cases = workload.pool + (WARMUP,) if workload else ()
    ms = [[], []]
    with tempfile.TemporaryDirectory() as work:
        write_instances(work, cases)
        for src in srcs:
            set_up(src, work, cases)
        for r in range(n):
            for t in ((0, 1) if r % 2 == 0 else (1, 0)):
                gc.collect()
                start = time.perf_counter()
                set_up(srcs[t], work, cases)
                ms[t].append((time.perf_counter() - start) * 1e3)
    if workload:
        print(f"set-ups: {n} per tree, ms per fresh import of hodgeatoms.cli and read of "
              f"the {len(cases)} instances of {workload.name}")
    else:
        print(f"imports: {n} per tree, ms per fresh import of hodgeatoms.cli")
    print(f"{'':>9} {'parent':>9} {'change':>9} {'ratio':>6}")
    for label, stat in (("least", min), ("median", statistics.median)):
        a, b = stat(ms[0]), stat(ms[1])
        print(f"{label:>9} {a:9.2f} {b:9.2f} {a / b:6.3f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--imports", type=int, metavar="N",
                        help="time N fresh imports per tree instead of the cases, each "
                             "with a read of the workload's instances when one is named")
    args = parser.parse_args(argv)
    if args.imports is not None:
        if args.imports < 1:
            parser.error("--imports must be at least 1")
        return time_imports([args.parent_src, args.change_src], args.imports,
                            args.workload and WORKLOADS[args.workload])
    if args.workload is None:
        parser.error("--workload is required unless --imports is given")
    w = WORKLOADS[args.workload]
    cases = list(itertools.islice(itertools.chain.from_iterable(w.rounds(random.Random(1))), 32))
    mains = [import_main(args.parent_src), import_main(args.change_src)]
    best = [[float("inf")] * len(cases) for _ in mains]
    with tempfile.TemporaryDirectory() as work:
        write_instances(work, cases)
        for r in range(args.rounds):
            for i, case in enumerate(cases):
                for t in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                    o = run_case(mains[t], case_argv(work, case), case_key(case), w.budget_s)
                    best[t][i] = min(best[t][i], o.seconds)
    print(f"{args.workload}: {len(cases)} cases, {args.rounds} rounds, least ms per case")
    print(f"{'':>9} {'cases':>5} {'parent':>9} {'change':>9} {'ratio':>6} {'share':>6}")
    total = sum(best[0]) * 1e3
    for comp in sorted({c for _, c, _ in cases}) + [None]:
        idx = [i for i, (_, c, _) in enumerate(cases) if comp in (None, c)]
        a, b = (sum(best[t][i] for i in idx) * 1e3 for t in (0, 1))
        label = "total" if comp is None else f"c{comp}"
        print(f"{label:>9} {len(idx):>5} {a:9.2f} {b:9.2f} {a / b:6.3f} {a / total:6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
