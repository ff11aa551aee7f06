"""Time two engine source trees side by side on one seeded set of bench cases.

    python3 tools/ab_time.py PARENT_SRC CHANGE_SRC --workload NAME [--rounds N]

Run from a checkout's root. Both trees are imported into this process,
each afresh as ``bench/run.py`` imports its engine. The cases are the first
32 in the workload's rounds for seed 1. Each round times every case once
per tree, AB and BA by turns; each case keeps its least time per tree.
Printed per component and in total: their sums and the ratio parent / change.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from cases import WORKLOADS, case_argv, case_key, run_case, write_instances  # noqa: E402


def import_main(src: str):
    """cli.main of the hodgeatoms under src, imported afresh (and kept alive)."""
    for name in [n for n in sys.modules if n == "hodgeatoms" or n.startswith("hodgeatoms.")]:
        del sys.modules[name]
    sys.path.insert(0, os.path.abspath(src))
    cli = importlib.import_module("hodgeatoms.cli")
    if os.path.commonpath([cli.__file__, sys.path.pop(0)]) != os.path.abspath(src):
        raise SystemExit(f"hodgeatoms was imported from {cli.__file__}, not from {src}")
    return cli.main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--rounds", type=int, default=12)
    args = parser.parse_args(argv)
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
    print(f"{'':>9} {'cases':>5} {'parent':>9} {'change':>9} {'ratio':>6}")
    for comp in sorted({c for _, c, _ in cases}) + [None]:
        idx = [i for i, (_, c, _) in enumerate(cases) if comp in (None, c)]
        a, b = (sum(best[t][i] for i in idx) * 1e3 for t in (0, 1))
        label = "total" if comp is None else f"c{comp}"
        print(f"{label:>9} {len(idx):>5} {a:9.2f} {b:9.2f} {a / b:6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
