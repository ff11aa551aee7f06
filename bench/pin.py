"""Record the output gate's table, ``bench/expected.json``.

    python3 bench/pin.py

Runs every case any workload can pick, once, under the per-case budget of the
first workload that picks it, and pins its exit code and the sha256 of its
output. A case that does not finish within the budget is pinned as unfinished
(``null``). Run this only on a commit whose certificates are trusted: the
table is what later runs are checked against.
"""

from __future__ import annotations

import json
import os
import sys

from cases import WARMUP, WORKLOADS, case_argv, case_key, digest, run_case, write_instances
from run import BENCH, SRC, WORK, setup


def main() -> int:
    sys.path.insert(0, SRC)
    pinned = {}
    for workload in WORKLOADS.values():
        write_instances(WORK, workload.pool + (WARMUP,))
        cli, _, _ = setup(workload)
        for case in workload.pool:
            key = case_key(case)
            if key in pinned:
                continue
            outcome = run_case(cli.main, case_argv(WORK, case), key, workload.budget_s)
            if outcome.status == "error":
                print(f"{key}: traceback\n{outcome.error}", file=sys.stderr)
                return 1
            done = outcome.status == "done"
            pinned[key] = {"exit": outcome.exit_code if done else None,
                           "sha256": digest(outcome.output) if done else None}
            print(f"{key}: {outcome.status} exit={outcome.exit_code} "
                  f"{outcome.seconds:.2f}s", file=sys.stderr)
    with open(os.path.join(BENCH, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump({"cases": dict(sorted(pinned.items()))}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
