"""Fold the per-run records in ``bench/results/`` into one trend point.

    python3 bench/trend.py > bench/BENCH_<n>.json

For each workload and trace setting: the seeds and command lines of the runs,
and for each metric its unit, median, quartiles and the spread (quartile
distance over the median) across the runs; likewise, for untraced runs, the
raw timings before host-speed scaling and the host speed itself.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

RESULTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def fold(values):
    """Median, quartiles and spread of one figure across runs."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med) if med else None
    else:
        q1 = med = q3 = values[0]
        spread = None
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


def main() -> int:
    groups = {}
    for path in sorted(glob.glob(os.path.join(RESULTS, "*-trace[01].json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        groups.setdefault(f"{rec['workload']} trace={rec['trace']}", []).append(rec)
    if not groups:
        print(f"no run records in {RESULTS}", file=sys.stderr)
        return 1
    out = {}
    for name, recs in sorted(groups.items()):
        first = recs[0]
        metrics = {metric: dict(unit=m["unit"], **fold([r["metrics"][metric]["value"]
                                                        for r in recs]))
                   for metric, m in first["metrics"].items()}
        out[name] = {"runs": len(recs), "seeds": [r["seed"] for r in recs],
                     "commands": [" ".join(r["command"]) for r in recs],
                     "python": first["python"], "nproc": first["nproc"],
                     "metrics": metrics}
        if "raw" in first:
            out[name]["raw"] = {metric: fold([r["raw"][metric] for r in recs])
                                for metric in first["raw"]}
            out[name]["host_speed"] = fold([r["host_speed"] for r in recs])
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
