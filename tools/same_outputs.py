"""Check that two engine source trees give the same output on every bench case.

Usage, from the root of a checkout:

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC [--case KEY ...]

PARENT_SRC and CHANGE_SRC are directories that hold a ``hodgeatoms`` package,
such as the ``src`` directories of two checkouts. The cases are those of
``bench/cases.py`` in this checkout: by default every case that a workload
can pick (153), otherwise the ones named by ``--case`` (keys such as
``verra/c5/o200``). Each tree runs in a process of its own, every case in
turn through ``cases.run_case`` under the largest per-case budget of the
workloads that hold it, with the instance files both trees read written once.

One line is printed for each case whose status, exit code or output sha256
differs between the trees, naming the top-level certificate keys whose JSON
differs, then a summary line. The exit code is 1 if any
case differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from cases import WORKLOADS, case_argv, case_key, digest, run_case, write_instances  # noqa: E402


def pool() -> dict:
    """key -> (case, budget_s) for every case a workload can pick."""
    out: dict = {}
    for w in WORKLOADS.values():
        for case in w.pool:
            key = case_key(case)
            budget = max(w.budget_s, out[key][1]) if key in out else w.budget_s
            out[key] = (case, budget)
    return out


def sections(output: str) -> dict:
    """Top-level certificate key -> sha256 of its canonical JSON; {} when the
    run printed no certificate, as on a configuration error."""
    try:
        cert = json.loads(output)
    except ValueError:
        return {}
    return {k: digest(json.dumps(v, sort_keys=True)) for k, v in cert.items()}


def outcomes(src: str, work: str, keys) -> dict:
    """key -> [status, exit code, output sha256, section sha256s] with the
    engine under src; meant for a fresh process, which imports that engine."""
    sys.path.insert(0, os.path.abspath(src))
    from hodgeatoms.cli import main
    engine = sys.modules["hodgeatoms"].__file__
    if os.path.dirname(os.path.dirname(engine)) != os.path.abspath(src):
        raise SystemExit(f"hodgeatoms was imported from {engine}, not from {src}")
    cases = pool()
    result = {}
    for key in keys:
        case, budget = cases[key]
        o = run_case(main, case_argv(work, case), key, budget)
        done = o.status == "done"
        result[key] = [o.status, o.exit_code, digest(o.output) if done else None,
                       sections(o.output) if done else {}]
    return result


def run_tree(src: str, work: str, keys) -> dict:
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", src, work,
                           *keys], capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"tree {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:  # one tree's side, started by run_tree
        src, work, *keys = argv[1:]
        print(json.dumps(outcomes(src, work, keys)))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--case", action="append", dest="cases", metavar="KEY",
                        help="compare only this case (repeatable)")
    args = parser.parse_args(argv)
    cases = pool()
    keys = args.cases or list(cases)
    unknown = [k for k in keys if k not in cases]
    if unknown:
        parser.error(f"unknown case {unknown[0]!r}")
    with tempfile.TemporaryDirectory() as work:
        write_instances(work, [cases[k][0] for k in keys])
        parent = run_tree(args.parent_src, work, keys)
        change = run_tree(args.change_src, work, keys)
    differ = [k for k in keys if parent[k] != change[k]]
    for k in differ:
        (*was, old), (*now, new) = parent[k], change[k]
        moved = sorted(n for n in old.keys() | new.keys() if old.get(n) != new.get(n))
        print(f"{k}: parent {was} change {now}; sections {', '.join(moved) or 'none'}")
    print(f"{len(keys)} cases, {len(differ)} differ in status, exit code or sha256")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
