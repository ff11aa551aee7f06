"""tools/bench_pairs.py: alternating benchmark pairs on two checkouts."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"


def test_one_checkout_twice_prints_each_run_and_the_rule_per_metric():
    # format only: one pair of short shallow runs, no assertion on the values
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--workload",
                           "verra-shallow", "--pairs", "1", "--seconds", "0.3",
                           "--seed-base", "9001"],
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    lines = proc.stdout.splitlines()
    assert lines[0] == "verra-shallow: 1 pairs of 0.3 s, seeds 9001-9001"
    run = "pair 0 seed 9001 {}: " + " ".join(f"{n}=\\S+" for n in names) + " failed=0"
    assert re.fullmatch(run.format("parent"), lines[1])
    assert re.fullmatch(run.format("change"), lines[2])
    assert lines[3].split() == ["metric", "better", "parent", "Q1", "median", "Q3",
                                "change", "Q1", "median", "Q3", "won", "gain", "rule"]
    num = r"\s+\S+"
    for name, line in zip(names, lines[4:]):
        assert re.fullmatch(name + r"\s+(higher|lower)" + num * 6 + r"\s+[01]/1\s+(holds|not met)",
                            line)
    assert len(lines) == 4 + len(names)
