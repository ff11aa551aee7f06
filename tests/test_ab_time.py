"""tools/ab_time.py: side-by-side timing of two source trees."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_time.py"
SRC = str(ROOT / "src")


def test_one_tree_twice_prints_the_minima_per_component_and_in_total():
    # format only: one round of the 32 shallow cases, no assertion on the times
    proc = subprocess.run([sys.executable, str(TOOL), SRC, SRC, "--workload", "verra-shallow",
                           "--rounds", "1"],
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "verra-shallow: 32 cases, 1 rounds, least ms per case"
    assert lines[1].split() == ["cases", "parent", "change", "ratio"]
    row = r"\s+{} +32 +\d+\.\d\d +\d+\.\d\d +\d+\.\d{{3}}"
    assert re.fullmatch(row.format("c5"), lines[2])
    assert re.fullmatch(row.format("total"), lines[3])
    assert len(lines) == 4


def test_imports_prints_the_least_and_median_import_per_tree():
    # format only: three fresh imports of each tree, no assertion on the times
    proc = subprocess.run([sys.executable, str(TOOL), SRC, SRC, "--imports", "3"],
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "imports: 3 per tree, ms per fresh import of hodgeatoms.cli"
    assert lines[1].split() == ["parent", "change", "ratio"]
    row = r"\s+{} +\d+\.\d\d +\d+\.\d\d +\d+\.\d{{3}}"
    assert re.fullmatch(row.format("least"), lines[2])
    assert re.fullmatch(row.format("median"), lines[3])
    assert len(lines) == 4


def test_imports_with_a_workload_prints_the_least_and_median_set_up_per_tree():
    # format only: two set-ups of each tree, each a fresh import and a read
    # of the 43 instances verra-shallow can pick; no assertion on the times
    proc = subprocess.run([sys.executable, str(TOOL), SRC, SRC, "--imports", "2",
                           "--workload", "verra-shallow"],
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == ("set-ups: 2 per tree, ms per fresh import of hodgeatoms.cli and read of "
                        "the 43 instances of verra-shallow")
    assert lines[1].split() == ["parent", "change", "ratio"]
    row = r"\s+{} +\d+\.\d\d +\d+\.\d\d +\d+\.\d{{3}}"
    assert re.fullmatch(row.format("least"), lines[2])
    assert re.fullmatch(row.format("median"), lines[3])
    assert len(lines) == 4


def test_a_tree_without_the_engine_is_refused(tmp_path):
    # with the engine on PYTHONPATH, an empty tree would silently time it instead
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path), SRC, "--workload",
                           "verra-deep", "--rounds", "1"],
                          capture_output=True, text=True, timeout=600, check=False,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode != 0
    assert f"not from {tmp_path}" in proc.stderr
