"""tools/same_outputs.py: the byte-identity check between two source trees."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_outputs.py"
SRC = str(ROOT / "src")
CASES = ("--case", "verra/c5/o11", "--case", "broken-a0plus/c5/o12")


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True,
                          text=True, timeout=600, check=False)


def test_one_tree_against_itself_has_no_difference():
    proc = run_tool(SRC, SRC, *CASES)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["2 cases, 0 differ in status, exit code or sha256"]


def test_a_changed_certificate_is_reported(tmp_path):
    # the engine version is part of every certificate
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "hodgeatoms", changed / "hodgeatoms",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(changed / "hodgeatoms" / "__init__.py", "a", encoding="utf-8") as fh:
        fh.write('\n__version__ = "0.0.0"\n')
    proc = run_tool(SRC, str(changed), *CASES)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == ["verra/c5/o11", "broken-a0plus/c5/o12"]
    # the certificate sections that differ are named
    assert [line.split("; sections ")[1] for line in lines[:-1]] == ["engine_version"] * 2
    assert lines[-1] == "2 cases, 2 differ in status, exit code or sha256"
