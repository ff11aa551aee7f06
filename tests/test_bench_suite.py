"""The benchmark's self-tests pass against this engine.

bench/test_bench.py traces engine functions by name and requires each one
to run in a traced order-16 case, so a traced function that is deleted or
no longer called fails it. Its peak-RSS test needs a process that starts
with a small peak: in the process of this suite it fails. On Linux a
process keeps its parent's peak RSS across exec, so a direct child would
start at this suite's peak too; the self-tests run one process further
down, behind a relay process that holds little memory.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

RELAY = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"


def test_bench_self_tests_pass():
    proc = subprocess.run([sys.executable, "-c", RELAY,
                           sys.executable, "-m", "pytest", "-q", "bench/test_bench.py"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
