"""Every demo script runs to completion and prints its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout
DEMO_SHA256 = {
    "01_quantum_period": "22083f4999d9eb5d23af525c8913872667c9521ea9d1ee6d711c25b1990b5b1a",
    "02_multiplication_ansatz": "0e37ddf4ea75c062f8143d1cc417a0303af5d9cde13547c7ffc6b5e9b3032685",
    "03_cyclic_elimination": "4560e52efaca419ce3fa8e65234d2ce4951ea31b82ac948e412752602e4ee24c",
    "04_parameter_matching": "91e44927b1c20c87074a4d3daa8e64d1dd96b8d129ef7156ec1e96671b126719",
    "05_euler_spectrum": "072a3e32314db0e359e576479b6a08fa2791656b6169d24449e5bde6dad886ad",
    "06_irrationality_certificate": "f5b534d2ecd3a52b061761815c0849d7df5f93c386299da09d148a4f4aa44111",
}


def test_demos_present():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == DEMO_SHA256[demo.stem]
