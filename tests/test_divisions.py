"""Every true division in the package, audited for exactness.

Poly stores an integral coefficient as an int, so a term value read out of
a Poly may be an int, and int / int is a float. Each `/` in src/ listed
below has a Fraction operand, which keeps it exact. A new `/` (or `/=`)
fails this test until it is checked for int / int and added to the list.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hodgeatoms"

# (module, division) -> why an operand is a Fraction
AUDITED = {
    ("ansatz.py", "g[i] / scale"): "scale is a rational_content",
    ("ansatz.py", "g[j] / scale"): "scale is a rational_content",
    ("pipeline.py", "-inst.n_invariant / 2"): "Instance.n_invariant is a Fraction",
    ("poly.py", "ca / cb"): "both are rational_contents",
    ("qde.py", "Fraction(1) / content"): "a Fraction numerator",
    ("solve.py", "-v / c"): "the pivot term is taken as a Fraction",
    ("spectrum.py", "-work[0] / work[1]"): "rational_roots coerces its coefficients",
    ("spectrum.py", "(-b - root) / (2 * a)"): "rational_roots coerces its coefficients",
    ("spectrum.py", "(-b + root) / (2 * a)"): "rational_roots coerces its coefficients",
    ("spectrum.py", "Fraction(1, 1) / c"): "a Fraction numerator",
}


def divisions():
    """(module, source text) of each ast.Div in the package, with multiplicity."""
    out = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Div):
                out[path.name, ast.unparse(n)] += 1
    return out


def test_every_division_is_audited():
    assert divisions() == Counter(AUDITED.keys())
