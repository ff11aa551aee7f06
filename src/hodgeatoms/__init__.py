"""Exact-arithmetic engine for the quantum-period irrationality pipeline.

Everything runs over arbitrary-precision rationals. The pipeline derives
quantum multiplication matrices from degree and self-adjointness
constraints, eliminates them to a scalar differential operator, solves
for the unknown Gromov-Witten parameters by period matching, analyzes
the spectrum of Euler-field multiplication, and emits a machine-checkable
certificate from the Hodge-atom obstruction calculus.
"""

__version__ = "0.1.0"

from .poly import Poly
from .series import Series

__all__ = ["Poly", "Series", "__version__"]
