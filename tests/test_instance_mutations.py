"""Single-field mutations of the bundled Verra instance.

Every mutated file must end in a verdict (exit 0 or 2) or in a clean
configuration error (exit 1), within a time bound and without a traceback.
Each case pins the exit code it ends in.
"""

import signal
import sys
from pathlib import Path

import pytest

from hodgeatoms import solve, spectrum
from hodgeatoms.cli import main
from hodgeatoms.instance import parse_instance_text

VERRA = (Path(__file__).resolve().parents[1] / "src" / "hodgeatoms" / "data"
         / "verra.instance").read_text(encoding="utf-8")
CASE_SECONDS = 30

# (field as written in verra.instance, its mutation, exit code)
MUTATIONS = [
    ("nilpotency=3", "nilpotency=2", 1),
    ("nilpotency=3", "nilpotency=4", 1),      # the middle dimension no longer fits
    ("order=16", "order=3", 1),
    ("middle=24", "middle=25", 1),
    ("h31=1", "h31=x", 1),                    # not an integer
    ("simple=true", "simple=yes", 1),         # not a boolean
    ("N=-4/1", "N=0/1", 2),
    ("enumerative=t,u", "enumerative=s", 2),
    ("order=16", "order=10", 1),              # refused by the CLI guard
    ("order=16", "order=11", 0),
    ("tdecomp=1,19,1", "tdecomp=0,21,0", 2),
    ("simple=true", "simple=false", 2),
    ("v@(0,4)", "v@(0,5)", 2),
    ("enumerative=t,u, component=5, param_names=s@(0,1),t@(1,2),u@(1,3),v@(0,4)",
     "enumerative=, component=5, param_names=", 2),  # no names: ansatz.param_mapping fails
    ("component=5", "component=4", 2),
    ("component=5", "component=0", 2),
    ("tdecomp=1,19,1", "tdecomp=21", 2),
    ("N=-4/1", "N=7/3", 0),
    ("enumerative=t,u", "enumerative=s,t,u,v", 0),
    ("pairing=2/1", "pairing=1/1", 0),
    ("s@(0,1),t@(1,2)", "s@(1,2),t@(0,1)", 0),
    ("N=-4/1", "N=-4000000000002/1", 0),
    ("N=-4/1", "N=-" + "4" * 5000 + "/1", 0),  # past Python's 4,300-digit int limit
    ("component=5", "component=" + "5" * 5000, 1),  # messages past the digit limit
    ("middle=24", "middle=" + "2" * 5000, 1),
    ("tdecomp=1,19,1", "tdecomp=" + "1" * 5000 + ",19," + "1" * 5000, 1),
    ("h31=1", "h31=" + "1" * 5000, 0),          # printed past the digit limit
    ("simple=true", "simple=true, a0plus=" + "2" * 5000, 2),
    ("middle=24, dimT=21, tdecomp=1,19,1",      # consistent: dimT = 2*1...1 + 19
     "middle=" + "2" * 4998 + "44, dimT=" + "2" * 4998 + "41, tdecomp="
     + "1" * 5000 + ",19," + "1" * 5000, 0),
    ("middle=24, dimT=21, tdecomp=1,19,1", "middle=422, dimT=419, tdecomp=200,19,200", 0),
    ("h31=1", "h31=2", 0),
    ("[run] order=16", "[run]\norder=16", 0),  # a header on its own line
    ("nilpotency=3, pairing=2/1\n[involution] swap=H1:H2\n[hodge] h31=1, middle=24",
     "nilpotency=12, pairing=2/1\n[involution] swap=H1:H2\n[hodge] h31=1, middle=33",
     2),                                        # 756 ansatz parameters against 4 named
]


class CaseTimeout(BaseException):
    """Raised by the alarm; a BaseException so the engine cannot swallow it."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


def _certify_mutated(tmp_path, capsys, old, new, *options):
    """Exit code of certify on the mutated file, within CASE_SECONDS and
    without a traceback."""
    assert VERRA.count(old) == 1
    path = tmp_path / "mutated.instance"
    path.write_text(VERRA.replace(old, new), encoding="utf-8")
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
    try:
        got = main(["certify", "--instance", str(path), *options])
    except CaseTimeout:
        pytest.fail(f"no exit within {CASE_SECONDS} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert "Traceback" not in capsys.readouterr().err
    return got


@pytest.mark.parametrize("old, new, code", MUTATIONS, ids=[m[1][:40] for m in MUTATIONS])
def test_mutated_instance_ends_cleanly(tmp_path, capsys, old, new, code):
    assert _certify_mutated(tmp_path, capsys, old, new) == code


LONG_INTEGERS = [m for m in MUTATIONS if len(m[1]) > 4300]


@pytest.mark.parametrize("old, new, code", LONG_INTEGERS,
                         ids=[m[1][:40] for m in LONG_INTEGERS])
def test_integers_past_the_digit_limit_print_as_json(tmp_path, capsys, old, new, code):
    # main lifts the interpreter's int-to-str digit limit for its run only
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert _certify_mutated(tmp_path, capsys, old, new, "--format", "json") == code
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_an_order_of_5000_digits_parses():
    spec = parse_instance_text(VERRA.replace("order=16", "order=" + "1" * 5000))
    assert spec.order == (10 ** 5000 - 1) // 9


def test_roots_are_only_ever_asked_of_quadratics(tmp_path, capsys, monkeypatch):
    # every instance that reaches the spectrum has chi_+ = lam^2 (lam^2 - 128 q)
    # (lam^2 + 16 q), and solve only branches on quadratics: no run hands
    # rational_roots more than 3 coefficients
    lengths = []
    original = spectrum.rational_roots

    def recorded(coeffs):
        lengths.append(len(coeffs))
        return original(coeffs)

    monkeypatch.setattr(spectrum, "rational_roots", recorded)
    monkeypatch.setattr(solve, "rational_roots", recorded)
    for name in ("verra", "broken-a0plus", "broken-nonsimple"):
        main(["certify", "--instance", name])
    for k, (old, new, _) in enumerate(MUTATIONS):
        path = tmp_path / f"mutated-{k}.instance"
        path.write_text(VERRA.replace(old, new), encoding="utf-8")
        main(["certify", "--instance", str(path)])
    capsys.readouterr()
    assert lengths and max(lengths) <= 3
