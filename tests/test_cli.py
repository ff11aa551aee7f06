"""Command line behaviour: focal output, formats, exit codes."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hodgeatoms import linalg, periods, pipeline, poly, qde, solve
from hodgeatoms.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_importing_the_command_line_loads_no_dataclasses():
    # the records are plain classes, so a fresh process that imports the
    # engine loads neither dataclasses nor the inspect module that
    # dataclasses imports; bundled instances are found by path, so
    # importlib.resources (and the archive and temp-file modules it pulls
    # in) is not loaded either
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hodgeatoms.cli; "
            "print(sorted({'dataclasses', 'inspect', 'importlib.resources'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# Prints every compile audit event of a fresh import of hodgeatoms.cli, with
# the file of the module body that was running when it was raised. The loader
# compiles each engine file while the body that imports it runs; code that a
# body generates (typing.NamedTuple's annotations, namedtuple's __new__,
# dataclasses' methods) is compiled from '<string>'. The stdlib's own
# import-time records (_decimal's DecimalTuple, shutil's disk usage) are
# generated while a stdlib body runs, and the engine cannot avoid them.
_COMPILES = """
import json, sys
events = []
def hook(event, args):
    if event == "compile":
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != "<module>":
            frame = frame.f_back
        events.append([args[1], frame and frame.f_code.co_filename])
sys.path.insert(0, sys.argv[1])
sys.addaudithook(hook)
import hodgeatoms.cli
print(json.dumps(events))
"""


def test_importing_the_engine_compiles_only_its_sources(tmp_path):
    # a copy of the sources with no bytecode beside them, imported with -B,
    # so that each of the 15 files is compiled in this process
    (tmp_path / "hodgeatoms").mkdir()
    for path in (ROOT / "src" / "hodgeatoms").glob("*.py"):
        shutil.copy(path, tmp_path / "hodgeatoms")
    engine = {str(p) for p in (tmp_path / "hodgeatoms").glob("*.py")}
    assert len(engine) == 15
    proc = subprocess.run([sys.executable, "-S", "-B", "-c", _COMPILES, str(tmp_path)],
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    events = json.loads(proc.stdout)
    assert sorted(name for name, _ in events if name in engine) == sorted(engine)
    assert [name for name, body in events if body in engine and name not in engine] == []


def test_period(capsys):
    code, out, _ = run_cli(capsys, "period", "--order", "4")
    assert code == 2
    assert "G(q) coefficients through q^4:" in out
    assert "1, 4, 15, 280/9, 6055/144" in out
    assert "verdict: INCONCLUSIVE" in out


def test_certify(capsys):
    code, out, _ = run_cli(capsys, "certify")
    assert code == 0
    assert "IRRATIONAL_CERTIFIED" in out
    assert "[PASS] spectrum.reciprocity" in out


def test_certify_json(capsys):
    code, out, _ = run_cli(capsys, "certify", "--format", "json")
    assert code == 0
    cert = json.loads(out)
    assert cert["verdict"] == "IRRATIONAL_CERTIFIED"
    code2, out2, _ = run_cli(capsys, "certify", "--format", "json")
    assert out2 == out


def test_certify_json_matches_committed_certificate(capsys):
    # golden bytes: a fresh certificate equals the committed certificate.json
    code, out, _ = run_cli(capsys, "certify", "--format", "json")
    assert code == 0
    assert out.encode("utf-8") == (ROOT / "certificate.json").read_bytes()


def test_certify_json_at_order_200_is_pinned(capsys):
    # golden bytes at depth, where the period series is longest
    code, out, _ = run_cli(capsys, "certify", "--format", "json", "--order", "200")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "cd776f1d947ad5bc4245bc815e627e66f92ed6bef3c77851a923aa5f0e3f55f1")


def test_certify_text_at_order_200_is_pinned(capsys):
    # the text format reads the same sections, _Verbatim texts included
    code, out, _ = run_cli(capsys, "certify", "--format", "text", "--order", "200")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "97ea50c0df5b4e754a1a35e3fedfc1160df60caabb66a66c89efedb2d9c8bf89")


def test_certify_json_at_order_400_is_pinned(capsys):
    # golden bytes deeper still, where the matched equations are longest
    code, out, _ = run_cli(capsys, "certify", "--format", "json", "--order", "400")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "b2e6467111d40274e359d6fc70c4ab937561e0cb2b0363002a0d5b84db11b28b")


def test_certify_past_the_digit_limit(capsys):
    # a_888 is the first period coefficient with more than 4,300 digits, the
    # interpreter's default limit for int to str; the run still certifies,
    # and its bytes are pinned
    code, out, err = run_cli(capsys, "certify", "--format", "json", "--order", "900")
    assert code == 0
    assert "Traceback" not in err
    assert json.loads(out)["verdict"] == "IRRATIONAL_CERTIFIED"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "02f0c156f331c4584d1a426e8d757c89d4657c7742525c8c78fce6199bd381f9")


def test_one_period_series_per_certify(capsys, monkeypatch):
    calls = []
    original = pipeline.period_coefficients

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "period_coefficients", counted)
    code, _, _ = run_cli(capsys, "certify")
    assert code == 0
    assert calls == [("verra-eq3", 16)]


def test_solve_at_order_200_builds_no_polynomial_per_equation(capsys, monkeypatch):
    # the matched equations reach solve as integers: no re-embedding into the
    # parameters and no rational normal form, per equation or at all
    calls, solving = [], []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if solving:
                calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(poly.Poly, "rename_vars", counted("rename_vars", poly.Poly.rename_vars))
    original = poly._zprimitive
    for module in (poly, solve):
        if getattr(module, "_zprimitive", None) is original:
            monkeypatch.setattr(module, "_zprimitive", counted("_zprimitive", original))
    solve_parameters = pipeline.solve_parameters

    def flagged(*args):
        solving.append(True)
        try:
            return solve_parameters(*args)
        finally:
            solving.pop()

    monkeypatch.setattr(pipeline, "solve_parameters", flagged)
    code, _, _ = run_cli(capsys, "certify", "--format", "json", "--order", "200")
    assert code == 0
    assert calls == []


@pytest.mark.parametrize("target, stage, check, reason", [
    ("build_ansatz", "ansatz", "ansatz.construction", "ansatz construction failed"),
    ("eliminate", "eliminate", "eliminate.operator_found", "elimination failed"),
])
def test_internal_error_fails_the_stage(capsys, monkeypatch, target, stage, check, reason):
    # an engine invariant that breaks inside a stage ends in exit 2, not a traceback
    def broken(*args, **kwargs):
        raise RuntimeError("invariant broken")

    monkeypatch.setattr(pipeline, target, broken)
    code, out, err = run_cli(capsys, "certify", "--format", "json")
    assert code == 2
    assert "Traceback" not in err
    cert = json.loads(out)
    assert cert["verdict"] == "INCONCLUSIVE"
    assert {"name": stage, "status": "failed",
            "reason": f"{reason}: invariant broken"} in cert["stages"]
    assert {"name": check, "passed": False, "detail": "invariant broken"} in cert["checks"]


def test_inexact_back_substitution_fails_the_eliminate_stage(capsys, monkeypatch):
    # every division of the kernel's back substitution is refused; those of
    # the forward elimination go through
    exact = linalg._zdiv

    def refused_in_back_substitution(a, b, guard):
        if sys._getframe(1).f_code.co_name == "left_nullspace":
            return None
        return exact(a, b, guard)

    monkeypatch.setattr(linalg, "_zdiv", refused_in_back_substitution)
    code, out, err = run_cli(capsys, "certify", "--format", "json")
    assert code == 2
    assert "Traceback" not in err
    cert = json.loads(out)
    detail = "inexact back-substitution division"
    assert {"name": "eliminate", "status": "failed",
            "reason": f"elimination failed: {detail}"} in cert["stages"]
    assert {"name": "eliminate.operator_found", "passed": False,
            "detail": detail} in cert["checks"]


def test_period_source_not_starting_at_one_fails_the_stage(capsys, monkeypatch, tmp_path):
    verra = periods.get_source("verra-eq3")
    monkeypatch.setitem(periods.REGISTRY, "doubled", periods.PeriodSource(
        name="doubled", description="a_0 = 2",
        coefficients=lambda n: [2 * a for a in verra.coefficients(n)],
        regularized=verra.regularized))
    text = (ROOT / "src" / "hodgeatoms" / "data" / "verra.instance").read_text()
    path = tmp_path / "doubled.instance"
    path.write_text(text.replace("source=verra-eq3", "source=doubled"))
    code, out, err = run_cli(capsys, "certify", "--format", "json", "--instance", str(path))
    assert code == 2
    assert "Traceback" not in err
    cert = json.loads(out)
    assert cert["verdict"] == "INCONCLUSIVE"
    reason = "period source 'doubled' does not start at 1"
    assert {"name": "period", "status": "failed", "reason": reason} in cert["stages"]
    assert {"name": "period.initial_coefficient", "passed": False,
            "detail": reason} in cert["checks"]


def test_period_source_without_regularized_operator_fails_the_stage(
        capsys, monkeypatch, tmp_path):
    verra = periods.get_source("verra-eq3")
    monkeypatch.setitem(periods.REGISTRY, "unregularized", periods.PeriodSource(
        name="unregularized", description="no published operator",
        coefficients=verra.coefficients, regularized=None))
    text = (ROOT / "src" / "hodgeatoms" / "data" / "verra.instance").read_text()
    path = tmp_path / "unregularized.instance"
    path.write_text(text.replace("source=verra-eq3", "source=unregularized"))
    code, out, err = run_cli(capsys, "certify", "--format", "json", "--instance", str(path))
    assert code == 2
    assert "Traceback" not in err
    cert = json.loads(out)
    assert cert["verdict"] == "INCONCLUSIVE"
    reason = "period source 'unregularized' publishes no regularized operator"
    assert {"name": "period", "status": "failed", "reason": reason} in cert["stages"]
    assert {"name": "period.regularized_annihilation", "passed": False,
            "detail": reason} in cert["checks"]


def test_period_source_with_an_odd_power_of_t_fails_the_stage(capsys, monkeypatch, tmp_path):
    verra = periods.get_source("verra-eq3")
    coeffs = verra.regularized.coeffs
    odd = qde.DiffOperator(coeffs[:4] + (coeffs[4] + poly.Poly.var(("t",), "t"),))
    monkeypatch.setitem(periods.REGISTRY, "odd", periods.PeriodSource(
        name="odd", description="an odd power of t", coefficients=verra.coefficients,
        regularized=odd))
    text = (ROOT / "src" / "hodgeatoms" / "data" / "verra.instance").read_text()
    path = tmp_path / "odd.instance"
    path.write_text(text.replace("source=verra-eq3", "source=odd"))
    code, out, err = run_cli(capsys, "certify", "--format", "json", "--instance", str(path))
    assert code == 2
    assert "Traceback" not in err
    cert = json.loads(out)
    assert cert["verdict"] == "INCONCLUSIVE"
    reason = "coefficient of D^4 has an odd power t^1"
    assert {"name": "period", "status": "failed", "reason": reason} in cert["stages"]
    assert {"name": "period.regularized_annihilation", "passed": False,
            "detail": reason} in cert["checks"]


# sha256 of `certify --format json` from each symmetric component (an
# instance file named verra.instance); component 5 is certificate.json
COMPONENT_SHA256 = {
    0: "2f9310a8c6352211a7d8e5731bb65ff60675ade9fc7668df08c3e71e7617250a",
    1: "d2a6e1c2c79d1b8a2710b91ab1af89688a4e65267104525cffed03d6607a7f55",
    2: "b65613c586d0a55b6ffcbeaa721a2e2f0e4470812598399ed6d699a2f0a50da0",
    3: "ce1b04f08e17db6fe6dfbf8bb0f65c72dc866f63660a3231fbbd1250bc2093df",
    4: "648e66ffb483a67934be21f72c8b1f1411a4bfca78fb61af3b54a90cb74ea031",
    5: "9920da4c89b60f6e4f17f9a4b8a9483783bc64e52f465817b37d91c530844e47",
}


@pytest.mark.parametrize("component", range(6))
def test_every_component_derives_an_operator(tmp_path, component):
    # cyclic-vector elimination from every symmetric solution component ends
    # in an operator that passes the cofactor identity
    text = (ROOT / "src" / "hodgeatoms" / "data" / "verra.instance").read_text()
    path = tmp_path / "verra.instance"
    path.write_text(text.replace("component=5", f"component={component}"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "hodgeatoms.cli", "certify", "--format", "json",
         "--instance", str(path)],
        env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode in (0, 2)
    assert "Traceback" not in proc.stderr
    cert = json.loads(proc.stdout)
    assert cert["operator"]["status"] == "ok"
    assert cert["operator"]["component"] == component
    assert {"name": "eliminate.cofactor_identity", "passed": True,
            "detail": "sum c_k r_k = 0 symbolically, parameters included"} in cert["checks"]
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == COMPONENT_SHA256[component]


def test_one_content_gcd_per_elimination(capsys, monkeypatch, tmp_path):
    # the kernel vector's polynomial content is taken once, in the operator
    # normal form
    calls = []
    original = poly.poly_gcd_many

    def counted(polys):
        calls.append(polys)
        return original(polys)

    for module in (poly, linalg, qde):
        if hasattr(module, "poly_gcd_many"):
            monkeypatch.setattr(module, "poly_gcd_many", counted)
    text = (ROOT / "src" / "hodgeatoms" / "data" / "verra.instance").read_text()
    path = tmp_path / "verra.instance"
    path.write_text(text.replace("component=5", "component=0"))
    code, out, _ = run_cli(capsys, "derive-operator", "--instance", str(path))
    assert code == 2
    assert "order 6 operator for component y_0:" in out
    assert len(calls) == 1


@pytest.mark.parametrize("component", [0, 5])
def test_each_polynomial_is_rendered_once(capsys, monkeypatch, tmp_path, component):
    # the matrix and operator displays reuse the texts made for their JSON forms
    seen = []
    original = poly.Poly.render

    def counted(self, *args):
        seen.append(self)  # kept alive, so no id is reused
        return original(self, *args)

    monkeypatch.setattr(poly.Poly, "render", counted)
    text = (ROOT / "src" / "hodgeatoms" / "data" / "verra.instance").read_text()
    path = tmp_path / "verra.instance"
    path.write_text(text.replace("component=5", f"component={component}"))
    code, out, _ = run_cli(capsys, "certify", "--format", "json", "--instance", str(path))
    assert code in (0, 2) and json.loads(out)["operator"]["status"] == "ok"
    assert seen and len({id(p) for p in seen}) == len(seen)


def test_one_cyclic_row_stack_per_derive_operator(capsys, monkeypatch):
    # elimination and the cofactor identity read the same rows r_0..r_n
    calls = []
    original = qde.cyclic_rows

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (qde, pipeline):
        if hasattr(module, "cyclic_rows"):
            monkeypatch.setattr(module, "cyclic_rows", counted)
    code, out, _ = run_cli(capsys, "derive-operator")
    assert code == 2
    assert "order 6 operator for component y_5:" in out
    assert len(calls) == 1


def test_huge_n_instance_finishes(tmp_path):
    # the antisymmetric block's square polynomial is then linear with a
    # 14-digit constant, too large for trial division up to |n|
    text = (ROOT / "src" / "hodgeatoms" / "data" / "verra.instance").read_text()
    assert "N=-4/1" in text
    path = tmp_path / "huge-n.instance"
    path.write_text(text.replace("N=-4/1", "N=-4000000000002/1"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "hodgeatoms.cli", "certify", "--instance", str(path)],
        env=env, capture_output=True, text=True, timeout=5)
    assert proc.returncode in (0, 2)
    assert "Traceback" not in proc.stderr


def test_solve(capsys):
    code, out, _ = run_cli(capsys, "solve")
    assert code == 2
    assert "solution set: {(2, 2/3, 14/3, 16), (2, 6, 2, 16)}" in out
    assert "after enumerativity filter: {(2, 6, 2, 16)}" in out
    assert "rejected (2, 2/3, 14/3, 16): not a non-negative integer" in out
    assert "solved operator: D^6 - D^5 - 28*q*D^4" in out


def test_derive_operator(capsys):
    code, out, _ = run_cli(capsys, "derive-operator")
    assert code == 2
    assert "order 6 operator for component y_5:" in out
    assert "D^6 - D^5 + (-4*s*q - 2*t*q - 4*u*q)*D^4" in out


def test_ansatz(capsys):
    code, out, _ = run_cli(capsys, "ansatz")
    assert code == 2
    assert "symmetric block parameters: s, t, u, v" in out
    assert "[0, 2*s*q, 0, 0, 2*v*q^2, 0]" in out
    assert "antisymmetric parameter p_0_1 = 2" in out
    assert "[0, 2*q, 0]" in out


def test_spectrum(capsys):
    code, out, _ = run_cli(capsys, "spectrum")
    assert code == 2
    assert "chi(2M_+) = lam^2*(lam^2 - 128*q)*(lam^2 + 16*q)" in out
    assert "chi(2M_-) = lam*(lam^2 - 16*q)" in out
    assert "zero multiplicities: 2 and 1" in out
    assert "-> pass" in out


def test_spectrum_after_a_failed_solve(capsys, tmp_path):
    # with only s enumerative both solutions pass the filter, so solve fails
    # and the spectrum stage never runs
    path = tmp_path / "mutated.instance"
    text = (ROOT / "src" / "hodgeatoms" / "data" / "verra.instance").read_text()
    path.write_text(text.replace("enumerative=t,u", "enumerative=s"))
    code, out, _ = run_cli(capsys, "spectrum", "--instance", str(path))
    assert code == 2
    assert "spectrum: not run (upstream failure in solve)" in out


def test_through_truncates_certificate(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "certify", "--through", "solve",
                           "--out", str(path), "--format", "json")
    assert code == 2
    assert "verdict: INCONCLUSIVE" in out
    assert f"certificate written to {path}" in out
    cert = json.loads(path.read_text())
    assert cert["spectrum"]["status"] == "not run"
    assert cert["solve"]["status"] == "ok"


def test_out_text(capsys, tmp_path):
    path = tmp_path / "cert.txt"
    code, out, _ = run_cli(capsys, "period", "--out", str(path))
    assert code == 2
    assert "G(q) coefficients" in out
    body = path.read_text()
    assert body.startswith("verdict")
    assert "not run" in body


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_out_path_that_cannot_be_written_is_a_configuration_error(capsys, tmp_path, where):
    path = tmp_path / "no" / "such" / "c.json" if where == "missing-dir" else tmp_path
    code, _, err = run_cli(capsys, "certify", "--format", "json", "--out", str(path))
    assert code == 1
    assert err.startswith("hodgeatoms: cannot write") and "Traceback" not in err


def test_broken_fixture(capsys):
    code, out, _ = run_cli(capsys, "certify", "--instance", "broken-nonsimple")
    assert code == 2
    assert "[FAIL] atoms.transcendental_simple" in out
    assert "INCONCLUSIVE" in out


# sha256 of `certify --format json` for each bundled INCONCLUSIVE fixture
FIXTURE_SHA256 = {
    "broken-nonsimple": "3d354f6c72a4b184279c136bb56c6707fcf646583c29153598bdf4ddf68f1f03",
    "broken-a0plus": "0fb3e297c605e6b282005ae7fac084761672300d7fa67dca78ac38023863182f",
}


@pytest.mark.parametrize("fixture", sorted(FIXTURE_SHA256))
def test_fixture_certificate_is_pinned(capsys, fixture):
    code, out, _ = run_cli(capsys, "certify", "--format", "json", "--instance", fixture)
    assert code == 2
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FIXTURE_SHA256[fixture]


def test_unknown_instance(capsys):
    code, _, err = run_cli(capsys, "certify", "--instance", "nope")
    assert code == 1
    assert "no such instance" in err


def test_instance_directory_is_a_configuration_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "certify", "--instance", str(tmp_path))
    assert code == 1
    assert err.startswith("hodgeatoms: cannot read") and "Traceback" not in err


def test_instance_not_utf8_is_a_configuration_error(capsys, tmp_path):
    path = tmp_path / "latin1.instance"
    path.write_bytes("[meta] author=Ren\xe9".encode("latin-1"))
    code, _, err = run_cli(capsys, "certify", "--instance", str(path))
    assert code == 1
    assert err.startswith("hodgeatoms: cannot read") and "Traceback" not in err


def test_low_order_refused(capsys):
    code, _, err = run_cli(capsys, "solve", "--order", "8")
    assert code == 1
    assert "cannot saturate" in err


def test_negative_order_refused(capsys):
    code, _, err = run_cli(capsys, "period", "--order", "-1")
    assert code == 1
    assert "non-negative" in err


def test_low_order_fine_for_early_stages(capsys):
    code, out, _ = run_cli(capsys, "period", "--order", "2")
    assert code == 2
    assert "1, 4, 15" in out


def test_help_is_pinned(capsys, monkeypatch):
    # the top-level help, then each subcommand's, at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    for command in ("", "period", "ansatz", "derive-operator", "solve", "spectrum", "certify"):
        with pytest.raises(SystemExit) as e:
            main([command, "--help"] if command else ["--help"])
        assert e.value.code == 0
        texts.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(texts).encode("utf-8")).hexdigest() == (
        "65a92499680a0f9d3d6bd92aabfd189b8fa673fafd8975d67ac2663f4da21290")


def test_bad_subcommand(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 1


def test_bad_through(capsys):
    with pytest.raises(SystemExit) as e:
        main(["certify", "--through", "nope"])
    assert e.value.code == 1
