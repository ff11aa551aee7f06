"""Pipeline orchestration and certificate assembly, end to end."""

import pytest

from hodgeatoms.certificate import dump_json
from hodgeatoms.instance import load_instance
from hodgeatoms.pipeline import (STAGES, PipelineRun, StageFailure, build_certificate,
                                 certificate_text, exit_code, run_pipeline)

CHECK_NAMES = [
    "period.source_known", "period.initial_coefficient",
    "period.regularized_annihilation",
    "ansatz.param_mapping", "ansatz.self_adjointness", "ansatz.support",
    "ansatz.classical_limit", "ansatz.antisymmetric_reduction",
    "eliminate.cofactor_identity",
    "solve.saturation", "solve.consistent", "solve.verified",
    "solve.enumerative_unique", "solve.annihilation",
    "spectrum.template_plus", "spectrum.template_minus",
    "spectrum.block_dims", "spectrum.reciprocity",
    "atoms.transcendental_simple", "atoms.invariants_valid",
    "atoms.case_T_plus_obstructed", "atoms.case_T_minus_obstructed",
    "atoms.exclusion_empty",
]


@pytest.fixture(scope="module")
def cert(full_run):
    return build_certificate(full_run)


def test_require_records_the_check_before_it_raises(verra):
    run = PipelineRun(verra, verra.order)
    run.require("x.holds", True, "fine", "not raised")
    with pytest.raises(StageFailure, match="^why it failed$"):
        run.require("x.fails", False, "what was seen", "why it failed")
    assert run.checks == [{"name": "x.holds", "passed": True, "detail": "fine"},
                          {"name": "x.fails", "passed": False, "detail": "what was seen"}]


def test_stage_tuple():
    assert STAGES == ("period", "ansatz", "eliminate", "solve",
                      "spectrum", "atoms", "verdict")


def test_verdict_and_exit(full_run):
    assert full_run.verdict == "IRRATIONAL_CERTIFIED"
    assert exit_code(full_run) == 0


def test_check_inventory(full_run):
    assert [c["name"] for c in full_run.checks] == CHECK_NAMES
    assert all(c["passed"] for c in full_run.checks)
    assert all(s["status"] == "ok" for s in full_run.stages)


def test_certificate_top_level(cert):
    for key in ("engine_version", "verdict", "checks", "stages", "instance", "notes"):
        assert key in cert
    assert cert["verdict"] == "IRRATIONAL_CERTIFIED"
    assert len(cert["instance"]["sha256"]) == 64
    assert cert["instance"]["name"] == "verra"


def test_certificate_sections(cert):
    for s in ("period", "ansatz", "operator", "solve", "spectrum", "atoms"):
        assert cert[s]["status"] == "ok"
    assert cert["period"]["coefficients"][:5] == ["1", "4", "15", "280/9", "6055/144"]
    assert cert["period"]["transform_content"] == "16"
    assert cert["operator"]["order"] == 6
    assert cert["solve"]["accepted"] == [{"s": "2", "t": "6", "u": "2", "v": "16"}]
    assert len(cert["solve"]["solutions"]) == 2
    assert "not a non-negative integer" in cert["solve"]["rejected"][0]["reason"]
    assert cert["spectrum"]["symmetric"]["factored"] == \
        "lam^2*(lam^2 - 128*q)*(lam^2 + 16*q)"
    assert cert["spectrum"]["antisymmetric"]["factored"] == "lam*(lam^2 - 16*q)"
    assert cert["spectrum"]["symmetric"]["zero_multiplicity"] == 2
    assert cert["spectrum"]["antisymmetric"]["zero_multiplicity"] == 1
    assert cert["spectrum"]["reciprocity"]["passed"] is True
    assert cert["atoms"]["transcendental"]["hodge"] == "t^2 + 19 + t^-2"
    assert cert["atoms"]["cases"]["T_in_plus"]["obstructed_by"] == "E_0^+"
    assert cert["atoms"]["cases"]["T_in_minus"]["obstructed_by"] == "E_0^-"


def test_plain_period_residual_note(cert):
    assert any("4*q^1 + 3216*q^2" in n for n in cert["notes"])


def test_certificate_determinism(verra):
    j1 = dump_json(build_certificate(run_pipeline(verra)))
    j2 = dump_json(build_certificate(run_pipeline(load_instance("verra"))))
    assert j1 == j2


def test_certificate_text(full_run):
    txt = certificate_text(full_run)
    assert "IRRATIONAL_CERTIFIED" in txt
    assert "[PASS] atoms.exclusion_empty" in txt


def test_partial_run(verra):
    part = run_pipeline(verra, through="solve")
    assert part.verdict == "INCONCLUSIVE"
    assert exit_code(part) == 2
    pc = build_certificate(part)
    assert pc["solve"]["status"] == "ok"
    assert pc["spectrum"]["status"] == "not run"
    assert pc["atoms"]["status"] == "not run"
    assert any("partial run" in n for n in pc["notes"])
    status = {s["name"]: s["status"] for s in pc["stages"]}
    assert status == {"period": "ok", "ansatz": "ok", "eliminate": "ok",
                      "solve": "ok", "spectrum": "not run",
                      "atoms": "not run", "verdict": "not run"}


def test_order_override(verra):
    short = run_pipeline(verra, through="period", order=4)
    sc = build_certificate(short)
    assert sc["period"]["order"] == 4
    assert sc["period"]["coefficients"] == ["1", "4", "15", "280/9", "6055/144"]


def test_unknown_stage(verra):
    with pytest.raises(ValueError, match="unknown stage"):
        run_pipeline(verra, through="frobnicate")


def test_broken_nonsimple():
    run = run_pipeline(load_instance("broken-nonsimple"))
    assert run.verdict == "INCONCLUSIVE"
    assert exit_code(run) == 2
    failing = [c["name"] for c in run.checks if not c["passed"]]
    assert failing == ["atoms.transcendental_simple"]
    status = {s["name"]: s["status"] for s in run.stages}
    assert status["atoms"] == "failed"
    assert status["verdict"] == "not run"


def test_broken_a0plus():
    run = run_pipeline(load_instance("broken-a0plus"))
    assert run.verdict == "INCONCLUSIVE"
    failing = [c["name"] for c in run.checks if not c["passed"]]
    assert failing == ["atoms.case_T_plus_obstructed"]
    # the exclusion search itself still comes up empty
    assert any(c["name"] == "atoms.exclusion_empty" and c["passed"]
               for c in run.checks)
    status = {s["name"]: s["status"] for s in run.stages}
    assert status["atoms"] == "ok"
    cert = build_certificate(run)
    assert any("overridden to 3" in n for n in cert["notes"])


def _records(reason_of):
    """Stage entries and section placeholders for stages that did not finish,
    from stage -> (status, reason); every other stage is "ok"."""
    stages = [{"name": s, "status": "ok"} if s not in reason_of else
              {"name": s, "status": reason_of[s][0], "reason": reason_of[s][1]}
              for s in STAGES]
    sections = {("operator" if s == "eliminate" else s): {"status": st, "reason": why}
                for s, (st, why) in reason_of.items()}
    return stages, sections


@pytest.mark.parametrize("name, kwargs, reason_of", [
    ("verra", {"through": "ansatz"},
     {s: ("not run", "run limited through ansatz")
      for s in ("eliminate", "solve", "spectrum", "atoms", "verdict")}),
    ("verra", {"order": 8},
     {"solve": ("failed", "truncation order 8 < 10 cannot saturate the system"),
      **{s: ("not run", "upstream failure in solve") for s in ("spectrum", "atoms", "verdict")}}),
    ("broken-nonsimple", {},
     {"atoms": ("failed", "transcendental part not known simple"),
      "verdict": ("not run", "upstream failure in atoms")}),
], ids=["through-ansatz", "solve-fails", "atoms-fails"])
def test_stage_and_section_records_of_unfinished_stages(name, kwargs, reason_of):
    run = run_pipeline(load_instance(name), **kwargs)
    stages, sections = _records(reason_of)
    assert run.stages == stages
    assert list(run.sections) == ["period", "ansatz", "operator", "solve", "spectrum",
                                  "atoms", "verdict"]
    assert {k: v for k, v in run.sections.items() if v["status"] != "ok"} == sections
    cert = build_certificate(run)
    for section in ("period", "ansatz", "operator", "solve", "spectrum", "atoms"):
        assert cert[section] is run.sections[section]
