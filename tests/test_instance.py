"""Instance file parsing: happy path, line-numbered errors, invariants."""

import pytest

from hodgeatoms.instance import InstanceError, load_instance, parse_instance_text

GOOD = """\
[ring] generators=2, nilpotency=3, pairing=2/1
[involution] swap=H1:H2
[hodge] h31=1, middle=24, dimT=21, tdecomp=1,19,1, simple=true
[quantum] N=-4/1, enumerative=t,u, component=5, param_names=s@(0,1),t@(1,2),u@(1,3),v@(0,4)
[period] source=verra-eq3
[run] order=16
"""


def test_bundled_verra(verra):
    assert verra.nilpotency == 3
    assert verra.h31 == 1
    assert verra.middle == 24
    assert verra.dim_t == 21
    assert verra.tdecomp == (1, 19, 1)
    assert verra.simple is True
    assert verra.n_invariant == -4
    assert verra.enumerative == ("t", "u")
    assert verra.component == 5
    assert verra.parameter_order() == ("s", "t", "u", "v")
    assert verra.period_source == "verra-eq3"
    assert verra.order == 16
    assert verra.a0plus_override is None
    assert verra.name == "verra"
    assert len(verra.source_sha256) == 64


def test_param_name_positions(verra):
    assert dict(verra.param_names) == {
        "s": (0, 1), "t": (1, 2), "u": (1, 3), "v": (0, 4)}


def test_parse_good_text():
    spec = parse_instance_text(GOOD, name="x")
    assert spec.tdecomp == (1, 19, 1)
    assert spec.name == "x"


def test_sha_tracks_the_text():
    a = parse_instance_text(GOOD)
    b = parse_instance_text(GOOD)
    c = parse_instance_text(GOOD.replace("order=16", "order=12"))
    assert a.source_sha256 == b.source_sha256
    assert a.source_sha256 != c.source_sha256


def test_comments_and_blank_lines():
    text = GOOD.replace("[run] order=16", "# comment\n\n[run] order=16  # trailing")
    assert parse_instance_text(text).order == 16


def test_default_order_without_run_section():
    text = "\n".join(GOOD.splitlines()[:-1])
    assert parse_instance_text(text).order == 16


def err(text):
    with pytest.raises(InstanceError) as e:
        parse_instance_text(text)
    return str(e.value)


def test_parse_errors_carry_line_numbers():
    assert "line 4" in err(GOOD.replace("N=-4/1", "N=x"))
    assert "line 1" in err("generators=2\n" + GOOD)
    assert "line 3" in err(GOOD.replace("middle=24", "middle=24, middle=25"))
    assert "line 3" in err(GOOD.replace("h31=1", "color=blue"))
    assert "line 4" in err(GOOD.replace(
        "param_names=s@(0,1),t@(1,2),u@(1,3),v@(0,4)", "param_names=s@[0]"))


def test_dangling_fragment():
    msg = err(GOOD.replace("[period] source=verra-eq3",
                           "[period] source=verra-eq3\nstray"))
    assert "dangling" in msg


def test_duplicate_section():
    assert "duplicate section" in err(GOOD + "[ring] generators=2\n")


def test_missing_section_and_key():
    no_quantum = "\n".join(l for l in GOOD.splitlines() if "quantum" not in l)
    assert "[quantum]" in err(no_quantum)
    assert "missing key" in err(GOOD.replace(", component=5", ""))


def test_hodge_invariants_name_the_section():
    msg = err(GOOD.replace("tdecomp=1,19,1", "tdecomp=1,18,1"))
    assert "tdecomp" in msg and "20" in msg and "21" in msg
    assert "Hodge-symmetric" in err(GOOD.replace("tdecomp=1,19,1, simple=true",
                                                 "tdecomp=2,18,1, simple=true"))
    msg = err(GOOD.replace("middle=24", "middle=25"))
    assert "middle" in msg
    assert "non-negative" in err(GOOD.replace("h31=1", "h31=-1"))


def test_ring_invariants():
    assert "two-generator" in err(GOOD.replace("generators=2", "generators=3"))
    assert "at least 2" in err(GOOD.replace("nilpotency=3", "nilpotency=1"))
    assert "positive" in err(GOOD.replace("pairing=2/1", "pairing=-2"))
    assert "zero denominator" in err(GOOD.replace("pairing=2/1", "pairing=2/0"))


def test_involution_swap_validation():
    assert "H1:H2" in err(GOOD.replace("swap=H1:H2", "swap=H1:H3"))


def test_quantum_invariants():
    assert "unknown parameter" in err(GOOD.replace("enumerative=t,u", "enumerative=t,w"))
    assert "outside the symmetric block" in err(GOOD.replace("component=5", "component=6"))
    assert "duplicate parameter names" in err(GOOD.replace("v@(0,4)", "s@(0,4)"))
    assert "duplicate parameter positions" in err(GOOD.replace("v@(0,4)", "v@(0,1)"))


def test_a0plus_override_key():
    spec = parse_instance_text(GOOD.replace("simple=true", "simple=true, a0plus=3"))
    assert spec.a0plus_override == 3
    assert "a0plus" in err(GOOD.replace("simple=true", "simple=true, a0plus=-1"))


def test_order_validation():
    assert "non-negative" in err(GOOD.replace("order=16", "order=-2"))


def test_unknown_sections_become_metadata():
    spec = parse_instance_text(GOOD + "[provenance] label=verra fourfold\n")
    assert spec.metadata == {"provenance": {"label": "verra fourfold"}}


def test_load_instance_paths(tmp_path):
    p = tmp_path / "custom.instance"
    p.write_text(GOOD)
    spec = load_instance(str(p))
    assert spec.name == "custom"
    with pytest.raises(InstanceError, match="no such instance"):
        load_instance("does-not-exist")


def test_bundled_names():
    for name in ("verra", "broken-nonsimple", "broken-a0plus"):
        assert load_instance(name).name == name
