"""Canonical serialization of exact objects."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hodgeatoms.certificate import (chi_json, chi_render, dump_json, dump_text,
                                    equations_json, matrix_json, operator_json,
                                    poly_json, rat_str, rendered)
from hodgeatoms.linalg import LAM, Matrix
from hodgeatoms.instance import load_instance
from hodgeatoms.pipeline import build_certificate, run_pipeline
from hodgeatoms.poly import Poly, render_terms
from hodgeatoms.qde import DiffOperator

Q = ("q",)


def qp(*pairs):
    return Poly(Q, {(e,): Fraction(c) for e, c in pairs})


def test_rat_str():
    assert rat_str(Fraction(5)) == "5"
    assert rat_str(Fraction(-4)) == "-4"
    assert rat_str(Fraction(280, 9)) == "280/9"
    assert rat_str(Fraction(-3, 7)) == "-3/7"


def test_poly_json_dense_lists():
    assert poly_json(qp((0, 1), (2, -16))) == ["1", "0", "-16"]
    assert poly_json(qp()) == ["0"]
    assert poly_json(qp((0, Fraction(1, 2)))) == ["1/2"]


def test_poly_json_parametric_fallback():
    p = Poly(("s", "q"), {(1, 1): Fraction(2)})
    assert poly_json(p) == "2*s*q"
    # a constant over non-q variables still serializes as a list
    c = Poly(("s", "q"), {(0, 0): Fraction(3)})
    assert poly_json(c) == ["3"]


def _render_reference(p, ascending=False):
    # Poly.render as it was before the shared term renderer: one
    # Fraction.__str__ of each coefficient's magnitude
    parts = []
    for ex, c in sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]),
                        reverse=not ascending):
        mono = "*".join(f"{v}^{e}" if e != 1 else v for v, e in zip(p.vars, ex) if e)
        mag = str(abs(c))
        body = mono if mono and mag == "1" else f"{mag}*{mono}" if mono else mag
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return "-" + text[2:] if text.startswith("- ") else (text[2:] or "0")


STU = ("s", "t", "u")
_EXPONENTS = [(a, b, c) for a in range(3) for b in range(3) for c in range(3) if a + b + c <= 2]


@st.composite
def integer_equations(draw):
    """(den, terms) as solve reports its equations: coefficients of +-1,
    numerators sharing part of den, large ones, and constant-only equations;
    small denominators, or the shape at depth: denominators of up to 2,400
    bits and numerators of up to 460 bits sharing a 16-64-bit factor."""
    if draw(st.booleans()):
        den = draw(st.integers(1, 60))
        shared = draw(st.integers(1, den))
        multiples = st.integers(-40, 40)
    else:
        shared = draw(st.integers(2 ** 15, 2 ** 64))
        den = shared * draw(st.integers(1, 2 ** 2400 // shared))
        multiples = st.integers(-2 ** 400, 2 ** 400)
    values = st.one_of(st.sampled_from([den, -den]),
                       multiples.map(lambda k: k * shared),
                       st.integers(-10 ** 40, 10 ** 40)).filter(bool)
    terms = draw(st.one_of(
        st.dictionaries(st.sampled_from(_EXPONENTS), values, min_size=1, max_size=7),
        values.map(lambda v: {(0, 0, 0): v})))
    return den, terms


def _equations_reference(params, equations):
    # equations_json as it was before the decimal denominator per equation:
    # den // g as an int for every term
    monos: dict = {}
    out = {}
    for m, den, terms in equations:
        text = render_terms(params, [(ex, v // g, den // g) for ex, v in terms.items()
                                     for g in [math.gcd(v, den)]], monos=monos)
        out[f"q^{m}"] = text if any(map(any, terms)) else [text]
    return out


def _handed_on(equations):
    """(m, den, terms) with the gcds match_equations hands on, gcd(v, den) per term."""
    return [(m, den, terms, {ex: math.gcd(v, den) for ex, v in terms.items()})
            for m, den, terms in equations]


@given(st.lists(integer_equations(), min_size=1, max_size=4))
def test_equation_json_is_poly_json_of_the_fraction_form(equations):
    # one section of several equations shares its monomial texts
    numbered = [(m, den, terms) for m, (den, terms) in enumerate(equations)]
    section = equations_json(STU, _handed_on(numbered))
    assert section == _equations_reference(STU, numbered)
    assert list(section) == [f"q^{m}" for m in range(len(equations))]
    for m, (den, terms) in enumerate(equations):
        p = Poly(STU, {ex: Fraction(v, den) for ex, v in terms.items()})
        text = _render_reference(p)
        expected = text if p.variables_present() else [text]
        assert section[f"q^{m}"] == expected
        assert poly_json(p) == expected
        assert p.render() == text
        assert p.render(ascending=True) == _render_reference(p, ascending=True)


def test_equation_json_past_the_digit_limit():
    # a 5,000-digit denominator and numerators sharing a 64-bit factor with it
    shared = 2 ** 64 - 59
    den = shared * (10 ** 5000 // shared + 7)
    terms = {(1, 0, 0): 3 * shared, (0, 1, 0): -(10 ** 4500 + 1) * shared,
             (0, 0, 0): den - 1, (0, 0, 2): den}
    section = equations_json(STU, _handed_on([(9, den, terms)]))
    assert section == _equations_reference(STU, [(9, den, terms)])
    parts = section["q^9"].split(" ")
    assert parts[0] == "u^2"
    assert len(parts[-1]) > 10000 and parts[-1] == rat_str(Fraction(den - 1, den))


def test_equation_json_frozen_cases():
    assert equations_json(STU, _handed_on([
        (3, 6, {(1, 0, 0): 6, (0, 1, 0): -6, (0, 0, 0): 4}),
        (4, 4, {(0, 0, 2): -2, (1, 1, 0): 4}),
        (5, 3, {(0, 0, 0): -9}),
        (7, 10, {(0, 0, 0): 4}),
        (8, 2, {(1, 1, 0): 2, (1, 0, 0): -1})])) == {
        "q^3": "s - t + 2/3", "q^4": "s*t - 1/2*u^2", "q^5": ["-3"], "q^7": ["2/5"],
        "q^8": "s*t - 1/2*s"}
    assert equations_json(STU, []) == {}


def test_period_coefficients_json(full_run):
    assert full_run.sections["period"]["coefficients"][:4] == ["1", "4", "15", "280/9"]


def test_operator_json():
    op = DiffOperator((qp((1, -2)), qp((0, 1))))
    out = operator_json(op)
    assert out == {
        "order": 1,
        "coefficients": [["0", "-2"], ["1"]],
        "display": "D - 2*q",
    }


def test_matrix_json():
    m = Matrix([[qp((1, 2)), qp()], [qp((0, 1)), qp((2, -1))]])
    assert matrix_json(m) == [[["0", "2"], ["0"]], [["1"], ["0", "0", "-1"]]]


def test_rendered_reuses_the_json_text():
    s = Poly(("s", "q"), {(1, 1): Fraction(2)})
    polys = [s, Poly(("s", "q"), {(0, 2): Fraction(-1, 2)}), Poly.zero(("s", "q"))]
    assert rendered(polys, [poly_json(p) for p in polys]) == ["2*s*q", "-1/2*q^2", "0"]
    # a string form is taken as the text; a list form is rendered
    assert rendered(polys, ["as given", ["-1/2"], ["0"]]) == ["as given", "-1/2*q^2", "0"]


def test_chi_json():
    QL = ("q", LAM)
    chi = Poly(QL, {(0, 3): Fraction(1), (1, 1): Fraction(-4)})     # lam^3 - 4 q lam
    out = chi_json(chi)
    assert out["display"] == "lam^3 + (-4*q)*lam"
    assert out["coefficients"] == {"1": ["0", "-4"], "3": ["1"]}
    # every coefficient shape: constant 1, other constants, polynomials, lam^0
    chi = Poly(QL, {(0, 4): Fraction(1), (0, 3): Fraction(-2), (1, 2): Fraction(3),
                    (0, 2): Fraction(1), (2, 0): Fraction(1, 2)})
    assert chi_render(chi) == "lam^4 + -2*lam^3 + (3*q + 1)*lam^2 + (1/2*q^2)"
    assert chi_json(chi)["coefficients"] == {
        "0": ["0", "0", "1/2"], "2": ["1", "3"], "3": ["-2"], "4": ["1"]}
    assert chi_render(Poly.zero(QL)) == "0" and chi_json(Poly.zero(QL))["coefficients"] == {}


def test_dump_json_canonical():
    cert = {"b": 1, "a": {"z": [Fraction is None], "y": 2}}
    text = dump_json({"b": 1, "a": {"z": [False], "y": 2}})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert text.index('"y"') < text.index('"z"')
    assert dump_json(cert) == dump_json(cert)


def test_dump_text_sections():
    cert = {
        "verdict": "INCONCLUSIVE",
        "checks": [{"name": "a.b", "passed": True, "detail": ""},
                   {"name": "c.d", "passed": False, "detail": "boom"}],
        "stages": [{"name": "period", "status": "ok", "reason": ""},
                   {"name": "solve", "status": "not run", "reason": "stopped"}],
        "instance": {"name": "x", "sha256": "f" * 64, "order": 16},
        "period": {"status": "ok", "coefficients": ["1", "4"]},
        "solve": {"status": "not run", "reason": "stopped early"},
        "notes": ["a note"],
        "engine_version": "0.0-test",
    }
    text = dump_text(cert)
    assert "[PASS] a.b" in text
    assert "[FAIL] c.d  (boom)" in text
    assert "solve: not run  (stopped)" in text
    assert "not run (stopped early)" in text
    assert "coefficients: [1, 4]" in text
    assert "- a note" in text
    assert text.rstrip().endswith("engine 0.0-test")


_SYNTHETIC = {
    "empty": {"dict": {}, "list": [], "tuple": ()},
    "flags": [True, False, None, -7, 0, 12345678901234567890],
    "tuple": ("a", (1, ()), {"z": [], "a": {}}),
    "text": ['a "quote"', "a \\ backslash", "a\nnewline", "caf\u00e9 \u2013 \U0001d11e", ""],
    "z\u00e9\"key\\\n": {"b": 1, "a": [{}]},
}


@pytest.mark.parametrize("name, through, order", [
    ("verra", "verdict", 16), ("verra", "verdict", 200), ("broken-nonsimple", "verdict", None),
    ("broken-a0plus", "verdict", None), ("verra", "eliminate", None), (None, None, None)])
def test_dump_json_equals_the_json_module(name, through, order):
    # the one-pass writer against the reference serialization, byte for byte;
    # full, INCONCLUSIVE and partial certificates, and the synthetic one
    cert = (build_certificate(run_pipeline(load_instance(name), through, order))
            if name else _SYNTHETIC)
    assert dump_json(cert) == json.dumps(cert, sort_keys=True, indent=2) + "\n"
