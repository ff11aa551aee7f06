"""Canonical certificate serialization.

Certificates are plain dicts of JSON-safe values built by the pipeline;
this module owns the conversions from exact objects to those values and
the two output formats. Identical inputs must produce byte-identical
JSON: keys are sorted, rationals are "num/den" strings, polynomial
coefficients are emitted in a fixed order.
"""

from __future__ import annotations

import decimal
import json
from collections.abc import Sequence
from json.encoder import encode_basestring_ascii

from .linalg import LAM, Matrix
from .poly import Poly, Scalar, _grlex_key, rat_str, render_terms
from .qde import DiffOperator


def poly_json(p: Poly, monos: dict | None = None):
    """Polynomials in q alone become dense coefficient lists ("0" for a missing
    power), anything else a string, its monomials' texts kept in monos if given."""
    i = p.vars.index("q") if "q" in p.vars else len(p.vars)
    if any(any(ex[:i]) or any(ex[i + 1:]) for ex in p.terms):
        return p.render(False, monos)
    dense = ["0"] * (p.total_degree() + 1)
    for ex, c in p.terms.items():
        dense[sum(ex)] = rat_str(c)  # q's exponent, the only nonzero one
    return dense


_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)  # exact for any length


class _Verbatim(str):
    """Text built here with no character that JSON escapes: dump_json writes it as is."""


def rats_json(values: Sequence[Scalar]) -> list[str]:
    return [_Verbatim(rat_str(x)) for x in values]


def equations_json(params: tuple[str, ...], equations: Sequence[tuple]) -> dict[str, object]:
    """solve.equations: poly_json of sum terms[ex] / den * params^ex under "q^m" for each
    (m, den, terms, lowest) of match_equations, monomials ordered once per section. Each
    distinct d of a lowest[ex] = (n, d, g, k) goes to decimal once; n's denominator (d / g) * k
    is a division by g and a product by k. Texts are _Verbatim unless a name needs escaping."""
    exs = sorted({ex for *_, lowest in equations for ex in lowest}, key=_grlex_key, reverse=True)
    kind = _Verbatim if all(encode_basestring_ascii(p) == f'"{p}"' for p in params) else str
    monos, decs, out = {}, {}, {}
    for m, _, terms, lowest in equations:
        items = []
        for ex in exs:
            if ex in lowest:
                n, d, g, k = lowest[ex]
                q = _EXACT.divide_int(decs.get(d) or decs.setdefault(d, decimal.Decimal(d)), g)
                items.append((ex, n, _EXACT.multiply(q, k) if k != 1 else q))
        text = kind(render_terms(params, items, monos))
        out[f"q^{m}"] = text if any(map(any, terms)) else [text]
    return out


def rendered(polys: Sequence[Poly], forms: Sequence[object]) -> list[str]:
    """Each polynomial's render, reused from its poly_json form if that is a string."""
    return [x if isinstance(x, str) else p.render() for p, x in zip(polys, forms)]


def operator_json(op: DiffOperator) -> dict[str, object]:
    monos: dict = {}  # the coefficients share their monomials: each text is made once
    coeffs = [poly_json(c, monos) for c in op.coeffs]
    return {"order": op.order, "coefficients": coeffs,
            "display": op.render(rendered(op.coeffs, coeffs))}


def matrix_json(m: Matrix) -> list[list[object]]:
    return [[poly_json(p) for p in row] for row in m.rows]


def _lam_coeffs(chi: Poly):
    """(k, coefficient of LAM^k) for the nonzero coefficients, k ascending."""
    coeffs = ((k, chi.coeff_of(LAM, k)) for k in range(chi.degree_in(LAM) + 1))
    return [(k, p) for k, p in coeffs if not p.is_zero()]


def chi_render(chi: Poly) -> str:
    """A characteristic polynomial grouped by descending powers of LAM."""
    parts = []
    for k, p in reversed(_lam_coeffs(chi)):
        lk = LAM if k == 1 else f"{LAM}^{k}"
        if k == 0:
            parts.append(f"({p.render()})")
        elif p.constant_value() == 1:
            parts.append(lk)
        elif p.constant_value() is not None:
            parts.append(f"{rat_str(p.constant_value())}*{lk}")
        else:
            parts.append(f"({p.render()})*{lk}")
    return " + ".join(parts) or "0"


def chi_json(chi: Poly) -> dict[str, object]:
    return {
        "display": chi_render(chi),
        "coefficients": {str(k): poly_json(p) for k, p in _lam_coeffs(chi)},
    }


def dump_json(cert: dict[str, object]) -> str:
    """json.dumps(cert, sort_keys=True, indent=2) and a newline, written in one
    pass that appends each piece of text to one list."""
    return "".join(_write_json(cert, "\n", []) + ["\n"])  # one copy of the text, not two


def _write_json(x: object, nl: str, out: list[str]) -> list[str]:
    """out with x's text appended, nl being a newline and x's indent; x is a dict
    with str keys, a list or tuple (written as a list), a str, int, bool or None."""
    if isinstance(x, str):
        out += ('"', x, '"') if type(x) is _Verbatim else (encode_basestring_ascii(x),)
    elif isinstance(x, dict):
        for n, k in enumerate(sorted(x)):
            out.append(("," if n else "{") + nl + "  " + encode_basestring_ascii(k) + ": ")
            _write_json(x[k], nl + "  ", out)
        out.append(nl + "}" if x else "{}")
    elif isinstance(x, (list, tuple)):
        for n, v in enumerate(x):
            out.append(("," if n else "[") + nl + "  ")
            _write_json(v, nl + "  ", out)
        out.append(nl + "]" if x else "[]")
    else:
        out.append("null" if x is None else "true" if x is True else "false" if x is False
                   else int.__repr__(x))
    return out


# -- human-readable rendering --------------------------------------------------

def _fmt_block(title: str, lines: list[str]) -> list[str]:
    return [title, "-" * len(title)] + lines + [""]


def dump_text(cert: dict[str, object]) -> str:
    out: list[str] = []
    out += _fmt_block("verdict", [cert["verdict"]])

    lines = []
    for c in cert["checks"]:
        mark = "PASS" if c["passed"] else "FAIL"
        detail = f"  ({c['detail']})" if c.get("detail") else ""
        lines.append(f"[{mark}] {c['name']}{detail}")
    out += _fmt_block("checks", lines)

    lines = []
    for s in cert["stages"]:
        reason = f"  ({s['reason']})" if s.get("reason") else ""
        lines.append(f"{s['name']}: {s['status']}{reason}")
    out += _fmt_block("stages", lines)

    inst = cert["instance"]
    out += _fmt_block("instance", [f"name: {inst['name']}",
                                   f"sha256: {inst['sha256']}",
                                   f"truncation order: {inst['order']}"])

    for section in ("period", "ansatz", "operator", "solve", "spectrum", "atoms"):
        body = cert.get(section)
        if body is None:
            continue
        if body.get("status") == "not run":
            out += _fmt_block(section, [f"not run ({body.get('reason', '')})"])
            continue
        lines = []
        for key in sorted(body):
            if key == "status":
                continue
            val = body[key]
            if isinstance(val, str):
                lines.append(f"{key}: {val}")
            elif isinstance(val, list) and all(isinstance(x, str) for x in val):
                shown = ", ".join(val[:8]) + (", ..." if len(val) > 8 else "")
                lines.append(f"{key}: [{shown}]")
            else:
                lines.append(f"{key}: {json.dumps(val, sort_keys=True)}")
        out += _fmt_block(section, lines)

    if cert.get("notes"):
        out += _fmt_block("notes", [f"- {n}" for n in cert["notes"]])
    out.append(f"engine {cert['engine_version']}")
    return "\n".join(out) + "\n"
