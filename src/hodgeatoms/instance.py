"""Instance files: the declarative inputs of a pipeline run.

Flat key-value sections, one logical section per bracket header. Values
may contain commas (lists, position tags); a comma fragment without an
equals sign continues the previous value. Example:

    [ring] generators=2, nilpotency=3, pairing=2/1
    [involution] swap=H1:H2
    [hodge] h31=1, middle=24, dimT=21, tdecomp=1,19,1, simple=true
    [quantum] N=-4/1, enumerative=t,u, component=5, param_names=s@(0,1),t@(1,2),u@(1,3),v@(0,4)
    [period] source=verra-eq3
    [run] order=16

Unknown sections are kept verbatim as metadata and echoed into
certificates; unknown keys inside known sections are rejected.
"""

from __future__ import annotations

import decimal
import hashlib
import os
import re
from fractions import Fraction
from importlib import resources
from typing import Dict, List, NamedTuple, Optional, Tuple

from .poly import rat_str


class InstanceError(ValueError):
    pass


class InstanceSpec(NamedTuple):
    nilpotency: int
    h31: int
    middle: int
    dim_t: int
    tdecomp: Tuple[int, ...]
    simple: bool
    n_invariant: Fraction
    enumerative: Tuple[str, ...]
    component: int
    param_names: Tuple[Tuple[str, Tuple[int, int]], ...]
    period_source: str
    order: int
    a0plus_override: Optional[int]
    metadata: Dict[str, Dict[str, str]]
    name: str
    source_sha256: str

    def parameter_order(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.param_names)


def _int(digits: str) -> int:
    """int(digits) through Decimal, which has no limit on the number of digits."""
    return int(decimal.Decimal(digits))


def _parse_fraction(text: str, where: str) -> Fraction:
    text = text.strip()
    m = re.fullmatch(r"(-?\d+)(?:/(\d+))?", text)
    if not m:
        raise InstanceError(f"{where}: not a rational: {text!r}")
    num = _int(m.group(1))
    den = _int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise InstanceError(f"{where}: zero denominator in {text!r}")
    return Fraction(num, den)


def _parse_int(text: str, where: str) -> int:
    if not re.fullmatch(r"-?\d+", text.strip()):
        raise InstanceError(f"{where}: not an integer: {text!r}")
    return _int(text)


def _parse_bool(text: str, where: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "false"):
        return t == "true"
    raise InstanceError(f"{where}: not a boolean: {text!r}")


def _split_outside_parens(text: str) -> List[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _parse_param_names(text: str, where: str) -> Tuple[Tuple[str, Tuple[int, int]], ...]:
    out = []
    for item in _split_outside_parens(text):
        m = re.fullmatch(r"(\w+)@\((\d+)\s*,\s*(\d+)\)", item)
        if not m:
            raise InstanceError(f"{where}: bad parameter tag {item!r}, expected name@(row,col)")
        out.append((m.group(1), (_int(m.group(2)), _int(m.group(3)))))
    names = [n for n, _ in out]
    positions = [p for _, p in out]
    if len(set(names)) != len(names):
        raise InstanceError(f"{where}: duplicate parameter names")
    if len(set(positions)) != len(positions):
        raise InstanceError(f"{where}: duplicate parameter positions")
    return tuple(out)


_KNOWN_KEYS = {
    "ring": {"generators", "nilpotency", "pairing"},
    "involution": {"swap"},
    "hodge": {"h31", "middle", "dimT", "tdecomp", "simple", "a0plus"},
    "quantum": {"N", "enumerative", "component", "param_names"},
    "period": {"source"},
    "run": {"order"},
}


def parse_instance_text(text: str, name: str = "") -> InstanceSpec:
    sections: Dict[str, Dict[str, str]] = {}
    lineno_of: Dict[Tuple[str, str], int] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(r"\[(\w+)\]\s*(.*)", line)
        if m:
            current = m.group(1)
            if current in sections:
                raise InstanceError(f"line {lineno}: duplicate section [{current}]")
            sections[current] = {}
            line = m.group(2).strip()
            if not line:
                continue
        if current is None:
            raise InstanceError(f"line {lineno}: key-value pair before any section header")
        pairs: List[List[str]] = []
        for frag in line.split(","):
            if "=" in frag:
                k, v = frag.split("=", 1)
                pairs.append([k.strip(), v.strip()])
            elif pairs:
                pairs[-1][1] += "," + frag.strip()
            else:
                raise InstanceError(f"line {lineno}: dangling fragment {frag.strip()!r}")
        for k, v in pairs:
            if k in sections[current]:
                raise InstanceError(f"line {lineno}: duplicate key {k!r} in [{current}]")
            if current in _KNOWN_KEYS and k not in _KNOWN_KEYS[current]:
                raise InstanceError(f"line {lineno}: unknown key {k!r} in [{current}]")
            sections[current][k] = v
            lineno_of[(current, k)] = lineno

    for required in ("ring", "involution", "hodge", "quantum", "period"):
        if required not in sections:
            raise InstanceError(f"missing required section [{required}]")

    def need(section: str, key: str) -> str:
        if key not in sections[section]:
            raise InstanceError(f"[{section}]: missing key {key!r}")
        return sections[section][key]

    where = lambda s, k: f"line {lineno_of.get((s, k), '?')}: [{s}] {k}"

    generators = _parse_int(need("ring", "generators"), where("ring", "generators"))
    nilpotency = _parse_int(need("ring", "nilpotency"), where("ring", "nilpotency"))
    pairing = _parse_fraction(need("ring", "pairing"), where("ring", "pairing"))
    if generators != 2:
        raise InstanceError("[ring] generators: only the two-generator ring is supported")
    if nilpotency < 2:
        raise InstanceError("[ring] nilpotency: must be at least 2")
    if pairing <= 0:
        raise InstanceError("[ring] pairing: normalization must be positive")

    swap_text = need("involution", "swap")
    m = re.fullmatch(r"(\w+):(\w+)", swap_text.strip())
    if not m or {m.group(1), m.group(2)} != {"H1", "H2"}:
        raise InstanceError(f"[involution] swap: expected H1:H2, got {swap_text!r}")

    h31 = _parse_int(need("hodge", "h31"), where("hodge", "h31"))
    middle = _parse_int(need("hodge", "middle"), where("hodge", "middle"))
    dim_t = _parse_int(need("hodge", "dimT"), where("hodge", "dimT"))
    tdecomp = tuple(_parse_int(x, where("hodge", "tdecomp"))
                    for x in need("hodge", "tdecomp").split(","))
    simple = _parse_bool(need("hodge", "simple"), where("hodge", "simple"))
    a0plus = None
    if "a0plus" in sections["hodge"]:
        a0plus = _parse_int(sections["hodge"]["a0plus"], where("hodge", "a0plus"))
        if a0plus < 0:
            raise InstanceError("[hodge] a0plus: must be non-negative")
    if any(x < 0 for x in (h31, middle, dim_t)) or any(x < 0 for x in tdecomp):
        raise InstanceError("[hodge]: dimensions must be non-negative")
    if sum(tdecomp) != dim_t:
        raise InstanceError(
            f"[hodge] tdecomp: decomposition sums to {rat_str(sum(tdecomp))}, "
            f"dimT is {rat_str(dim_t)}")
    if tdecomp != tuple(reversed(tdecomp)):
        raise InstanceError("[hodge] tdecomp: decomposition must be Hodge-symmetric")
    ambient_middle = nilpotency  # monomials H1^a H2^b with a+b = nilpotency-1
    if dim_t + ambient_middle != middle:
        raise InstanceError(
            f"[hodge] middle: dimT {rat_str(dim_t)} plus ambient middle rank "
            f"{rat_str(ambient_middle)} is {rat_str(dim_t + ambient_middle)}, "
            f"middle is {rat_str(middle)}")

    n_invariant = _parse_fraction(need("quantum", "N"), where("quantum", "N"))
    enumerative = tuple(x.strip() for x in need("quantum", "enumerative").split(",") if x.strip())
    component = _parse_int(need("quantum", "component"), where("quantum", "component"))
    param_names = _parse_param_names(need("quantum", "param_names"), where("quantum", "param_names"))
    known_names = {n for n, _ in param_names}
    for e in enumerative:
        if e not in known_names:
            raise InstanceError(f"[quantum] enumerative: unknown parameter {e!r}")
    sym_dim = nilpotency * (nilpotency + 1) // 2
    if not (0 <= component < sym_dim):
        raise InstanceError(
            f"[quantum] component: {rat_str(component)} outside the symmetric block "
            f"(dimension {rat_str(sym_dim)})")

    period_source = need("period", "source")

    order = 16
    if "run" in sections and "order" in sections["run"]:
        order = _parse_int(sections["run"]["order"], where("run", "order"))
        if order < 0:
            raise InstanceError("[run] order: must be non-negative")

    metadata = {sec: dict(kv) for sec, kv in sections.items() if sec not in _KNOWN_KEYS}

    return InstanceSpec(
        nilpotency=nilpotency, h31=h31, middle=middle, dim_t=dim_t, tdecomp=tdecomp,
        simple=simple, n_invariant=n_invariant, enumerative=enumerative, component=component,
        param_names=param_names, period_source=period_source, order=order,
        a0plus_override=a0plus, metadata=metadata, name=name,
        source_sha256=hashlib.sha256(text.encode("utf-8")).hexdigest())


def load_instance(path: str) -> InstanceSpec:
    """Load an instance from a file path or a bundled instance name."""
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise InstanceError(f"cannot read {path!r}: {e}") from e
        name = os.path.splitext(os.path.basename(path))[0]
        return parse_instance_text(text, name=name)
    bundled = resources.files("hodgeatoms").joinpath("data", f"{path}.instance")
    if bundled.is_file():
        return parse_instance_text(bundled.read_text(encoding="utf-8"), name=path)
    raise InstanceError(f"no such instance file or bundled instance: {path!r}")

