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
from typing import Dict, Optional, Tuple

from .poly import rat_str


class InstanceError(ValueError):
    pass


class InstanceSpec:
    __slots__ = ("nilpotency", "h31", "middle", "dim_t", "tdecomp", "simple", "n_invariant",
                 "enumerative", "component", "param_names", "period_source", "order",
                 "a0plus_override", "metadata", "name", "source_sha256")

    def __init__(self, nilpotency: int, h31: int, middle: int, dim_t: int,
                 tdecomp: Tuple[int, ...], simple: bool, n_invariant: Fraction,
                 enumerative: Tuple[str, ...], component: int,
                 param_names: Tuple[Tuple[str, Tuple[int, int]], ...], period_source: str,
                 order: int, a0plus_override: Optional[int],
                 metadata: Dict[str, Dict[str, str]], name: str, source_sha256: str):
        self.nilpotency, self.h31, self.middle, self.dim_t = nilpotency, h31, middle, dim_t
        self.tdecomp, self.simple, self.n_invariant = tdecomp, simple, n_invariant
        self.enumerative, self.component, self.param_names = enumerative, component, param_names
        self.period_source, self.order, self.a0plus_override = period_source, order, a0plus_override
        self.metadata, self.name, self.source_sha256 = metadata, name, source_sha256

    def parameter_order(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.param_names)


# ASCII digits only: \d and Decimal would also take any Unicode decimal digit
_HEADER = re.compile(r"\[(\w+)\]\s*(.*)")
_INT = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_TAG = re.compile(r"(\w+)@\(([0-9]+)\s*,\s*([0-9]+)\)")
_SWAP = re.compile(r"(\w+):(\w+)")


def _int(digits: str) -> int:
    """int(digits), through Decimal past the interpreter's int-to-str digit limit."""
    try:
        return int(digits)
    except ValueError:
        return int(decimal.Decimal(digits))


def _parse_fraction(text: str) -> Fraction:
    text = text.strip()
    m = _RATIONAL.fullmatch(text)
    if not m:
        raise InstanceError(f"not a rational: {text!r}")
    den = _int(m[2]) if m[2] else 1
    if den == 0:
        raise InstanceError(f"zero denominator in {text!r}")
    return Fraction(_int(m[1]), den)


def _parse_int(text: str) -> int:
    if not _INT.fullmatch(text.strip()):
        raise InstanceError(f"not an integer: {text!r}")
    return _int(text)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "false"):
        return t == "true"
    raise InstanceError(f"not a boolean: {text!r}")


def _parse_param_names(text: str) -> Tuple[Tuple[str, Tuple[int, int]], ...]:
    items, cur, depth = [], [], 0  # text split at the commas outside parentheses
    for piece in text.split(","):
        cur.append(piece)
        depth += piece.count("(") - piece.count(")")
        if depth == 0:
            items.append(",".join(cur))
            cur = []
    out = []
    for item in filter(None, (p.strip() for p in items + [",".join(cur)])):
        m = _TAG.fullmatch(item)
        if not m:
            raise InstanceError(f"bad parameter tag {item!r}, expected name@(row,col)")
        out.append((m[1], (_int(m[2]), _int(m[3]))))
    if len({n for n, _ in out}) != len(out):
        raise InstanceError("duplicate parameter names")
    if len({p for _, p in out}) != len(out):
        raise InstanceError("duplicate parameter positions")
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
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line[0] == "[" and (m := _HEADER.match(line)):
            current, line = m.groups()
            if current in sections:
                raise InstanceError(f"line {lineno}: duplicate section [{current}]")
            sections[current] = values = {}
            known = _KNOWN_KEYS.get(current)
            line = line.strip()
            if not line:
                continue
        if current is None:
            raise InstanceError(f"line {lineno}: key-value pair before any section header")
        key = None
        for frag in line.split(","):
            k, eq, v = frag.partition("=")
            if eq:
                key = k.strip()
                if key in values:
                    raise InstanceError(f"line {lineno}: duplicate key {key!r} in [{current}]")
                if known is not None and key not in known:
                    raise InstanceError(f"line {lineno}: unknown key {key!r} in [{current}]")
                values[key] = v.strip()
                lineno_of[(current, key)] = lineno
            elif key is not None:
                values[key] += "," + frag.strip()
            else:
                raise InstanceError(f"line {lineno}: dangling fragment {frag.strip()!r}")

    for required in ("ring", "involution", "hodge", "quantum", "period"):
        if required not in sections:
            raise InstanceError(f"missing required section [{required}]")

    def read(section: str, key: str, parse):
        """parse of the key's value; the key's line and name head a parse error."""
        if key not in sections[section]:
            raise InstanceError(f"[{section}]: missing key {key!r}")
        try:
            return parse(sections[section][key])
        except InstanceError as e:
            raise InstanceError(f"line {lineno_of[section, key]}: [{section}] {key}: {e}") from None

    generators = read("ring", "generators", _parse_int)
    nilpotency = read("ring", "nilpotency", _parse_int)
    pairing = read("ring", "pairing", _parse_fraction)
    if generators != 2:
        raise InstanceError("[ring] generators: only the two-generator ring is supported")
    if nilpotency < 2:
        raise InstanceError("[ring] nilpotency: must be at least 2")
    if pairing <= 0:
        raise InstanceError("[ring] pairing: normalization must be positive")

    swap_text = read("involution", "swap", str)
    m = _SWAP.fullmatch(swap_text.strip())
    if not m or {m[1], m[2]} != {"H1", "H2"}:
        raise InstanceError(f"[involution] swap: expected H1:H2, got {swap_text!r}")

    h31 = read("hodge", "h31", _parse_int)
    middle = read("hodge", "middle", _parse_int)
    dim_t = read("hodge", "dimT", _parse_int)
    tdecomp = read("hodge", "tdecomp", lambda t: tuple(_parse_int(x) for x in t.split(",")))
    simple = read("hodge", "simple", _parse_bool)
    a0plus = None
    if "a0plus" in sections["hodge"]:
        a0plus = read("hodge", "a0plus", _parse_int)
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

    n_invariant = read("quantum", "N", _parse_fraction)
    enumerative = tuple(x.strip() for x in read("quantum", "enumerative", str).split(",")
                        if x.strip())
    component = read("quantum", "component", _parse_int)
    param_names = read("quantum", "param_names", _parse_param_names)
    known_names = {n for n, _ in param_names}
    for e in enumerative:
        if e not in known_names:
            raise InstanceError(f"[quantum] enumerative: unknown parameter {e!r}")
    sym_dim = nilpotency * (nilpotency + 1) // 2
    if not (0 <= component < sym_dim):
        raise InstanceError(
            f"[quantum] component: {rat_str(component)} outside the symmetric block "
            f"(dimension {rat_str(sym_dim)})")

    period_source = read("period", "source", str)

    order = 16
    if "run" in sections and "order" in sections["run"]:
        order = read("run", "order", _parse_int)
        if order < 0:
            raise InstanceError("[run] order: must be non-negative")

    metadata = {sec: dict(kv) for sec, kv in sections.items() if sec not in _KNOWN_KEYS}

    return InstanceSpec(nilpotency, h31, middle, dim_t, tdecomp, simple, n_invariant, enumerative,
                        component, param_names, period_source, order, a0plus, metadata, name,
                        hashlib.sha256(text.encode("utf-8")).hexdigest())


def load_instance(path: str) -> InstanceSpec:
    """Load an instance from a file path or a bundled instance name. A file
    may start with a UTF-8 byte-order mark, which is not part of its text."""
    name = os.path.splitext(os.path.basename(path))[0]
    if not os.path.exists(path):
        name, path = path, os.path.join(os.path.dirname(__file__), "data", path + ".instance")
        if not os.path.isfile(path):
            raise InstanceError(f"no such instance file or bundled instance: {name!r}")
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InstanceError(f"cannot read {path!r}: {e}") from e
    return parse_instance_text(text, name=name)
