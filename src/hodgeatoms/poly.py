"""Sparse multivariate polynomials over exact rationals.

A Poly is a map from exponent vectors to nonzero coefficients, over a
variable set fixed at construction. An integral coefficient is stored as an
int and only one with a denominator as a Fraction, so integer arithmetic
runs on ints; constant_value and leading_coefficient return Fractions.
Exponent vectors are tuples aligned with the variable tuple. Zero
coefficients are never stored. Exponents may be negative: a Hodge
polynomial P(t) is a Laurent Poly over (t,).
"""

from __future__ import annotations

import decimal
import heapq
import math
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Mapping, Tuple, Union

Scalar = Union[int, Fraction]


def _as_scalar(c: Scalar) -> Scalar:
    """c as an int when integral, else as its Fraction; TypeError when inexact."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):  # a bool
        return int(c)
    raise TypeError(f"not an exact scalar: {c!r}")


def _grlex_key(ex: tuple) -> tuple:
    return (sum(ex), ex)


def rational_content(values: Iterable[Fraction]) -> Fraction:
    """Positive rational content: gcd of numerators over lcm of denominators;
    0 when every value is 0."""
    num, den = 0, 1
    for c in values:
        num = math.gcd(num, abs(c.numerator))
        den = math.lcm(den, c.denominator)
    return Fraction(num, den) if num else Fraction(0)


def _digits(num: int, den) -> str:
    """"|num|" or "|num|/den" in decimal, den an int or a Decimal; no digit limit."""
    try:
        text = str(num).lstrip("-")
        return text if den == 1 else text + "/" + str(den)
    except ValueError:  # an int past the interpreter's int-to-str limit
        return _digits(decimal.Decimal(num), decimal.Decimal(den))


def rat_str(x: Scalar) -> str:
    """"num" or "num/den", with no limit on the number of digits."""
    text = _digits(x.numerator, x.denominator)
    return "-" + text if x < 0 else text


def render_terms(variables: Tuple[str, ...], items, ascending: bool = False,
                 monos: dict | None = None) -> str:
    """The one text form of a polynomial, from its terms (exponent, numerator,
    denominator), each in lowest terms with a positive int or Decimal denominator:
    graded-lex order, leading term first unless ascending; "0" for no terms. monos,
    when given, keeps each monomial's text (exponent -> text) for later calls."""
    monos = {} if monos is None else monos
    parts = []
    for ex, num, den in sorted(items, key=lambda t: _grlex_key(t[0]), reverse=not ascending):
        if ex not in monos:
            monos[ex] = "*".join(f"{v}^{e}" if e != 1 else v for v, e in zip(variables, ex) if e)
        mono = monos[ex]
        mag = _digits(num, den)
        body = (mono if mag == "1" else f"{mag}*{mono}") if mono else mag
        parts.append(("- " if num < 0 else "+ ") + body)
    return signed_join(parts)


def signed_join(parts: Iterable[str]) -> str:
    """Join "+ body" / "- body" terms, dropping the leading "+ " (or the space
    of a leading "- "); "0" for no terms."""
    text = " ".join(parts)
    return "-" + text[2:] if text.startswith("- ") else (text[2:] or "0")


class Poly:
    __slots__ = ("vars", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple, Scalar] | None = None):
        self.vars = tuple(variables)
        clean = {}
        if terms:
            for ex, c in terms.items():
                ex = tuple(ex)
                if len(ex) != len(self.vars):
                    raise ValueError(f"exponent {ex} does not fit variables {self.vars}")
                c = _as_scalar(c)
                if c:
                    clean[ex] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "Poly":
        return cls(variables)

    @classmethod
    def const(cls, variables: Iterable[str], c: Scalar) -> "Poly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def var(cls, variables: Iterable[str], name: str, power: int = 1, c: Scalar = 1) -> "Poly":
        variables = tuple(variables)
        ex = [0] * len(variables)
        ex[variables.index(name)] = power
        return cls(variables, {tuple(ex): c})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable sets differ: {self.vars} vs {other.vars}")

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            self._check(other)
            return other
        return Poly.const(self.vars, other)

    def __add__(self, other) -> "Poly":
        return Poly(self.vars, _zadd(self.terms, self._coerce(other).terms))

    def __neg__(self) -> "Poly":
        return Poly(self.vars, {ex: -c for ex, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + -self._coerce(other)

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) + -self

    def __mul__(self, other) -> "Poly":
        return Poly(self.vars, _zdot([(self.terms, self._coerce(other).terms)]))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        out = Poly.const(self.vars, 1)
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c: Scalar) -> "Poly":
        c = _as_scalar(c)
        return Poly(self.vars, {ex: cc * c for ex, cc in self.terms.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure queries -------------------------------------------------

    def total_degree(self) -> int:
        return max(map(sum, self.terms), default=0)

    def degree_in(self, name: str) -> int:
        i = self.vars.index(name)
        return max((ex[i] for ex in self.terms), default=0)

    def coeff_of(self, name: str, power: int) -> "Poly":
        """Coefficient of name**power, as a Poly in the same ring."""
        i = self.vars.index(name)
        return Poly(self.vars, {ex[:i] + (0,) + ex[i + 1:]: c
                                for ex, c in self.terms.items() if ex[i] == power})

    def constant_value(self) -> Fraction | None:
        """The value if this is a constant, else None."""
        if not self.terms:
            return Fraction(0)
        c = self.terms.get((0,) * len(self.vars)) if len(self.terms) == 1 else None
        return None if c is None else Fraction(c)

    def variables_present(self) -> tuple:
        return tuple(v for i, v in enumerate(self.vars) if any(ex[i] for ex in self.terms))

    def leading_coefficient(self) -> Fraction:
        """Coefficient of the graded-lex leading monomial; 0 for the zero poly."""
        if not self.terms:
            return Fraction(0)
        return Fraction(self.terms[max(self.terms, key=_grlex_key)])

    # -- calculus and substitution ------------------------------------------

    def euler_derivative(self) -> "Poly":
        """The Euler derivative q d/dq: each monomial c q^k m goes to k c q^k m."""
        i = self.vars.index("q")
        return Poly(self.vars, {ex: c * ex[i] for ex, c in self.terms.items() if ex[i]})

    def substitute(self, values: Mapping[str, Union["Poly", Scalar]]) -> "Poly":
        """Substitute polynomials or scalars for variables, exactly, in one pass
        over the terms into one term dict; each power of a value is formed once."""
        subs = [i for i, v in enumerate(self.vars) if v in values]
        powers: dict = {}  # (i, e) -> values[vars[i]] ** e as a term dict
        out: dict = {}
        for ex, c in self.terms.items():
            term = {tuple(0 if i in subs else e for i, e in enumerate(ex)): c}
            for i, e in [(i, ex[i]) for i in subs if ex[i]]:
                if (i, e) not in powers:
                    powers[i, e] = (self._coerce(values[self.vars[i]]) ** e).terms
                term = _zdot([(term, powers[i, e])])
            for k, v in term.items():
                out[k] = out.get(k, 0) + v
        return Poly(self.vars, {k: v for k, v in out.items() if v})

    def rename_vars(self, variables: Iterable[str], mapping: Mapping[str, str] | None = None) -> "Poly":
        """Re-embed into another variable tuple (old names mapped by identity or `mapping`)."""
        variables = tuple(variables)
        if variables == self.vars and not mapping:
            return self  # no Poly's terms are ever mutated, so self can be shared
        names = [mapping.get(v, v) for v in self.vars] if mapping else self.vars
        out = {}
        for ex, c in self.terms.items():
            nex = [0] * len(variables)
            for name, e in zip(names, ex):
                if e:
                    nex[variables.index(name)] += e
            key = tuple(nex)
            out[key] = out[key] + c if key in out else c
        return Poly(variables, out)

    # -- rendering -----------------------------------------------------------

    def render(self, ascending: bool = False) -> str:
        """Deterministic human-readable form, graded-lex term order (leading
        term first unless ascending)."""
        return render_terms(self.vars, [(ex, c.numerator, c.denominator)
                                        for ex, c in self.terms.items()], ascending)

    def __repr__(self):
        return f"Poly({self.render()})"


# -- term-dict kernel ----------------------------------------------------------
#
# Polynomials as dicts from monomials to nonzero coefficients. Poly's ring
# operations run _zadd and _zdot on exponent tuples and int or Fraction values;
# elimination and the gcd run on ints (over Z). Exact division and _pdot run
# on packed monomials (Monagan and Pearce 2011): one int with the total degree
# in the top field, then the exponents, first variable most significant, so int
# order is graded-lex order and a monomial product is one integer addition.
# Each field has a guard bit; b divides a when no field of a - b borrows through it.

def _packing(nvars: int, maxdeg: int) -> Tuple[int, int]:
    """(field width, guard mask) for nvars variables and total degrees <= maxdeg."""
    width = maxdeg.bit_length() + 1
    return width, sum(1 << (width * i + width - 1) for i in range(nvars + 1))


def _pack(terms: dict, width: int) -> dict:
    """Term dict with each exponent tuple packed into one int key."""
    out = {}
    for ex, c in terms.items():
        key = sum(ex)
        for e in ex:
            key = key << width | e
        out[key] = c
    if min(out, default=0) < 0:  # a negative exponent makes its key negative
        raise ValueError("cannot pack a negative exponent")
    return out


def _unpack(terms: dict, nvars: int, width: int) -> dict:
    """Inverse of _pack."""
    mask, shifts = (1 << width) - 1, range(width * (nvars - 1), -1, -width)
    return {tuple(key >> s & mask for s in shifts): c for key, c in terms.items()}


def _zprimitive(p: Poly) -> Tuple[dict, Fraction]:
    """(P, c) with p = c*P, P primitive over Z and c > 0; ({}, 0) for p = 0."""
    c = rational_content(p.terms.values())
    num, den = c.numerator, c.denominator
    return {ex: v.numerator * (den // v.denominator) // num
            for ex, v in p.terms.items()}, c


def _zdot(pairs: Iterable[Tuple[dict, dict]]) -> dict:
    """Sum of the products a*b over the pairs, into one term dict."""
    out: dict = {}
    get = out.get
    for a, b in pairs:
        for ea, ca in a.items():
            for eb, cb in b.items():
                ex = tuple(map(add, ea, eb))
                out[ex] = get(ex, 0) + ca * cb
    return {ex: c for ex, c in out.items() if c}


def _pdot(pairs: Iterable[Tuple[dict, dict]]) -> dict:
    """_zdot on packed term dicts, where a monomial product is one int sum."""
    out: dict = {}
    get = out.get
    for a, b in pairs:
        for ea, ca in a.items():
            for eb, cb in b.items():
                ex = ea + eb
                out[ex] = get(ex, 0) + ca * cb
    return {ex: c for ex, c in out.items() if c}


def _zadd(a: dict, b: dict) -> dict:
    out = dict(a)
    for ex, c in b.items():
        out[ex] = out.get(ex, 0) + c
    return {ex: c for ex, c in out.items() if c}


def _zdiv(a: dict, b: dict, guard: int) -> dict | None:
    """Quotient a/b over Z on packed monomials, or None when b (nonzero) does
    not divide a; guard is the packing's guard mask.

    Leading terms come off a heap; a monomial popped once never comes back,
    since every later term lies below it in graded-lex order. No term of the
    remainder has a higher total degree than a's leading term, so a packing
    that holds a and b holds every intermediate monomial.
    """
    if not a:
        return {}
    bex = max(b)
    bc = b[bex]
    rest = [(ex, c) for ex, c in b.items() if ex != bex]
    rem = dict(a)
    heap = [-ex for ex in rem]
    heapq.heapify(heap)
    quot = {}
    while heap:
        ex = -heapq.heappop(heap)
        c = rem.pop(ex)
        if not c:
            continue
        f, r = divmod(c, bc)
        if r or ((ex | guard) - bex) & guard != guard:
            return None
        dif = ex - bex
        quot[dif] = f
        for ex2, c2 in rest:
            tgt = dif + ex2
            v = rem.get(tgt)
            if v is None:
                rem[tgt] = -f * c2
                heapq.heappush(heap, -tgt)
            else:
                rem[tgt] = v - f * c2
    return quot


def _zquotient(a: dict, b: dict) -> dict | None:
    """_zdiv on exponent-tuple dicts (b nonzero), packed in and unpacked out."""
    nvars = len(next(iter(b)))
    width, guard = _packing(nvars, max(sum(ex) for ex in (*a, *b)))
    quot = _zdiv(_pack(a, width), _pack(b, width), guard)
    return None if quot is None else _unpack(quot, nvars, width)


def _zevaluate(f: dict, xi: int) -> dict:
    """f at first variable = xi, over the remaining variables."""
    powers = [1]
    for _ in range(max(ex[0] for ex in f)):
        powers.append(powers[-1] * xi)
    out: dict = {}
    for ex, c in f.items():
        out[ex[1:]] = out.get(ex[1:], 0) + c * powers[ex[0]]
    return {ex: c for ex, c in out.items() if c}


def _zinterpolate(h: dict, xi: int) -> dict:
    """The polynomial in a new first variable whose coefficients are the
    balanced base-xi digits of h's, so that it equals h at that variable = xi."""
    out = {}
    half = xi // 2
    k = 0
    while h:
        rest = {}
        for ex, c in h.items():
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[(k,) + ex] = d
            if c != d:
                rest[ex] = (c - d) // xi
        h = rest
        k += 1
    return out


def exact_div(a: Poly, b: Poly) -> Poly:
    """Quotient a/b when b divides a exactly; ValueError otherwise."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    a._check(b)
    if a.is_zero():
        return Poly.zero(a.vars)
    (za, ca), (zb, cb) = _zprimitive(a), _zprimitive(b)
    # b's primitive part divides a's over Q exactly when it does over Z (Gauss)
    quot = _zquotient(za, zb)
    if quot is None:
        raise ValueError("not exactly divisible")
    k = _as_scalar(ca / cb)
    return Poly(a.vars, {ex: c * k for ex, c in quot.items()})


def normal_form(p: Poly) -> Poly:
    """Primitive multiple of p with a positive graded-lex leading coefficient."""
    z = _zprimitive(p)[0]
    sign = -1 if z and z[max(z, key=_grlex_key)] < 0 else 1
    return Poly(p.vars, {ex: sign * c for ex, c in z.items()})


def _heu_gcd(f: dict, g: dict) -> dict:
    """Gcd over Z of two nonzero integer polynomials, up to sign, by GCDHEU
    (Char, Geddes and Gonnet 1989).

    The first variable is evaluated at an integer xi, the gcd of the images
    is taken one variable down, and its balanced base-xi digits give the
    candidate. With xi >= 2 min(|f|, |g|) + 2 (max norms), a primitive
    candidate that divides both f and g is their gcd; else xi grows.

    Why the loop ends: write f = G A and g = G B, A and B coprime. Finitely
    many xi are unlucky: f(xi) or g(xi) is 0, or A(xi) and B(xi) share a
    polynomial factor. Elsewhere the images' gcd is s G(xi), the integer s
    dividing a fixed nonzero integer combination of the coefficients of A
    and B in the other variables (coprime polynomials in the first), so
    bounded. xi grows without bound; once xi > 2 |s G| the digits are s G,
    whose primitive part divides f and g. The recursion ends likewise.
    """
    if not next(iter(f)):
        return {(): math.gcd(f[()], g[()])}
    cont = math.gcd(math.gcd(*f.values()), math.gcd(*g.values()))
    if cont > 1:
        f = {ex: c // cont for ex, c in f.items()}
        g = {ex: c // cont for ex, c in g.items()}
    if not any(ex[0] for ex in f) and not any(ex[0] for ex in g):
        h = _heu_gcd({ex[1:]: c for ex, c in f.items()}, {ex[1:]: c for ex, c in g.items()})
        return {(0,) + ex: c * cont for ex, c in h.items()}
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 2
    while True:
        ff, gg = _zevaluate(f, xi), _zevaluate(g, xi)
        if ff and gg:
            h = _zinterpolate(_heu_gcd(ff, gg), xi)
            c = math.gcd(*h.values())
            h = {ex: v // c for ex, v in h.items()}
            if _zquotient(f, h) is not None and _zquotient(g, h) is not None:
                return {ex: v * cont for ex, v in h.items()}
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Gcd over Q[vars], primitive with positive leading coefficient.

    GCDHEU on the primitive integer multiples of a and b, less their common
    monomial factor (the least exponent of each variable over both), which
    would swell every evaluation.
    """
    if a.is_zero() or b.is_zero():
        return normal_form(b if a.is_zero() else a)
    a._check(b)
    za, zb = _zprimitive(a)[0], _zprimitive(b)[0]
    low = tuple(map(min, zip(*za, *zb)))
    h = _heu_gcd(_shift(za, low, sub), _shift(zb, low, sub))
    return normal_form(Poly(a.vars, _shift(h, low, add)))


def _shift(terms: dict, low: tuple, op) -> dict:
    """terms with each exponent tuple shifted by low (op is add or sub)."""
    return {tuple(map(op, ex, low)): c for ex, c in terms.items()}


def poly_gcd_many(polys) -> Tuple[Poly, list]:
    """(g, quotients): the gcd g of the nonzero polynomials in polys (0 when
    there are none) and each polynomial over g, a zero one staying zero.

    The common monomial (the least exponent of each variable over every term)
    comes off by a shift, and the rest is scanned fewest terms first: the
    running gcd is kept while it divides the next polynomial, and the scan
    stops once it is constant. Each test division gives its quotient; only
    the first polynomial and those tested before the gcd last shrank are
    divided again. When the gcd is a monomial nothing is divided; a shifted
    polynomial is put leading term first, the order exact_div leaves.
    """
    polys = list(polys)
    low = tuple(map(min, zip(*(ex for p in polys for ex in p.terms))))
    if any(low):
        polys = [Poly(p.vars, _shift(p.terms, low, sub)) for p in polys]
    todo = sorted((i for i, p in enumerate(polys) if p), key=lambda i: len(polys[i].terms)) or [0]
    g, quots = normal_form(polys[todo[0]]), {}
    for i in todo[1:]:
        if g.constant_value() is not None:
            break
        try:
            quots[i] = exact_div(polys[i], g)
        except ValueError:
            g, quots = poly_gcd(g, polys[i]), {}
    if g.constant_value() is None:  # else 1, or 0 when every polynomial is
        polys = [quots[i] if i in quots else exact_div(p, g) if p else p
                 for i, p in enumerate(polys)]
    elif any(low):
        polys = [Poly(p.vars, dict(sorted(p.terms.items(), key=lambda t: _grlex_key(t[0]),
                                          reverse=True))) for p in polys]
    return (Poly(g.vars, _shift(g.terms, low, add)) if any(low) else g), polys
