"""Polynomial kernel: arithmetic, normal forms, gcd, exact division."""

import decimal
import heapq
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from hodgeatoms import poly
from hodgeatoms.linalg import Matrix
from hodgeatoms.poly import (Poly, exact_div, normal_form, poly_gcd, poly_gcd_many, rat_str,
                             rational_content)
from hodgeatoms.qde import cyclic_rows
from conftest import to_sympy

V = ("s", "t", "q")


def P(terms):
    return Poly(V, terms)


def random_poly(rng, max_terms=4, max_exp=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        ex = tuple(rng.randint(0, max_exp) for _ in V)
        terms[ex] = terms.get(ex, 0) + rng.randint(-5, 5)
    return P(terms)


def test_zero_coefficients_never_stored():
    p = P({(1, 0, 0): 1, (0, 1, 0): 0})
    assert p.terms == {(1, 0, 0): Fraction(1)}
    assert (p - p).is_zero()
    assert not (p - p)


def test_exponent_arity_checked():
    with pytest.raises(ValueError):
        Poly(V, {(1, 0): 1})


def test_float_coefficient_rejected():
    with pytest.raises(TypeError, match="not an exact scalar: 0.5"):
        P({(1, 0, 0): 0.5})


def test_mixed_variable_sets_rejected():
    with pytest.raises(ValueError):
        P({(1, 0, 0): 1}) + Poly(("q",), {(1,): 1})


def test_scalar_coercion():
    q = Poly.var(V, "q")
    assert (q + 1) - 1 == q
    assert q * 2 == q.scale(2)
    assert (1 - q) + (q - 1) == 0


def test_ring_identities_on_random_polys():
    rng = random.Random(7)
    for _ in range(20):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_pow():
    q = Poly.var(V, "q")
    assert (q + 1) ** 2 == q * q + q * 2 + 1
    assert (q + 1) ** 0 == 1
    with pytest.raises(ValueError):
        q ** -1


def test_structure_queries():
    p = P({(1, 0, 1): 2, (0, 0, 0): -3})   # 2 s q - 3
    assert p.total_degree() == 2
    assert p.degree_in("q") == 1
    assert p.degree_in("t") == 0
    assert p.coeff_of("q", 1) == P({(1, 0, 0): 2})
    assert p.coeff_of("q", 0) == P({(0, 0, 0): -3})
    assert p.variables_present() == ("s", "q")
    assert p.constant_value() is None
    assert P({(0, 0, 0): 5}).constant_value() == 5
    assert Poly.zero(V).constant_value() == 0
    assert p.leading_coefficient() == 2
    assert Poly.zero(V).leading_coefficient() == 0


def euler_derivative(p):
    """q d/dq as cyclic_rows takes it: r_2 = D(p) + p^2 for the 1 x 1 system D y = p y."""
    return cyclic_rows(Matrix([[p]]), 0, 2).rows[2][0] - p * p


def test_euler_derivative():
    # q d/dq multiplies each monomial by its q-exponent
    p = P({(0, 0, 2): 3, (0, 0, 1): 5, (0, 0, 0): 7})
    assert euler_derivative(p) == P({(0, 0, 2): 6, (0, 0, 1): 5})


def test_euler_derivative_is_a_derivation():
    rng = random.Random(11)
    for _ in range(10):
        f, g = random_poly(rng), random_poly(rng)
        lhs = euler_derivative(f * g)
        rhs = euler_derivative(f) * g + f * euler_derivative(g)
        assert lhs == rhs


def termwise_difference(a, b):
    """a - b term by term, with either side a scalar."""
    vs = a.vars if isinstance(a, Poly) else b.vars
    a, b = (x if isinstance(x, Poly) else Poly.const(vs, x) for x in (a, b))
    out = dict(a.terms)
    for ex, c in b.terms.items():
        out[ex] = out.get(ex, 0) - c
    return Poly(vs, out)


sub_operands = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4),
                         st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3),
                                         st.fractions(-3, 3, max_denominator=4),
                                         max_size=4).map(P))


@given(sub_operands, sub_operands)
def test_sub_and_rsub_match_the_termwise_difference(a, b):
    # through __sub__ when a is a Poly, through __rsub__ when only b is;
    # x - x cancels to the zero polynomial
    if isinstance(a, Poly) or isinstance(b, Poly):
        want = termwise_difference(a, b)
        assert a - b == want
        assert list((a - b).terms) == list(want.terms)
    if isinstance(a, Poly):
        assert (a - a).is_zero()


def test_substitute_and_evaluate():
    p = P({(2, 0, 0): 1, (1, 1, 0): 1, (0, 0, 1): 1})   # s^2 + s t + q
    at = p.substitute({"s": 2})
    assert at == P({(0, 1, 0): 2, (0, 0, 1): 1, (0, 0, 0): 4})
    rule = Poly.var(V, "t") + 1
    assert p.substitute({"s": rule}).substitute({"t": 1, "q": 0}).constant_value() == 6
    assert p.substitute({"s": 1, "t": 2, "q": Fraction(1, 2)}).constant_value() == Fraction(7, 2)


def substitute_reference(p, values):
    """Poly.substitute as it was: one Poly per term, each power of a value by
    repeated Poly products."""
    out = Poly.zero(p.vars)
    for ex, c in p.terms.items():
        term = Poly.const(p.vars, c)
        for name, e in zip(p.vars, ex):
            if e:
                term = term * (p._coerce(values[name]) ** e if name in values
                               else Poly.var(p.vars, name, e))
        out = out + term
    return out


def polys_over_v(max_exp, max_terms):
    return st.dictionaries(st.tuples(*[st.integers(0, max_exp)] * len(V)),
                           st.fractions(-5, 5, max_denominator=4), max_size=max_terms).map(P)


# scalars (zero included) and polynomials; "x" is not a variable of V
substitution_values = st.dictionaries(
    st.sampled_from(V + ("x",)),
    st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3), polys_over_v(2, 3)),
    max_size=4)


@given(polys_over_v(3, 6), substitution_values)
def test_substitute_matches_expand_by_products(p, values):
    assert p.substitute(values) == substitute_reference(p, values)


def test_substitute_rejects_a_negative_power():
    # a Laurent term: the negative power of a substituted variable is an error,
    # not an empty product; a variable left alone keeps its negative exponent
    p = P({(-1, 0, 0): 1, (0, 0, 1): 2})
    for value in (2, Fraction(1, 2), Poly.var(V, "q")):
        with pytest.raises(ValueError, match="negative power"):
            p.substitute({"s": value})
    assert p.substitute({"q": 3}) == P({(-1, 0, 0): 1, (0, 0, 0): 6})
    assert p.substitute({"q": 3}) == substitute_reference(p, {"q": 3})


def test_rename_vars():
    p = P({(1, 0, 1): 3})
    wide = p.rename_vars(("a", "s", "t", "q"))
    assert wide.vars == ("a", "s", "t", "q")
    assert wide.terms == {(0, 1, 0, 1): Fraction(3)}
    swapped = p.rename_vars(("u", "q"), {"s": "u"})
    assert swapped.terms == {(1, 1): Fraction(3)}


def test_inexact_scalars_rejected_by_the_constructor_and_scale():
    for c in (0.5, decimal.Decimal("0.5"), "1/2"):
        with pytest.raises(TypeError, match="not an exact scalar"):
            Poly(("x",), {(1,): c})
        with pytest.raises(TypeError, match="not an exact scalar"):
            Poly.const(("x",), 1).scale(c)


# the reference model: term dicts whose every value is a Fraction
def fraction_terms(terms):
    return {ex: Fraction(c) for ex, c in terms.items() if c}


def ref_add(a, b, sign=1):
    out = dict(a)
    for ex, c in b.items():
        out[ex] = out.get(ex, Fraction(0)) + sign * c
    return {ex: c for ex, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            ex = tuple(x + y for x, y in zip(ea, eb))
            out[ex] = out.get(ex, Fraction(0)) + ca * cb
    return {ex: c for ex, c in out.items() if c}


def ref_map(a, key, factor):
    """Each term moved to key(ex) and scaled by factor(ex), summed."""
    out = {}
    for ex, c in a.items():
        out = ref_add(out, {key(ex): c * factor(ex)})
    return out


def ref_substitute(a, values):
    """values: variable index -> Fraction term dict."""
    out = {}
    for ex, c in a.items():
        term = {tuple(0 if i in values else e for i, e in enumerate(ex)): c}
        for i, v in values.items():
            for _ in range(ex[i]):
                term = ref_mul(term, v)
        out = ref_add(out, term)
    return out


def assert_holds_as_scalars(p, want):
    """p has want's terms, each integral value stored as an int and every
    other one as a Fraction; its scalar accessors return Fractions."""
    assert p.terms == want
    for c in p.terms.values():
        assert type(c) in (int, Fraction)
        assert type(c) is (int if c.denominator == 1 else Fraction)
    assert type(p.leading_coefficient()) is Fraction
    assert p.constant_value() is None or type(p.constant_value()) is Fraction


scalars = st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=4))
mixed_terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(V)), scalars, max_size=5)


@given(mixed_terms, mixed_terms, st.integers(-4, 4), st.fractions(-4, 4, max_denominator=5),
       st.dictionaries(st.integers(0, len(V) - 1), st.one_of(scalars, mixed_terms), max_size=2),
       st.integers(0, 2))
def test_integral_coefficients_are_stored_as_ints(a, b, k, f, values, power):
    pa, pb = P(a), P(b)
    ra, rb = fraction_terms(a), fraction_terms(b)
    assert_holds_as_scalars(pa, ra)
    assert_holds_as_scalars(pa + pb, ref_add(ra, rb))
    assert_holds_as_scalars(pa - pb, ref_add(ra, rb, -1))
    assert_holds_as_scalars(pa * pb, ref_mul(ra, rb))
    for c in (k, f):
        assert_holds_as_scalars(pa.scale(c), ref_map(ra, lambda ex: ex, lambda ex: Fraction(c)))
    subs = {i: fraction_terms(v) if isinstance(v, dict) else fraction_terms({(0,) * len(V): v})
            for i, v in values.items()}
    assert_holds_as_scalars(
        pa.substitute({V[i]: P(v) if isinstance(v, dict) else v for i, v in values.items()}),
        ref_substitute(ra, subs))
    qi = V.index("q")
    assert_holds_as_scalars(euler_derivative(pa), ref_map(ra, lambda ex: ex, lambda ex: ex[qi]))
    assert_holds_as_scalars(pa.coeff_of("q", power), {
        ex[:qi] + (0,) + ex[qi + 1:]: c for ex, c in ra.items() if ex[qi] == power})
    # s and t both go to t, so their terms merge
    merged = pa.rename_vars(("q", "t", "a"), {"s": "t"})
    assert merged.vars == ("q", "t", "a")
    assert_holds_as_scalars(merged, ref_map(ra, lambda ex: (ex[2], ex[0] + ex[1], 0),
                                            lambda ex: 1))
    if rb:
        assert_holds_as_scalars(exact_div(pa * pb, pb), ra)


def normal_form_reference(p):
    """The Fraction definition normal_form replaced: p over its rational
    content, negated when its graded-lex leading coefficient is negative."""
    c = rational_content(p.terms.values())
    out = p if c in (0, 1) else p.scale(1 / c)
    return out.scale(-1) if out.leading_coefficient() < 0 else out


rational_polys = st.dictionaries(
    st.tuples(*(st.integers(0, 2) for _ in V)), st.fractions(-9, 9, max_denominator=12),
    max_size=4).map(P)


@given(rational_polys)
def test_normal_form_matches_the_fraction_definition(p):
    assert normal_form(p) == normal_form_reference(p)


def test_normal_form_frozen_cases():
    assert normal_form(P({(0, 0, 1): 4, (0, 0, 0): 6})) == P({(0, 0, 1): 2, (0, 0, 0): 3})
    assert normal_form(P({(0, 0, 1): Fraction(-3, 2), (0, 0, 0): Fraction(-9, 4)})) == \
        P({(0, 0, 1): 2, (0, 0, 0): 3})
    assert normal_form(Poly.zero(V)) == Poly.zero(V)


# ints and Fractions alike, small and of up to 90 digits, zero included
@given(st.one_of(st.fractions(), st.integers(-10 ** 90, 10 ** 90),
                 st.builds(Fraction, st.integers(-10 ** 90, 10 ** 90), st.integers(1, 10 ** 90))))
def test_rat_str_matches_str_within_the_digit_limit(x):
    assert rat_str(x) == str(Fraction(x))


def test_rat_str_past_the_digit_limit():
    # 5,000 digits: past the interpreter's default limit of 4,300 for int to str
    n = 10 ** 4999 + 7
    digits = "1" + "0" * 4998 + "7"
    assert rat_str(n) == digits
    assert rat_str(Fraction(-n, 3)) == f"-{digits}/3"
    assert rat_str(Fraction(3, n)) == f"3/{digits}"
    assert P({(0, 0, 1): Fraction(-n, 3), (0, 0, 0): 1}).render() == f"-{digits}/3*q + 1"
    assert P({(0, 0, 0): n}).render() == digits


def test_render():
    assert Poly.zero(V).render() == "0"
    assert Poly.const(V, -1).render() == "-1"
    assert P({(0, 0, 2): -1, (0, 0, 0): 1}).render() == "-q^2 + 1"
    assert P({(1, 0, 1): 2}).render() == "2*s*q"
    assert P({(0, 0, 1): Fraction(3, 2)}).render() == "3/2*q"
    assert P({(0, 1, 0): 1, (1, 0, 0): -1}).render() == "-s + t"
    assert P({(0, 0, 2): -1, (0, 0, 0): 1}).render(ascending=True) == "1 - q^2"
    assert P({(0, 1, 0): 1, (1, 0, 0): -1}).render(ascending=True) == "t - s"


def test_exact_div():
    q = Poly.var(V, "q")
    assert exact_div(q * q - 1, q - 1) == q + 1
    assert exact_div(Poly.zero(V), q).is_zero()
    with pytest.raises(ValueError):
        exact_div(q + 1, q)
    with pytest.raises(ZeroDivisionError):
        exact_div(q, Poly.zero(V))


def test_exact_div_inverts_multiplication():
    rng = random.Random(13)
    for _ in range(15):
        a, b = random_poly(rng), random_poly(rng)
        if b.is_zero():
            continue
        assert exact_div(a * b, b) == a


def test_poly_gcd_frozen_cases():
    s, t, q = (Poly.var(V, n) for n in V)
    assert poly_gcd((s - t) * q, (s - t) * q * q) == (s - t) * q
    assert poly_gcd(s + 1, t + 1) == 1
    assert poly_gcd(Poly.zero(V), q * 2) == q
    # sign convention: primitive with positive graded-lex lead
    assert poly_gcd(t - s, (t - s) * (t - s)) == s - t
    assert poly_gcd(Poly.const(V, 4), Poly.const(V, 6)) == 1
    assert poly_gcd((s - t * 2) * (q + 3) * q, (s - t * 2) * (t * q - 1)) == s - t * 2
    # a common monomial factor is split off before GCDHEU and multiplied back
    t, u, q = (Poly.var(("t", "u", "q"), n) for n in ("t", "u", "q"))
    f, g = t + u * q + 1, t * u - q * 2 + 5
    assert poly_gcd(q ** 11 * (t - u) * f, q ** 13 * (t - u) * g) == q ** 11 * (t - u)


def assert_is_sympys_gcd(a, b, h):
    """h is sympy's gcd of a and b up to a nonzero rational, in normal form."""
    ratio = sympy.cancel(sympy.gcd(to_sympy(a), to_sympy(b)) / to_sympy(h))
    assert ratio.is_Rational and ratio != 0
    assert normal_form(h) == h


def test_poly_gcd_matches_sympy():
    rng = random.Random(17)
    for _ in range(8):
        f, g, h = (random_poly(rng, max_terms=3, max_exp=1) for _ in range(3))
        if h.is_zero() or f.is_zero() or g.is_zero():
            continue
        a, b = f * h, g * h
        ours = poly_gcd(a, b)
        assert_is_sympys_gcd(a, b, ours)
        assert exact_div(a, ours) * ours == a
        assert exact_div(b, ours) * ours == b


integer_polys = st.dictionaries(
    st.tuples(*(st.integers(0, 2) for _ in V)), st.integers(-9, 9),
    min_size=1, max_size=4).map(P)


monomials = st.tuples(*(st.integers(0, 4) for _ in V)).map(lambda ex: P({ex: 1}))


@given(integer_polys, integer_polys, integer_polys, monomials, monomials)
def test_poly_gcd_is_sympys_gcd(a, b, g, ma, mb):
    # random monomial factors exercise the monomial content taken before GCDHEU
    if g.is_zero():
        g = Poly.const(V, 1)
    x, y = a * g * ma, b * g * mb
    h = poly_gcd(x, y)
    if x.is_zero() and y.is_zero():
        assert h.is_zero()
        return
    assert_is_sympys_gcd(x, y, h)
    for p in (x, y):
        assert exact_div(p, h) * h == p
    exact_div(h, g)


def heu_points(xi, k):
    """The first k evaluation points of GCDHEU, starting at xi."""
    points = []
    for _ in range(k):
        points.append(xi)
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return points


def test_heuristic_gcd_past_six_unlucky_points():
    # each of the first six points xi divides M, so gcd(xi, xi + M) = xi
    # gives the candidate x, which does not divide x + M
    points = heu_points(4, 6)
    assert points == [4, 10, 27, 147, 1204, 16446]
    assert poly._heu_gcd({(1,): 1}, {(1,): 1, (0,): math.lcm(*points)}) == {(0,): 1}


polys_free_of_s = st.dictionaries(
    st.tuples(st.just(0), st.integers(0, 2), st.integers(0, 2)), st.integers(-9, 9),
    min_size=1, max_size=4).map(P).filter(bool)


@given(st.integers(0, 10), st.integers(1, 3), polys_free_of_s)
def test_poly_gcd_past_unlucky_points(k, m, a):
    # GCDHEU evaluates s first, from 2 |A| + 2 with A the primitive part of a;
    # at each point xi that divides M the images' gcd is xi A, whose digits
    # give s A, which does not divide (s + M) A: so the first k points fail
    s = Poly.var(V, "s")
    points = heu_points(2 * max(map(abs, poly._zprimitive(a)[0].values())) + 2, k)
    x, y = s * a, (s + m * math.lcm(*points)) * a
    h = poly_gcd(x, y)
    assert h == normal_form(a)
    assert_is_sympys_gcd(x, y, h)


def test_heuristic_gcd_without_fallback():
    s, t, q = (Poly.var(V, n) for n in V)
    g = s * t * q * 7 - q * q * 3 + 5
    f = poly._heu_gcd(poly._zprimitive(g * (s + q))[0], poly._zprimitive(g * (t - 1))[0])
    assert normal_form(Poly(V, f)) == normal_form(g)


def test_poly_gcd_many(monkeypatch):
    s, t, q = (Poly.var(V, n) for n in V)
    polys = [(s - t) * q, (s - t) * q ** 2, (s - t) * q * t]
    g, quotients = poly_gcd_many(polys)
    assert g == (s - t) * q
    assert quotients == [Poly.const(V, 1), q, t]
    # the divisibility test reads the running gcd as it stands: once the
    # second polynomial brings it down to s - t, the third needs no gcd
    calls = []
    original = poly.poly_gcd
    monkeypatch.setattr(poly, "poly_gcd", lambda a, b: calls.append(b) or original(a, b))
    assert poly_gcd_many([(s - t) * s, (s - t) * t, (s - t) * q])[0] == s - t
    assert calls == [(s - t) * t]


def _same_terms(got, want):
    return got == want and [list(p.terms) for p in got] == [list(p.terms) for p in want]


def test_poly_gcd_many_divides_again_only_after_the_gcd_shrinks(monkeypatch):
    s, t, q = (Poly.var(V, n) for n in V)
    f = (s - t) * q
    # fewest terms first (polys 2, 0, 3, 4): the running gcd starts at f,
    # divides poly 0, shrinks to s - t at poly 3 and then divides poly 4
    polys = [f * (t + 1) * Fraction(3, 2), Poly.zero(V), f.scale(-4),
             (s - t) * (q + 1), f * (s + t * 3) * (q + 2)]
    divided = []
    original = poly.exact_div
    monkeypatch.setattr(poly, "exact_div", lambda a, b: divided.append(a) or original(a, b))
    g, quotients = poly_gcd_many(polys)
    assert g == s - t
    assert _same_terms(quotients, [p if p.is_zero() else exact_div(p, g) for p in polys])
    assert quotients[1] is polys[1]
    # the test divisions of polys 0, 3 (which fails) and 4, then the
    # quotients of the first polynomial and of those taken over f or failed
    assert divided == [polys[0], polys[3], polys[4], polys[0], polys[2], polys[3]]


def test_poly_gcd_many_over_a_constant_gcd_keeps_the_polynomials():
    s, t, q = (Poly.var(V, n) for n in V)
    polys = [s * 2 + 1, Poly.zero(V), t * q - 3]
    g, quotients = poly_gcd_many(polys)
    assert g == 1 and all(a is b for a, b in zip(quotients, polys))
    assert poly_gcd_many([Poly.zero(V)]) == (Poly.zero(V), [Poly.zero(V)])


def test_poly_gcd_many_shifts_off_the_common_monomial():
    # q^2 s is the least exponent of each variable over every term; what is
    # left has gcd 1, so the quotients are the shifted terms, leading term
    # first as exact_div leaves them
    s, t, q = (Poly.var(V, n) for n in V)
    polys = [Poly(V, {(1, 1, 2): 3, (2, 0, 5): -1}), Poly.zero(V),
             Poly(V, {(1, 0, 3): 2, (3, 0, 2): 1})]
    g, quotients = poly_gcd_many(polys)
    assert g == s * q ** 2
    assert [p.terms for p in quotients] == [{(0, 1, 0): 3, (1, 0, 3): -1}, {},
                                            {(0, 0, 1): 2, (2, 0, 0): 1}]
    assert [list(p.terms) for p in quotients] == [[(1, 0, 3), (0, 1, 0)], [],
                                                  [(2, 0, 0), (0, 0, 1)]]


@given(st.lists(integer_polys, min_size=1, max_size=4), integer_polys, monomials)
def test_poly_gcd_many_quotients_are_exact_divs(polys, g, m):
    polys = [p * g * m for p in polys]
    got, quotients = poly_gcd_many(polys)
    nonzero = [p for p in polys if p]
    if not nonzero:
        assert got.is_zero() and quotients == polys
        return
    want = nonzero[0]
    for p in nonzero[1:]:
        want = poly_gcd(want, p)
    assert got == normal_form(want)
    if got == 1:  # nothing is divided
        assert all(a is b for a, b in zip(quotients, polys))
    else:  # exact_div's quotients, in its term order
        assert _same_terms(quotients, [exact_div(p, got) if p else p for p in polys])


def test_laurent_poly():
    # Hodge polynomials: one variable, negative exponents allowed
    T = ("t",)
    p = Poly(T, {(2,): 1, (0,): 19, (-2,): 1})
    assert p.render() == "t^2 + 19 + t^-2"
    assert p.terms.get((0,)) == 19 and (5,) not in p.terms
    assert (p + Poly(T, {(0,): 2})).terms[(0,)] == 21
    assert Poly(T, {(1,): 1, (0,): 0}) == Poly(T, {(1,): 1})
    assert not Poly(T, {})
    assert Poly(T, {}).render() == "0"
    assert Poly(T, {(1,): 2, (0,): 2, (-1,): 2}).render() == "2*t + 2 + 2*t^-1"
    assert Poly(T, {(-1,): -1, (-3,): 3}).render() == "-t^-1 + 3*t^-3"


# -- packed monomials and exact division ----------------------------------------

def zdiv_reference(a, b):
    """Quotient a/b over Z on exponent tuples, or None: the tuple-keyed heap
    division the packed `_zdiv` replaced."""
    if not a:
        return {}
    bex = max(b, key=lambda ex: (sum(ex), ex))
    bc = b[bex]
    rest = [(ex, c) for ex, c in b.items() if ex != bex]
    rem = dict(a)
    heap = [(-sum(ex), tuple(-e for e in ex), ex) for ex in rem]
    heapq.heapify(heap)
    quot = {}
    while heap:
        ex = heapq.heappop(heap)[2]
        c = rem.pop(ex)
        if not c:
            continue
        f, r = divmod(c, bc)
        dif = tuple(x - y for x, y in zip(ex, bex))
        if r or min(dif, default=0) < 0:
            return None
        quot[dif] = f
        for ex2, c2 in rest:
            tgt = tuple(x + y for x, y in zip(dif, ex2))
            v = rem.get(tgt)
            if v is None:
                rem[tgt] = -f * c2
                heapq.heappush(heap, (-sum(tgt), tuple(-e for e in tgt), tgt))
            else:
                rem[tgt] = v - f * c2
    return quot


def packed_div(a, b):
    nvars = len(next(iter(b)))
    width, guard = poly._packing(nvars, max(sum(ex) for ex in (*a, *b)))
    quot = poly._zdiv(poly._pack(a, width), poly._pack(b, width), guard)
    return None if quot is None else poly._unpack(quot, nvars, width)


exponent_lists = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.tuples(*(st.integers(0, 40) for _ in range(n))),
                       min_size=1, max_size=12, unique=True))


@given(exponent_lists)
def test_packing_round_trips_in_graded_lex_order(exs):
    width, _ = poly._packing(len(exs[0]), max(map(sum, exs)))
    terms = {ex: k + 1 for k, ex in enumerate(exs)}
    packed = poly._pack(terms, width)
    assert poly._unpack(packed, len(exs[0]), width) == terms
    by_key = {key: ex for ex, key in zip(terms, packed)}
    assert [by_key[key] for key in sorted(packed)] == sorted(exs, key=lambda ex: (sum(ex), ex))


int_terms = st.dictionaries(st.tuples(*(st.integers(0, 3) for _ in V)), st.integers(-9, 9),
                            min_size=1, max_size=5).map(lambda t: {ex: c for ex, c in t.items() if c})


@given(int_terms, int_terms, int_terms)
def test_packed_division_matches_the_tuple_division(a, b, r):
    if not b:
        b = {(0, 0, 0): 1}
    exact = poly._zdot([(a, b)])
    assert packed_div(exact, b) == zdiv_reference(exact, b)
    if exact:
        assert packed_div(exact, b) == a
    # a perturbed dividend: both say None, or both give the same quotient
    perturbed = poly._zadd(exact, r)
    if perturbed:
        assert packed_div(perturbed, b) == zdiv_reference(perturbed, b)


def test_packed_division_rejects_what_does_not_divide():
    x2, xy = {(2, 0, 0): 1}, {(1, 1, 0): 1}
    assert packed_div(x2, xy) is None is zdiv_reference(x2, xy)
    # 3 x^2 / (2 x): the monomial divides, the coefficient does not
    assert packed_div({(2, 0, 0): 3}, {(1, 0, 0): 2}) is None
    assert packed_div({(2, 0, 0): 4}, {(1, 0, 0): 2}) == {(1, 0, 0): 2}


# pairs of term dicts over V; with cancel, each pair comes back with its
# first factor negated, so the products sum to zero
@given(st.lists(st.tuples(int_terms, int_terms), max_size=4), st.booleans())
def test_packed_products_match_the_tuple_products(pairs, cancel):
    if cancel:
        pairs = pairs + [({ex: -c for ex, c in a.items()}, b) for a, b in pairs]
    width, _ = poly._packing(len(V), 2 * max((sum(ex) for a, b in pairs for ex in (*a, *b)),
                                             default=0))
    packed = poly._pdot((poly._pack(a, width), poly._pack(b, width)) for a, b in pairs)
    assert poly._unpack(packed, len(V), width) == poly._zdot(pairs)
    if cancel:
        assert packed == {}


def test_packing_rejects_negative_exponents():
    with pytest.raises(ValueError, match="negative exponent"):
        poly._pack({(1, -1): 1}, 4)
    with pytest.raises(ValueError):
        exact_div(Poly(("t",), {(-1,): 1}), Poly(("t",), {(0,): 2}))
