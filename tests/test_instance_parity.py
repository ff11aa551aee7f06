"""Instance reader parity: exact error texts and every field read.

Each input that ``tests/test_instance.py`` or the ``MUTATIONS`` of
``tests/test_instance_mutations.py`` expect to end in exit 1 is pinned to the
exact ``InstanceError`` text it raises; the two that the reader accepts
(``order=3`` and ``order=10``) are refused later by the CLI's order guard
and are pinned by the order they read. Every field is pinned for the three
bundled instances and for the mutations with 5,000-digit values.
"""

from fractions import Fraction

import pytest

from hodgeatoms.instance import InstanceError, load_instance, parse_instance_text

from test_instance import GOOD
from test_instance_mutations import VERRA


def rep(digit: int, n: int) -> int:
    """The n-digit integer whose digits are all digit."""
    return digit * (10 ** n - 1) // 9


FIELDS = ("nilpotency", "h31", "middle", "dim_t", "tdecomp", "simple", "n_invariant",
          "enumerative", "component", "param_names", "period_source", "order",
          "a0plus_override", "metadata", "name", "source_sha256")

VERRA_FIELDS = dict(
    nilpotency=3, h31=1, middle=24, dim_t=21, tdecomp=(1, 19, 1), simple=True,
    n_invariant=Fraction(-4), enumerative=("t", "u"), component=5,
    param_names=(("s", (0, 1)), ("t", (1, 2)), ("u", (1, 3)), ("v", (0, 4))),
    period_source="verra-eq3", order=16, a0plus_override=None, metadata={}, name="verra",
    source_sha256="f86f6f2a8d82f9f671656b5767b8dcb5f54b0d6267f73d6cac10a9fbc9f320af")

BUNDLED = {
    "verra": VERRA_FIELDS,
    "broken-nonsimple": dict(
        VERRA_FIELDS, simple=False, name="broken-nonsimple",
        source_sha256="290c3c8d6f0990046466aaa1455b60717a686a5503e84cf53d8c2c4ecf748e94"),
    "broken-a0plus": dict(
        VERRA_FIELDS, a0plus_override=3, name="broken-a0plus",
        source_sha256="4d8109e7afd0dbfd24618e62cfbaab58f3a46e5b94c3de6604e403d14cd18941"),
}

# (field as written in verra.instance, its 5,000-digit mutation, the fields that change)
LONG_VALUES = [
    ("N=-4/1", "N=-" + "4" * 5000 + "/1", dict(
        n_invariant=Fraction(-rep(4, 5000)),
        source_sha256="9891fa6766b5ac71abd8456ee9889893cf2d4f34045e3d9aa2d82b8cd10229fb")),
    ("h31=1", "h31=" + "1" * 5000, dict(
        h31=rep(1, 5000),
        source_sha256="f2ccc31eb0c06e9655d525c911a9150d2e3cc5058a3bfc76b57fa7fc5d73f7f9")),
    ("simple=true", "simple=true, a0plus=" + "2" * 5000, dict(
        a0plus_override=rep(2, 5000),
        source_sha256="dffb40a53d23a834154f447d1d464d4ba22b7c6acda393b4830bc1b4c7ab4893")),
    ("middle=24, dimT=21, tdecomp=1,19,1",
     "middle=" + "2" * 4998 + "44, dimT=" + "2" * 4998 + "41, tdecomp="
     + "1" * 5000 + ",19," + "1" * 5000, dict(
         middle=rep(2, 4998) * 100 + 44, dim_t=rep(2, 4998) * 100 + 41,
         tdecomp=(rep(1, 5000), 19, rep(1, 5000)),
         source_sha256="9e29b95e13efdb5bbe368386061d784ce84c01d75c8a5b92e1911340635123ff")),
    ("order=16", "order=" + "1" * 5000, dict(
        order=rep(1, 5000),
        source_sha256="80e718073576bd9ede6adc3769dba6a8a3d9d746483f0d44803829824869ead4")),
]

# (text, exact error): the exit-1 inputs of tests/test_instance.py
GOOD_ERRORS = [
    (GOOD.replace("N=-4/1", "N=x"), "line 4: [quantum] N: not a rational: 'x'"),
    ("generators=2\n" + GOOD, "line 1: key-value pair before any section header"),
    (GOOD.replace("middle=24", "middle=24, middle=25"), "line 3: duplicate key 'middle' in [hodge]"),
    (GOOD.replace("h31=1", "color=blue"), "line 3: unknown key 'color' in [hodge]"),
    (GOOD.replace("param_names=s@(0,1),t@(1,2),u@(1,3),v@(0,4)", "param_names=s@[0]"),
     "line 4: [quantum] param_names: bad parameter tag 's@[0]', expected name@(row,col)"),
    (GOOD.replace("[period] source=verra-eq3", "[period] source=verra-eq3\nstray"),
     "line 6: dangling fragment 'stray'"),
    (GOOD + "[ring] generators=2\n", "line 7: duplicate section [ring]"),
    ("\n".join(l for l in GOOD.splitlines() if "quantum" not in l),
     "missing required section [quantum]"),
    (GOOD.replace(", component=5", ""), "[quantum]: missing key 'component'"),
] + [(GOOD.replace(old, new), message) for old, new, message in [
    ("tdecomp=1,19,1", "tdecomp=1,18,1",
     "[hodge] tdecomp: decomposition sums to 20, dimT is 21"),
    ("tdecomp=1,19,1, simple=true", "tdecomp=2,18,1, simple=true",
     "[hodge] tdecomp: decomposition must be Hodge-symmetric"),
    ("middle=24", "middle=25",
     "[hodge] middle: dimT 21 plus ambient middle rank 3 is 24, middle is 25"),
    ("h31=1", "h31=-1", "[hodge]: dimensions must be non-negative"),
    ("generators=2", "generators=3",
     "[ring] generators: only the two-generator ring is supported"),
    ("nilpotency=3", "nilpotency=1", "[ring] nilpotency: must be at least 2"),
    ("pairing=2/1", "pairing=-2", "[ring] pairing: normalization must be positive"),
    ("pairing=2/1", "pairing=2/0", "line 1: [ring] pairing: zero denominator in '2/0'"),
    ("swap=H1:H2", "swap=H1:H3", "[involution] swap: expected H1:H2, got 'H1:H3'"),
    ("enumerative=t,u", "enumerative=t,w", "[quantum] enumerative: unknown parameter 'w'"),
    ("component=5", "component=6",
     "[quantum] component: 6 outside the symmetric block (dimension 6)"),
    ("v@(0,4)", "s@(0,4)", "line 4: [quantum] param_names: duplicate parameter names"),
    ("v@(0,4)", "v@(0,1)", "line 4: [quantum] param_names: duplicate parameter positions"),
    ("simple=true", "simple=true, a0plus=-1", "[hodge] a0plus: must be non-negative"),
    ("order=16", "order=-2", "[run] order: must be non-negative"),
]]

# (field as written in verra.instance, its mutation, exact error): the exit-1
# MUTATIONS that the reader refuses
MUTATION_ERRORS = [
    ("nilpotency=3", "nilpotency=2",
     "[hodge] middle: dimT 21 plus ambient middle rank 2 is 23, middle is 24"),
    ("nilpotency=3", "nilpotency=4",
     "[hodge] middle: dimT 21 plus ambient middle rank 4 is 25, middle is 24"),
    ("middle=24", "middle=25",
     "[hodge] middle: dimT 21 plus ambient middle rank 3 is 24, middle is 25"),
    ("h31=1", "h31=x", "line 6: [hodge] h31: not an integer: 'x'"),
    ("simple=true", "simple=yes", "line 6: [hodge] simple: not a boolean: 'yes'"),
    ("component=5", "component=" + "5" * 5000,
     "[quantum] component: " + "5" * 5000 + " outside the symmetric block (dimension 6)"),
    ("middle=24", "middle=" + "2" * 5000,
     "[hodge] middle: dimT 21 plus ambient middle rank 3 is 24, middle is " + "2" * 5000),
    ("tdecomp=1,19,1", "tdecomp=" + "1" * 5000 + ",19," + "1" * 5000,
     "[hodge] tdecomp: decomposition sums to " + "2" * 4998 + "41, dimT is 21"),
]


def read(spec):
    return {name: getattr(spec, name) for name in FIELDS}


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_every_field_of_a_bundled_instance(name):
    spec = load_instance(name)
    assert read(spec) == BUNDLED[name]
    assert spec.parameter_order() == ("s", "t", "u", "v")


@pytest.mark.parametrize("old, new, changed", LONG_VALUES, ids=[m[1][:12] for m in LONG_VALUES])
def test_every_field_of_a_5000_digit_mutation(old, new, changed):
    assert VERRA.count(old) == 1
    assert read(parse_instance_text(VERRA.replace(old, new), name="verra")) == dict(
        VERRA_FIELDS, **changed)


@pytest.mark.parametrize("text, message", GOOD_ERRORS, ids=[m for _, m in GOOD_ERRORS])
def test_the_exact_error_of_a_refused_test_input(text, message):
    with pytest.raises(InstanceError) as e:
        parse_instance_text(text)
    assert str(e.value) == message


@pytest.mark.parametrize("old, new, message", MUTATION_ERRORS,
                         ids=[m[1][:24] for m in MUTATION_ERRORS])
def test_the_exact_error_of_a_refused_mutation(old, new, message):
    assert VERRA.count(old) == 1
    with pytest.raises(InstanceError) as e:
        parse_instance_text(VERRA.replace(old, new))
    assert str(e.value) == message


@pytest.mark.parametrize("order", [3, 10])
def test_an_order_below_saturation_is_read_for_the_guard(order):
    assert parse_instance_text(VERRA.replace("order=16", f"order={order}")).order == order


def test_the_exact_error_of_a_missing_instance():
    with pytest.raises(InstanceError) as e:
        load_instance("does-not-exist")
    assert str(e.value) == "no such instance file or bundled instance: 'does-not-exist'"
