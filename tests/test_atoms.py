"""Atom invariants, blowup bookkeeping, exclusion search, and the centre
models that serve as the exclusion search's reference."""

import time
from itertools import combinations_with_replacement

import pytest

from hodgeatoms.atoms import (AtomError, AtomInvariants, assemble_zero_atoms,
                              atom_sum, exclusion_search, hodge_poly,
                              obstruction_applies, transcendental_invariants)
from hodgeatoms.instance import load_instance


# -- centre contribution models ------------------------------------------------

def point_centre() -> AtomInvariants:
    return AtomInvariants(1, hodge_poly({0: 1}), "point")


def curve_centre(genus: int) -> AtomInvariants:
    # classes in degrees 0 and 2 are always rational; the genus part has
    # |p - q| = 1
    if genus < 0:
        raise AtomError("negative genus")
    return AtomInvariants(2, hodge_poly({1: genus, 0: 2, -1: genus}),
                          f"curve(g={genus})")


def surface_centre(h20: int, h10: int, h11: int) -> AtomInvariants:
    """Conservative surface model: H^0, H^4 and one (1,1) class are rational."""
    if h20 < 0 or h10 < 0:
        raise AtomError("negative Hodge number")
    if h11 < 1:
        raise AtomError("a surface has at least one (1,1) class")
    hodge = hodge_poly({2: h20, 1: 2 * h10, 0: 2 + h11, -1: 2 * h10, -2: h20})
    return AtomInvariants(3, hodge, f"surface(h20={h20},h10={h10},h11={h11})")


def test_invariant_validation():
    with pytest.raises(AtomError, match="negative rho"):
        AtomInvariants(-1, hodge_poly({0: 1}), "x")
    with pytest.raises(AtomError, match="negative Hodge multiplicity"):
        AtomInvariants(0, hodge_poly({2: -1}), "x")
    with pytest.raises(AtomError, match="exceeds the .p,p. dimension"):
        AtomInvariants(2, hodge_poly({0: 1}), "x")


def test_transcendental_atom(verra):
    atom = transcendental_invariants(verra)
    assert atom.rho == 0
    assert atom.t2_coefficient() == 1
    assert atom.render() == "T: rho = 0, P = t^2 + 19 + t^-2"
    assert obstruction_applies(atom)


def test_non_simple_instance_refused():
    broken = load_instance("broken-nonsimple")
    with pytest.raises(AtomError, match="not flagged simple"):
        transcendental_invariants(broken)


def test_centre_models():
    p = point_centre()
    assert (p.rho, p.t2_coefficient()) == (1, 0)
    assert p.hodge.render() == "1"
    c = curve_centre(2)
    assert (c.rho, c.t2_coefficient()) == (2, 0)
    assert c.hodge.render() == "2*t + 2 + 2*t^-1"
    s = surface_centre(1, 0, 1)
    assert (s.rho, s.t2_coefficient()) == (3, 1)
    assert s.hodge.render() == "t^2 + 3 + t^-2"
    assert not obstruction_applies(p)
    assert not obstruction_applies(c)
    assert not obstruction_applies(s)


def test_centre_model_errors():
    with pytest.raises(AtomError, match="negative genus"):
        curve_centre(-1)
    with pytest.raises(AtomError, match="negative Hodge number"):
        surface_centre(-1, 0, 1)
    with pytest.raises(AtomError, match="at least one"):
        surface_centre(1, 0, 0)


def test_blowup_additivity():
    # blowing up a centre with multiplicity r adds r - 1 copies of its
    # invariants, so two r = 2 blowups along c equal one r = 3 blowup
    base = AtomInvariants(1, hodge_poly({0: 1}), "X")
    c = curve_centre(2)
    twice = atom_sum(atom_sum(base, c, "X"), c, "X")
    once = atom_sum(base, atom_sum(c, c, "2c"), "X")
    assert (twice.rho, twice.hodge) == (once.rho, once.hodge)
    assert twice.hodge.render() == "4*t + 5 + 4*t^-1"


def test_atom_sum():
    a = atom_sum(point_centre(), curve_centre(1), "sum")
    assert a.rho == 3
    assert a.hodge.render() == "t + 3 + t^-1"
    assert a.label == "sum"


def test_assemble_zero_atoms(verra):
    case_plus, case_minus = assemble_zero_atoms(transcendental_invariants(verra), 2, 1)
    assert case_plus.name == "T_in_plus"
    assert case_plus.plus.render() == "E_0^+: rho = 2, P = t^2 + 21 + t^-2"
    assert case_plus.minus.render() == "E_0^-: rho = 1, P = 1"
    assert case_minus.name == "T_in_minus"
    assert case_minus.plus.render() == "E_0^+: rho = 2, P = 2"
    assert case_minus.minus.render() == "E_0^-: rho = 1, P = t^2 + 20 + t^-2"
    assert case_plus.obstructed() is case_plus.plus
    assert case_minus.obstructed() is case_minus.minus


def test_exclusion_empty_for_obstructed(verra):
    case_plus, case_minus = assemble_zero_atoms(transcendental_invariants(verra), 2, 1)
    for case in (case_plus, case_minus):
        target = case.obstructed()
        assert exclusion_search(target, 3, 3) == []
        assert exclusion_search(target, 4, 4) == []


def test_exclusion_finds_assemblies():
    s = surface_centre(1, 0, 1)
    assert exclusion_search(s, 3, 3) == [(("surface(h20=1,h10=0,h11=1)", 1),)]
    assert exclusion_search(point_centre(), 3, 3) == [(("point", 1),)]


def exclusion_reference(target, max_centres, max_genus):
    """exclusion_search from the centre models: every combination re-sums rho
    and re-reads each centre's t^2 coefficient."""
    t2 = target.t2_coefficient()
    kinds = [point_centre()]
    kinds += [curve_centre(g) for g in range(max_genus + 1)]
    kinds += [surface_centre(h20, 0, 1) for h20 in range(t2 + 1)]
    hits = []
    for count in range(1, max_centres + 1):
        for combo in combinations_with_replacement(kinds, count):
            rho = sum(c.rho for c in combo)
            tt = sum(c.t2_coefficient() for c in combo)
            if tt == t2 and rho <= target.rho:
                weighted = {}
                for c in combo:
                    weighted[c.label] = weighted.get(c.label, 0) + 1
                hit = tuple(sorted(weighted.items()))
                if hit not in hits:
                    hits.append(hit)
    return sorted(hits)


# (target, whether some bound up to 4 centres and genus 4 finds a hit)
EXCLUSION_TARGETS = [
    (point_centre(), True), (curve_centre(2), True), (surface_centre(1, 0, 1), True),
    (surface_centre(2, 1, 3), True),
    (AtomInvariants(6, hodge_poly({2: 2, 0: 9, -2: 2}), "two surfaces and a point"), True),
    (AtomInvariants(1, hodge_poly({2: 1, 0: 4, -2: 1}), "obstructed"), False),
    (AtomInvariants(0, hodge_poly({}), "empty"), False),
]


@pytest.mark.parametrize("target, has_hits", EXCLUSION_TARGETS,
                         ids=[t.label for t, _ in EXCLUSION_TARGETS])
def test_exclusion_search_matches_the_per_combination_loop(target, has_hits):
    found = []
    for max_centres in range(5):
        for max_genus in range(5):
            got = exclusion_search(target, max_centres, max_genus)
            assert got == exclusion_reference(target, max_centres, max_genus)
            found += got
    assert bool(found) == has_hits


def test_a_large_t2_coefficient_under_a_surface_rho_is_excluded_at_once():
    # a surface has rho 3, so none fits under rho 2, however large the t^2 coefficient
    target = AtomInvariants(2, hodge_poly({2: 200, 0: 2, -2: 200}), "t^2 = 200")
    start = time.perf_counter()
    assert exclusion_search(target, 4, 4) == []
    assert time.perf_counter() - start < 1


def test_exclusion_bound_errors():
    with pytest.raises(AtomError, match="non-negative"):
        exclusion_search(point_centre(), -1, 3)
