"""Atom invariants, centre models, blowup bookkeeping, exclusion search."""

import pytest

from hodgeatoms.atoms import (AtomError, AtomInvariants, assemble_zero_atoms,
                              atom_sum, curve_centre, exclusion_search,
                              hodge_poly, obstruction_applies,
                              point_centre, surface_centre,
                              transcendental_invariants)
from hodgeatoms.instance import load_instance


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
    case_plus, case_minus = assemble_zero_atoms(verra, 2, 1)
    assert case_plus.name == "T_in_plus"
    assert case_plus.plus.render() == "E_0^+: rho = 2, P = t^2 + 21 + t^-2"
    assert case_plus.minus.render() == "E_0^-: rho = 1, P = 1"
    assert case_minus.name == "T_in_minus"
    assert case_minus.plus.render() == "E_0^+: rho = 2, P = 2"
    assert case_minus.minus.render() == "E_0^-: rho = 1, P = t^2 + 20 + t^-2"
    assert case_plus.obstructed() is case_plus.plus
    assert case_minus.obstructed() is case_minus.minus


def test_exclusion_empty_for_obstructed(verra):
    case_plus, case_minus = assemble_zero_atoms(verra, 2, 1)
    for case in (case_plus, case_minus):
        target = case.obstructed()
        assert exclusion_search(target, 3, 3) == []
        assert exclusion_search(target, 4, 4) == []


def test_exclusion_finds_assemblies():
    s = surface_centre(1, 0, 1)
    assert exclusion_search(s) == [(("surface(h20=1,h10=0,h11=1)", 1),)]
    assert exclusion_search(point_centre()) == [(("point", 1),)]


def test_exclusion_bound_errors():
    with pytest.raises(AtomError, match="non-negative"):
        exclusion_search(point_centre(), -1, 3)
