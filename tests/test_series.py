from fractions import Fraction

import pytest

from hodgeatoms.series import Series


def test_construction_and_order():
    s = Series([1, 4, 15])
    assert s.order == 2
    assert s.coeff(2) == 15
    assert isinstance(s.coeff(0), Fraction)
    with pytest.raises(ValueError):
        Series([])


def test_coeff_bounds():
    s = Series([1, 2])
    with pytest.raises(IndexError):
        s.coeff(3)
    with pytest.raises(IndexError):
        s.coeff(-1)


def test_is_zero():
    assert Series([0, 0]).is_zero()
    assert not Series([0, 1]).is_zero()


def test_fractions_are_kept_and_the_rest_converted():
    half = Fraction(1, 2)
    s = Series([half, 3])
    assert s.coeffs[0] is half
    assert type(s.coeffs[1]) is Fraction and s.coeffs[1] == 3
    with pytest.raises(TypeError):
        Series([1, object()])
    with pytest.raises(TypeError):
        Series([None])
