import copy
import pickle
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from singlet_fusion.labels import (
    Params,
    alpha_coordinate,
    fock_weight,
    lowest_weight_of_simple,
    rbar,
    weight,
    weight_coset_diff,
)

params_st = st.integers(min_value=2, max_value=7).map(Params)
r_st = st.integers(min_value=-8, max_value=8)


def test_params_validation():
    # p is exactly an int, the rule labels._check_ints states for every other
    # integer input: bool and other int subclasses are refused
    three = IntEnum("Three", {"A": 3}).A
    for bad in (1, 0, True, 2.0, three):
        with pytest.raises(ValueError) as info:
            Params(bad)
        assert str(info.value) == f"p must be an integer >= 2, got {bad!r}"
    Params(2)


def test_params_is_an_immutable_value():
    six = Params(6)
    assert six == Params(p=6) and six != Params(7) and six != 6
    assert hash(six) == hash(Params(6))
    assert len({six, Params(6), Params(7)}) == 2
    assert repr(six) == "Params(p=6)"
    with pytest.raises(AttributeError):
        six.p = 7
    with pytest.raises(AttributeError):
        del six.p
    with pytest.raises(AttributeError):
        six.q = 1
    assert six.p == 6
    assert copy.copy(six) == six == pickle.loads(pickle.dumps(six))


@pytest.mark.parametrize(
    "p, r, s, expected",
    [
        (2, 1, 2, Fraction(-1, 8)),
        (2, 1, 1, 0),
        (5, 1, 1, 0),
        (3, 2, 1, Fraction(7, 4)),
        # formula evaluated by hand: h_{1,3} = -(3-1)/2 + 8/12 at p = 3
        (3, 1, 3, Fraction(-1, 3)),
        (2, 2, 1, 1),
    ],
)
def test_weight_values(p, r, s, expected):
    assert weight(Params(p), r, s) == expected


@given(params_st, r_st, st.integers(min_value=-8, max_value=8))
def test_weight_denominator_divides_4p(params, r, s):
    assert (4 * params.p) % weight(params, r, s).denominator == 0


def test_lowest_weight_branches():
    # r <= 0 uses the mirrored label: lowest weight of M_{0,1} is h_{2,1}
    assert lowest_weight_of_simple(Params(2), 0, 1) == weight(Params(2), 2, 1) == 1
    assert lowest_weight_of_simple(Params(3), 1, 3) == Fraction(-1, 3)
    # at s = p the two branch formulas give the same value on the same label
    p = Params(5)
    assert lowest_weight_of_simple(p, 0, 5) == weight(p, 0, 5) == weight(p, 2, 5)


@given(params_st, r_st)
def test_lowest_weight_branches_agree_at_s_p(params, r):
    assert weight(params, r, params.p) == weight(params, 2 - r, params.p)


@given(params_st, r_st, st.integers(min_value=1, max_value=7))
def test_lowest_weight_bounded_below(params, r, s):
    if s <= params.p:
        assert lowest_weight_of_simple(params, r, s) >= params.weight_lower_bound


def test_lower_bound_attained():
    p = Params(5)
    assert lowest_weight_of_simple(p, 1, 5) == p.weight_lower_bound == Fraction(-4, 5)


@pytest.mark.parametrize(
    "p, r, s, expected",
    [(2, 1, 2, 1), (2, 1, 1, 0), (6, 1, 1, 0), (5, 2, 3, -3), (5, 3, 8, -3)],
)
def test_alpha_coordinate_values(p, r, s, expected):
    assert alpha_coordinate(Params(p), r, s) == expected


@given(params_st, r_st, st.integers(min_value=-8, max_value=16))
def test_alpha_coordinate_periodicity(params, r, s):
    assert alpha_coordinate(params, r + 1, s + params.p) == alpha_coordinate(
        params, r, s
    )


@pytest.mark.parametrize(
    "p, k, expected",
    [
        (2, 1, Fraction(-1, 8)),
        (2, 0, 0),
        (7, 0, 0),
        # k = -3 is the coordinate of the (2, 1) label at p = 3
        (3, -3, Fraction(7, 4)),
    ],
)
def test_fock_weight_values(p, k, expected):
    assert fock_weight(Params(p), k) == expected


@given(params_st, r_st, st.integers(min_value=-4, max_value=12))
def test_fock_weight_matches_kac_weight(params, r, s):
    k = alpha_coordinate(params, r, s)
    assert fock_weight(params, k) == weight(params, r, s)


@pytest.mark.parametrize("r, expected", [(3, 1), (0, 2), (-1, 1), (1, 1), (-4, 2)])
def test_rbar(r, expected):
    assert rbar(r) == expected


def test_weight_coset_diff_values():
    p3 = Params(3)
    assert weight_coset_diff(p3, (1, 1), (1, 3)) == Fraction(2, 3)
    assert weight_coset_diff(p3, (2, 2), (2, 2)) == 0
    # n = 1, r = 1, s = 2 instance of the s/p congruence
    assert weight_coset_diff(Params(5), (3, 1), (1, 3)) == Fraction(2, 5)


@given(
    params_st,
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=2, max_value=6),
)
def test_weight_coset_congruence(params, r, n, s):
    if s <= params.p - 1:
        diff = weight_coset_diff(params, (r + 2 * n, s - 1), (r, s + 1))
        assert diff == Fraction(s, params.p)


@given(params_st, r_st, st.integers(min_value=-4, max_value=10), r_st,
       st.integers(min_value=-4, max_value=10))
def test_weight_coset_diff_range(params, ra, sa, rb, sb):
    diff = weight_coset_diff(params, (ra, sa), (rb, sb))
    assert 0 <= diff < 1


def test_module_label_validation():
    with pytest.raises(ValueError):
        lowest_weight_of_simple(Params(2), 1, 3)
    with pytest.raises(ValueError):
        lowest_weight_of_simple(Params(2), 1, 0)
