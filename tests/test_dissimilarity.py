"""The dissimilarity family, its closed form, and its stated properties."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from neglab import (
    DimensionError,
    DomainError,
    ProbDist,
    dissimilarity,
    dissimilarity_properties,
    iterated_negation_dissimilarity,
    l1_distance,
    make_dist,
    negate,
    negate_iterated,
    negation_dissimilarity,
    uniform,
)

from neglab.dissimilarity import MAX_ALPHA

from conftest import distribution_pairs, distributions

# closed-form values for the four-outcome example vs its negation (l1 = 4/9)
GOLDEN_P4 = {
    0: 0.16992500144231236,
    1: 0.08246216019197295,
    2: 0.04064198449734591,
    3: 0.02017788193763030,
}


def test_golden_profile(p4):
    for alpha, expected in GOLDEN_P4.items():
        res = negation_dissimilarity(p4, alpha)
        assert abs(res.value - expected) <= 1e-12
        assert abs(res.l1 - 4 / 9) <= 1e-14


def test_golden_alpha0_is_log_ratio(p4):
    res = dissimilarity(p4, negate(p4), 0)
    assert abs(res.value - (-math.log2(8 / 9))) <= 1e-12


def test_self_dissimilarity_is_zero(p4):
    # the literal sum carries the distribution's own rounding noise, so
    # "zero" here means zero to machine precision, not bitwise
    for alpha in (0, 1, 5):
        assert abs(dissimilarity(p4, p4, alpha).value) <= 1e-15


def test_uniform_negation_dissimilarity_is_zero():
    for n in (2, 4, 8):  # 1/n exact in binary: the value is exactly zero
        assert negation_dissimilarity(uniform(n), 0).value == 0.0
    assert abs(negation_dissimilarity(uniform(3), 0).value) <= 1e-15


def test_disjoint_supports_attain_upper_bound():
    p = ProbDist(np.array([1.0, 0.0]))
    q = ProbDist(np.array([0.0, 1.0]))
    res = dissimilarity(p, q, 0)
    assert res.value == 1.0
    assert res.l1 == 2.0
    # the bound is only attained at alpha = 0
    assert dissimilarity(p, q, 1).value < 1.0


def test_two_outcome_example():
    res = negation_dissimilarity(make_dist([0.9, 0.1]), 0)
    assert abs(res.value - 0.7369655941662062) <= 1e-12
    assert abs(res.l1 - 1.6) <= 1e-14


def test_result_carries_audit_fields(p4):
    res = negation_dissimilarity(p4, 1)
    assert res.alpha == 1
    assert abs(res.value - res.closed_form_value) <= 1e-12
    assert 0.0 <= res.sum_of_min_pairs <= 2.0


def test_alpha_validation(p4):
    with pytest.raises(DomainError):
        dissimilarity(p4, p4, -1)
    with pytest.raises(DomainError):
        dissimilarity(p4, p4, 1.5)
    with pytest.raises(DomainError):
        dissimilarity(p4, p4, True)


def test_alpha_upper_limit(p4):
    # 2**(alpha + 2) is the largest power of two a double holds at 1021
    assert MAX_ALPHA == 1021
    res = negation_dissimilarity(p4, 1021)
    assert res.alpha == 1021
    assert 0.0 <= res.value <= 1.0
    assert dissimilarity_properties(p4, [0, 1021]).holds
    assert iterated_negation_dissimilarity(p4, 1021, 2).alpha == 1021
    with pytest.raises(DomainError):
        negation_dissimilarity(p4, 1022)
    with pytest.raises(DomainError):
        dissimilarity_properties(p4, [0, 1022])
    with pytest.raises(DomainError):
        iterated_negation_dissimilarity(p4, 1022)


def test_size_mismatch(p4, p3):
    with pytest.raises(DimensionError):
        dissimilarity(p4, p3, 0)


@given(distribution_pairs(), st.integers(min_value=0, max_value=16))
def test_literal_matches_closed_form(pair, alpha):
    p, q = pair
    res = dissimilarity(p, q, alpha)
    expected = -math.log2(1.0 - l1_distance(p, q) / 2.0 ** (alpha + 2))
    assert abs(res.value - expected) <= 1e-12


@given(distribution_pairs(), st.integers(min_value=0, max_value=16))
def test_range_and_symmetry(pair, alpha):
    p, q = pair
    forward = dissimilarity(p, q, alpha).value
    backward = dissimilarity(q, p, alpha).value
    assert -1e-12 <= forward <= 1.0 + 1e-12
    assert abs(forward - backward) <= 1e-14


@given(distribution_pairs(), st.integers(min_value=0, max_value=15))
def test_strictly_decreasing_in_alpha(pair, alpha):
    p, q = pair
    if l1_distance(p, q) <= 1e-12:
        return
    assert dissimilarity(p, q, alpha + 1).value < dissimilarity(p, q, alpha).value


@given(distributions())
def test_zero_iff_identical(p):
    res = negation_dissimilarity(p, 0)
    if res.l1 <= 1e-13:
        assert res.value <= 1e-12
    elif res.l1 >= 1e-10:
        assert res.value > 1e-12


def test_properties_uniform_all_zero():
    cert = dissimilarity_properties(uniform(4), [0, 1, 2])
    assert cert.holds and cert.equality
    assert cert.lhs == 0.0 and cert.rhs == 0.0


def test_properties_golden(p4):
    cert = dissimilarity_properties(p4, [0, 1, 2, 3])
    assert cert.holds and not cert.equality
    by_name = {c.name: c for c in cert.detail}
    assert by_name["value_non_increasing_in_alpha"].holds
    # the opposite ordering is recorded as failing, not silently dropped
    assert not by_name["value_non_decreasing_in_alpha"].holds
    for alpha in (0, 1, 2, 3):
        assert by_name[f"bounded_in_unit_interval[alpha={alpha}]"].holds
        assert by_name[f"zero_iff_identical[alpha={alpha}]"].holds
        assert by_name[f"symmetry[alpha={alpha}]"].holds


def test_properties_two_outcome():
    cert = dissimilarity_properties(make_dist([0.9, 0.1]), [0, 5])
    assert cert.holds
    assert cert.lhs > cert.rhs  # value at alpha=5 below value at alpha=0


def test_properties_validation(p4):
    with pytest.raises(DomainError):
        dissimilarity_properties(p4, [])
    with pytest.raises(DomainError):
        dissimilarity_properties(p4, [2, 0, 1])


@given(distributions())
def test_properties_hold_on_random_inputs(p):
    assert dissimilarity_properties(p, [0, 1, 4]).holds


def test_iterated_uniform_all_zero():
    report = iterated_negation_dissimilarity(uniform(3), 0, 4)
    assert all(abs(r.value) <= 1e-15 for r in report.results)
    assert report.non_decreasing


def test_iterated_golden_matches_literal(p4):
    report = iterated_negation_dissimilarity(p4, 0, 3)
    for k, res in enumerate(report.results, start=1):
        q = p4
        for _ in range(k):
            q = negate(q)
        expected = -math.log2(1.0 - l1_distance(p4, q) / 4.0)
        assert abs(res.value - expected) <= 1e-12


def test_iterated_two_outcome_swap_returns():
    # one application swaps, two restore the original
    report = iterated_negation_dissimilarity(make_dist([0.9, 0.1]), 0, 2)
    values = [r.value for r in report.results]
    assert abs(values[0] - 0.7369655941662062) <= 1e-12
    assert values[1] == 0.0
    assert not report.non_decreasing


def test_iterated_oscillates_around_limit(p4):
    # distance to the k-th iterate is (1 - r**k) * l1(p, uniform) with
    # r = -1/(n-1) < 0, so odd iterates sit farther away than even ones
    report = iterated_negation_dissimilarity(p4, 0, 4)
    v = [r.value for r in report.results]
    assert v[0] > v[1] and v[2] > v[1] and v[0] > v[2]
    assert not report.non_decreasing


def test_iterated_depth_validation(p4):
    with pytest.raises(DomainError):
        iterated_negation_dissimilarity(p4, 0, 0)
