"""Entropy conventions, reports, and ordering certificates."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from neglab import (
    DimensionError,
    DomainError,
    ProbDist,
    cross_entropy_check,
    entropy_chain_check,
    entropy_report,
    make_dist,
    negate,
    pad_with_zeros,
    shannon_entropy,
    uniform,
    zero_padding_entropy_check,
)

from neglab.entropy import _cross_entropies, _entropies

from conftest import distributions

# high-precision references for the worked examples
H_P4 = 1.9182958340544895
H_NEG_P4 = 1.9910760598382222
H_DBL_NEG_P4 = 1.9990102708804813
H_P3 = 1.2516291673878228
H_NEG_P3 = 1.4833557549816876
H_NEG_Q5 = 2.2416778774908438


def test_entropy_fair_coin_is_one_bit():
    assert shannon_entropy(uniform(2)) == 1.0


def test_entropy_uniform_four_is_two_bits():
    assert shannon_entropy(uniform(4)) == 2.0


def test_entropy_golden_values(p4, p3):
    assert abs(shannon_entropy(p4) - H_P4) <= 1e-12
    assert abs(shannon_entropy(negate(p4)) - H_NEG_P4) <= 1e-12
    assert abs(shannon_entropy(p3) - H_P3) <= 1e-12


def test_zero_times_log_zero_is_zero():
    p = ProbDist(np.array([1.0, 0.0]))
    assert shannon_entropy(p) == 0.0


def test_padding_leaves_entropy_unchanged(p3, q5):
    assert shannon_entropy(p3) == shannon_entropy(q5)


def test_entropy_report(p4):
    rep = entropy_report(p4)
    assert rep.n == 4
    assert rep.max_entropy_bits == 2.0
    assert abs(rep.gap_bits - (2.0 - H_P4)) <= 1e-12

    certain = entropy_report(ProbDist(np.array([1.0, 0.0])))
    assert certain.entropy_bits == 0.0
    assert certain.gap_bits == 1.0

    flat = entropy_report(uniform(4))
    assert flat.gap_bits == 0.0


def test_cross_entropy_self_is_equality(p4):
    cert = cross_entropy_check(p4, p4)
    assert cert.holds and cert.equality
    assert abs(cert.slack) <= 1e-12


def test_cross_entropy_vs_uniform(p4):
    cert = cross_entropy_check(p4, uniform(4))
    assert cert.holds and not cert.equality
    assert abs(cert.rhs - 2.0) <= 1e-12
    assert cert.slack > 1e-3


def test_cross_entropy_divergence():
    p = make_dist([0.5, 0.5])
    q = ProbDist(np.array([1.0, 0.0]))
    cert = cross_entropy_check(p, q)
    assert cert.infinite
    assert cert.rhs == math.inf
    assert cert.holds and not cert.equality


def test_cross_entropy_size_mismatch(p4, p3):
    with pytest.raises(DimensionError):
        cross_entropy_check(p4, p3)


def test_entropy_chain_golden(p4):
    cert = entropy_chain_check(p4)
    assert cert.holds and not cert.equality
    h0, h1, h2 = cert.detail[0].lhs, cert.detail[1].lhs, cert.detail[2].lhs
    assert abs(h0 - H_P4) <= 1e-12
    assert abs(h1 - H_NEG_P4) <= 1e-12
    assert abs(h2 - H_DBL_NEG_P4) <= 1e-12
    assert cert.rhs == 2.0
    # strict gaps on this example
    assert all(link.slack > 1e-6 for link in cert.detail)


def test_entropy_chain_equality_at_uniform():
    cert = entropy_chain_check(uniform(6))
    assert cert.holds and cert.equality
    assert all(link.equality for link in cert.detail)


def test_entropy_chain_two_outcomes():
    # swap preserves entropy: first link is an equality, ceiling still binds
    cert = entropy_chain_check(make_dist([0.9, 0.1]))
    assert cert.holds
    assert cert.detail[0].equality


def test_zero_padding_check_golden(p3):
    cert = zero_padding_entropy_check(p3, 2)
    assert cert.holds
    preserved, raised = cert.detail
    assert preserved.equality
    assert abs(raised.lhs - H_NEG_P3) <= 1e-12
    assert abs(raised.rhs - H_NEG_Q5) <= 1e-12
    assert raised.slack > 1e-6


def test_zero_padding_check_uniform_not_asserted():
    cert = zero_padding_entropy_check(uniform(3), 1)
    assert cert.holds
    # the strict part is recorded but not enforced for a uniform input
    assert cert.detail[1].holds


def test_zero_padding_check_degenerate():
    cert = zero_padding_entropy_check(ProbDist(np.array([1.0, 0.0])), 1)
    assert cert.holds
    assert cert.detail[0].lhs == 0.0


def test_zero_padding_check_rejects_zero_count(p3):
    with pytest.raises(DomainError):
        zero_padding_entropy_check(p3, 0)


@given(distributions())
def test_entropy_bounds(p):
    h = shannon_entropy(p)
    assert -1e-12 <= h <= math.log2(p.n) + 1e-12


@given(distributions())
def test_entropy_permutation_invariant(p):
    rolled = ProbDist(np.roll(p.probs, 1))
    assert abs(shannon_entropy(p) - shannon_entropy(rolled)) <= 1e-12


@given(distributions(max_n=8), st.integers(min_value=1, max_value=4))
def test_entropy_padding_invariant(p, k):
    assert abs(shannon_entropy(p) - shannon_entropy(pad_with_zeros(p, k))) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 8, 9, 130, 299, 4097, 2**16])
def test_padding_leaves_the_entropy_the_same_double(n):
    # the padded zeros are dropped before the pairwise sum, which then adds
    # p's own terms in p's own order; so padding_preserves_entropy is decided
    # by ==, and reads equality, on rows with and without zeros of their own
    rng = np.random.default_rng(n)
    for r in range(6):
        row = rng.dirichlet(np.ones(n))
        if r % 2:
            row[rng.random(n) < 0.3] = 0.0
            row[rng.integers(n)] = 1.0  # at least one entry stays
        p = make_dist(row / row.sum())
        for k in (1, 2, 7, 64):
            assert shannon_entropy(pad_with_zeros(p, k)) == shannon_entropy(p), (r, k)
            preserved = zero_padding_entropy_check(p, k).detail[0]
            assert preserved.holds and preserved.equality and preserved.slack == 0.0, (r, k)


@given(distributions(min_n=3))
def test_negation_never_loses_entropy(p):
    assert shannon_entropy(negate(p)) >= shannon_entropy(p) - 1e-12


@given(distributions())
def test_chain_certificate_always_holds(p):
    assert entropy_chain_check(p).holds


# --- the block forms used by the batch suite -------------------------------

def _rows_with_zeros(n, seed):
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(n), size=40)
    rows[::2, rng.choice(n, size=n // 3 + 1, replace=False)] = 0.0  # every other row
    return rows / rows.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("n", [3, 8, 9, 64, 200])
def test_row_entropies_equal_shannon_entropy_bit_for_bit(n):
    # a zero left in place would reorder numpy's pairwise sum; the block form
    # must give each row's entropy exactly as shannon_entropy does
    rows = _rows_with_zeros(n, n)
    assert _entropies(rows).tolist() == [shannon_entropy(ProbDist(r)) for r in rows]


@pytest.mark.parametrize("n", [2, 3, 8, 9, 64, 200])
def test_shannon_entropy_sums_the_compacted_row(n):
    # the literal formula: -sum(p log2 p) over the entries p > 0, as a Python float
    for r in _rows_with_zeros(n, n + 3):
        pos = r[r > 0]
        h = shannon_entropy(ProbDist(r))
        assert type(h) is float
        assert h == float(-np.sum(pos * np.log2(pos))) + 0.0


@pytest.mark.parametrize("n", [3, 8, 9, 64, 200])
def test_row_cross_entropies_sum_over_the_support_bit_for_bit(n):
    p = _rows_with_zeros(n, n + 1)
    q = _rows_with_zeros(n, n + 2)
    q[1::4] = 1.0 / n  # some rows against uniform, the others may miss p's support
    column = _cross_entropies(p, q, _entropies(p))
    for r in range(len(p)):
        support = p[r] > 0
        if np.any(q[r][support] == 0.0):
            want = math.inf
        else:
            want = float(-np.sum(p[r][support] * np.log2(q[r][support])))
        assert column.rhs[r] == want
