"""The negation operator: closed forms, iteration, convergence."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from neglab import (
    ConvergenceTrace,
    DimensionError,
    DomainError,
    ProbDist,
    converge_traces,
    is_uniform,
    l1_distance,
    make_dist,
    negate,
    negate_iterated,
    negate_twice,
    negation_pairs,
    uniform,
)

from conftest import assert_identical, by_length, distributions, mixed_batches


def _max_err(p, expected_fracs):
    return max(abs(v - float(f)) for v, f in zip(p, expected_fracs))


def test_negate_golden_four(p4):
    expected = [Fraction(2, 9), Fraction(5, 18), Fraction(5, 18), Fraction(2, 9)]
    assert _max_err(negate(p4), expected) <= 1e-14


def test_negate_twice_golden_four(p4):
    expected = [Fraction(7, 27), Fraction(13, 54), Fraction(13, 54), Fraction(7, 27)]
    assert _max_err(negate_twice(p4), expected) <= 1e-14


def test_negate_golden_three(p3):
    assert _max_err(negate(p3), [Fraction(1, 6), Fraction(5, 12), Fraction(5, 12)]) <= 1e-14


def test_negate_golden_padded_five(q5):
    expected = [Fraction(1, 12), Fraction(5, 24), Fraction(5, 24), Fraction(1, 4), Fraction(1, 4)]
    assert _max_err(negate(q5), expected) <= 1e-14


def test_negate_golden_symmetric_peak(p5_peak):
    expected = [Fraction(7, 32), Fraction(7, 32), Fraction(1, 8), Fraction(7, 32), Fraction(7, 32)]
    assert _max_err(negate(p5_peak), expected) <= 1e-14


def test_uniform_is_fixed_point():
    for n in (2, 3, 4, 7, 16):
        u = uniform(n)
        assert np.max(np.abs(negate(u).probs - u.probs)) < 1e-15


def test_two_outcome_negation_is_swap():
    p = make_dist([0.9, 0.1])
    q = negate(p)
    assert abs(q[0] - 0.1) < 1e-15 and abs(q[1] - 0.9) < 1e-15
    r = negate_twice(p)
    assert np.max(np.abs(r.probs - p.probs)) < 1e-15


def test_two_outcome_even_iterates_restore_p_exactly():
    # 0.1 - 0.5 + 0.5 is not 0.1 in floating point; an even number of swaps is
    p = make_dist([0.9, 0.1])
    for k in (2, 4, 10):
        assert negate_iterated(p, k).tolist() == p.tolist()
    assert negate_iterated(p, 3).tolist() == negate_iterated(p, 1).tolist()


def test_negate_iterated_keeps_the_parity_of_a_large_k():
    # a float exponent would read 2**53 + 1 as 2**53 and overflow at 10**400
    p = make_dist([0.3, 0.7])
    swap = negate_iterated(p, 1).tolist()
    assert swap == [0.7, 0.30000000000000004]
    for k in (2**53 + 1, 10**400 + 1):
        assert negate_iterated(p, k).tolist() == swap, k
    for k in (2**53, 10**400):
        assert negate_iterated(p, k).tolist() == p.tolist(), k


def test_negate_iterated_is_uniform_for_good_from_1075_steps():
    # r**k with |r| <= 1/2 is 0 from k = 1075 on, so every deeper iterate is
    # the bits of k = 1075 or 1076, by parity; the huge k must not overflow
    p = make_dist([0.2, 0.3, 0.5])
    assert negate_iterated(p, 10**400 + 1).probs.tobytes() == negate_iterated(p, 1077).probs.tobytes()
    assert negate_iterated(p, 10**400).probs.tobytes() == negate_iterated(p, 1076).probs.tobytes()


@given(distributions())
def test_negate_lands_on_simplex(p):
    q = negate(p)
    assert abs(float(q.probs.sum()) - 1.0) <= 1e-12
    # single entries can never exceed 1/(n-1) after negation
    assert np.all(q.probs <= 1.0 / (p.n - 1) + 1e-15)
    assert np.all(q.probs >= 0.0)


@given(distributions())
def test_negate_twice_matches_composition(p):
    via_closed_form = negate_twice(p)
    via_composition = negate(negate(p))
    assert np.max(np.abs(via_closed_form.probs - via_composition.probs)) <= 1e-14


@given(distributions())
def test_palindrome_survives_negation(p):
    mirrored = ProbDist((p.probs + p.probs[::-1]) / 2.0)
    q = negate(mirrored)
    assert np.array_equal(q.probs, q.probs[::-1])


@given(distributions(min_n=2, max_n=32))
def test_negation_contracts_l1_to_uniform(p):
    u = uniform(p.n)
    before = l1_distance(p, u)
    after = l1_distance(negate(p), u)
    assert abs(after - before / (p.n - 1)) <= 1e-12


@given(distributions())
def test_fixed_point_only_at_uniform(p):
    gap = float(np.max(np.abs(negate(p).probs - p.probs)))
    dev = float(np.max(np.abs(p.probs - 1.0 / p.n)))
    if dev <= 1e-13:
        assert gap <= 1e-12
    elif dev >= 1e-11:
        assert gap > 1e-12


def test_negate_iterated_zero_is_identity(p4):
    assert negate_iterated(p4, 0) is p4


def test_negate_iterated_small_counts(p4):
    assert np.max(np.abs(negate_iterated(p4, 1).probs - negate(p4).probs)) <= 1e-15
    assert np.max(np.abs(negate_iterated(p4, 2).probs - negate_twice(p4).probs)) <= 1e-14


def test_negate_iterated_rejects_negative(p4):
    with pytest.raises(DomainError):
        negate_iterated(p4, -1)


@given(distributions(min_n=2, max_n=12), st.integers(min_value=0, max_value=20))
def test_negate_iterated_matches_literal(p, k):
    q = p
    for _ in range(k):
        q = negate(q)
    closed = negate_iterated(p, k)
    assert np.max(np.abs(closed.probs - q.probs)) <= 1e-12


def test_converge_golden_step_count(p4):
    # deviation 1/12 shrinks by 1/3 per step; 11 steps reach 1e-6
    trace = converge_traces([p4], tolerance=1e-6).row(0)
    assert trace.converged
    assert trace.steps == 11
    assert not trace.oscillating
    assert len(trace.iterates) == len(trace.entropies) == len(trace.distances) == 12


def test_converge_uniform_is_instant():
    trace = converge_traces([uniform(5)], tolerance=1e-6).row(0)
    assert trace.converged and trace.steps == 0
    assert len(trace.iterates) == 1


def test_converge_trace_iterates_are_literal_negations(p4):
    trace = converge_traces([p4], tolerance=1e-9).row(0)
    for k in range(trace.steps):
        expected = negate(trace.iterates[k])
        assert np.array_equal(expected.probs, trace.iterates[k + 1].probs)


def test_converge_distances_follow_closed_form(p4):
    trace = converge_traces([p4], tolerance=1e-9).row(0)
    r = 1.0 / (p4.n - 1)
    for k, d in enumerate(trace.distances):
        assert abs(d - trace.distances[0] * r**k) <= 1e-12


def _seeded_rows(count, ns, seed):
    """``count`` seeded Dirichlet rows with n drawn from ``ns``, every fifth
    with exact zeros (at least one entry left positive)."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.choice(ns))
        row = rng.dirichlet(np.ones(n))
        if k % 5 == 0:
            row[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 0.0
        yield make_dist(row / row.sum())


def test_converge_distance_shrinks_by_one_over_n_minus_one_bit_for_bit():
    # a step scales the deviation from uniform by -1/(n - 1); rounding is
    # odd and monotone, so the largest |deviation| is the last one times
    # 1/(n - 1), rounded once
    steps = 0
    for p in _seeded_rows(400, np.arange(3, 40), seed=13):
        distances = converge_traces([p]).distances
        ratio = 1.0 / (p.n - 1)
        assert np.array_equal(distances[1:], distances[:-1] * ratio), p.n
        steps += distances.size - 1
    assert steps > 3000


def test_negation_mass_is_n_minus_the_mass_over_n_minus_one():
    # sum(negate(p)) = (n - sum(p))/(n - 1) exactly on the rationals that
    # p's doubles are; each entry (1 - p_i)/(n - 1) is two roundings off its
    # exact value, so the exact sum of the entries lies within (2u + u^2)
    # of the right side, relatively, u = 2^-53
    u = Fraction(1, 2**53)
    ns = [2, 3, 5, 16, 100, 1000, 4096, 2**16]
    rows = [*_seeded_rows(40, ns, seed=21), *(uniform(n) for n in ns),
            *(make_dist([1.0] + [0.0] * (n - 1)) for n in ns)]
    assert {p.n for p in rows} == set(ns)
    for p in rows:
        n = p.n
        exact = (n - sum(map(Fraction, p.tolist()))) / (n - 1)
        error = abs(sum(map(Fraction, negate(p).tolist())) - exact)
        assert error <= (2 * u + u * u) * exact, (n, float(error / exact))


def test_converge_entropies_nondecreasing(p3):
    trace = converge_traces([p3], tolerance=1e-9).row(0)
    diffs = np.diff(np.asarray(trace.entropies))
    assert np.all(diffs >= -1e-12)


def test_converge_two_outcomes_oscillates():
    trace = converge_traces([make_dist([0.9, 0.1])], tolerance=1e-6).row(0)
    assert trace.oscillating
    assert not trace.converged
    assert trace.steps == 1
    assert np.array_equal(trace.iterates[1].probs, negate(trace.iterates[0]).probs)


def test_converge_two_outcomes_uniform_still_converges():
    trace = converge_traces([uniform(2)], tolerance=1e-9).row(0)
    assert trace.converged and not trace.oscillating


def test_converge_max_steps_exhaustion(p4):
    trace = converge_traces([p4], tolerance=1e-30, max_steps=5).row(0)
    assert not trace.converged
    assert not trace.oscillating
    assert trace.steps == 5
    assert len(trace.iterates) == 6


def test_converge_parameter_validation(p4):
    with pytest.raises(DomainError):
        converge_traces([p4], tolerance=0.0)
    with pytest.raises(DomainError):
        converge_traces([p4], max_steps=0)
    # every comparison with NaN is False: `tolerance <= 0` let it through,
    # and the trace ran to max_steps without converging
    with pytest.raises(DomainError):
        converge_traces([p4], tolerance=float("nan"), max_steps=50)


@given(distributions(min_n=3, max_n=16))
def test_converge_reaches_declared_tolerance(p):
    trace = converge_traces([p], tolerance=1e-9).row(0)
    assert trace.converged
    assert trace.distances[-1] <= 1e-9
    assert is_uniform(trace.iterates[-1], tolerance=1e-8)


# --- the group kernel against the per-input loop it replaced ---------------

def _oracle_entropy(p):
    """The per-row entropy formula shannon_entropy used before the block kernel."""
    pos = p.probs[p.probs > 0]
    return float(-np.sum(pos * np.log2(pos))) + 0.0


def _oracle_converge(p, tolerance=1e-9, max_steps=1000):
    """The trace of one input as it was computed before converge_traces, one step at a time."""
    n = p.n
    center = 1.0 / n
    dev = p.probs - center
    iterates = [p]
    entropies = [_oracle_entropy(p)]
    distances = [float(np.max(np.abs(dev)))]
    if distances[0] <= tolerance:
        return ConvergenceTrace(tuple(iterates), tuple(entropies), tuple(distances), True, 0)
    if n == 2:
        q = negate(p)
        iterates.append(q)
        entropies.append(_oracle_entropy(q))
        distances.append(float(np.max(np.abs(q.probs - center))))
        return ConvergenceTrace(tuple(iterates), tuple(entropies), tuple(distances),
                                converged=False, steps=1, oscillating=True)
    ratio = -1.0 / (n - 1)
    converged = False
    steps = 0
    q = p
    for step in range(1, max_steps + 1):
        q = negate(q)
        dev = dev * ratio
        iterates.append(q)
        entropies.append(_oracle_entropy(q))
        distances.append(float(np.max(np.abs(dev))))
        steps = step
        if distances[-1] <= tolerance:
            converged = True
            break
    return ConvergenceTrace(tuple(iterates), tuple(entropies), tuple(distances), converged, steps)


@given(mixed_batches(), st.sampled_from([1e-9, 1e-3, 0.2, 1e-15]),
       st.sampled_from([1, 2, 3, 1000]))
def test_converge_traces_match_the_per_input_loop(batch, tolerance, max_steps):
    for group in by_length(batch):
        traces = converge_traces(group, tolerance, max_steps)
        assert len(traces.steps) == len(group)
        for r, p in enumerate(group):
            want = _oracle_converge(p, tolerance, max_steps).as_dict()
            assert_identical(traces.row(r).as_dict(), want)
            # batch invariance: the row of p alone is p's row in the group
            assert_identical(converge_traces([p], tolerance, max_steps).row(0).as_dict(), want)


def test_converge_traces_cut_each_row_at_its_own_step():
    group = [make_dist([0.5, 0.25, 0.25]), uniform(3), make_dist([1.0, 0.0, 0.0])]
    traces = converge_traces(group, tolerance=1e-6, max_steps=5)
    assert traces.steps.tolist() == [5, 0, 5]
    assert traces.converged.tolist() == [False, True, False]
    assert len(traces.iterates) == len(traces.entropies) == len(traces.distances) == 6 + 1 + 6
    # input 2 starts after input 0's six entries and input 1's one
    assert traces.iterates[7].tolist() == [1.0, 0.0, 0.0]
    assert traces.row(2).iterates[1].tolist() == [0.0, 0.5, 0.5]


def test_converge_traces_stop_at_a_distance_equal_to_the_tolerance(p4):
    # "within tolerance" includes the tolerance itself, at every step
    for k in (0, 1, 3):
        tolerance = converge_traces([p4]).row(0).distances[k]
        traces = converge_traces([make_dist([0.1, 0.2, 0.3, 0.4]), p4], tolerance)
        assert traces.row(1).steps == k and traces.row(1).converged
        assert_identical(traces.row(1).as_dict(), _oracle_converge(p4, tolerance).as_dict())


def test_converge_traces_two_outcomes_step_once():
    group = [make_dist([0.9, 0.1]), uniform(2), make_dist([0.0, 1.0])]
    traces = converge_traces(group, max_steps=50)
    assert traces.steps.tolist() == [1, 0, 1]
    assert traces.oscillating.tolist() == [True, False, True]
    assert traces.converged.tolist() == [False, True, False]


def test_converge_traces_argument_checks(p4, p3):
    with pytest.raises(DimensionError):
        converge_traces([])
    with pytest.raises(DimensionError):
        converge_traces([p4, p3])
    with pytest.raises(DomainError):
        converge_traces([p4], tolerance=-1.0)
    with pytest.raises(DomainError):
        converge_traces([p4], max_steps=0)


@given(mixed_batches())
def test_negation_pairs_equal_the_one_input_calls(batch):
    for group in by_length(batch):
        negations, doubles = negation_pairs(group)
        assert negations.shape == doubles.shape == (len(group), group[0].n)
        for p, q, qq in zip(group, negations.tolist(), doubles.tolist()):
            assert_identical(q, negate(p).tolist())
            assert_identical(qq, negate_twice(p).tolist())


def test_negation_pairs_need_one_length(p4, p3):
    with pytest.raises(DimensionError):
        negation_pairs([p4, p3])
    with pytest.raises(DimensionError):
        negation_pairs([])
