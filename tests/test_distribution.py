"""Simplex validation, padding, and distance utilities."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from neglab import (
    DEFAULT_TOLERANCE,
    MAX_ALPHA,
    MAX_DEPTH,
    NEG_LOG,
    DimensionError,
    DomainError,
    ProbDist,
    ValidationReport,
    certificate_suites,
    converge_traces,
    dissim,
    entropy_report,
    is_uniform,
    l1_distance,
    make_dist,
    make_dists,
    negate,
    negate_iterated,
    negate_twice,
    negation_profiles,
    pad_with_zeros,
    partial_mean_chain,
    uniform,
    zero_padding_entropy_check,
)

from conftest import assert_identical, distribution_pairs, distributions


def test_make_dist_accepts_rationals():
    p = make_dist([1 / 3, 1 / 6, 1 / 6, 1 / 3])
    assert isinstance(p, ProbDist)
    assert p.n == 4
    assert abs(float(p.probs.sum()) - 1.0) < 1e-15


def test_make_dist_renormalizes():
    p = make_dist([0.2 + 1e-10, 0.3, 0.5])
    assert isinstance(p, ProbDist)
    assert abs(float(p.probs.sum()) - 1.0) < 1e-15


def test_make_dist_is_idempotent():
    # feeding validated values back in must not move any bits
    p = make_dist([0.20000001, 0.3, 0.2, 0.29999999])
    q = make_dist(p.tolist())
    assert isinstance(q, ProbDist)
    assert np.array_equal(p.probs, q.probs)


def test_make_dist_rejects_bad_sum():
    report = make_dist([0.5, 0.6])
    assert isinstance(report, ValidationReport)
    assert abs(report.sum_error - 0.1) < 1e-12
    assert report.bad_indices == ()


def test_make_dist_rejects_out_of_range():
    report = make_dist([-0.5, 1.5])
    assert isinstance(report, ValidationReport)
    assert report.bad_indices == (0, 1)


def test_make_dist_rejects_nan_entries():
    report = make_dist([float("nan"), 1.0])
    assert isinstance(report, ValidationReport)
    assert 0 in report.bad_indices


def test_make_dist_too_short_raises():
    with pytest.raises(DimensionError):
        make_dist([1.0])
    with pytest.raises(DimensionError):
        make_dist([])


def test_make_dist_clamps_negative_dust():
    p = make_dist([0.6, 0.4 + 1e-12, -1e-12])
    assert isinstance(p, ProbDist)
    assert p[2] == 0.0
    assert np.all(p.probs >= 0.0)


def test_make_dist_keeps_entries_at_most_one():
    # the sum is within 32 n eps of 1, so the row is not renormalized; the
    # entry one ulp above 1 must still come back as 1
    p = make_dist([1.0000000000000002, 0.0])
    assert p.tolist() == [1.0, 0.0]


def test_make_dist_renormalizes_a_long_row_outside_the_default_band():
    # 32 n eps is 1.4e-9 at n = 200,000, wider than DEFAULT_TOLERANCE: a
    # row that far off 1 must still be renormalized, or its stored sum
    # would lie outside DEFAULT_TOLERANCE
    n = 200_000
    p = make_dist(np.full(n, (1.0 + 1.2e-9) / n), tolerance=1e-8)
    assert isinstance(p, ProbDist)
    assert abs(float(p.probs.sum()) - 1.0) <= DEFAULT_TOLERANCE
    assert np.array_equal(ProbDist(p.probs).probs, p.probs)
    q = make_dist(p.probs)
    assert isinstance(q, ProbDist)
    assert q.probs.tobytes() == p.probs.tobytes()


def test_probdist_is_immutable():
    p = uniform(3)
    with pytest.raises(ValueError):
        p.probs[0] = 0.9


def test_probdist_rejects_matrix_input():
    with pytest.raises(DimensionError):
        ProbDist(np.ones((2, 2)) / 4)


def test_rows_of_different_lengths_raise_dimension_error():
    # numpy's own error for them is a bare ValueError about a sequence
    with pytest.raises(DimensionError, match="rows of different lengths"):
        make_dists([[0.5, 0.5], [0.2, 0.3, 0.5]])
    with pytest.raises(DimensionError, match="one-dimensional sequence"):
        ProbDist([[0.5], [0.5, 0.1]])
    with pytest.raises(DimensionError, match="one-dimensional sequence"):
        make_dist([[0.5], [0.5, 0.1]])


def test_an_empty_batch_raises_dimension_error():
    with pytest.raises(DimensionError, match="need at least one distribution"):
        make_dists([])
    with pytest.raises(DimensionError, match="need at least one distribution"):
        make_dists(np.empty((0, 3)))


def test_an_entry_that_is_not_a_number_keeps_its_value_error():
    for call in (lambda: make_dists([["a", 0.5]]), lambda: ProbDist(["x", 0.5]),
                 lambda: make_dist([0.5, "b"])):
        with pytest.raises(ValueError) as caught:
            call()
        assert not isinstance(caught.value, DimensionError)


def test_probdist_screen_messages():
    with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
        ProbDist(np.array([1.5, -0.5]))
    with pytest.raises(DomainError, match="must sum to 1, got 1.1"):
        ProbDist(np.array([0.5, 0.6]))
    with pytest.raises(DimensionError, match="at least 2 outcomes"):
        ProbDist(np.array([1.0]))


def test_probdist_checks_mass_after_clamping_dust():
    # the first raw sum is 1, but clamping the five -1e-9 entries adds
    # 5e-9, more than the tolerance; the second is off by more than 32 n
    # eps.  Both are renormalized, as by make_dist, so the stored values
    # keep the invariant
    for raw in ([-1e-9] * 5 + [0.2 + 1e-9] * 5, [0.2, 0.3, 0.5 + 9e-10]):
        assert abs(math.fsum(raw) - 1.0) <= DEFAULT_TOLERANCE
        p = ProbDist(np.array(raw))
        assert abs(float(p.probs.sum()) - 1.0) <= DEFAULT_TOLERANCE
        assert p.probs.tobytes() == make_dist(raw).probs.tobytes()
    # dust whose clamping stays inside the tolerance is still accepted
    p = ProbDist(np.array([-1e-12, 0.5, 0.5 + 1e-12]))
    assert p[0] == 0.0
    assert abs(float(p.probs.sum()) - 1.0) <= DEFAULT_TOLERANCE


@st.composite
def raw_rows(draw, max_n=12):
    """Raw rows near the simplex: entry dust and a sum off by up to twice
    the tolerance, and now and then a NaN or infinite entry."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    weights = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(any)))
    off = 2 * DEFAULT_TOLERANCE
    noise = draw(st.lists(st.floats(-off / n, off / n), min_size=n, max_size=n))
    row = weights / weights.sum() + np.asarray(noise)
    i = draw(st.integers(0, n - 1))
    row[i] += draw(st.floats(-off, off))
    row[i] = draw(st.sampled_from([row[i], math.nan, math.inf, -math.inf]))
    return row.tolist()


@given(raw_rows())
def test_probdist_validates_exactly_as_make_dist(raw):
    result = make_dist(raw)
    if isinstance(result, ValidationReport):
        with pytest.raises(DomainError):
            ProbDist(np.array(raw))
    else:
        assert ProbDist(np.array(raw)).probs.tobytes() == result.probs.tobytes()


def test_make_dist_rejects_all_mass_clamped_away():
    # a tolerance of 1 would admit [0, 0], with no mass to renormalize: it
    # is refused before any row is screened, not turned into a NaN distribution
    with pytest.raises(DomainError, match=r"tolerance must be finite and in \(0, 1\), got 1.0"):
        make_dist([0.0, 0.0], tolerance=1.0)


@pytest.mark.parametrize("values, tolerance", [
    ([1e308, 1e308], math.inf),  # the raw sum overflows
    ([1e308, -1e308, 1e308], 1e308),  # the sum overflows once -1e308 is clamped to 0
    ([math.inf, -math.inf], DEFAULT_TOLERANCE),  # the raw sum is NaN
    ([1e308, 1e308], DEFAULT_TOLERANCE),
])
def test_make_dist_rejects_an_overflowed_sum(values, tolerance):
    # an infinite total used to pass inf <= inf and be divided into all zeros;
    # a tolerance of 1 or more, which let such a row pass the screen, is refused
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if tolerance >= 1.0:
            with pytest.raises(DomainError, match="tolerance must be finite and in"):
                make_dist(values, tolerance=tolerance)
            return
        report = make_dist(values, tolerance=tolerance)
    assert isinstance(report, ValidationReport)
    assert report.sum_error == math.inf


# --- one range rule per scalar parameter -----------------------------------

_P3 = [0.5, 0.3, 0.2]

#: (function, parameter, call, lo, hi) of each integer parameter, its call returning plain data
_INTEGER_PARAMETERS = [
    ("dissimilarity", "alpha", lambda p, v: dissim(p, negate(p), v).value, 0, MAX_ALPHA),
    ("negation_profiles", "alpha", lambda p, v: negation_profiles([p], [v], 1).value.tolist(),
     0, MAX_ALPHA),
    ("negation_profiles", "depth", lambda p, v: negation_profiles([p], [0], v).value.tolist(),
     1, MAX_DEPTH),
    ("negate_iterated", "k", lambda p, v: negate_iterated(p, v).tolist(), 0, math.inf),
    ("converge_traces", "max_steps",
     lambda p, v: converge_traces([p], 1e-9, v).distances.tolist(), 1, math.inf),
    ("pad_with_zeros", "k", lambda p, v: pad_with_zeros(p, v).tolist(), 0, math.inf),
    ("zero_padding_entropy_check", "k",
     lambda p, v: zero_padding_entropy_check(p, v).as_dict(), 1, math.inf),
]

#: (function, call) of each tolerance, whose rule is 0 < tolerance < 1
_TOLERANCES = [
    ("make_dist", lambda p, v: make_dist(_P3, v).tolist()),
    ("converge_traces", lambda p, v: converge_traces([p], v).distances.tolist()),
    ("is_uniform", lambda p, v: is_uniform(p, v)),
]

_NOT_NUMBERS = [True, False, math.nan, math.inf, -math.inf]


def _scalar_cases():
    """(name, call, value, whether the rule admits it, the plain value it stands for)."""
    for function, name, call, lo, hi in _INTEGER_PARAMETERS:
        values = _NOT_NUMBERS + [2.5, float(lo), -1, lo - 1, lo, lo + 1, np.int64(lo)]
        if hi < math.inf:
            values += [hi - 1, hi, hi + 1, np.int64(hi)]
        for v in {repr(v): v for v in values}.values():  # -1 is lo - 1 when lo is 0
            inside = isinstance(v, (int, np.integer)) and not isinstance(v, bool) and lo <= v <= hi
            yield pytest.param(name, call, v, inside, int(v) if inside else None,
                               id=f"{function}.{name}={v!r}")
    for function, call in _TOLERANCES:
        for v in _NOT_NUMBERS + [0.0, -1.0, 5e-324, 1e-9, 0.5, np.float64(0.5),
                                 math.nextafter(1.0, 0.0), 1.0, 1, 2.5]:
            inside = not isinstance(v, bool) and 0.0 < v < 1.0
            yield pytest.param("tolerance", call, v, inside, float(v) if inside else None,
                               id=f"{function}.tolerance={v!r}")


@pytest.mark.parametrize("name, call, value, inside, plain", _scalar_cases())
def test_every_scalar_parameter_takes_its_rule(name, call, value, inside, plain):
    # a count or level is an integer in its range, a numpy one included, and
    # never a bool or a float; a tolerance lies in (0, 1), NaN excluded
    p = make_dist(_P3)
    if inside:
        assert call(p, value) == call(p, plain)
    else:
        with pytest.raises(DomainError, match=rf"^{name} must be "):
            call(p, value)


#: each result record from its public producer, at _P3
_RECORDS = {
    "ValidationReport": lambda p: make_dist([0.7, 0.5, -0.2]),
    "EntropyReport": entropy_report,
    "PartialMeanChain": lambda p: partial_mean_chain(NEG_LOG, p, 1)[0],
    "DissimResult": lambda p: dissim(p, negate(p), 2),
    "IteratedDissimReport": lambda p: negation_profiles([p], [1], 3).row(0).iterated,
    "NegationProfile": lambda p: negation_profiles([p], [0, 2], 3).row(0),
    "ConvergenceTrace": lambda p: converge_traces([p], max_steps=5).row(0),
}


@pytest.mark.parametrize("record", list(_RECORDS), ids=list(_RECORDS))
def test_every_record_plain_data_is_json_native(record):
    # no tuple, ProbDist or numpy scalar may leak through a record's fields
    r = _RECORDS[record](make_dist(_P3))
    assert type(r).__name__ == record
    d = r.as_dict()
    assert_identical(d, json.loads(json.dumps(d)))


#: each batch result read one input at a time through ``.row(r)``, from its producer
_BATCHES = {
    "Certificate": lambda dists: certificate_suites(NEG_LOG, dists)[-1],  # the entropy chain
    "ConvergenceTraces": converge_traces,
    "NegationProfiles": lambda dists: negation_profiles(dists, [0, 2], 3),
}


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("batch", list(_BATCHES), ids=list(_BATCHES))
def test_every_batch_row_takes_an_index_as_a_sequence_does(batch, m):
    # one rule for every .row(r): an integer in [-m, m), negative from the end
    dists = [make_dist([0.2, 0.3, 0.5]), make_dist([0.1, 0.1, 0.8]), make_dist(_P3)][:m]
    result = _BATCHES[batch](dists)
    for r in range(1, m + 1):
        assert_identical(result.row(-r).as_dict(), result.row(m - r).as_dict())
    assert_identical(result.row(np.int64(-1)).as_dict(), result.row(m - 1).as_dict())
    for bad in (m, -m - 1, True, False, 1.0, np.float64(0.0), "0", None):
        with pytest.raises(IndexError, match=rf"row must be an integer in \[{-m}, {m}\)"):
            result.row(bad)


def test_pad_with_zeros():
    p = make_dist([2 / 3, 1 / 6, 1 / 6])
    padded = pad_with_zeros(p, 2)
    assert padded.n == 5
    assert np.array_equal(padded.probs[:3], p.probs)
    assert padded[3] == 0.0 and padded[4] == 0.0


def test_pad_with_zeros_zero_count_is_noop():
    p = uniform(4)
    assert pad_with_zeros(p, 0) is p


def test_pad_with_zeros_negative_raises():
    with pytest.raises(DomainError):
        pad_with_zeros(uniform(3), -1)


def test_uniform():
    u = uniform(5)
    assert u.n == 5
    assert np.all(u.probs == 0.2)
    assert uniform(np.int64(3)).n == 3
    for n in (0, 1):
        with pytest.raises(DimensionError, match=f"at least 2 outcomes, got {n}$"):
            uniform(n)
    for n in (True, 2.5, 3.0, np.float64(3.0), math.nan, -1):
        with pytest.raises(DomainError, match="^n must be an integer"):
            uniform(n)


def test_is_uniform_tolerance():
    u = uniform(4)
    assert is_uniform(u)
    nudged = ProbDist(np.array([0.25 + 1e-12, 0.25 - 1e-12, 0.25, 0.25]))
    assert is_uniform(nudged)
    assert not is_uniform(nudged, tolerance=1e-14)
    assert not is_uniform(make_dist([0.4, 0.2, 0.2, 0.2]))


def test_l1_distance_golden(p4):
    from neglab import negate

    assert abs(l1_distance(p4, negate(p4)) - 4 / 9) < 1e-15


def test_l1_distance_extremes():
    p = ProbDist(np.array([1.0, 0.0]))
    q = ProbDist(np.array([0.0, 1.0]))
    assert l1_distance(p, q) == 2.0
    assert l1_distance(p, p) == 0.0


def test_l1_distance_size_mismatch():
    with pytest.raises(DimensionError):
        l1_distance(uniform(3), uniform(4))


@given(distributions())
def test_construction_invariants(p):
    assert p.n >= 2
    assert np.all(p.probs >= 0.0)
    assert np.all(p.probs <= 1.0)
    assert abs(float(p.probs.sum()) - 1.0) <= 1e-9


@given(distributions(max_n=8))
def test_padding_preserves_prefix(p):
    padded = pad_with_zeros(p, 3)
    assert np.array_equal(padded.probs[: p.n], p.probs)
    assert float(padded.probs[p.n :].sum()) == 0.0


@given(distribution_pairs())
def test_l1_axioms(pair):
    p, q = pair
    d = l1_distance(p, q)
    assert 0.0 <= d <= 2.0
    assert d == l1_distance(q, p)
    assert l1_distance(p, p) == 0.0


@st.composite
def dusty_distributions(draw, max_n=16):
    """Simplex points with exact zeros and in-tolerance noise, through make_dist."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    entry = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0))
    raw = np.asarray(draw(st.lists(entry, min_size=n, max_size=n).filter(any)))
    dust = DEFAULT_TOLERANCE / (4 * n)
    noise = draw(st.lists(st.floats(-dust, dust), min_size=n, max_size=n))
    p = make_dist((raw / raw.sum() + np.asarray(noise)).tolist())
    assert isinstance(p, ProbDist)
    return p


def _assert_on_simplex(q):
    assert isinstance(q, ProbDist)
    assert not q.probs.flags.writeable
    assert np.all((q.probs >= 0.0) & (q.probs <= 1.0))
    assert abs(float(q.probs.sum()) - 1.0) <= DEFAULT_TOLERANCE


@given(dusty_distributions(), st.integers(min_value=0, max_value=64),
       st.integers(min_value=0, max_value=8))
def test_unchecked_outputs_stay_on_the_simplex(p, k, pad):
    # these outputs skip the screen, so the invariants must hold by construction
    for q in (p, negate(p), negate_twice(p), negate_iterated(p, k),
              pad_with_zeros(p, pad), uniform(p.n)):
        _assert_on_simplex(q)


@given(st.integers(min_value=2, max_value=5000))
def test_uniform_stays_on_the_simplex(n):
    _assert_on_simplex(uniform(n))
