"""The dissimilarity family, its closed form, and its stated properties."""

import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import neglab
from neglab import (
    DimensionError,
    DomainError,
    NegationProfile,
    ProbDist,
    dissim,
    dissimilarity_properties,
    iterated_negation_dissimilarity,
    l1_distance,
    make_dist,
    negate,
    negate_iterated,
    negation_dissimilarity,
    negation_profile,
    negation_profiles,
    uniform,
)

from neglab.certificates import HOLDS_TOLERANCE, compare
from neglab.cli import EXIT_VALIDATION, main
from neglab.dissimilarity import (
    _BLOCK_ELEMENTS,
    MAX_ALPHA,
    MAX_DEPTH,
    IteratedDissimReport,
    _evaluate,
)
from neglab.distribution import _unchecked
from neglab.negation import _iterates

from conftest import assert_identical, by_length, distribution_pairs, distributions, mixed_batches

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
    res = dissim(p4, negate(p4), 0)
    assert abs(res.value - (-math.log2(8 / 9))) <= 1e-12


def test_self_dissimilarity_is_zero(p4):
    # the literal sum carries the distribution's own rounding noise, so
    # "zero" here means zero to machine precision, not bitwise
    for alpha in (0, 1, 5):
        assert abs(dissim(p4, p4, alpha).value) <= 1e-15


def test_uniform_negation_dissimilarity_is_zero():
    for n in (2, 4, 8):  # 1/n exact in binary: the value is exactly zero
        assert negation_dissimilarity(uniform(n), 0).value == 0.0
    assert abs(negation_dissimilarity(uniform(3), 0).value) <= 1e-15


def test_disjoint_supports_attain_upper_bound():
    p = ProbDist(np.array([1.0, 0.0]))
    q = ProbDist(np.array([0.0, 1.0]))
    res = dissim(p, q, 0)
    assert res.value == 1.0
    assert res.l1 == 2.0
    # the bound is only attained at alpha = 0
    assert dissim(p, q, 1).value < 1.0


def test_two_outcome_example():
    res = negation_dissimilarity(make_dist([0.9, 0.1]), 0)
    assert abs(res.value - 0.7369655941662062) <= 1e-12
    assert abs(res.l1 - 1.6) <= 1e-14


def test_result_carries_audit_fields(p4):
    res = negation_dissimilarity(p4, 1)
    assert res.alpha == 1
    assert abs(res.value - -math.log2(1.0 - res.l1 / 2.0 ** 3)) <= 1e-12


def test_alpha_validation(p4):
    with pytest.raises(DomainError):
        dissim(p4, p4, -1)
    with pytest.raises(DomainError):
        dissim(p4, p4, 1.5)
    with pytest.raises(DomainError):
        dissim(p4, p4, True)


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
        dissim(p4, p3, 0)


@given(distribution_pairs(), st.integers(min_value=0, max_value=16))
def test_literal_matches_closed_form(pair, alpha):
    p, q = pair
    res = dissim(p, q, alpha)
    expected = -math.log2(1.0 - l1_distance(p, q) / 2.0 ** (alpha + 2))
    assert abs(res.value - expected) <= 1e-12


@given(distribution_pairs(), st.integers(min_value=0, max_value=16))
def test_range_and_symmetry(pair, alpha):
    p, q = pair
    forward = dissim(p, q, alpha).value
    backward = dissim(q, p, alpha).value
    assert -1e-12 <= forward <= 1.0 + 1e-12
    assert abs(forward - backward) <= 1e-14


@st.composite
def _pairs_with_zeros(draw):
    """Two distributions on one simplex of n in [2, 16], about a third of the entries 0."""
    n = draw(st.integers(min_value=2, max_value=16))
    positive = st.floats(min_value=1e-6, max_value=1.0)
    entry = st.one_of(st.just(0.0), positive, positive)

    def one():
        raw = np.asarray(draw(st.lists(entry, min_size=n, max_size=n)))
        raw[draw(st.integers(min_value=0, max_value=n - 1))] += 1e-3  # some mass
        return ProbDist(raw / raw.sum())
    return one(), one()


@given(_pairs_with_zeros(), st.lists(st.integers(min_value=0, max_value=59), min_size=1, max_size=6))
def test_swapped_pair_is_bitwise_the_same(pair, alphas):
    # min and + commute entry by entry and |q - p| is |p - q|, so evaluating
    # (q, p) repeats (p, q) to the bit, the literal sum included
    p, q = pair
    for alpha in alphas:
        assert_identical(dissim(q, p, alpha).as_dict(), dissim(p, q, alpha).as_dict())


@given(distribution_pairs(), st.integers(min_value=0, max_value=1020))
def test_strictly_decreasing_in_alpha(pair, alpha):
    p, q = pair
    if l1_distance(p, q) == 0.0:  # p == q entry for entry
        return
    try:
        lower, upper = dissim(p, q, alpha), dissim(p, q, alpha + 1)
    except DomainError:  # the value underflows at this level: a double cannot carry it
        return
    assert upper.value < lower.value


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


# --- the array kernel against the scalar formulas it replaced ----------------

def _oracle_dissim(p, q, alpha):
    """Reference: (literal value, old closed form, sum of min pairs, l1), scalar."""
    a = p.probs
    b = q.probs
    scale = 2.0**alpha
    toward_b = ((scale - 1.0) * a + b) / scale
    toward_a = (a + (scale - 1.0) * b) / scale
    s = float(np.sum(np.minimum(a, toward_b) + np.minimum(toward_a, b)))
    value = -math.log2((1.0 + 0.5 * s) / 2.0) + 0.0
    l1 = l1_distance(p, q)
    closed = -math.log2(1.0 - l1 / 2.0 ** (alpha + 2)) + 0.0
    return value, closed, s, l1


def _oracle_properties(p, alphas):
    """Reference: the properties certificate as the scalar code built it."""
    q = negate(p)
    forward = [_oracle_dissim(p, q, a) for a in alphas]
    asserted = []
    for a, (value, _, _, l1) in zip(alphas, forward):
        in_range = -HOLDS_TOLERANCE <= value <= 1.0 + HOLDS_TOLERANCE
        asserted.append(compare(
            f"bounded_in_unit_interval[alpha={a}]", value, 1.0, holds=in_range, equality=False,
        ))
        l1_cutoff = -math.expm1(-HOLDS_TOLERANCE * math.log(2.0)) * 2.0 ** (a + 2)
        zero_iff = (value <= HOLDS_TOLERANCE) == (l1 <= l1_cutoff)
        asserted.append(compare(
            f"zero_iff_identical[alpha={a}]", value, l1, holds=zero_iff, equality=False,
        ))
    values = [r[0] for r in forward]
    steps = list(zip(values, values[1:]))
    direction = [
        compare("value_non_increasing_in_alpha", values[-1], values[0],
                holds=all(b <= a + HOLDS_TOLERANCE for a, b in steps), equality=False),
        compare("value_non_decreasing_in_alpha", values[0], values[-1],
                holds=all(b >= a - HOLDS_TOLERANCE for a, b in steps), equality=False),
    ] if steps else []
    holds = all(c.holds for c in asserted)
    return compare(
        "dissimilarity_properties", values[0], values[-1], holds=holds,
        equality=holds and forward[0][3] <= HOLDS_TOLERANCE, detail=(*asserted, *direction),
    )


def _flags(cert):
    return [(cert.name, cert.holds, cert.equality, cert.infinite)] + [
        flag for sub in cert.detail for flag in _flags(sub)
    ]


_LEVEL_LISTS = st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=6,
                        unique=True).map(sorted)


@given(distribution_pairs(), _LEVEL_LISTS)
def test_kernel_matches_scalar_oracle(pair, alphas):
    p, q = pair
    for alpha in alphas:
        res = dissim(p, q, alpha)
        _, closed, _, l1 = _oracle_dissim(p, q, alpha)
        assert abs(res.l1 - l1) <= 1e-12
        assert abs(res.value - closed) <= 1e-12
    assert _flags(dissimilarity_properties(p, alphas)) == _flags(_oracle_properties(p, alphas))


@given(distribution_pairs(), st.integers(min_value=60, max_value=MAX_ALPHA))
def test_value_keeps_relative_precision_at_high_levels(pair, alpha):
    # value = l1 / (2**(alpha + 2) ln 2) to first order once l1 / 2**(alpha + 2) < 2**-60
    p, q = pair
    try:
        res = dissim(p, q, alpha)
    except DomainError:
        return
    if res.l1 == 0.0:
        assert res.value == 0.0
    elif res.value >= np.finfo(float).tiny:
        assert abs(math.ldexp(res.value, alpha + 2) * math.log(2.0) / res.l1 - 1.0) <= 1e-15
    else:  # a subnormal result carries fewer bits: within two of its steps
        assert abs(res.value - math.ldexp(res.l1, -(alpha + 2)) / math.log(2.0)) <= 2.0**-1073


def test_negation_value_stays_positive_at_every_level():
    p = make_dist([0.5, 0.3, 0.2])
    values = [negation_dissimilarity(p, a).value for a in (40, 52, 60, 1021)]
    assert all(v > 0.0 for v in values)
    assert values[0] > values[1] > values[2] > values[3]
    assert abs(values[1] - 4.0e-17) <= 1e-19 and abs(values[3] - 8.0e-309) <= 1e-310
    profile = [r.value for r in negation_profile(p, range(MAX_ALPHA + 1), 1).profile]
    assert all(b < a for a, b in zip(profile, profile[1:])) and profile[-1] > 0.0
    assert dissimilarity_properties(p, [0, 40, 52, 60, 1021]).holds


def test_underflowing_value_is_rejected_with_the_largest_level():
    p = ProbDist(np.array([0.5, 0.5]))
    q = ProbDist(np.array([0.5 + 2.0**-53, 0.5 - 2.0**-53]))  # l1 = 2**-52
    with pytest.raises(DomainError, match="largest usable level is 1020"):
        dissim(p, q, 1021)
    assert dissim(p, q, 1020).value > 0.0
    assert dissim(p, q, 1019).value > dissim(p, q, 1020).value
    with pytest.raises(DomainError, match="largest usable level is 1020"):
        dissim(q, p, 1021)
    # an l1 of one subnormal step underflows at every level
    with pytest.raises(DomainError, match="no level is usable"):
        dissim(ProbDist(np.array([1.0, 0.0])), ProbDist(np.array([1.0, 5e-324])), 0)


def test_underflowing_negation_exits_2(capsys):
    dist = "0.25000000000000006,0.24999999999999997,0.25,0.25"
    code = main(["dissim", "--dist", dist, "--alpha", "0,1021"])
    out, err = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "largest usable level is 1019" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert main(["dissim", "--dist", dist, "--alpha", "0,1019"]) == 0
    assert main(["dissim", "--dist", dist, "--alpha", "1020"]) == EXIT_VALIDATION


def test_zero_law_is_exact():
    p = make_dist([0.5, 0.3, 0.2])
    assert dissim(p, p, 1021).value == 0.0
    props = dissimilarity_properties(uniform(4), [0, 1021])
    assert props.holds and props.equality


@given(distributions(), _LEVEL_LISTS, st.integers(min_value=1, max_value=6))
def test_negation_profile_equals_the_separate_calls(p, alphas, depth):
    got = negation_profile(p, alphas, depth)
    q = negate(p)
    assert got.negation.tolist() == q.tolist()
    assert got.profile == tuple(dissim(p, q, a) for a in alphas)
    assert got.properties == dissimilarity_properties(p, alphas)
    assert got.iterated == iterated_negation_dissimilarity(p, alphas[0], depth)
    for k, res in enumerate(got.iterated.results, start=1):
        assert res.l1 == l1_distance(p, negate_iterated(p, k))


def test_negation_profile_validation(p4):
    with pytest.raises(DomainError):
        negation_profile(p4, [], 1)
    with pytest.raises(DomainError):
        negation_profile(p4, [1, 0], 1)
    with pytest.raises(DomainError):
        negation_profile(p4, [0, 1022], 1)
    with pytest.raises(DomainError):
        negation_profile(p4, [0], 0)
    with pytest.raises(DomainError, match="depth must be an integer in"):  # before any array is built
        negation_profile(p4, [0], 10**12)
    with pytest.raises(TypeError):  # the profile is no longer passed in
        dissimilarity_properties(p4, [0], q=negate(p4))


# --- the group kernel against the per-input profile it replaced ------------

def _oracle_profile_properties(alphas, forward, l1):
    """The properties certificate as the per-input code built it, claim by claim."""
    in_range = (-HOLDS_TOLERANCE <= forward) & (forward <= 1.0 + HOLDS_TOLERANCE)
    asserted = []
    for a, v, ok in zip(alphas, forward.tolist(), in_range.tolist()):
        asserted += [
            compare(f"bounded_in_unit_interval[alpha={a}]", v, 1.0, holds=ok, equality=False),
            compare(f"zero_iff_identical[alpha={a}]", v, l1, holds=(v == 0.0) == (l1 == 0.0),
                    equality=False),
        ]
    earlier, later = forward[:-1], forward[1:]
    direction = [
        compare("value_non_increasing_in_alpha", forward[-1], forward[0],
                holds=np.all(later <= earlier + HOLDS_TOLERANCE), equality=False),
        compare("value_non_decreasing_in_alpha", forward[0], forward[-1],
                holds=np.all(later >= earlier - HOLDS_TOLERANCE), equality=False),
    ] if len(alphas) > 1 else []
    holds = all(c.holds for c in asserted)
    return compare(
        "dissimilarity_properties", forward[0], forward[-1], holds=holds,
        equality=holds and l1 <= HOLDS_TOLERANCE, detail=(*asserted, *direction),
    )


def _oracle_profile(p, alphas, depth):
    """negation_profile with each reported value from its own public dissimilarity call."""
    q = negate(p)
    profile = tuple(dissim(p, q, a) for a in alphas)
    # the unclipped iterate rows, as the kernel compares them
    iterated = tuple(dissim(p, _unchecked(x), alphas[0])
                     for x in _iterates(p.probs, range(1, depth + 1)))
    forward, values = (np.array([r.value for r in rs]) for rs in (profile, iterated))
    return NegationProfile(
        negation=q,
        profile=profile,
        properties=_oracle_profile_properties(alphas, forward, profile[0].l1),
        iterated=IteratedDissimReport(
            alphas[0], iterated,
            non_decreasing=bool(np.all(values[1:] >= values[:-1] - HOLDS_TOLERANCE)),
        ),
    )


def _assert_profiles_match(group, alphas, depth):
    profiles = negation_profiles(group, alphas, depth)
    # column j is the j-th value dissim reports: each level, then each iterate
    assert profiles.value.shape == (len(group), len(alphas) + depth)
    assert profiles.l1.shape == profiles.value.shape
    for r, p in enumerate(group):
        want = _oracle_profile(p, alphas, depth).as_dict()
        assert_identical(profiles.row(r).as_dict(), want)
        assert_identical(negation_profile(p, alphas, depth).as_dict(), want)


@given(mixed_batches(), _LEVEL_LISTS, st.integers(min_value=1, max_value=4))
def test_negation_profiles_match_the_per_input_profile(batch, alphas, depth):
    for group in by_length(batch):
        _assert_profiles_match(group, alphas, depth)


def test_negation_profiles_chunk_seams(monkeypatch):
    # 300 inputs of n = 16 at 8 levels and depth 8: 16 row pairs of 16
    # entries each, so 128 inputs per chunk
    shapes = []

    def recording(A, B, levels):
        shapes.append((A.shape, np.shape(levels)))
        return _evaluate(A, B, levels)

    monkeypatch.setattr(neglab.dissimilarity, "_evaluate", recording)
    rng = np.random.default_rng(5)
    group = [ProbDist(rng.dirichlet(np.ones(16))) for _ in range(300)]
    group[150] = uniform(16)
    profiles = negation_profiles(group, list(range(8)), 8)
    assert [a[0] for a, _ in shapes] == [2048, 2048, 704]
    assert all(lv == (a[0],) and a[0] * a[1] <= _BLOCK_ELEMENTS for a, lv in shapes)
    monkeypatch.undo()
    for r in (0, 127, 128, 150, 255, 256, 299):
        assert_identical(profiles.row(r).as_dict(),
                         _oracle_profile(group[r], list(range(8)), 8).as_dict())


@pytest.mark.parametrize("n, m, alphas, depth, calls", [
    # 16 row pairs of 4,096 entries: 8 per call, so each input spans two calls
    (4096, 2, [0, 1, 2, 3], 12, [8, 8, 8, 8]),
    # 13 row pairs of 16 entries: the seam after 2,048 falls inside input 157
    (16, 200, [0, 1, 2, 3, 4], 8, [2048, 552]),
    # wider than a block: one row pair per call
    (40_000, 1, [0], 2, [1, 1, 1]),
])
def test_negation_profiles_split_inputs_by_row_pair(monkeypatch, n, m, alphas, depth, calls):
    shapes = []

    def recording(A, B, levels):
        shapes.append(A.shape)
        return _evaluate(A, B, levels)

    monkeypatch.setattr(neglab.dissimilarity, "_evaluate", recording)
    rng = np.random.default_rng(n)
    group = [ProbDist(rng.dirichlet(np.ones(n))) for _ in range(m)]
    profiles = negation_profiles(group, alphas, depth)
    assert [a[0] for a in shapes] == calls
    assert all(a[0] * a[1] <= max(_BLOCK_ELEMENTS, n) for a in shapes)
    monkeypatch.undo()
    for r in sorted({0, 2048 // (len(alphas) + depth), m - 1} & set(range(m))):
        assert_identical(profiles.row(r).as_dict(), _oracle_profile(group[r], alphas, depth).as_dict())


def test_negation_profiles_one_level_has_no_direction_claims(p4, p3):
    profiles = negation_profiles([p4, p4], [3], 1)
    assert [c.name for c in profiles.properties.detail] == [
        "bounded_in_unit_interval[alpha=3]", "zero_iff_identical[alpha=3]",
    ]
    with pytest.raises(DimensionError):
        negation_profiles([p4, p3], [0], 1)
    with pytest.raises(DimensionError):
        negation_profiles([], [0], 1)
    with pytest.raises(DomainError):
        negation_profiles([p4], [0], 0)


def test_negation_profiles_name_the_first_underflowing_input():
    # l1 = 2**-52 for the near-uniform row; it underflows at 1021.  With
    # 8 levels and depth 8 a chunk of n = 2 holds 1,024 inputs, so the first
    # failing input sits in the second chunk
    near = ProbDist(np.array([0.5, 0.5000000000000001]))
    group = [make_dist([0.7, 0.3])] * 1100 + [near, make_dist([0.6, 0.4]), near]
    alphas = [0, 1, 2, 3, 4, 5, 6, 1021]
    with pytest.raises(DomainError, match="largest usable level is 1020") as caught:
        negation_profiles(group, alphas, 8)
    assert caught.value.index == 1100
    with pytest.raises(DomainError) as caught:
        negation_profiles([near], alphas, 8)
    assert caught.value.index == 0


def test_dissim_names_the_first_underflowing_input_across_groups(capsys, tmp_path):
    # input 1 (n = 4) and input 2 (n = 2) both underflow at 1021, and the
    # n = 2 group comes first in the batch: input 1 is the one named
    rows = [[0.5, 0.5], [0.25, 0.25, 0.25, 0.25000000000000006], [0.5, 0.5000000000000001]]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(rows))
    code = main(["dissim", "--file", str(path), "--alpha", "1021"])
    out, err = capsys.readouterr()
    assert code == EXIT_VALIDATION and out == ""
    assert err == ("neglab: invalid input: l1 = 5.551115123125783e-17 is too small for a double"
                   " to carry the value at alpha=1021: the largest usable level is 1018\n")
    path.write_text(json.dumps([rows[0], rows[2], rows[1]]))
    assert main(["dissim", "--file", str(path), "--alpha", "1021"]) == EXIT_VALIDATION
    assert "largest usable level is 1020" in capsys.readouterr().err


def test_depth_bound_is_where_every_iterate_becomes_uniform():
    # |r| <= 1/2 for n >= 3, and r**k rounds to 0 from k = MAX_DEPTH on, not before
    assert (-0.5) ** (MAX_DEPTH - 1) != 0.0 and (-0.5) ** MAX_DEPTH == 0.0
    p = make_dist([0.5, 0.3, 0.2])
    last = negation_profile(p, [0], MAX_DEPTH).iterated.results[-1]
    assert last == dissim(p, uniform(3), 0)
    with pytest.raises(DomainError):
        negation_profile(p, [0], MAX_DEPTH + 1)


def test_every_library_module_is_a_package_attribute():
    # no public name of the package shadows one of its modules
    for name in ("certificates", "distribution", "dissimilarity", "entropy", "jensen", "negation"):
        assert inspect.ismodule(getattr(neglab, name)), name
    assert neglab.dissim is neglab.dissimilarity.dissim
    assert "dissimilarity" not in neglab.__all__
    assert not hasattr(neglab.dissimilarity, "dissimilarity")
