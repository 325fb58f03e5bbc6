"""FunctionSpec registry and the convexity certificate suite."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neglab
from neglab import (
    BUILTIN_FUNCTIONS,
    ChainUndefinedError,
    CurvatureError,
    DomainError,
    DimensionError,
    FunctionSpec,
    NEG_LOG,
    ProbDist,
    SQUARE,
    X_LOG_X,
    certificate_suite,
    certificate_suites,
    concave_mixture_bound,
    double_negation_mixture_bound,
    get_function,
    is_uniform,
    jensen_check,
    make_dist,
    mixture_bound,
    negate,
    negate_twice,
    partial_mean_chain,
    partial_mean_chains,
    pointwise_bound,
    pointwise_bounds,
    self_information_bound,
    shannon_entropy,
    uniform,
)
from neglab.certificates import HOLDS_TOLERANCE, _input_dicts, _input_failures, compare
from neglab.jensen import _CHAIN_BLOCK_ELEMENTS

from conftest import assert_identical, distributions, oracle_as_dict, oracle_failures

# frozen high-precision sides for the four-outcome worked example
MIXTURE_RHS_P4 = 2.0279613406792624
DOUBLE_NEG_RHS_P4 = 2.0029828750477481
POINTWISE_RHS_P4_I0 = 2.0236843762620233
ENTROPY_MIX_P4 = 1.9728810033922890
CHAIN_LHS_P4_I0 = 2.1699250014423124
CHAIN_END_P4_I0 = 2.2516291673878228


# --- registry -------------------------------------------------------------

def test_builtins_present():
    assert set(BUILTIN_FUNCTIONS) == {"neg_log", "x_log_x", "square"}
    assert NEG_LOG.curvature == "convex"
    assert X_LOG_X.curvature == "concave"
    assert SQUARE.curvature == "convex"


def test_builtin_values():
    assert NEG_LOG(0.25) == 2.0
    assert NEG_LOG(0.0) == math.inf
    assert X_LOG_X(0.0) == 0.0
    assert X_LOG_X(0.5) == 0.5
    assert SQUARE(0.3) == 0.09


def test_get_function():
    assert get_function("square") is SQUARE
    with pytest.raises(LookupError, match="neg_log"):
        get_function("cube_root")


def test_spot_check_rejects_mislabeled_curvature():
    with pytest.raises(CurvatureError):
        FunctionSpec("mislabeled", "convex", lambda x: -(x * x))
    with pytest.raises(CurvatureError):
        FunctionSpec("mislabeled", "concave", lambda x: math.exp(x))


def test_building_the_builtins_leaves_numpy_random_unloaded():
    # the spot check runs on a fixed grid; numpy.random would add its import
    # time to every start of the CLI
    src = os.path.dirname(os.path.dirname(os.path.abspath(neglab.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, neglab.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_spot_check_accepts_valid_custom():
    cube = FunctionSpec("cube", "convex", lambda x: x**3)
    assert cube(0.5) == 0.125
    root = FunctionSpec("root", "concave", lambda x: math.sqrt(x))
    assert root(0.25) == 0.5


def test_values_matches_scalar_calls():
    x = np.array([[0.0, 0.25], [0.5, 1.0]])
    assert NEG_LOG.values(x).tolist() == [[math.inf, 2.0], [1.0, 0.0]]
    assert X_LOG_X.values(x).tolist() == [[0.0, 0.5], [0.5, 0.0]]
    assert SQUARE.values(x).tolist() == [[0.0, 0.0625], [0.25, 1.0]]
    root = FunctionSpec("root", "concave", lambda x: math.sqrt(x))
    assert root.values(x).tolist() == [[0.0, 0.5], [math.sqrt(0.5), 1.0]]


def test_functionspec_rejects_unknown_tag():
    with pytest.raises(ValueError):
        FunctionSpec("bad", "wavy", lambda x: x)


# --- generic jensen -------------------------------------------------------

def test_jensen_square_example():
    cert = jensen_check(SQUARE, [0.2, 0.4], [0.5, 0.5])
    assert abs(cert.lhs - 0.09) <= 1e-15
    assert abs(cert.rhs - 0.10) <= 1e-15
    assert cert.holds and not cert.equality


def test_jensen_concave_flips_sides():
    cert = jensen_check(X_LOG_X, [0.25, 0.75], [0.5, 0.5])
    assert cert.rhs == X_LOG_X(0.5)
    assert cert.holds


def test_jensen_equality_when_points_coincide():
    cert = jensen_check(NEG_LOG, [0.3, 0.3, 0.3], [0.2, 0.3, 0.5])
    assert cert.equality and cert.holds
    assert abs(cert.slack) <= 1e-12


def test_jensen_ignores_zero_weight_divergence():
    cert = jensen_check(NEG_LOG, [0.0, 0.5, 0.25], [0.0, 0.5, 0.5])
    assert not cert.infinite
    assert cert.holds


def test_jensen_infinite_with_weighted_zero():
    cert = jensen_check(NEG_LOG, [0.0, 0.5], [0.5, 0.5])
    assert cert.infinite and cert.holds and not cert.equality
    assert cert.rhs == math.inf


def test_jensen_scalar_only_specs():
    # a user fn that takes only scalars goes through FunctionSpec.values entry by entry
    cube = FunctionSpec("cube", "convex", lambda x: math.pow(x, 3))
    x, w = [0.2, 0.4, 0.9], [0.5, 0.5, 0.0]
    cert = jensen_check(cube, x, w)
    assert cert.lhs == math.pow(float(np.dot(w, x)), 3)
    assert cert.rhs == math.fsum([0.5 * math.pow(0.2, 3), 0.5 * math.pow(0.4, 3)])
    assert cert.holds and not cert.equality

    root = FunctionSpec("root", "concave", lambda x: math.sqrt(x))
    cert = jensen_check(root, [0.0, 0.64], [0.5, 0.5])
    assert cert.lhs == 0.4 and cert.rhs == math.sqrt(0.32)
    assert cert.holds


def test_jensen_validation():
    with pytest.raises(DimensionError):
        jensen_check(SQUARE, [0.5], [0.5, 0.5])
    with pytest.raises(DomainError):
        jensen_check(SQUARE, [0.5, 0.5], [0.9, 0.2])
    with pytest.raises(DomainError):
        jensen_check(SQUARE, [0.5, 0.5], [-0.5, 1.5])
    with pytest.raises(DomainError):
        jensen_check(SQUARE, [0.5, 1.5], [0.5, 0.5])
    # NaN fails every comparison, so "raise if bad" checks let it through
    for points, weights in [([0.2, 0.6], [math.nan, 1.0]), ([math.nan, 0.6], [0.5, 0.5]),
                            ([0.2, 0.6], [math.inf, 1.0])]:
        with pytest.raises(DomainError):
            jensen_check(SQUARE, points, weights)


@given(distributions())
def test_jensen_on_random_weights(p):
    # use the distribution itself as both points and weights
    cert = jensen_check(SQUARE, p.probs, p.probs)
    assert cert.holds


# --- mixture bounds -------------------------------------------------------

def test_mixture_bound_uniform_equality():
    cert = mixture_bound(NEG_LOG, uniform(4))
    assert cert.lhs == 2.0 and cert.rhs == 2.0
    assert cert.equality and cert.holds


def test_mixture_bound_golden(p4):
    cert = mixture_bound(NEG_LOG, p4)
    assert cert.lhs == 2.0
    assert abs(cert.rhs - MIXTURE_RHS_P4) <= 1e-12
    assert cert.holds and not cert.equality


def test_mixture_bound_square_two_outcomes():
    cert = mixture_bound(SQUARE, make_dist([0.7, 0.3]))
    assert abs(cert.lhs - 0.25) <= 1e-15
    assert abs(cert.rhs - 0.29) <= 1e-15
    assert cert.holds


def test_mixture_bound_rejects_concave(p4):
    with pytest.raises(CurvatureError):
        mixture_bound(X_LOG_X, p4)


def test_double_negation_mixture_bound_golden(p4):
    cert = double_negation_mixture_bound(NEG_LOG, p4)
    assert cert.lhs == 2.0
    assert abs(cert.rhs - DOUBLE_NEG_RHS_P4) <= 1e-12
    assert cert.holds
    # one negation deeper sits closer to the uniform floor
    assert cert.rhs < MIXTURE_RHS_P4


def test_double_negation_mixture_bound_uniform():
    cert = double_negation_mixture_bound(NEG_LOG, uniform(3))
    assert cert.equality


def test_pointwise_bound_golden(p4):
    cert = pointwise_bound(NEG_LOG, p4, 0)
    assert cert.lhs == 2.0
    assert abs(cert.rhs - POINTWISE_RHS_P4_I0) <= 1e-12
    assert cert.holds


def test_pointwise_bounds_average_to_mixture(p4):
    rhs_mean = sum(pointwise_bound(NEG_LOG, p4, i).rhs for i in range(p4.n)) / p4.n
    assert abs(rhs_mean - MIXTURE_RHS_P4) <= 1e-12


def test_pointwise_bound_uniform_equality():
    for i in range(5):
        cert = pointwise_bound(NEG_LOG, uniform(5), i)
        assert cert.equality
        assert abs(cert.lhs - math.log2(5)) <= 1e-15


def test_pointwise_bound_zero_entry_diverges(q5):
    cert = pointwise_bound(NEG_LOG, q5, 3)
    assert cert.infinite and cert.holds


def test_pointwise_bound_index_range(p4):
    with pytest.raises(IndexError):
        pointwise_bound(NEG_LOG, p4, 4)
    with pytest.raises(IndexError):
        pointwise_bound(NEG_LOG, p4, -1)


def test_concave_mixture_bound_golden(p4):
    cert = concave_mixture_bound(X_LOG_X, p4)
    assert cert.holds
    assert cert.rhs == X_LOG_X(0.25)
    (sub,) = cert.detail
    assert sub.name == "entropy_mixture_bound"
    assert abs(sub.lhs - ENTROPY_MIX_P4) <= 1e-12
    assert sub.rhs == 2.0
    assert sub.holds


def test_concave_mixture_entropy_identity(p4):
    # the attached sub-certificate is literally H(p)/n + (n-1)H(neg)/n
    (sub,) = concave_mixture_bound(X_LOG_X, p4).detail
    n = p4.n
    expected = (shannon_entropy(p4) + (n - 1) * shannon_entropy(negate(p4))) / n
    assert abs(sub.lhs - expected) <= 1e-14


def test_concave_mixture_bound_uniform_equality():
    cert = concave_mixture_bound(X_LOG_X, uniform(5))
    assert cert.equality and cert.detail[0].equality


def test_concave_mixture_bound_two_outcomes():
    cert = concave_mixture_bound(X_LOG_X, make_dist([0.9, 0.1]))
    assert cert.holds
    (sub,) = cert.detail
    assert sub.rhs == 1.0


def test_concave_mixture_bound_rejects_convex(p4):
    with pytest.raises(CurvatureError):
        concave_mixture_bound(NEG_LOG, p4)


def test_self_information_bound_equality_at_three_bits():
    cert = self_information_bound(uniform(8))
    assert cert.lhs == 3.0 and cert.rhs == 3.0
    assert cert.equality


def test_self_information_bound_golden(p4):
    cert = self_information_bound(p4)
    assert cert.name == "self_information_bound"
    assert abs(cert.rhs - MIXTURE_RHS_P4) <= 1e-12


def test_self_information_bound_with_zeros(q5):
    cert = self_information_bound(q5)
    assert cert.infinite and cert.holds


# --- partial-mean chain ---------------------------------------------------

def test_chain_shapes(p4):
    chain, cert = partial_mean_chain(NEG_LOG, p4, 0)
    assert chain.excluded_index == 0
    assert len(chain.zetas) == p4.n - 1
    assert len(chain.bounds) == p4.n - 2
    assert cert.lhs == NEG_LOG(chain.zetas[0])
    assert cert.rhs == chain.bounds[-1]


def test_chain_first_mean_is_negation_entry(p4):
    chain, _ = partial_mean_chain(NEG_LOG, p4, 0)
    assert abs(chain.zetas[0] - negate(p4)[0]) <= 1e-15


def test_chain_golden(p4):
    chain, cert = partial_mean_chain(NEG_LOG, p4, 0)
    assert abs(cert.lhs - CHAIN_LHS_P4_I0) <= 1e-12
    assert abs(cert.rhs - CHAIN_END_P4_I0) <= 1e-12
    assert cert.holds and not cert.equality
    diffs = np.diff(np.asarray(chain.bounds))
    assert np.all(diffs >= -1e-12)


def test_chain_uniform_collapses():
    chain, cert = partial_mean_chain(NEG_LOG, uniform(4), 1)
    assert cert.equality
    assert all(abs(b - 2.0) <= 1e-15 for b in chain.bounds)
    assert all(abs(z - 0.25) <= 1e-15 for z in chain.zetas)


def test_chain_symmetric_peak_equality(p5_peak):
    # symmetric but not uniform: excluding the central peak leaves four
    # equal entries, so the whole chain sits at exactly 3 bits
    _, cert = partial_mean_chain(NEG_LOG, p5_peak, 2)
    assert cert.lhs == 3.0
    assert abs(cert.rhs - cert.lhs) <= 1e-12
    assert cert.equality


def test_chain_perturbed_peak_breaks_equality(p5_peak):
    raw = list(p5_peak.probs)
    raw[0] += 0.01
    perturbed = make_dist([v / sum(raw) for v in raw])
    _, cert = partial_mean_chain(NEG_LOG, perturbed, 2)
    assert abs(cert.rhs - cert.lhs) > 1e-4
    assert not cert.equality


def test_chain_needs_three_outcomes():
    with pytest.raises(ChainUndefinedError):
        partial_mean_chain(NEG_LOG, make_dist([0.5, 0.5]), 0)


def test_chain_index_and_curvature(p4):
    with pytest.raises(IndexError):
        partial_mean_chain(NEG_LOG, p4, 7)
    with pytest.raises(CurvatureError):
        partial_mean_chain(X_LOG_X, p4, 0)


def test_chain_with_zero_entries(q5):
    chain, cert = partial_mean_chain(NEG_LOG, q5, 0)
    assert cert.infinite
    assert cert.holds


@given(distributions(min_n=3, max_n=10), st.integers(min_value=0, max_value=9))
def test_chain_holds_everywhere(p, i):
    i = i % p.n
    chain, cert = partial_mean_chain(SQUARE, p, i)
    assert cert.holds
    assert cert.lhs <= chain.bounds[0] + 1e-12


@given(distributions(max_n=10))
def test_certificate_suite_on_random_inputs(p):
    assert mixture_bound(NEG_LOG, p).holds
    assert mixture_bound(SQUARE, p).holds
    assert double_negation_mixture_bound(NEG_LOG, p).holds
    assert concave_mixture_bound(X_LOG_X, p).holds
    assert self_information_bound(p).holds
    for i in range(p.n):
        assert pointwise_bound(NEG_LOG, p, i).holds


@given(distributions(max_n=10))
def test_equality_only_at_uniform(p):
    cert = mixture_bound(SQUARE, p)
    dev = float(np.max(np.abs(p.probs - 1.0 / p.n)))
    if cert.equality:
        assert dev <= 1e-3  # the 1e-9 slack tolerance maps back to a small deviation
    if is_uniform(p, tolerance=1e-12):
        assert cert.equality


# --- chain kernel against a scalar loop ------------------------------------

def _oracle_chain(f, p, i):
    """Reference: the chain at one index as a scalar loop over the kept entries."""
    n = p.n
    kept = np.delete(p.probs, i)
    prefix = np.cumsum(kept)
    m_full = n - 1
    zetas = tuple(float(prefix[m - 1]) / m for m in range(m_full, 0, -1))
    f_kept = [f(v) for v in kept]
    bounds = []
    peeled = 0.0
    for t in range(1, n - 1):
        peeled += f_kept[m_full - t]
        m = m_full - t
        bounds.append((peeled + m * f(float(prefix[m - 1]) / m)) / m_full)
    bounds = tuple(bounds)
    lhs = f(zetas[0])
    holds = all(lhs <= b + HOLDS_TOLERANCE for b in bounds) and all(
        bounds[t + 1] >= bounds[t] - HOLDS_TOLERANCE for t in range(len(bounds) - 1)
    )
    cert = compare(f"partial_mean_chain[i={i}]", lhs, bounds[-1], holds=holds)
    return zetas, bounds, cert


def _assert_matches_oracle(f, p, certs):
    assert [c.name for c in certs] == [f"partial_mean_chain[i={i}]" for i in range(p.n)]
    for i, cert in enumerate(certs):
        zetas, bounds, expected = _oracle_chain(f, p, i)
        chain, single = partial_mean_chain(f, p, i)
        for got in (cert, single):
            assert (got.holds, got.equality, got.infinite) == (
                expected.holds, expected.equality, expected.infinite
            )
            np.testing.assert_allclose([got.lhs, got.rhs], [expected.lhs, expected.rhs],
                                       rtol=1e-12, atol=0)
        np.testing.assert_allclose(chain.zetas, zetas, rtol=1e-12, atol=0)
        np.testing.assert_allclose(chain.bounds, bounds, rtol=1e-12, atol=0)


@st.composite
def chain_inputs(draw, min_n=3, max_n=40):
    """n in [min_n, max_n]; about 30% of the draws carry exact zeros."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    raw = np.asarray(draw(st.lists(st.floats(min_value=1e-6, max_value=1.0),
                                   min_size=n, max_size=n)))
    if draw(st.integers(min_value=0, max_value=9)) < 3:
        zeros = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                              min_size=1, max_size=n - 1))
        raw[zeros] = 0.0
    return make_dist(raw / raw.sum())


@given(chain_inputs(), st.sampled_from([NEG_LOG, SQUARE]))
def test_chain_kernel_matches_scalar_loop(p, f):
    _assert_matches_oracle(f, p, partial_mean_chains(f, p))


def test_chain_kernel_across_block_seam():
    # n rows of n - 1 kept entries: a full block of n - 1 rows plus one more
    n = next(n for n in range(3, 4096) if _CHAIN_BLOCK_ELEMENTS // (n - 1) == n - 1)
    raw = np.random.default_rng(2024).dirichlet(np.ones(n))
    raw[::17] = 0.0
    p = make_dist(raw / raw.sum())
    for f in (NEG_LOG, SQUARE):
        _assert_matches_oracle(f, p, partial_mean_chains(f, p))


def test_partial_mean_chains_needs_convex_and_three_outcomes(p4):
    with pytest.raises(ChainUndefinedError):
        partial_mean_chains(NEG_LOG, make_dist([0.5, 0.5]))
    with pytest.raises(CurvatureError):
        partial_mean_chains(X_LOG_X, p4)


def test_scalar_only_specs_match_the_loop():
    # math-only functions reject arrays; values() then calls them per entry,
    # with the same floats and sums as the scalar code
    exp = FunctionSpec("exp", "convex", lambda x: math.exp(x))
    cube = FunctionSpec("cube", "convex", lambda x: math.pow(x, 3))
    root = FunctionSpec("root", "concave", lambda x: math.sqrt(x))
    p = make_dist([0.5, 0.0, 0.2, 0.3, 0.0])
    n = p.n

    def mixture(f):
        return (math.fsum(f(v) for v in p) + (n - 1) * math.fsum(f(v) for v in negate(p))) / n**2

    for f in (exp, cube):
        certs = partial_mean_chains(f, p)
        for i in range(n):
            zetas, bounds, expected = _oracle_chain(f, p, i)
            chain, cert = partial_mean_chain(f, p, i)
            assert (chain.zetas, chain.bounds) == (zetas, bounds)
            assert cert == expected and certs[i] == expected
        assert mixture_bound(f, p).rhs == mixture(f)
    assert concave_mixture_bound(root, p).lhs == mixture(root)


# --- one-pass suite against the certificates composed one at a time --------

def _oracle_suite(f, p):
    """Reference: the ``verify`` suite built certificate by certificate from
    scalar calls of f, in the order and with the names the CLI emits."""
    convex = f if f.curvature == "convex" else NEG_LOG
    concave = f if f.curvature == "concave" else X_LOG_X
    n = p.n

    def mixture(g, d):
        fp = math.fsum(g(v) for v in d)
        fq = math.fsum(g(v) for v in negate(d))
        return (fp + (n - 1) * fq) / n**2

    certs = [compare("mixture_bound", convex(1.0 / n), mixture(convex, p))]
    for i in range(n):
        p_i = float(p.probs[i])
        neg_i = (1.0 - p_i) / (n - 1)
        rhs = (convex(p_i) + (n - 1) * convex(neg_i)) / n
        certs.append(compare(f"pointwise_bound[i={i}]", convex(1.0 / n), rhs))
    certs.append(compare("self_information_bound", NEG_LOG(1.0 / n), mixture(NEG_LOG, p)))
    certs.append(
        compare("double_negation_mixture_bound", convex(1.0 / n), mixture(convex, negate(p)))
    )
    detail = ()
    if concave.name == "x_log_x":
        h_mix = (shannon_entropy(p) + (n - 1) * shannon_entropy(negate(p))) / n
        detail = (compare("entropy_mixture_bound", h_mix, math.log2(n)),)
    certs.append(
        compare("concave_mixture_bound", mixture(concave, p), concave(1.0 / n), detail=detail)
    )
    if n >= 3:
        certs.extend(_oracle_chain(convex, p, i)[2] for i in range(n))
    h = [shannon_entropy(p), shannon_entropy(negate(p)), shannon_entropy(negate_twice(p))]
    cross = -math.fsum(v * math.log2(1.0 / n) for v in p if v > 0)
    same = max(abs(v - 1.0 / n) for v in p) <= 1e-12
    certs.append(compare("cross_entropy", h[0], cross, equality=same))
    links = (
        compare("entropy_le_negation_entropy", h[0], h[1]),
        compare("negation_entropy_le_double_negation_entropy", h[1], h[2]),
        compare("double_negation_entropy_le_log_n", h[2], math.log2(n)),
    )
    certs.append(compare(
        "entropy_chain", h[0], math.log2(n),
        holds=all(c.holds for c in links),
        equality=all(c.equality for c in links),
        detail=links,
    ))
    return certs


def _assert_same_certificates(got, expected):
    assert [c.name for c in got] == [c.name for c in expected]
    for g, e in zip(got, expected):
        assert (g.holds, g.equality, g.infinite) == (e.holds, e.equality, e.infinite), g.name
        np.testing.assert_allclose([g.lhs, g.rhs], [e.lhs, e.rhs], rtol=1e-12, atol=0,
                                   err_msg=g.name)
        _assert_same_certificates(g.detail, e.detail)


@settings(max_examples=60)
@given(chain_inputs(min_n=2, max_n=64), st.sampled_from([NEG_LOG, X_LOG_X, SQUARE]))
def test_certificate_suite_matches_one_at_a_time(p, f):
    _assert_same_certificates(certificate_suite(f, p), _oracle_suite(f, p))
    convex = f if f.curvature == "convex" else NEG_LOG
    bounds = pointwise_bounds(convex, p)
    assert bounds == [pointwise_bound(convex, p, i) for i in range(p.n)]


def test_certificate_suite_skips_chains_at_two_outcomes():
    p = make_dist([0.9, 0.1])
    names = [c.name for c in certificate_suite(NEG_LOG, p)]
    assert not any(name.startswith("partial_mean_chain") for name in names)
    # mixture, n pointwise, self-information, double negation, concave, two entropy
    assert len(names) == 1 + p.n + 3 + 2


def test_certificate_suite_with_scalar_only_specs():
    # scalar-only user functions go through the same one-pass suite
    cube = FunctionSpec("cube", "convex", lambda x: math.pow(x, 3))
    root = FunctionSpec("root", "concave", lambda x: math.sqrt(x))
    p = make_dist([0.5, 0.0, 0.2, 0.3, 0.0])
    for f in (cube, root):
        _assert_same_certificates(certificate_suite(f, p), _oracle_suite(f, p))


# --- the batch kernel against one row at a time ----------------------------

CUBE = FunctionSpec("cube", "convex", lambda x: math.pow(x, 3))  # scalar-only


def _assert_batch_matches_rows(f, rows):
    dists = [ProbDist(row) for row in rows]
    suite = certificate_suites(f, dists)
    dicts, failures = _input_dicts(suite), _input_failures(suite)
    assert len(dicts) == len(failures) == len(dists)
    for r, p in enumerate(dists):
        certs = certificate_suite(f, p)
        assert_identical(dicts[r], [oracle_as_dict(c) for c in certs])
        assert failures[r] == [name for c in certs for name in oracle_failures(c)]
        assert_identical([c.row(r).as_dict() for c in suite], [oracle_as_dict(c) for c in certs])


@st.composite
def mixed_batches(draw):
    """Rows of a few lengths n in [2, 40], a few rows each, about 30% with zeros."""
    sizes = draw(st.lists(st.integers(min_value=2, max_value=40), min_size=1, max_size=3))
    return [draw(chain_inputs(min_n=n, max_n=n)).probs
            for n in sizes for _ in range(draw(st.integers(min_value=1, max_value=4)))]


@settings(max_examples=40)
@given(mixed_batches(), st.sampled_from([NEG_LOG, X_LOG_X, SQUARE, CUBE]))
def test_certificate_suites_match_single_rows(batch, f):
    by_n = {}
    for row in batch:
        by_n.setdefault(row.size, []).append(row)
    for rows in by_n.values():
        _assert_batch_matches_rows(f, np.stack(rows))


def _dirichlet_rows(m, n, seed):
    rows = np.random.default_rng(seed).dirichlet(np.ones(n), size=m)
    rows[::3, ::5] = 0.0  # exact zeros in every third row
    return rows / rows.sum(axis=1, keepdims=True)


def test_certificate_suites_chain_block_seam_across_rows():
    n = 8
    step = _CHAIN_BLOCK_ELEMENTS // (n - 1)  # (row, excluded index) pairs per block
    assert step % n  # the first seam falls inside a row
    m = step // n + 2
    _assert_batch_matches_rows(NEG_LOG, _dirichlet_rows(m, n, 11))


def test_certificate_suites_chain_block_seam_inside_a_row():
    n = 512
    assert _CHAIN_BLOCK_ELEMENTS // (n - 1) < n  # one row spans several blocks
    rows = _dirichlet_rows(2, n, 12)
    _assert_batch_matches_rows(NEG_LOG, rows)
    _assert_same_certificates(certificate_suite(NEG_LOG, make_dist(rows[0])),
                              _oracle_suite(NEG_LOG, make_dist(rows[0])))


def test_certificate_suites_needs_one_length():
    with pytest.raises(DimensionError):
        certificate_suites(NEG_LOG, [])
    with pytest.raises(DimensionError):
        certificate_suites(NEG_LOG, [make_dist([0.5, 0.5]), make_dist([0.2, 0.3, 0.5])])


def test_pointwise_bounds_rejects_concave(p4):
    with pytest.raises(CurvatureError):
        pointwise_bounds(X_LOG_X, p4)
