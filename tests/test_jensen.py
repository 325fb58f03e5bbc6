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
    DimensionError,
    FunctionSpec,
    NEG_LOG,
    ProbDist,
    SQUARE,
    X_LOG_X,
    certificate_suites,
    concave_mixture_bound,
    double_negation_mixture_bound,
    get_function,
    is_uniform,
    make_dist,
    mixture_bound,
    negate,
    negate_twice,
    partial_mean_chain,
    pointwise_bound,
    self_information_bound,
    shannon_entropy,
    uniform,
)
from neglab.certificates import HOLDS_TOLERANCE, compare
from neglab.dissimilarity import _BLOCK_ELEMENTS
from neglab.distribution import _unchecked
from neglab.jensen import _chain_sums, _chains

from conftest import assert_identical, distributions, oracle_as_dict, oracle_failures
from test_theorems_at_scale import _peeled_ones, _point_mass_with_dust

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


@pytest.mark.parametrize("module", ["numpy.random", "fractions"])
def test_importing_the_cli_leaves_module_unloaded(module):
    # the spot check runs on a fixed grid and the CLI parses a/b with int
    # division; either module would add its import time to every start of the CLI
    src = os.path.dirname(os.path.dirname(os.path.abspath(neglab.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    code = f"import sys, neglab.cli; print({module!r} in sys.modules)"
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


def test_zero_ok_is_read_off_the_function():
    # the built-ins' derived values are the ones they used to declare
    assert (NEG_LOG.zero_ok, X_LOG_X.zero_ok, SQUARE.zero_ok) == (False, True, True)
    # math.log2 and 1 / x raise at 0, which leaves 0 off the spot-check grid
    log = FunctionSpec("l", "convex", lambda x: -math.log2(x))
    assert not log.zero_ok and not log._maps_arrays and log(0.25) == 2.0
    assert not FunctionSpec("r", "convex", lambda x: 1 / x).zero_ok
    assert FunctionSpec("root", "concave", np.sqrt).zero_ok
    with pytest.raises(TypeError):
        FunctionSpec("s", "convex", lambda x: x * x, zero_ok=True)


def test_entropy_mixture_detail_goes_with_x_log_x_itself():
    # a concave spec under the built-in's name is not the built-in: its bound
    # says nothing about entropy, in the one-row claim and in the suite
    sqrt = FunctionSpec("x_log_x", "concave", np.sqrt)
    p = make_dist([0.5, 0.3, 0.2])
    assert concave_mixture_bound(sqrt, p).detail == ()
    (column,) = [c for c in certificate_suites(sqrt, [p]) if c.name == "concave_mixture_bound"]
    assert column.detail == ()
    assert [d.name for d in concave_mixture_bound(X_LOG_X, p).detail] == ["entropy_mixture_bound"]


def test_jensen_scalar_only_specs():
    # a user fn that takes only scalars goes through FunctionSpec.values entry by entry
    cube = FunctionSpec("cube", "convex", lambda x: math.pow(x, 3))
    assert not cube._maps_arrays
    assert cube.values([0.2, 0.4, 0.9]).tolist() == [math.pow(v, 3) for v in (0.2, 0.4, 0.9)]
    p = make_dist([0.5, 0.5, 0.0])
    cert = mixture_bound(cube, p)
    assert cert.lhs == math.pow(1.0 / 3, 3)
    assert cert.rhs == (
        math.fsum([math.pow(0.5, 3), math.pow(0.5, 3), 0.0])
        + 2 * math.fsum([math.pow(0.25, 3), math.pow(0.25, 3), math.pow(0.5, 3)])
    ) / 9
    assert cert.holds and not cert.equality

    root = FunctionSpec("root", "concave", lambda x: math.sqrt(x))
    assert not root._maps_arrays
    cert = concave_mixture_bound(root, make_dist([0.0, 1.0]))
    assert cert.lhs == 0.5 and cert.rhs == math.sqrt(0.5)
    assert cert.holds and not cert.equality


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
    for i in (4, -1, True, 1.0, 1.5, math.nan):
        with pytest.raises(IndexError):
            pointwise_bound(NEG_LOG, p4, i)
    assert pointwise_bound(NEG_LOG, p4, np.int64(1)).name == "pointwise_bound[i=1]"


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
    for i in (7, 4, -1, True, 1.0, 1.5, math.nan):
        with pytest.raises(IndexError):
            partial_mean_chain(NEG_LOG, p4, i)
    chain, cert = partial_mean_chain(NEG_LOG, p4, np.int64(1))
    assert cert.name == "partial_mean_chain[i=1]" and type(chain.excluded_index) is int
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


def _one_row_suite(f, p):
    """The certificates of ``certificate_suites`` for the one input ``p``."""
    return [c.row(0) for c in certificate_suites(f, [p])]


def _chain_certificates(f, p):
    """The partial-mean chain certificates of ``p``, its suite's chain columns, in index order."""
    return [c for c in _one_row_suite(f, p) if c.name.startswith("partial_mean_chain")]


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
    _assert_matches_oracle(f, p, _chain_certificates(f, p))


def test_chain_kernel_across_block_seam():
    # n = 182 with zeros: a size whose pairs an earlier kernel split into blocks
    n = next(n for n in range(3, 4096) if _BLOCK_ELEMENTS // (n - 1) == n - 1)
    raw = np.random.default_rng(2024).dirichlet(np.ones(n))
    raw[::17] = 0.0
    p = make_dist(raw / raw.sum())
    for f in (NEG_LOG, SQUARE):
        _assert_matches_oracle(f, p, _chain_certificates(f, p))


def _edge_rows(n=9):
    """One block of rows that stress the chain kernel's shared sums."""
    dust = np.full(n, 1e-12)
    dust[0] = 1.0 - (n - 1) * 1e-12
    return np.array([
        [0.0, 0.0, 0.1, 0.2, 0.3, 0.1, 0.1, 0.1, 0.1],  # leading zeros: S_k = 0, f(0) = inf
        [0.2, 0.0, 0.1, 0.3, 0.0, 0.1, 0.1, 0.1, 0.1],  # two zeros, each excluded in turn
        [0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05, 0.0],  # a zero at the last index
        dust,  # a point mass with dust: S_{k+1} - p_0 cancels at i = 0
        np.full(n, 1.0 / n),  # uniform: every chain is an equality
    ])


@pytest.mark.parametrize("f", [NEG_LOG, SQUARE], ids=lambda f: f.name)
def test_chain_kernel_on_edge_rows(f):
    rows = _edge_rows()
    _assert_batch_matches_rows(f, rows)  # each row's columns equal those of a batch of it alone
    for row in rows:
        p = make_dist(row)
        _assert_matches_oracle(f, p, _chain_certificates(f, p))


def _dip(base, height, j):
    """``base`` less a bump of ``height`` between the spot-check grid's points
    j and j + 1: it registers as convex, but chains through the bump fail."""
    x0, x1 = np.linspace(0.0 if base.zero_ok else 1e-6, 1.0, 32)[j:j + 2]

    def fn(x):
        bump = np.where((x > x0) & (x < x1), np.sin(np.pi * (x - x0) / (x1 - x0)) ** 2, 0.0)
        return base.values(x) - height * bump

    return FunctionSpec(f"{base.name}_dip", "convex", fn)


@pytest.mark.parametrize(
    "f", [_dip(SQUARE, 1e-2, 3), _dip(SQUARE, 1e-3, 1), _dip(NEG_LOG, 3e-2, 3)],
    ids=["square-3", "square-1", "neg_log-3"],
)
def test_chain_decisions_where_f_is_not_convex(f):
    # chains that fail exercise the decision: the smallest bound and the
    # steps, on both sides of each excluded index
    rng = np.random.default_rng(5)
    held = []
    for n in (6, 9, 17, 40):
        rows = rng.dirichlet(np.ones(n), size=3)
        rows[1, 1::4] = rows[2, :2] = 0.0
        rows /= rows.sum(axis=1, keepdims=True)
        _assert_batch_matches_rows(f, rows)
        for row in rows:
            p = make_dist(row)
            certs = _chain_certificates(f, p)
            _assert_matches_oracle(f, p, certs)
            held += [c.holds for c in certs]
    assert any(held) and not all(held)


@pytest.mark.parametrize("f, row", [
    (_dip(SQUARE, 0.1, 0), [0.393, 0.168, 0.018, 0.421]),
    (_dip(NEG_LOG, 0.1, 1), [0.104, 0.025, 0.063, 0.006, 0.141, 0.039, 0.558, 0.0, 0.064]),
], ids=["square", "neg_log-excluded-zero"])
def test_chain_decided_at_a_shared_bound(f, row):
    # a chain whose failing bound lies at k < i, where every chain excluding
    # a later index shares it less f(p_i)/(n - 1); the second excludes the
    # zero at i = 7, whose f is infinite
    p = make_dist(row)
    _assert_matches_oracle(f, p, _chain_certificates(f, p))


@pytest.mark.parametrize("make", [_peeled_ones, _point_mass_with_dust], ids=["peeled", "dust"])
def test_chain_kernel_decides_exact_equalities(make):
    # these chains equal their lhs in exact arithmetic, so compare's equality
    # rule would pass them whatever the bounds; the kernel's own decision
    # must hold too, which plain prefix sums of the dust do not give
    probs = make(3001)[0][None]
    for f in (NEG_LOG, SQUARE):
        assert _chains(f, _chain_sums(probs, f.values(probs)), np.arange(3001))[2].all()


def test_scalar_only_specs_match_the_loop():
    # math-only functions reject arrays; values() then calls them per entry,
    # with the same floats as the array code
    twin = FunctionSpec("square", "convex", lambda x: float(x) * float(x))
    exp = FunctionSpec("exp", "convex", lambda x: math.exp(x))
    cube = FunctionSpec("cube", "convex", lambda x: math.pow(x, 3))
    root = FunctionSpec("root", "concave", lambda x: math.sqrt(x))
    p = make_dist([0.5, 0.0, 0.2, 0.3, 0.0])
    n = p.n

    def mixture(f):
        return (math.fsum(f(v) for v in p) + (n - 1) * math.fsum(f(v) for v in negate(p))) / n**2

    assert not twin._maps_arrays and SQUARE._maps_arrays
    assert _one_row_suite(twin, p) == _one_row_suite(SQUARE, p)
    for i in range(n):
        assert partial_mean_chain(twin, p, i) == partial_mean_chain(SQUARE, p, i)
    for f in (exp, cube):
        _assert_matches_oracle(f, p, _chain_certificates(f, p))
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
    suite = _one_row_suite(f, p)
    _assert_same_certificates(suite, _oracle_suite(f, p))
    convex = f if f.curvature == "convex" else NEG_LOG
    bounds = [c for c in suite if c.name.startswith("pointwise_bound")]
    assert bounds == [pointwise_bound(convex, p, i) for i in range(p.n)]


def test_certificate_suite_skips_chains_at_two_outcomes():
    p = make_dist([0.9, 0.1])
    names = [c.name for c in certificate_suites(NEG_LOG, [p])]
    assert not any(name.startswith("partial_mean_chain") for name in names)
    # mixture, n pointwise, self-information, double negation, concave, two entropy
    assert len(names) == 1 + p.n + 3 + 2


def test_certificate_suite_with_scalar_only_specs():
    # scalar-only user functions go through the same one-pass suite
    cube = FunctionSpec("cube", "convex", lambda x: math.pow(x, 3))
    root = FunctionSpec("root", "concave", lambda x: math.sqrt(x))
    p = make_dist([0.5, 0.0, 0.2, 0.3, 0.0])
    for f in (cube, root):
        _assert_same_certificates(_one_row_suite(f, p), _oracle_suite(f, p))


# --- batch invariance: an input's row is that of a batch of it alone -------

CUBE = FunctionSpec("cube", "convex", lambda x: math.pow(x, 3))  # scalar-only


def _assert_batch_matches_rows(f, rows):
    dists = [ProbDist(row) for row in rows]
    suite = certificate_suites(f, dists)
    assert {len(c.holds) for c in suite} == {len(dists)}
    for r, p in enumerate(dists):
        certs = _one_row_suite(f, p)
        assert [c.row(r).failures() for c in suite] == list(map(oracle_failures, certs))
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
    m = _BLOCK_ELEMENTS // (n - 1) // n + 2
    _assert_batch_matches_rows(NEG_LOG, _dirichlet_rows(m, n, 11))


def test_certificate_suites_chain_block_seam_inside_a_row():
    n = 512
    rows = _dirichlet_rows(2, n, 12)
    _assert_batch_matches_rows(NEG_LOG, rows)
    _assert_same_certificates(_one_row_suite(NEG_LOG, make_dist(rows[0])),
                              _oracle_suite(NEG_LOG, make_dist(rows[0])))


@pytest.mark.parametrize("f", [NEG_LOG, _dip(SQUARE, 0.1, 0)], ids=["neg_log", "square_dip"])
@pytest.mark.parametrize("n", [8, 40])
def test_chain_kernel_pass_and_chunk_seams(monkeypatch, n, f):
    # passes of 3n cells take the indices one at a time, and their bounds
    # below each block are the shared ones; no value or flag may move (some
    # chains fail for the dip)
    rows = _dirichlet_rows(7, n, 13)
    expected = [_one_row_suite(f, make_dist(row)) for row in rows]
    monkeypatch.setattr("neglab.jensen._PASS_CELLS", 3 * n)
    suite = certificate_suites(f, [ProbDist(row) for row in rows])
    for r, certs in enumerate(expected):
        assert_identical([c.row(r).as_dict() for c in suite], [oracle_as_dict(c) for c in certs])


def test_certificate_suites_needs_one_length():
    with pytest.raises(DimensionError):
        certificate_suites(NEG_LOG, [])
    with pytest.raises(DimensionError):
        certificate_suites(NEG_LOG, [make_dist([0.5, 0.5]), make_dist([0.2, 0.3, 0.5])])


def test_pointwise_bounds_rejects_concave(p4):
    with pytest.raises(CurvatureError):
        pointwise_bound(X_LOG_X, p4, 0)


# --- symmetries: relabelling the outcomes -----------------------------------

def _permuted_rows(count=300, seed=32):
    """``count`` seeded Dirichlet rows p of n = 2..39, every fifth with exact
    zeros, each with a permutation π of its indices and the row (p_π(j))_j."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(2, 40))
        row = rng.dirichlet(np.ones(n))
        if k % 5 == 0:
            row[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 0.0
        p = make_dist(row / row.sum())
        perm = rng.permutation(n)
        yield p, perm.tolist(), _unchecked(p.probs[perm])  # the permuted doubles, not renormalized


def _decided(cert):
    """A certificate's sides, slack and flags."""
    return {key: value for key, value in cert.as_dict().items() if key not in ("name", "detail")}


FSUM_CLAIMS = {
    "mixture_bound[square]": lambda p: mixture_bound(SQUARE, p),
    "mixture_bound[neg_log]": lambda p: mixture_bound(NEG_LOG, p),
    "double_negation_mixture_bound[square]": lambda p: double_negation_mixture_bound(SQUARE, p),
    "double_negation_mixture_bound[neg_log]": lambda p: double_negation_mixture_bound(NEG_LOG, p),
    "concave_mixture_bound[x_log_x]": lambda p: concave_mixture_bound(X_LOG_X, p),
    "self_information_bound": self_information_bound,
}


def test_fsum_claims_keep_their_sides_under_permutation():
    # their sums of f go through math.fsum, which rounds once in any order;
    # the entropy mixture in concave_mixture_bound's detail is a pairwise sum
    # and may move in its last bits, so only the top level is compared
    for p, _, q in _permuted_rows():
        for name, claim in FSUM_CLAIMS.items():
            assert_identical(_decided(claim(q)), _decided(claim(p)), f"{name} n={p.n}")


def test_pointwise_bounds_follow_their_index_under_permutation():
    # the bound at index j of the permuted row is the bound at π(j) of p, bit for bit
    for p, perm, q in _permuted_rows():
        for f in (SQUARE, NEG_LOG):
            for j, i in enumerate(perm):
                assert_identical(_decided(pointwise_bound(f, q, j)),
                                 _decided(pointwise_bound(f, p, i)), f"{f.name} n={p.n} j={j}")
