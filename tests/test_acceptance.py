"""Acceptance suite: ten end-to-end criteria, one printed pass/fail line each.

Each test covers one shipped guarantee at its stated tolerance, using seeded
random corpora where a criterion calls for bulk evidence.  Run with ``-s`` to
see the PASS/FAIL lines; under plain ``-v`` the per-test verdicts carry the
same information.
"""

import functools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np

from neglab import (
    NEG_LOG,
    SQUARE,
    X_LOG_X,
    ProbDist,
    concave_mixture_bound,
    converge_to_uniform,
    dissim,
    dissimilarity_properties,
    double_negation_mixture_bound,
    make_dist,
    mixture_bound,
    negate,
    negate_iterated,
    negate_twice,
    negation_dissimilarity,
    partial_mean_chain,
    pointwise_bound,
    self_information_bound,
    shannon_entropy,
    uniform,
)

ITER_SEED = 41
JENSEN_SEED = 520
PAIR_SEED = 73
CONV_SEED = 907


def criterion(label):
    """Print one PASS/FAIL line for the wrapped check, then re-raise."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"FAIL: {label}")
                raise
            print(f"PASS: {label}")

        return run

    return wrap


def frac(*pairs):
    return [float(Fraction(num, den)) for num, den in pairs]


def assert_close(got, want, tol):
    err = max(abs(g - w) for g, w in zip(got, want))
    assert err <= tol, f"max error {err} > {tol}: {got} vs {want}"


def random_dist(rng, n, min_gap=0.0):
    """A Dirichlet draw at least ``min_gap`` away from uniform in max norm."""
    while True:
        d = make_dist(rng.dirichlet(np.ones(n)))
        assert isinstance(d, ProbDist)
        if np.max(np.abs(d.probs - 1.0 / n)) > min_gap:
            return d


P4 = make_dist(frac((1, 3), (1, 6), (1, 6), (1, 3)))
P3 = make_dist(frac((2, 3), (1, 6), (1, 6)))
Q5 = make_dist(frac((2, 3), (1, 6), (1, 6), (0, 1), (0, 1)))
PEAK5 = make_dist(frac((1, 8), (1, 8), (1, 2), (1, 8), (1, 8)))


@criterion("criterion 1: golden negation and double negation, four outcomes, 1e-14")
def test_criterion_01_golden_negation():
    assert_close(negate(P4).tolist(), frac((2, 9), (5, 18), (5, 18), (2, 9)), 1e-14)
    assert_close(
        negate_twice(P4).tolist(), frac((7, 27), (13, 54), (13, 54), (7, 27)), 1e-14
    )


@criterion("criterion 2: golden negations for the three-outcome and zero-padded cases, 1e-14")
def test_criterion_02_golden_padded_negation():
    assert_close(negate(P3).tolist(), frac((1, 6), (5, 12), (5, 12)), 1e-14)
    assert_close(
        negate(Q5).tolist(), frac((1, 12), (5, 24), (5, 24), (1, 4), (1, 4)), 1e-14
    )


@criterion("criterion 3: entropy orderings across padding and repeated negation")
def test_criterion_03_entropy_orderings():
    h3, h5 = shannon_entropy(P3), shannon_entropy(Q5)
    assert abs(h3 - h5) <= 1e-12, f"padding changed entropy: {h3} vs {h5}"
    g3, g5 = shannon_entropy(negate(P3)), shannon_entropy(negate(Q5))
    assert g5 - g3 > 1e-6, f"negation entropy did not rise under padding: {g3} vs {g5}"

    h0 = shannon_entropy(P4)
    h1 = shannon_entropy(negate(P4))
    h2 = shannon_entropy(negate_twice(P4))
    assert h1 - h0 > 1e-6, f"H rose too little under one negation: {h0} -> {h1}"
    assert h2 - h1 > 1e-6, f"H rose too little under the second negation: {h1} -> {h2}"
    assert h2 <= 2.0 and 2.0 - h2 > 1e-6, f"two-bit ceiling violated or met early: {h2}"


@criterion("criterion 4: closed-form iteration equals literal repeated negation, 1e-12")
def test_criterion_04_iteration_oracle():
    rng = np.random.default_rng(ITER_SEED)
    for _ in range(200):
        p = random_dist(rng, int(rng.integers(2, 33)))
        literal = p
        for k in range(0, 21):
            stepped = negate_iterated(p, k)
            err = float(np.max(np.abs(stepped.probs - literal.probs)))
            assert err <= 1e-12, f"n={p.n} k={k}: divergence {err}"
            literal = negate(literal)


@functools.lru_cache(maxsize=1)
def _jensen_corpus():
    rng = np.random.default_rng(JENSEN_SEED)
    return tuple(
        random_dist(rng, int(rng.integers(2, 33)), min_gap=0.02) for _ in range(1000)
    )


def _suite(p):
    certs = []
    for f in (NEG_LOG, SQUARE):
        certs.append(mixture_bound(f, p))
        certs.append(double_negation_mixture_bound(f, p))
        certs.extend(pointwise_bound(f, p, i) for i in range(p.n))
        if p.n >= 3:
            certs.extend(partial_mean_chain(f, p, i)[1] for i in range(p.n))
    certs.append(concave_mixture_bound(X_LOG_X, p))
    certs.append(self_information_bound(p))
    return certs


@criterion("criterion 5: certificate suite holds on 1000 random inputs, equality pins uniformity")
def test_criterion_05_certificate_suite():
    failures = []
    for p in _jensen_corpus():
        for c in _suite(p):
            if not c.holds:
                failures.append((p.n, c.name))
                continue
            if not c.equality:
                continue
            # Whole-vector certificates may only reach equality at the
            # uniform distribution, which the corpus excludes by a 0.02
            # margin.  A pointwise certificate compares the two values
            # p_i and (1 - p_i)/(n - 1): its equality flag is legitimate
            # exactly when that coordinate sits at the uniform weight.
            if c.name.startswith("pointwise_bound"):
                i = int(c.name.split("i=")[1].rstrip("]"))
                assert abs(p[i] - 1.0 / p.n) <= 2e-4, (
                    f"pointwise equality off the uniform weight: n={p.n} p_i={p[i]}"
                )
            else:
                raise AssertionError(f"equality on a non-uniform input: {c.name} n={p.n}")
    assert not failures, f"{len(failures)} certificate failures, first: {failures[:5]}"

    for n in (2, 3, 5, 8, 16, 32):
        for c in _suite(uniform(n)):
            assert c.holds and c.equality, f"uniform n={n}: {c.name} not an equality"


@criterion("criterion 6: symmetric-peak chain equality at 3 bits, broken by a 0.01 bump")
def test_criterion_06_symmetric_peak():
    _, cert = partial_mean_chain(NEG_LOG, PEAK5, 2)
    assert cert.lhs == 3.0, f"peak bound is not exactly 3 bits: {cert.lhs!r}"
    assert abs(cert.rhs - cert.lhs) <= 1e-12, f"chain gap {cert.rhs - cert.lhs}"
    assert cert.equality and cert.holds

    bumped = [v + 0.01 if i == 0 else v for i, v in enumerate(PEAK5.tolist())]
    total = sum(bumped)
    perturbed = make_dist([v / total for v in bumped])
    _, pert = partial_mean_chain(NEG_LOG, perturbed, 2)
    gap = abs(pert.rhs - pert.lhs)
    assert gap > 1e-4, f"perturbation left the chain nearly tight: gap {gap}"
    assert not pert.equality


@functools.lru_cache(maxsize=1)
def _pair_corpus():
    rng = np.random.default_rng(PAIR_SEED)
    pairs = []
    for _ in range(1000):
        n = int(rng.integers(2, 33))
        p, q = random_dist(rng, n), random_dist(rng, n)
        profile = tuple(dissim(p, q, a) for a in range(17))
        pairs.append((p, q, profile))
    return tuple(pairs)


@criterion("criterion 7: dissimilarity matches its closed form; range, zero law, symmetry")
def test_criterion_07_dissimilarity_oracle():
    for p, q, profile in _pair_corpus():
        for a, res in enumerate(profile):
            closed = -math.log2(1.0 - res.l1 / 2.0 ** (a + 2))
            assert abs(res.value - closed) <= 1e-12, (
                f"closed-form drift at n={p.n} alpha={a}: {res.value} vs {closed}"
            )
            assert 0.0 <= res.value <= 1.0
            assert res.l1 > 1e-6 and res.value > 1e-12, (
                f"zero law (forward): l1={res.l1} value={res.value}"
            )
            flipped = dissim(q, p, a)
            assert abs(res.value - flipped.value) <= 1e-14, (
                f"asymmetry at alpha={a}: {res.value} vs {flipped.value}"
            )
    for p, _, _ in _pair_corpus()[:50]:
        for a in (0, 3, 16):
            assert dissim(p, p, a).value <= 1e-15, "zero law (backward)"

    fixture = negation_dissimilarity(P4, 0)
    assert abs(fixture.value - (-math.log2(8.0 / 9.0))) <= 1e-12, (
        f"four-outcome fixture drifted: {fixture.value}"
    )


@criterion("criterion 8: dissimilarity strictly decreases in alpha; direction discrepancy recorded")
def test_criterion_08_alpha_direction():
    for p, q, profile in _pair_corpus():
        values = [res.value for res in profile]
        for a in range(len(values) - 1):
            assert values[a + 1] < values[a], (
                f"not strictly decreasing at n={p.n} alpha={a}: "
                f"{values[a]} -> {values[a + 1]}"
            )

    props = dissimilarity_properties(P4, list(range(17)))
    detail = {c.name: c for c in props.detail}
    assert detail["value_non_increasing_in_alpha"].holds
    assert not detail["value_non_decreasing_in_alpha"].holds, (
        "the recorded direction discrepancy disappeared"
    )
    assert props.holds, "asserted dissimilarity properties must still pass"


@criterion("criterion 9: geometric convergence at ratio 1/(n-1); two outcomes oscillate")
def test_criterion_09_convergence():
    rng = np.random.default_rng(CONV_SEED)
    for _ in range(100):
        n = int(rng.integers(3, 33))
        p = random_dist(rng, n, min_gap=1e-6)
        trace = converge_to_uniform(p, tolerance=1e-9)
        assert trace.converged, f"n={n} failed to converge in {trace.steps} steps"
        assert not trace.oscillating
        ratio = 1.0 / (n - 1)
        for k in range(len(trace.distances) - 1):
            assert trace.distances[k] > 0.0
            measured = trace.distances[k + 1] / trace.distances[k]
            assert abs(measured - ratio) <= 1e-10, (
                f"n={n} step {k}: contraction {measured} vs {ratio}"
            )

    swapped = converge_to_uniform(make_dist([0.9, 0.1]), tolerance=1e-9)
    assert not swapped.converged and swapped.oscillating


@criterion("criterion 10: report subcommand reproduces the fixtures through file I/O")
def test_criterion_10_report_subcommand(tmp_path=None):
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "report.json")
        proc = subprocess.run(
            [sys.executable, "-m", "neglab", "report", "--format", "json", "--out", out_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, f"exit {proc.returncode}, stderr: {proc.stderr}"
        with open(out_path, encoding="utf-8") as fh:
            doc = json.load(fh)

    assert doc["command"] == "report" and doc["all_hold"] is True
    fixtures = {f["name"]: f for f in doc["results"]}
    expected = [
        "negation_golden_four_outcomes",
        "negation_golden_padded",
        "entropy_padding_ordering",
        "entropy_chain_four_outcomes",
        "symmetric_peak_equality",
        "dissimilarity_golden",
    ]
    assert list(fixtures) == expected, f"fixtures: {list(fixtures)}"
    assert all(f["holds"] for f in fixtures.values())

    def detail(cert, name):
        return next(sub for sub in cert["detail"] if sub["name"] == name)

    # every fixture is a certificate: lhs/rhs carry its numbers, detail its parts
    assert fixtures["negation_golden_four_outcomes"]["lhs"] <= 1e-14
    assert fixtures["negation_golden_padded"]["lhs"] <= 1e-14
    padding = fixtures["entropy_padding_ordering"]
    assert padding["rhs"] - padding["lhs"] > 1e-6
    peak = fixtures["symmetric_peak_equality"]
    assert peak["lhs"] == 3.0
    assert detail(peak, "perturbed_gap")["rhs"] > 1e-4
    golden = fixtures["dissimilarity_golden"]
    assert abs(golden["lhs"] - -math.log2(8.0 / 9.0)) <= 1e-12
    props = detail(golden, "dissimilarity_properties")
    assert detail(props, "value_non_decreasing_in_alpha")["holds"] is False
