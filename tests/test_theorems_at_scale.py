"""No theorem reports FAIL on structured inputs of up to 2**20 outcomes.

Rounding in a kernel can grow with n, which the small-n tests cannot see:
running sums rounded at every step make the partial-mean chain of the
peeled-ones input fail from n = 16,000 on, while its first bounds equal
``lhs`` in exact arithmetic.  Each input goes through the O(n) one-row calls;
at n = 16,000 the two chain-sensitive inputs also go through the O(n^2)
chain family, every excluded index at once.
"""

import numpy as np
import pytest

from neglab import (
    NEG_LOG,
    SQUARE,
    X_LOG_X,
    ProbDist,
    concave_mixture_bound,
    converge_to_uniform,
    cross_entropy_check,
    double_negation_mixture_bound,
    entropy_chain_check,
    mixture_bound,
    negate,
    negation_profile,
    partial_mean_chain,
    partial_mean_chains,
    pointwise_bound,
    self_information_bound,
    uniform,
    zero_padding_entropy_check,
)
from neglab.certificates import HOLDS_TOLERANCE


def _peeled_ones(n):
    """0.25, then n - 1 kept entries of mean 0.75/(n - 1): a seeded U[0.5, 1.5]
    half rescaled to mean 1, then ones.  The chain without index 0 peels the
    ones first, each equal to the kept mean, so its first bounds equal ``lhs``."""
    half = (n - 1) // 2
    draws = np.random.default_rng(n).uniform(0.5, 1.5, half)
    kept = np.concatenate([draws / draws.mean(), np.ones(n - 1 - half)])
    return np.concatenate([[0.25], kept * (0.75 / (n - 1))]), 0


def _symmetric_peak(n):
    """1/2 in the middle, the rest spread evenly: the chain excluding the peak
    is an equality."""
    probs = np.full(n, 0.5 / (n - 1))
    probs[n // 2] = 0.5
    return probs, n // 2


def _point_mass_with_dust(n):
    probs = np.full(n, 1e-12)
    probs[0] = 1.0 - (n - 1) * 1e-12
    return probs, 0


def _entries_near_1e_300(n):
    """Half the entries between 1e-300 and 2e-300, the rest sharing the mass."""
    tiny = 1e-300 * (1.0 + np.random.default_rng(n).random(n // 2))
    return np.concatenate([np.full(n - n // 2, 1.0 / (n - n // 2)), tiny]), 0


def _uniform(n):
    return uniform(n).probs, 0


INPUTS = [_peeled_ones, _symmetric_peak, _point_mass_with_dust, _entries_near_1e_300, _uniform]
SIZES = [16_000, 65_536, 262_144, 1 << 20]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("make", INPUTS, ids=lambda make: make.__name__.lstrip("_"))
def test_no_theorem_fails_at_large_n(make, n):
    probs, i = make(n)
    p = ProbDist(probs)
    certs = [
        *(partial_mean_chain(f, p, i)[1] for f in (NEG_LOG, SQUARE)),
        pointwise_bound(NEG_LOG, p, i),
        entropy_chain_check(p),
        cross_entropy_check(p, negate(p)),
        zero_padding_entropy_check(p, 1),
        negation_profile(p, [0, 1, 2, 3]).properties,
    ]
    if n < SIZES[-1]:  # math.fsum rounds these once at any n; at 2**20 they only cost time
        certs += [
            mixture_bound(NEG_LOG, p),
            double_negation_mixture_bound(SQUARE, p),
            self_information_bound(p),
            concave_mixture_bound(X_LOG_X, p),
        ]
    entropies = converge_to_uniform(p).entropies
    assert np.all(np.diff(entropies) >= -HOLDS_TOLERANCE), "entropy fell along the trace"
    failing = [c.name for c in certs if not c.holds]
    assert failing == []


@pytest.mark.parametrize("f", [NEG_LOG, SQUARE], ids=lambda f: f.name)
@pytest.mark.parametrize("make", [_peeled_ones, _point_mass_with_dust],
                         ids=lambda make: make.__name__.lstrip("_"))
def test_no_chain_fails_at_every_index(make, f):
    p = ProbDist(make(SIZES[0])[0])
    failing = [c.name for c in partial_mean_chains(f, p) if not c.holds]
    assert failing == []
