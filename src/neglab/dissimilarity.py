"""A parametric dissimilarity family built from min-mixture overlaps.

For distributions p, q and an integer level ``0 <= alpha <= 1021``, each
side is blended toward the other with weight 2**-alpha before overlaps are
taken: the measure sums min(p_i, mix_i) + min(mix'_i, q_i) over entries,
squashes through (1 + s/2)/2 and takes -log2.  Algebraically the whole
construction collapses onto the L1 distance,

    value = -log2(1 - |p - q|_1 / 2**(alpha + 2)),

the reported value, taken as ``-log1p(-ldexp(l1, -(alpha + 2))) / ln 2`` so
that 1 - x is never rounded before the log (Goldberg, "What Every Computer
Scientist Should Know About Floating-Point Arithmetic", 1991).  Values lie in
[0, 1], are 0 exactly when l1 is, are symmetric, and halve with each level;
a value that would underflow to 0 while l1 > 0 raises :class:`DomainError`
naming the largest usable level.  The literal min-pair sum cross-checks it at
1e-12 absolute (:class:`CrossCheckError`); from about alpha = 53 the blend
(scale - 1)·a + b no longer carries b, so there the check is only coarse.
Each public function stacks its row pairs and calls one array kernel once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .certificates import Certificate, HOLDS_TOLERANCE, compare
from .distribution import DimensionError, DomainError, ProbDist
from .negation import _iterates, negate

__all__ = [
    "MAX_ALPHA",
    "CrossCheckError",
    "DissimResult",
    "dissimilarity",
    "negation_dissimilarity",
    "dissimilarity_properties",
    "IteratedDissimReport",
    "iterated_negation_dissimilarity",
    "NegationProfile",
    "negation_profile",
]

_CROSS_CHECK_TOL = 1e-12
_LN2 = math.log(2.0)

#: largest level whose closed-form scale 2**(alpha + 2) is a finite double
MAX_ALPHA = 1021


class CrossCheckError(ArithmeticError):
    """Literal evaluation and closed form disagreed beyond 1e-12."""


@dataclass(frozen=True)
class DissimResult:
    """One dissimilarity evaluation with its audit trail.

    ``value`` is the measure, from the closed form, and
    ``closed_form_value`` carries the same number; ``sum_of_min_pairs`` is
    the literal overlap sum it was cross-checked against; ``l1`` the
    distance feeding the closed form.
    """

    alpha: int
    value: float
    sum_of_min_pairs: float
    closed_form_value: float
    l1: float

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "value": self.value,
            "sum_of_min_pairs": self.sum_of_min_pairs,
            "closed_form_value": self.closed_form_value,
            "l1": self.l1,
        }


def _check_alpha(alpha) -> int:
    if isinstance(alpha, bool) or not isinstance(alpha, (int, np.integer)):
        raise DomainError(f"alpha must be a nonnegative integer, got {alpha!r}")
    if not 0 <= alpha <= MAX_ALPHA:
        raise DomainError(f"alpha must be an integer in [0, {MAX_ALPHA}], got {alpha}")
    return int(alpha)


def _check_alphas(alphas: Sequence[int]) -> list[int]:
    alphas = [_check_alpha(a) for a in alphas]
    if not alphas:
        raise DomainError("alphas must be nonempty")
    if alphas != sorted(alphas):
        raise DomainError("alphas must be sorted ascending")
    return alphas


def _evaluate(A: np.ndarray, B: np.ndarray, levels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row ``A[i]`` against row ``B[i]`` at each of its levels, in one pass.

    ``A`` and ``B`` are (k, n); ``levels`` are checked levels, (L,) for
    every row or (k, L) with row i evaluated at ``levels[i]``.  The
    (k, L, n) block is one array expression.  Returns ``value`` and the
    literal ``sum_of_min_pairs``, each (k, L), and ``l1`` (k,).
    """
    levels = np.asarray(levels)
    a, b = A[:, None, :], B[:, None, :]
    scale = np.ldexp(1.0, levels)[..., None]
    toward_b, toward_a = ((scale - 1.0) * a + b) / scale, (a + (scale - 1.0) * b) / scale
    s = (np.minimum(a, toward_b) + np.minimum(toward_a, b)).sum(axis=-1)
    l1 = np.abs(A - B).sum(axis=-1)
    value = -np.log1p(-np.ldexp(l1[:, None], -(levels + 2))) / _LN2
    literal = -np.log2((1.0 + 0.5 * s) / 2.0)

    lost = (value == 0.0) & (l1[:, None] > 0.0)
    levels = np.broadcast_to(levels, value.shape)
    if lost.any():
        i, j = np.argwhere(lost)[0]
        # l1 = m * 2**e rounds to 0 below 2**-1075 after scaling by 2**-(alpha + 2)
        m, e = math.frexp(float(l1[i]))
        top = min(MAX_ALPHA, e + 1071 + (m > 0.5))
        usable = f"the largest usable level is {top}" if top >= 0 else "no level is usable"
        raise DomainError(f"l1 = {float(l1[i])!r} is too small for a double to carry "
                          f"the value at alpha={levels[i, j]}: {usable}")
    bad = np.abs(literal - value) > _CROSS_CHECK_TOL
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise CrossCheckError(f"literal value {float(literal[i, j])!r} and closed form "
                              f"{float(value[i, j])!r} disagree at alpha={levels[i, j]}")
    return value, s, l1


def _results(alphas, values: np.ndarray, sums: np.ndarray, l1s: list) -> tuple[DissimResult, ...]:
    return tuple(
        DissimResult(alpha=a, value=v, sum_of_min_pairs=s, closed_form_value=v, l1=d)
        for a, v, s, d in zip(alphas, values.tolist(), sums.tolist(), l1s)
    )


def dissimilarity(p: ProbDist, q: ProbDist, alpha: int = 0) -> DissimResult:
    """Evaluate the level-``alpha`` dissimilarity between ``p`` and ``q``.

    The value is the log1p closed form; the literal min-pair sum must
    agree with it within 1e-12 or :class:`CrossCheckError` is raised.
    """
    alpha = _check_alpha(alpha)
    if p.n != q.n:
        raise DimensionError(f"size mismatch: {p.n} vs {q.n}")
    value, s, l1 = _evaluate(p.probs[None], q.probs[None], [alpha])
    return _results([alpha], value[0], s[0], l1.tolist())[0]


def negation_dissimilarity(p: ProbDist, alpha: int = 0) -> DissimResult:
    """Dissimilarity between ``p`` and its negation."""
    return dissimilarity(p, negate(p), alpha)


def _properties(alphas: list[int], forward: np.ndarray, backward: np.ndarray, l1: float) -> Certificate:
    """The properties certificate from the value rows of (p, q) and (q, p)."""
    in_range = (-HOLDS_TOLERANCE <= forward) & (forward <= 1.0 + HOLDS_TOLERANCE)
    sym_gap = np.abs(forward - backward)
    asserted: list[Certificate] = []
    for a, v, ok, gap in zip(alphas, forward.tolist(), in_range.tolist(), sym_gap.tolist()):
        asserted += [
            compare(f"bounded_in_unit_interval[alpha={a}]", v, 1.0, holds=ok, equality=False),
            # exact: the closed form is 0 only at l1 = 0, and an underflow never gets here
            compare(f"zero_iff_identical[alpha={a}]", v, l1, holds=(v == 0.0) == (l1 == 0.0),
                    equality=False),
            compare(f"symmetry[alpha={a}]", gap, 1e-14, holds=gap <= 1e-14, equality=False),
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


def dissimilarity_properties(p: ProbDist, alphas: Sequence[int]) -> Certificate:
    """Audit the measure's defining properties on ``p`` vs its negation.

    Per level: the value lies in [0, 1], is 0 exactly when the L1 distance
    is, and the separately evaluated swapped pair differs by at most 1e-14.
    Across levels the direction is recorded both ways, non-increasing and
    non-decreasing in alpha, so a failing direction stays visible; these are
    detail only, and the top-level certificate holds when the per-level
    checks all hold.  ``alphas`` must be nonempty and sorted ascending.
    """
    alphas = _check_alphas(alphas)
    pq = np.stack([p.probs, negate(p).probs])
    value, _, l1 = _evaluate(pq, pq[::-1], alphas)
    return _properties(alphas, value[0], value[1], l1.tolist()[0])


@dataclass(frozen=True)
class IteratedDissimReport:
    """Dissimilarity between a distribution and each of its negation iterates.

    ``results[k]`` compares ``p`` with its (k + 1)-fold negation at the
    fixed level.  One might expect deeper iterates to look ever less like
    the original; in fact the L1 distance to the k-th iterate is
    (1 - r**k) * l1(p, uniform) with r = -1/(n - 1), which oscillates
    around its limit (largest at k = 1, since r is negative), so for
    non-uniform inputs the value sequence generally is not monotone.
    ``non_decreasing`` records whether it happened to be, within 1e-12,
    for this input.
    """

    alpha: int
    results: tuple[DissimResult, ...]
    non_decreasing: bool

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "results": [r.as_dict() for r in self.results],
            "non_decreasing": self.non_decreasing,
        }


def _iterated(alpha: int, values: np.ndarray, sums: np.ndarray, l1s: list) -> IteratedDissimReport:
    return IteratedDissimReport(
        alpha, _results([alpha] * len(values), values, sums, l1s),
        non_decreasing=bool(np.all(values[1:] >= values[:-1] - HOLDS_TOLERANCE)),
    )


def iterated_negation_dissimilarity(
    p: ProbDist, alpha: int = 0, depth: int = 3
) -> IteratedDissimReport:
    """Dissimilarity of ``p`` from its k-fold negation, k = 1..depth."""
    alpha = _check_alpha(alpha)
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    iterates = _iterates(p.probs, range(1, depth + 1))
    value, s, l1 = _evaluate(np.broadcast_to(p.probs, iterates.shape), iterates, [alpha])
    return _iterated(alpha, value[:, 0], s[:, 0], l1.tolist())


@dataclass(frozen=True)
class NegationProfile:
    """Everything ``neglab dissim`` reports for one distribution."""

    negation: ProbDist
    profile: tuple[DissimResult, ...]
    properties: Certificate
    iterated: IteratedDissimReport

    def as_dict(self) -> dict:
        return {"negation": self.negation.tolist(), "profile": [r.as_dict() for r in self.profile],
                "properties": self.properties.as_dict(), "iterated": self.iterated.as_dict()}


def negation_profile(p: ProbDist, alphas: Sequence[int], depth: int = 3) -> NegationProfile:
    """``p`` against its negation at every level, from one kernel call.

    Returns the negation q, the profile ``dissimilarity(p, q, a)`` for
    each ``a`` in ``alphas``, ``dissimilarity_properties(p, alphas)`` and
    ``iterated_negation_dissimilarity(p, alphas[0], depth)``, equal to the
    separate calls; the iterate rows are needed at the lowest level only.
    """
    alphas = _check_alphas(alphas)
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    q = negate(p)
    iterates = _iterates(p.probs, range(1, depth + 1))
    A = np.vstack([p.probs, q.probs, np.broadcast_to(p.probs, iterates.shape)])
    B = np.vstack([q.probs, p.probs, iterates])
    levels = np.full((len(A), len(alphas)), alphas[0])
    levels[:2] = alphas
    value, s, l1 = _evaluate(A, B, levels)
    l1 = l1.tolist()
    return NegationProfile(
        negation=q,
        profile=_results(alphas, value[0], s[0], [l1[0]] * len(alphas)),
        properties=_properties(alphas, value[0], value[1], l1[0]),
        iterated=_iterated(alphas[0], value[2:, 0], s[2:, 0], l1[2:]),
    )
