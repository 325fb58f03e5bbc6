"""A parametric dissimilarity family built from min-mixture overlaps.

For distributions p, q and an integer level ``0 <= alpha <= 1021``, each
side is blended toward the other with weight 2**-alpha before overlaps are
taken: the measure sums min(p_i, mix_i) + min(mix'_i, q_i) over entries,
squashes through (1 + s/2)/2 and takes -log2.  Algebraically the whole
construction collapses onto the L1 distance,

    value = -log2(1 - |p - q|_1 / 2**(alpha + 2)),

and every evaluation cross-checks the literal sum against this closed form
at 1e-12; disagreement raises :class:`CrossCheckError`, since it would mean
the arithmetic itself went wrong.  The closed form makes the family's
behaviour transparent: values live in [0, 1], vanish exactly when p = q,
are symmetric, and shrink as alpha grows (each level halves the argument
of the log).  Above alpha = 1021 the scale 2**(alpha + 2) is no longer a
finite double, so larger levels raise :class:`DomainError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .certificates import Certificate, HOLDS_TOLERANCE, compare
from .distribution import DimensionError, DomainError, ProbDist, l1_distance
from .negation import negate, negate_iterated

__all__ = [
    "MAX_ALPHA",
    "CrossCheckError",
    "DissimResult",
    "dissimilarity",
    "negation_dissimilarity",
    "dissimilarity_properties",
    "IteratedDissimReport",
    "iterated_negation_dissimilarity",
]

_CROSS_CHECK_TOL = 1e-12

#: largest level whose closed-form scale 2**(alpha + 2) is a finite double
MAX_ALPHA = 1021


class CrossCheckError(ArithmeticError):
    """Literal evaluation and closed form disagreed beyond 1e-12."""


@dataclass(frozen=True)
class DissimResult:
    """One dissimilarity evaluation with its audit trail.

    ``value`` is the measure; ``sum_of_min_pairs`` the literal overlap sum
    it was computed from; ``closed_form_value`` the L1 closed form it was
    checked against; ``l1`` the distance feeding that form.
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


def dissimilarity(p: ProbDist, q: ProbDist, alpha: int = 0) -> DissimResult:
    """Evaluate the level-``alpha`` dissimilarity between ``p`` and ``q``.

    Both the literal min-pair sum and the L1 closed form are computed;
    they must agree within 1e-12 or :class:`CrossCheckError` is raised.
    """
    alpha = _check_alpha(alpha)
    if p.n != q.n:
        raise DimensionError(f"size mismatch: {p.n} vs {q.n}")
    a = p.probs
    b = q.probs
    scale = 2.0**alpha
    toward_b = ((scale - 1.0) * a + b) / scale
    toward_a = (a + (scale - 1.0) * b) / scale
    s = float(np.sum(np.minimum(a, toward_b) + np.minimum(toward_a, b)))
    value = -math.log2((1.0 + 0.5 * s) / 2.0) + 0.0
    l1 = l1_distance(p, q)
    closed = -math.log2(1.0 - l1 / 2.0 ** (alpha + 2)) + 0.0
    if abs(value - closed) > _CROSS_CHECK_TOL:
        raise CrossCheckError(
            f"literal value {value!r} and closed form {closed!r} disagree "
            f"at alpha={alpha}"
        )
    return DissimResult(
        alpha=alpha, value=value, sum_of_min_pairs=s, closed_form_value=closed, l1=l1
    )


def negation_dissimilarity(p: ProbDist, alpha: int = 0) -> DissimResult:
    """Dissimilarity between ``p`` and its negation."""
    return dissimilarity(p, negate(p), alpha)


def dissimilarity_properties(
    p: ProbDist,
    alphas: Sequence[int],
    *,
    q: ProbDist | None = None,
    forward: Sequence[DissimResult] | None = None,
) -> Certificate:
    """Audit the measure's defining properties on ``p`` vs its negation.

    Per level: the value lies in [0, 1] and vanishes exactly when the L1
    distance does (boundedness and identity of indiscernibles), and
    swapping the arguments moves the value by at most 1e-14 (symmetry).
    Across levels the observed direction is recorded both ways: the value
    sequence is certified non-increasing in alpha, and a companion
    sub-certificate states the non-decreasing claim so its failure is
    visible rather than silent.  ``alphas`` must be nonempty and sorted
    ascending.  The top-level certificate holds when boundedness,
    identity, and symmetry all hold; the direction records are attached
    as detail only.

    A caller that already holds ``q = negate(p)`` and the profile
    ``forward = [dissimilarity(p, q, a) for a in alphas]`` may pass them
    in to skip recomputing both.
    """
    alphas = [_check_alpha(a) for a in alphas]
    if not alphas:
        raise DomainError("alphas must be nonempty")
    if alphas != sorted(alphas):
        raise DomainError("alphas must be sorted ascending")
    if q is None:
        q = negate(p)
    if forward is None:
        forward = [dissimilarity(p, q, a) for a in alphas]
    backward = [dissimilarity(q, p, a) for a in alphas]

    asserted: list[Certificate] = []
    for res, rev in zip(forward, backward):
        a = res.alpha
        in_range = -HOLDS_TOLERANCE <= res.value <= 1.0 + HOLDS_TOLERANCE
        asserted.append(compare(
            f"bounded_in_unit_interval[alpha={a}]", res.value, 1.0,
            holds=in_range, equality=False,
        ))
        # "value is zero iff the distributions coincide": the value cutoff is
        # mapped through the closed form to the equivalent L1 cutoff, so both
        # sides of the biconditional measure the same inequality and inputs
        # straddling the tolerance cannot produce a spurious mismatch
        l1_cutoff = -math.expm1(-HOLDS_TOLERANCE * math.log(2.0)) * 2.0 ** (a + 2)
        zero_iff = (res.value <= HOLDS_TOLERANCE) == (res.l1 <= l1_cutoff)
        asserted.append(compare(
            f"zero_iff_identical[alpha={a}]", res.value, res.l1,
            holds=zero_iff, equality=False,
        ))
        sym_gap = abs(res.value - rev.value)
        asserted.append(compare(
            f"symmetry[alpha={a}]", sym_gap, 1e-14, holds=sym_gap <= 1e-14, equality=False,
        ))

    values = [r.value for r in forward]
    steps = list(zip(values, values[1:]))
    direction = [
        compare(
            "value_non_increasing_in_alpha", values[-1], values[0],
            holds=all(b <= a + HOLDS_TOLERANCE for a, b in steps), equality=False,
        ),
        compare(
            "value_non_decreasing_in_alpha", values[0], values[-1],
            holds=all(b >= a - HOLDS_TOLERANCE for a, b in steps), equality=False,
        ),
    ] if steps else []

    holds = all(c.holds for c in asserted)
    return compare(
        "dissimilarity_properties", values[0], values[-1],
        holds=holds,
        equality=holds and forward[0].l1 <= HOLDS_TOLERANCE,
        detail=(*asserted, *direction),
    )


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


def iterated_negation_dissimilarity(
    p: ProbDist, alpha: int = 0, depth: int = 3
) -> IteratedDissimReport:
    """Dissimilarity of ``p`` from its k-fold negation, k = 1..depth."""
    alpha = _check_alpha(alpha)
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    results = tuple(
        dissimilarity(p, negate_iterated(p, k), alpha) for k in range(1, depth + 1)
    )
    values = [r.value for r in results]
    non_decreasing = all(
        values[k + 1] >= values[k] - HOLDS_TOLERANCE for k in range(len(values) - 1)
    )
    return IteratedDissimReport(alpha=alpha, results=results, non_decreasing=non_decreasing)
