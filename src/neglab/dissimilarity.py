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
from typing import NamedTuple, Sequence

import numpy as np

from .certificates import Certificate, HOLDS_TOLERANCE, _compare_columns, _input_dicts
from .distribution import DimensionError, DomainError, ProbDist, _stacked, _unchecked
from .jensen import _CHAIN_BLOCK_ELEMENTS
from .negation import _iterates, _negation, negate

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
    "NegationProfiles",
    "negation_profile",
    "negation_profiles",
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
        return _result_dict(self.alpha, self.value, self.sum_of_min_pairs,
                            self.closed_form_value, self.l1)


def _result_dict(alpha, value, sum_of_min_pairs, closed_form_value, l1) -> dict:
    """The plain-data form of one :class:`DissimResult`, given its fields."""
    return {
        "alpha": alpha,
        "value": value,
        "sum_of_min_pairs": sum_of_min_pairs,
        "closed_form_value": closed_form_value,
        "l1": l1,
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
    literal ``sum_of_min_pairs``, each (k, L), and ``l1`` (k,).  An
    underflowed value raises :class:`DomainError` for the first row pair
    that has one, its position in ``index``.
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
        error = DomainError(f"l1 = {float(l1[i])!r} is too small for a double to carry "
                            f"the value at alpha={levels[i, j]}: {usable}")
        error.index = int(i)  # the first failing row pair
        raise error
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


def _properties(alphas: list[int], forward: np.ndarray, backward: np.ndarray,
                l1: np.ndarray) -> Certificate:
    """The properties certificate of m inputs, as a column, from the m×L
    value rows of (p, q) and (q, p) and the m distances l1."""
    m, levels = forward.shape
    gap = np.abs(forward - backward)

    def per_level(*claims):  # m×L sides of each claim, interleaved level by level
        return np.stack(claims, axis=2).reshape(m, -1)

    asserted = _compare_columns(
        [f"{claim}[alpha={a}]" for a in alphas
         for claim in ("bounded_in_unit_interval", "zero_iff_identical", "symmetry")],
        per_level(forward, forward, gap),
        per_level(np.ones_like(forward), np.broadcast_to(l1[:, None], forward.shape),
                  np.full_like(forward, 1e-14)),
        holds=per_level(
            (-HOLDS_TOLERANCE <= forward) & (forward <= 1.0 + HOLDS_TOLERANCE),
            # exact: the closed form is 0 only at l1 = 0, and an underflow never gets here
            (forward == 0.0) == (l1 == 0.0)[:, None],
            gap <= 1e-14,
        ),
        equality=False,
    )
    earlier, later = forward[:, :-1], forward[:, 1:]
    direction = _compare_columns(
        ["value_non_increasing_in_alpha", "value_non_decreasing_in_alpha"],
        forward[:, [-1, 0]], forward[:, [0, -1]],
        holds=np.stack([np.all(later <= earlier + HOLDS_TOLERANCE, axis=1),
                        np.all(later >= earlier - HOLDS_TOLERANCE, axis=1)], axis=1),
        equality=False,
    ) if levels > 1 else []

    holds = np.all([c.holds for c in asserted], axis=0)
    (properties,) = _compare_columns(
        ["dissimilarity_properties"], forward[:, :1], forward[:, -1:], holds=holds[:, None],
        equality=(holds & (l1 <= HOLDS_TOLERANCE))[:, None], detail=(*asserted, *direction),
    )
    return properties


def dissimilarity_properties(p: ProbDist, alphas: Sequence[int]) -> Certificate:
    """Audit the measure's defining properties on ``p`` vs its negation.

    Per level: the value lies in [0, 1], is 0 exactly when the L1 distance
    is, and the separately evaluated swapped pair differs by at most 1e-14.
    Across levels the direction is recorded both ways, non-increasing and
    non-decreasing in alpha, so a failing direction stays visible; these are
    detail only, and the top-level certificate holds when the per-level
    checks all hold.  ``alphas`` must be nonempty and sorted ascending.
    This is a one-row call of :func:`negation_profile`, at depth 1.
    """
    return negation_profile(p, alphas, 1).properties


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
    """Dissimilarity of ``p`` from its k-fold negation, k = 1..depth.

    This is a one-row call of :func:`negation_profile`, at the one level ``alpha``.
    """
    return negation_profile(p, [alpha], depth).iterated


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


class NegationProfiles(NamedTuple):
    """The :class:`NegationProfile` of m inputs of one length, as arrays.

    ``value`` and ``sum_of_min_pairs`` are m×(2 + depth)×L and ``l1`` is
    m×(2 + depth): for input r, entry 0 compares p with its negation q at
    each level of ``alphas``, entry 1 q with p, and entry 1 + k p with its
    k-fold negation, at ``alphas[0]`` in every level column.
    ``properties`` is the properties certificate as a column, and
    ``non_decreasing`` the iterated report's flag of each input.
    """

    alphas: tuple[int, ...]
    negations: np.ndarray
    value: np.ndarray
    sum_of_min_pairs: np.ndarray
    l1: np.ndarray
    properties: Certificate
    non_decreasing: np.ndarray

    def row(self, r: int) -> NegationProfile:
        """Input ``r``'s profile."""
        value, s, l1 = self.value[r], self.sum_of_min_pairs[r], self.l1[r].tolist()
        a0, depth = self.alphas[0], len(l1) - 2
        return NegationProfile(
            negation=_unchecked(self.negations[r]),
            profile=_results(self.alphas, value[0], s[0], [l1[0]] * len(self.alphas)),
            properties=self.properties.row(r),
            iterated=IteratedDissimReport(a0, _results([a0] * depth, value[2:, 0], s[2:, 0], l1[2:]),
                                          self.non_decreasing[r].item()),
        )

    def as_dicts(self) -> list[dict]:
        """Per input r, ``self.row(r).as_dict()``; each field is converted once."""
        a0 = self.alphas[0]
        return [
            {
                "negation": q,
                "profile": [_result_dict(a, v, s, v, l1[0])
                            for a, v, s in zip(self.alphas, value[0], sums[0])],
                "properties": properties,
                "iterated": {
                    "alpha": a0,
                    "results": [_result_dict(a0, v[0], s[0], v[0], d)
                                for v, s, d in zip(value[2:], sums[2:], l1[2:])],
                    "non_decreasing": flag,
                },
            }
            for q, value, sums, l1, (properties,), flag in zip(
                self.negations.tolist(), self.value.tolist(), self.sum_of_min_pairs.tolist(),
                self.l1.tolist(), _input_dicts([self.properties]), self.non_decreasing.tolist(),
            )
        ]


def negation_profile(p: ProbDist, alphas: Sequence[int], depth: int = 3) -> NegationProfile:
    """``p`` against its negation at every level, from one kernel call.

    Returns the negation q, the profile ``dissimilarity(p, q, a)`` for
    each ``a`` in ``alphas``, ``dissimilarity_properties(p, alphas)`` and
    ``iterated_negation_dissimilarity(p, alphas[0], depth)``, equal to the
    separate calls; the iterate rows are needed at the lowest level only.
    This is the one-row call of :func:`negation_profiles`.
    """
    return negation_profiles([p], alphas, depth).row(0)


def negation_profiles(
    dists: Sequence[ProbDist], alphas: Sequence[int], depth: int = 3
) -> NegationProfiles:
    """:func:`negation_profile` of m distributions of one length n, as arrays.

    The row pairs of whole inputs go through the kernel in chunks of at
    most ``_CHAIN_BLOCK_ELEMENTS`` (k × L × n) entries, and the properties
    certificates are built as one column.  ``.row(r)`` equals
    ``negation_profile(dists[r], alphas, depth)`` bit for bit.  An
    underflowed value raises the :class:`DomainError` of the first input
    that has one, with that input's position in ``dists`` as ``index``.
    """
    alphas = _check_alphas(alphas)
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    probs = _stacked(dists)
    negations = _negation(probs)
    (m, n), per = probs.shape, 2 + depth
    levels = np.full((per, len(alphas)), alphas[0])
    levels[:2] = alphas
    chunk = max(1, _CHAIN_BLOCK_ELEMENTS // levels.size // n)  # inputs per kernel call
    parts = []
    for start in range(0, m, chunk):
        p, q = probs[start:start + chunk], negations[start:start + chunk]
        iterates = _iterates(p, range(1, depth + 1))
        A = np.concatenate([p[:, None], q[:, None], np.broadcast_to(p[:, None], iterates.shape)], 1)
        B = np.concatenate([q[:, None], p[:, None], iterates], 1)
        try:
            parts.append(_evaluate(A.reshape(-1, n), B.reshape(-1, n), np.tile(levels, (len(p), 1))))
        except DomainError as exc:
            exc.index = start + exc.index // per  # the row pair's input
            raise
    value, s, l1 = (np.concatenate(part).reshape(m, per, -1) for part in zip(*parts))
    iterated = value[:, 2:, 0]
    return NegationProfiles(
        tuple(alphas), negations, value, s, l1[..., 0],
        _properties(alphas, value[:, 0], value[:, 1], l1[:, 0, 0]),
        np.all(iterated[:, 1:] >= iterated[:, :-1] - HOLDS_TOLERANCE, axis=1),
    )
