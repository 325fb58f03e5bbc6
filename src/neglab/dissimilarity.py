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
naming the largest usable level.  Only the closed form is evaluated.  The
literal min-pair sum is exactly s = Σp + Σq - l1/2**alpha, which gives the
closed form when both rows sum to 1; ``tests/test_exact_oracle.py`` checks
that identity in exact arithmetic at every level, where in floats the blend
(scale - 1)·a + b stops carrying b from about alpha = 53.  Each public
function stacks its row pairs, one level each, and calls one array kernel
once.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .certificates import Certificate, HOLDS_TOLERANCE, _compare_columns
from .distribution import DimensionError, DomainError, ProbDist, _check_int, _stacked, _unchecked
from .negation import _iterates, _negation, negate

__all__ = [
    "MAX_ALPHA",
    "MAX_DEPTH",
    "DissimResult",
    "dissim",
    "negation_dissimilarity",
    "IteratedDissimReport",
    "NegationProfile",
    "NegationProfiles",
    "negation_profiles",
]

_LN2 = math.log(2.0)

#: doubles per temporary array of the profile kernel; bounds its peak memory
_BLOCK_ELEMENTS = 1 << 15

#: largest level whose closed-form scale 2**(alpha + 2) is a finite double
MAX_ALPHA = 1021

#: deepest iterate compared: r**k with |r| <= 1/2 is 0 from k = 1075 on, so every
#: deeper iterate of n >= 3 is exactly uniform, and at n = 2 they only alternate
MAX_DEPTH = 1075


class DissimResult(NamedTuple):
    """One dissimilarity evaluation (an immutable NamedTuple).

    ``value`` is the measure at level ``alpha``, from the closed form, and
    ``l1`` the distance feeding it.
    """

    alpha: int
    value: float
    l1: float

    def as_dict(self) -> dict:
        return self._asdict()


def _check_alpha(alpha, name: str = "alpha") -> int:
    return _check_int(name, alpha, 0, MAX_ALPHA)


def _check_alphas(alphas: Sequence[int], name: str = "alpha") -> list[int]:
    alphas = [_check_alpha(a, name) for a in alphas]
    if not alphas:
        raise DomainError(f"{name} levels must be nonempty")
    if alphas != sorted(alphas):
        raise DomainError(f"{name} levels must be sorted ascending")
    return alphas


def _evaluate(A: np.ndarray, B: np.ndarray, levels: np.ndarray) -> tuple[np.ndarray, ...]:
    """Row ``A[i]`` against row ``B[i]`` at level ``levels[i]``, in one pass.

    ``A`` and ``B`` are (k, n) and ``levels`` the k checked levels.  Returns
    ``value``, from the closed form alone, and ``l1``, each (k,).  An
    underflowed value raises :class:`DomainError` for the first row pair
    that has one, its position in ``index``.
    """
    l1 = np.abs(A - B).sum(axis=-1)
    value = -np.log1p(-np.ldexp(l1, -(levels + 2))) / _LN2

    lost = (value == 0.0) & (l1 > 0.0)
    if lost.any():
        i = np.argmax(lost)
        # l1 = m * 2**e rounds to 0 below 2**-1075 after scaling by 2**-(alpha + 2)
        m, e = math.frexp(float(l1[i]))
        top = min(MAX_ALPHA, e + 1071 + (m > 0.5))
        usable = f"the largest usable level is {top}" if top >= 0 else "no level is usable"
        error = DomainError(f"l1 = {float(l1[i])!r} is too small for a double to carry "
                            f"the value at alpha={levels[i]}: {usable}")
        error.index = int(i)  # the first failing row pair
        raise error
    return value, l1


def _results(alphas, values: np.ndarray, l1s: np.ndarray) -> tuple[DissimResult, ...]:
    return tuple(map(DissimResult, alphas, values.tolist(), l1s.tolist()))


def dissim(p: ProbDist, q: ProbDist, alpha: int = 0) -> DissimResult:
    """Evaluate the level-``alpha`` dissimilarity between ``p`` and ``q``.

    The value is the log1p closed form of the L1 distance; a value that
    would underflow to 0 while the distance is positive raises
    :class:`DomainError`.
    """
    alpha = _check_alpha(alpha)
    if p.n != q.n:
        raise DimensionError(f"size mismatch: {p.n} vs {q.n}")
    return _results([alpha], *_evaluate(p.probs[None], q.probs[None], np.array([alpha])))[0]


def negation_dissimilarity(p: ProbDist, alpha: int = 0) -> DissimResult:
    """Dissimilarity between ``p`` and its negation."""
    return dissim(p, negate(p), alpha)


def _properties(alphas: list[int], values: np.ndarray, l1: np.ndarray) -> Certificate:
    """The properties certificate of m inputs, as a column, from the m×L
    values of p against its negation q and the m distances l1."""
    m, levels = values.shape

    def per_level(*claims):  # m×L sides of each claim, interleaved level by level
        return np.stack(claims, axis=2).reshape(m, -1)

    asserted = _compare_columns(
        [f"{claim}[alpha={a}]" for a in alphas
         for claim in ("bounded_in_unit_interval", "zero_iff_identical")],
        per_level(values, values),
        per_level(np.ones_like(values), np.broadcast_to(l1[:, None], values.shape)),
        holds=per_level(
            (-HOLDS_TOLERANCE <= values) & (values <= 1.0 + HOLDS_TOLERANCE),
            # exact: the closed form is 0 only at l1 = 0, and an underflow never gets here
            (values == 0.0) == (l1 == 0.0)[:, None],
        ),
        equality=False,
    )
    earlier, later = values[:, :-1], values[:, 1:]
    direction = _compare_columns(
        ["value_non_increasing_in_alpha", "value_non_decreasing_in_alpha"],
        values[:, [-1, 0]], values[:, [0, -1]],
        holds=np.stack([np.all(later <= earlier + HOLDS_TOLERANCE, axis=1),
                        np.all(later >= earlier - HOLDS_TOLERANCE, axis=1)], axis=1),
        equality=False,
    ) if levels > 1 else []

    holds = np.all([c.holds for c in asserted], axis=0)
    (properties,) = _compare_columns(
        ["dissimilarity_properties"], values[:, :1], values[:, -1:], holds=holds[:, None],
        equality=(holds & (l1 <= HOLDS_TOLERANCE))[:, None], detail=(*asserted, *direction),
    )
    return properties


class IteratedDissimReport(NamedTuple):
    """Dissimilarity between a distribution and each of its negation iterates
    (an immutable NamedTuple).

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
        return {**self._asdict(), "results": [r.as_dict() for r in self.results]}


class NegationProfile(NamedTuple):
    """Everything ``neglab dissim`` reports for one distribution (an immutable NamedTuple)."""

    negation: ProbDist
    profile: tuple[DissimResult, ...]
    properties: Certificate
    iterated: IteratedDissimReport

    def as_dict(self) -> dict:
        return {"negation": self.negation.tolist(), "profile": [r.as_dict() for r in self.profile],
                "properties": self.properties.as_dict(), "iterated": self.iterated.as_dict()}


class NegationProfiles(NamedTuple):
    """The :class:`NegationProfile` of m inputs of one length, as arrays.

    ``value`` and ``l1`` are m×(L + depth): for input r, column j < L
    compares p with its negation q at ``alphas[j]``, and column L + k - 1
    p with its k-fold negation at ``alphas[0]``, the order in which
    ``dissim`` reports them.  ``properties`` is the properties
    certificate as a column, and ``non_decreasing`` the iterated report's
    flag of each input.
    """

    alphas: tuple[int, ...]
    negations: np.ndarray
    value: np.ndarray
    l1: np.ndarray
    properties: Certificate
    non_decreasing: np.ndarray

    def _columns(self) -> tuple[int, tuple[int, ...]]:
        """L, and the level of each column: ``alphas``, then ``alphas[0]`` per iterate."""
        levels = len(self.alphas)
        return levels, self.alphas + self.alphas[:1] * (self.l1.shape[1] - levels)

    def row(self, r: int) -> NegationProfile:
        """Input ``r``'s profile."""
        levels, at = self._columns()
        results = _results(at, self.value[r], self.l1[r])
        return NegationProfile(
            negation=_unchecked(self.negations[r]), profile=results[:levels],
            properties=self.properties.row(r),
            iterated=IteratedDissimReport(at[0], results[levels:], self.non_decreasing[r].item()),
        )


def negation_profiles(
    dists: Sequence[ProbDist], alphas: Sequence[int], depth: int = 3
) -> NegationProfiles:
    """Each of m distributions p of one length n against its negation q at
    every level, from one kernel; ``.row(r)`` is the :class:`NegationProfile`
    of ``dists[r]``.

    An input's profile is ``dissim(p, q, a)`` for each ``a`` in ``alphas``,
    equal to those calls.  Its properties certificate audits the measure's
    defining properties on p against q.  Per level: the value lies in
    [0, 1] and is 0 exactly when the L1 distance is.  Symmetry needs no
    claim: the value depends on p and q only through the L1 distance, which
    is the same either way round.  Across levels the direction is recorded
    both ways, non-increasing and non-decreasing in alpha, so a failing
    direction stays visible; these are detail only, and the certificate
    holds when the per-level checks all hold.  Its iterated report compares
    p with its k-fold negation, k = 1..``depth``, at the one level
    ``alphas[0]``.  ``alphas`` must be nonempty and sorted ascending.

    Each input stacks L + depth row pairs, one level each: (p, q) at each
    of the L ``alphas``, then (p, Tᵏp) at ``alphas[0]`` for k = 1..depth;
    the iterate rows are needed at the lowest level only.  The row pairs go
    through the kernel in blocks of at most ``_BLOCK_ELEMENTS`` (row pairs ×
    n) entries, or of one row pair if n is more, so one input may span
    several blocks; the properties certificates are built as one column.
    ``.row(r)`` equals ``negation_profiles([dists[r]], alphas, depth).row(0)``
    bit for bit.  An underflowed value raises the :class:`DomainError` of
    the first input that has one, with that input's position in ``dists``
    as ``index``.
    """
    alphas = _check_alphas(alphas)
    depth = _check_int("depth", depth, 1, MAX_DEPTH)
    probs = _stacked(dists)
    negations = _negation(probs)
    (m, n), levels = probs.shape, len(alphas)
    at = np.array(alphas + alphas[:1] * depth)  # the level of each row pair of an input
    per = at.size
    step = max(1, _BLOCK_ELEMENTS // n)  # row pairs per kernel call
    parts = []
    for start in range(0, m * per, step):
        inputs, pair = np.divmod(np.arange(start, min(start + step, m * per)), per)
        p = probs[inputs]
        ks = np.maximum(pair - levels + 1, 0)  # pair L + k - 1 is (p, Tᵏp), pair j < L (p, q)
        B = np.where((ks == 0)[:, None], negations[inputs], _iterates(p, ks.tolist()))
        try:
            parts.append(_evaluate(p, B, at[pair]))
        except DomainError as exc:
            exc.index = int(inputs[exc.index])  # the row pair's input
            raise
    value, l1 = (np.concatenate(part).reshape(m, per) for part in zip(*parts))
    iterated = value[:, levels:]
    return NegationProfiles(
        tuple(alphas), negations, value, l1,
        _properties(alphas, value[:, :levels], l1[:, 0]),
        np.all(iterated[:, 1:] >= iterated[:, :-1] - HOLDS_TOLERANCE, axis=1),
    )
