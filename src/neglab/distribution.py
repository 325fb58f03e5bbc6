"""Validated discrete probability distributions and simplex utilities.

Distributions are stored as read-only double precision arrays.  Raw inputs
whose sum strays from 1 by no more than the validation tolerance are
renormalized on construction, so downstream algebraic identities hold to
machine precision instead of inheriting entry noise.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "DEFAULT_TOLERANCE",
    "DimensionError",
    "DomainError",
    "ProbDist",
    "ValidationReport",
    "make_dist",
    "pad_with_zeros",
    "uniform",
    "is_uniform",
    "l1_distance",
]

#: default tolerance for simplex membership (entry range and total mass)
DEFAULT_TOLERANCE = 1e-9


class DimensionError(ValueError):
    """A distribution has too few outcomes, or two lengths disagree."""


class DomainError(ValueError):
    """A scalar or array argument lies outside its mathematical domain."""


@dataclass(frozen=True, eq=False)
class ProbDist:
    """A point on the probability simplex with at least two outcomes.

    The wrapped array is copied and marked read-only.  Entries must lie in
    [0, 1] and sum to 1, both up to ``DEFAULT_TOLERANCE``; negative round-off
    dust inside the tolerance band is clamped to exactly 0, and the sum is
    checked after clamping, so the stored values always satisfy the
    invariants.
    """

    probs: np.ndarray
    #: set only by :func:`_unchecked`, for arrays that are distributions by construction
    _screened: InitVar[bool] = False

    def __post_init__(self, _screened: bool) -> None:
        arr = np.array(self.probs, dtype=float)
        if not _screened and _screen(arr, DEFAULT_TOLERANCE).bad_indices:
            raise DomainError("probabilities must lie in [0, 1]")
        np.clip(arr, 0.0, 1.0, out=arr)
        # clamping in-tolerance dust can move the sum by n times the tolerance
        if not _screened and not abs(float(arr.sum()) - 1.0) <= DEFAULT_TOLERANCE:
            raise DomainError(f"probabilities must sum to 1, got {float(arr.sum())!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def n(self) -> int:
        """Number of outcomes."""
        return self.probs.size

    def __len__(self) -> int:
        return self.probs.size

    def __iter__(self) -> Iterator[float]:
        return iter(self.probs.tolist())

    def __getitem__(self, i) -> float:
        return self.probs[i]

    def tolist(self) -> list[float]:
        return self.probs.tolist()

    def __repr__(self) -> str:
        return f"ProbDist({self.probs.tolist()})"


@dataclass(frozen=True)
class ValidationReport:
    """Why a raw vector was rejected by :func:`make_dist`.

    ``sum_error`` is the absolute deviation of the raw sum from 1 and
    ``bad_indices`` lists positions whose entries fall outside [0, 1]
    beyond the tolerance (NaN and infinite entries included).
    """

    ok: bool
    sum_error: float
    bad_indices: tuple[int, ...] = field(default_factory=tuple)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "sum_error": self.sum_error,
            "bad_indices": list(self.bad_indices),
        }


def _screen(arr: np.ndarray, tolerance: float) -> ValidationReport:
    """The range-and-mass check of a raw array.

    A wrong shape is a structural mistake and raises
    :class:`DimensionError`; everything else is reported.
    """
    if arr.ndim != 1:
        raise DimensionError("probabilities must form a one-dimensional sequence")
    if arr.size < 2:
        raise DimensionError(f"a distribution needs at least 2 outcomes, got {arr.size}")
    in_range = (arr >= -tolerance) & (arr <= 1.0 + tolerance)
    bad = tuple(int(i) for i in np.flatnonzero(~in_range))
    with np.errstate(over="ignore"):
        total = float(arr.sum())
    finite = math.isfinite(total)  # an overflowed total is never valid, whatever the tolerance
    sum_error = abs(total - 1.0) if finite else math.inf
    return ValidationReport(
        ok=not bad and finite and sum_error <= tolerance, sum_error=sum_error, bad_indices=bad
    )


def _unchecked(arr: np.ndarray) -> ProbDist:
    """Wrap an array that is a distribution by construction.

    Used for :func:`make_dist`'s own result and for the closed-form
    outputs of negation, padding and :func:`uniform`.  The clip and the
    read-only flag still apply; only the screen is skipped.
    """
    return ProbDist(arr, _screened=True)


def make_dist(
    values: Iterable[float], tolerance: float = DEFAULT_TOLERANCE
) -> ProbDist | ValidationReport:
    """Validate raw values and renormalize them into a :class:`ProbDist`.

    Out-of-range entries or a bad total return the failing
    :class:`ValidationReport` instead of raising, so batch callers can
    surface per-input diagnostics.  Too few entries is a structural
    mistake and raises :class:`DimensionError`.
    """
    arr = np.asarray(list(values), dtype=float)
    report = _screen(arr, tolerance)
    if not report.ok:
        return report
    arr = np.where(arr < 0.0, 0.0, arr)
    with np.errstate(over="ignore"):
        total = float(arr.sum())
    if total == 0.0 or total == math.inf:  # no mass, or overflow; only a tolerance >= 1 gets here
        return ValidationReport(ok=False, sum_error=abs(total - 1.0))
    # Skip the division when the sum is already 1 up to accumulated rounding
    # noise: renormalizing is then a no-op mathematically but would disturb
    # final bits, and re-ingesting emitted values must reproduce the array
    # exactly.  A fresh renormalization always lands inside this band, which
    # makes the operation idempotent.
    if abs(total - 1.0) > 32.0 * arr.size * np.finfo(float).eps:
        arr = arr / total
    return _unchecked(arr)


def pad_with_zeros(p: ProbDist, k: int) -> ProbDist:
    """Append ``k`` zero-probability outcomes."""
    if k < 0:
        raise DomainError(f"cannot pad with a negative count, got {k}")
    if k == 0:
        return p
    return _unchecked(np.concatenate([p.probs, np.zeros(k)]))


def uniform(n: int) -> ProbDist:
    """The uniform distribution on ``n`` outcomes."""
    if n < 2:
        raise DimensionError(f"a distribution needs at least 2 outcomes, got {n}")
    return _unchecked(np.full(n, 1.0 / n))


def is_uniform(p: ProbDist, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """True when every entry is within ``tolerance`` of 1/n."""
    return bool(np.max(np.abs(p.probs - 1.0 / p.n)) <= tolerance)


def l1_distance(p: ProbDist, q: ProbDist) -> float:
    """Sum of absolute entry differences.  Ranges over [0, 2]."""
    if p.n != q.n:
        raise DimensionError(f"size mismatch: {p.n} vs {q.n}")
    return float(np.sum(np.abs(p.probs - q.probs)))
