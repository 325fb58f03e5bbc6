"""Validated discrete probability distributions and simplex utilities.

Distributions are stored as read-only double precision arrays.  Every raw
vector takes one validation path, that of :func:`make_dists`: a sum within
the tolerance of 1 is renormalized, so downstream algebraic identities
hold to machine precision instead of inheriting entry noise.
"""

from __future__ import annotations

import math
from collections.abc import Sized
from dataclasses import InitVar, dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "DEFAULT_TOLERANCE",
    "DimensionError",
    "DomainError",
    "ProbDist",
    "ValidationReport",
    "make_dist",
    "make_dists",
    "pad_with_zeros",
    "uniform",
    "is_uniform",
    "l1_distance",
]

#: default tolerance for simplex membership (entry range and total mass)
DEFAULT_TOLERANCE = 1e-9

_NOT_FLAT = "probabilities must form a one-dimensional sequence"


class DimensionError(ValueError):
    """A distribution has too few outcomes, or two lengths disagree."""


class DomainError(ValueError):
    """A scalar or array argument lies outside its mathematical domain."""


@dataclass(frozen=True, eq=False)
class ProbDist:
    """A point on the probability simplex with at least two outcomes.

    The wrapped array is copied and marked read-only.  It is validated and
    renormalized exactly as :func:`make_dist` does at ``DEFAULT_TOLERANCE``,
    bit for bit, and :class:`DomainError` is raised where :func:`make_dist`
    returns a :class:`ValidationReport`.
    """

    probs: np.ndarray
    #: set only by :func:`_unchecked`, for arrays that are distributions by construction
    _screened: InitVar[bool] = False

    def __post_init__(self, _screened: bool) -> None:
        arr = _floats(self.probs, _NOT_FLAT, copy=True)
        if not _screened:
            result = _normalized(_block(arr[None]), DEFAULT_TOLERANCE)
            if isinstance(result, tuple):
                if result[1].bad_indices:
                    raise DomainError("probabilities must lie in [0, 1]")
                raise DomainError(f"probabilities must sum to 1, got {float(arr.sum())!r}")
            arr = result[0]
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


class ValidationReport(NamedTuple):
    """Why a raw vector was rejected by :func:`make_dist` (an immutable NamedTuple).

    ``sum_error`` is the absolute deviation of the raw sum from 1 and
    ``bad_indices`` lists positions whose entries fall outside [0, 1]
    beyond the tolerance (NaN and infinite entries included).
    """

    sum_error: float
    bad_indices: tuple[int, ...] = ()

    def as_dict(self) -> dict:
        return {**self._asdict(), "bad_indices": list(self.bad_indices)}


def _floats(values, ragged: str, copy: bool = False) -> np.ndarray:
    """``values`` as a float array, copied if ``copy``.  Nested sequences of
    different lengths form none and raise :class:`DimensionError` with the
    message ``ragged``; an entry that is not a number keeps its ``ValueError``."""
    try:
        return (np.array if copy else np.asarray)(values, dtype=float)
    except ValueError:
        if any(isinstance(c, Sized) and not isinstance(c, (str, bytes))
               for c in np.array(values, dtype=object).flat):
            raise DimensionError(ragged) from None
        raise


def _block(rows) -> np.ndarray:
    """``rows`` as an m×n float array of candidate distributions.

    A wrong shape is a structural mistake and raises
    :class:`DimensionError`: there must be a row, each one-dimensional and
    all of one length n >= 2.
    """
    block = _floats(rows, "rows of different lengths do not form an m×n block")
    if block.ndim and not len(block):
        raise DimensionError("need at least one distribution")
    if block.ndim != 2:
        raise DimensionError(_NOT_FLAT)
    if block.shape[1] < 2:
        raise DimensionError(f"a distribution needs at least 2 outcomes, got {block.shape[1]}")
    return block


def _stacked(dists) -> np.ndarray:
    """The m×n block of m ``ProbDist``s of one length n, m >= 1."""
    if not dists:
        raise DimensionError("need at least one distribution")
    n = dists[0].n
    if any(p.n != n for p in dists):
        raise DimensionError(f"every distribution must have n = {n} outcomes")
    return np.stack([p.probs for p in dists])


def _screen(rows: np.ndarray, tolerance: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The range-and-mass check of raw rows of one length, an m×n block.

    Returns per row whether it passes and its sum error (``inf`` for an
    overflowed total, which is never valid, whatever the tolerance), and
    the mask of entries outside [0, 1] beyond the tolerance (NaN and
    infinite entries included).
    """
    outside = ~((rows >= -tolerance) & (rows <= 1.0 + tolerance))
    with np.errstate(over="ignore", invalid="ignore"):  # inf + -inf is NaN, never valid
        total = rows.sum(axis=1)
    finite = np.isfinite(total)
    sum_error = np.where(finite, np.abs(total - 1.0), math.inf)
    ok = ~outside.any(axis=1) & finite & (sum_error <= tolerance)
    return ok, sum_error, outside


def _check_int(name: str, value, lo: int, hi: float = math.inf) -> int:
    """``value`` as an ``int``, if it is a Python or numpy integer (no bool, no float) in [lo, hi]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not lo <= value <= hi:
        span = f"in [{lo}, {hi}]" if hi < math.inf else f">= {lo}"
        raise DomainError(f"{name} must be an integer {span}, got {value!r}")
    return int(value)


def _row_index(r, m: int) -> int:
    """``r`` in [0, m), if an integer (no bool) in [-m, m), counted from the end
    when negative as a sequence counts; anything else raises :class:`IndexError`."""
    if isinstance(r, bool) or not isinstance(r, (int, np.integer)) or not -m <= r < m:
        raise IndexError(f"row must be an integer in [{-m}, {m}), got {r!r}")
    return int(r) % m


def _check_tolerance(name: str, value) -> float:
    """``value`` as a float, if 0 < value < 1.  A tolerance of 1 would admit
    ``[0, 0]``, and every distribution lies within it of uniform."""
    if not 0.0 < value < 1.0:  # NaN fails too
        raise DomainError(f"{name} must be finite and in (0, 1), got {value!r}")
    return float(value)


def _unchecked(arr: np.ndarray) -> ProbDist:
    """Wrap an array that is a distribution by construction.

    Used for :func:`make_dist`'s own result and for the closed-form
    outputs of negation, padding and :func:`uniform`, which lie in [0, 1]
    as computed (or are clipped by their producer).  Only the read-only
    copy is made; the screen and the clip are skipped.
    """
    return ProbDist(arr, _screened=True)


def _report(row, tolerance: float) -> ValidationReport:
    """The :class:`ValidationReport` of one raw row of any length, from its screen."""
    _, sum_error, outside = _screen(np.asarray(row, dtype=float)[None], tolerance)
    return ValidationReport(float(sum_error[0]), tuple(np.flatnonzero(outside[0]).tolist()))


def _normalized(rows: np.ndarray, tolerance: float) -> np.ndarray | tuple[int, ValidationReport]:
    """The screened, clamped and renormalized m×n block ``rows``, or the
    position of the first row that fails and its :class:`ValidationReport`."""
    ok = _screen(rows, tolerance)[0]
    if not ok.all():
        r = int(np.argmin(ok))
        return r, _report(rows[r], tolerance)
    # a row that passed has a clamped total in [1 - tolerance, 2n]: above 0, and finite
    arr = np.where(rows < 0.0, 0.0, rows)
    totals = arr.sum(axis=1)
    # Skip the division when the sum is already 1 up to accumulated rounding
    # noise: renormalizing is then a no-op mathematically but would disturb
    # final bits, and re-ingesting emitted values must reproduce the array
    # exactly.  A fresh renormalization always lands inside this band, which
    # makes the operation idempotent.  A skipped row may keep an entry a few
    # ulps above 1, hence the clip.  The band is capped at DEFAULT_TOLERANCE
    # (it outgrows it above n = 140,000): every stored sum lies within it.
    band = min(32.0 * rows.shape[1] * np.finfo(float).eps, DEFAULT_TOLERANCE)
    scale = np.abs(totals - 1.0) > band
    arr[scale] /= totals[scale, None]
    np.clip(arr, 0.0, 1.0, out=arr)
    return arr


def make_dists(
    rows, tolerance: float = DEFAULT_TOLERANCE
) -> list[ProbDist] | tuple[int, ValidationReport]:
    """:func:`make_dist` on each row of an m×n block, under one screen.

    Returns every row's distribution, or the position of the first row
    that fails and its :class:`ValidationReport`.  Each row is
    renormalized on its own, exactly as :func:`make_dist` would.  No rows
    at all, rows of different lengths, or rows that otherwise do not form
    an m×n block with n >= 2 raise :class:`DimensionError`.
    """
    result = _normalized(_block(rows), _check_tolerance("tolerance", tolerance))
    return result if isinstance(result, tuple) else [_unchecked(row) for row in result]


def make_dist(
    values: Iterable[float], tolerance: float = DEFAULT_TOLERANCE
) -> ProbDist | ValidationReport:
    """Validate raw values and renormalize them into a :class:`ProbDist`.

    Out-of-range entries or a bad total, beyond ``tolerance``, return the
    failing :class:`ValidationReport` instead of raising, so batch callers
    can surface per-input diagnostics.  Too few entries raises
    :class:`DimensionError`, and a tolerance outside (0, 1) :class:`DomainError`.
    """
    result = make_dists(_floats(list(values), _NOT_FLAT)[None], tolerance)
    return result[1] if isinstance(result, tuple) else result[0]


def pad_with_zeros(p: ProbDist, k: int) -> ProbDist:
    """Append ``k`` zero-probability outcomes, an integer ``k >= 0``."""
    k = _check_int("k", k, 0)
    if k == 0:
        return p
    return _unchecked(np.concatenate([p.probs, np.zeros(k)]))


def uniform(n: int) -> ProbDist:
    """The uniform distribution on an integer ``n >= 2`` outcomes; 0 and 1 raise DimensionError."""
    n = _check_int("n", n, 0)
    if n < 2:
        raise DimensionError(f"a distribution needs at least 2 outcomes, got {n}")
    return _unchecked(np.full(n, 1.0 / n))


def is_uniform(p: ProbDist, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """True when every entry is within ``tolerance`` of 1/n, 0 < tolerance < 1."""
    return bool(np.max(np.abs(p.probs - 1.0 / p.n)) <= _check_tolerance("tolerance", tolerance))


def _l1(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The L1 distance of each row of ``A`` to the same row of ``B``."""
    return np.abs(A - B).sum(axis=-1)


def l1_distance(p: ProbDist, q: ProbDist) -> float:
    """Sum of absolute entry differences.  Ranges over [0, 2]."""
    if p.n != q.n:
        raise DimensionError(f"size mismatch: {p.n} vs {q.n}")
    return float(_l1(p.probs, q.probs))
