"""Uniform-redistribution negation of a discrete distribution.

The negation of ``p`` spreads each outcome's complement mass evenly over
the other outcomes: entry i becomes (1 - p_i) / (n - 1).  It is an affine
contraction of the simplex toward the uniform point with factor
-1/(n - 1), which gives a closed form for any number of applications and
makes the convergence behaviour exactly analyzable: for n >= 3 iterates
converge geometrically to uniform, while for n = 2 the map just swaps the
two entries forever.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .distribution import DEFAULT_TOLERANCE, ProbDist, _check_int, _check_tolerance, _stacked, _unchecked

__all__ = [
    "negate",
    "negate_twice",
    "negation_pairs",
    "negate_iterated",
    "ConvergenceTrace",
    "ConvergenceTraces",
    "converge_traces",
]


#: the least k at which r**k, r = -1/(n - 1), is ±0 in doubles for every
#: n >= 3: |r| <= 1/2, and 2**-1075 rounds to 0; at n = 2, r**k is ±1
_VANISHING_POWER = 1075


def negate(p: ProbDist) -> ProbDist:
    """One application: entry i becomes (1 - p_i) / (n - 1)."""
    return _unchecked(_negation(p.probs))


def negate_twice(p: ProbDist) -> ProbDist:
    """Two applications in one step: entry i becomes (p_i + n - 2) / (n - 1)^2."""
    return _unchecked(_double_negation(p.probs))


def negation_pairs(dists: Sequence[ProbDist]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`negate` and :func:`negate_twice` of m distributions of one
    length n, as two m×n blocks; row r equals the one-input calls bit for bit."""
    probs = _stacked(dists)
    return _negation(probs), _double_negation(probs)


def _negation(probs: np.ndarray) -> np.ndarray:
    """:func:`negate` of each distribution along the last axis."""
    return (1.0 - probs) / (probs.shape[-1] - 1)


def _double_negation(probs: np.ndarray) -> np.ndarray:
    """:func:`negate_twice` of each distribution along the last axis."""
    n = probs.shape[-1]
    return (probs + (n - 2)) / (n - 1) ** 2


def negate_iterated(p: ProbDist, k: int) -> ProbDist:
    """``k`` applications via the affine closed form, an integer ``k >= 0``.

    Entry i maps to 1/n + (p_i - 1/n) * r**k with r = -1/(n - 1).
    ``k = 0`` returns ``p`` itself; for n = 2 an even ``k`` returns p's
    entries exactly and an odd one their swap, however large ``k`` is.  Any
    other ``k``, a float or a bool included, raises :class:`DomainError`.
    """
    k = _check_int("k", k, 0)
    if k == 0:
        return p
    # at a point mass, 1/n - (1 - 1/n)/(n - 1) can round to -1 ulp below 0
    return _unchecked(np.clip(_iterates(p.probs, [k])[0], 0.0, 1.0))


def _iterates(probs: np.ndarray, ks) -> np.ndarray:
    """1/n + (p_i - 1/n) * r**k per k in ``ks``, as :func:`negate_iterated`, unclipped.

    ``probs`` is one distribution (n,), giving one row per k, or a block
    (K, n) with one k per row; the result is (K, n).
    """
    n = probs.shape[-1]
    center, ratio = 1.0 / n, -1.0 / (n - 1)
    # Python's pow, not numpy's: same bits.  It takes k as a double, which
    # drops the parity of a k above 2**53 and overflows from 2**1024; r**k is
    # ±0 from _VANISHING_POWER on (±1 at n = 2), so a larger k is replaced by
    # that power or the next, whichever has k's parity
    top = _VANISHING_POWER
    powers = np.array([ratio**(k if k < top else top + (k - top) % 2) for k in ks])[:, None]
    # r**k is 1 only at n = 2, even k: the swaps restore p exactly, which
    # rounding p - 1/n and adding it back need not do
    return np.where(powers == 1.0, probs, center + (probs - center) * powers)


class ConvergenceTrace(NamedTuple):
    """Record of repeated negation (an immutable NamedTuple).

    ``iterates[0]`` is the starting distribution; ``distances[k]`` is the
    max-norm distance of ``iterates[k]`` from uniform and ``entropies[k]``
    its Shannon entropy in bits.  ``steps`` counts negations actually
    applied.  ``oscillating`` marks the two-outcome case, where the
    sequence is periodic and never converges.
    """

    iterates: tuple[ProbDist, ...]
    entropies: tuple[float, ...]
    distances: tuple[float, ...]
    converged: bool
    steps: int
    oscillating: bool = False

    def as_dict(self) -> dict:
        return {**self._asdict(), "iterates": [q.tolist() for q in self.iterates],
                "entropies": list(self.entropies), "distances": list(self.distances)}


class ConvergenceTraces(NamedTuple):
    """The :class:`ConvergenceTrace` of m inputs of one length, as arrays.

    Input r owns ``steps[r] + 1`` consecutive entries of ``iterates`` (a
    T×n block), ``entropies`` and ``distances``, inputs in order;
    ``converged``, ``steps`` and ``oscillating`` hold one entry per input.
    """

    iterates: np.ndarray
    entropies: np.ndarray
    distances: np.ndarray
    converged: np.ndarray
    steps: np.ndarray
    oscillating: np.ndarray

    def _offsets(self) -> np.ndarray:
        """The m + 1 offsets of the inputs' entries: input r owns entries
        ``offsets[r]`` up to ``offsets[r + 1]``."""
        return np.concatenate([[0], np.cumsum(self.steps + 1)])

    def row(self, r: int) -> ConvergenceTrace:
        """Input ``r``'s trace."""
        offsets = self._offsets()
        at = slice(offsets[r], offsets[r + 1])
        return ConvergenceTrace(
            tuple(_unchecked(q) for q in self.iterates[at]), tuple(self.entropies[at].tolist()),
            tuple(self.distances[at].tolist()), self.converged[r].item(), self.steps[r].item(),
            self.oscillating[r].item(),
        )


def converge_traces(
    dists: Sequence[ProbDist], tolerance: float = DEFAULT_TOLERANCE, max_steps: int = 1000
) -> ConvergenceTraces:
    """Negate each of m distributions of one length n repeatedly until within
    ``tolerance`` of uniform (max norm), 0 < tolerance < 1, for at most an
    integer ``max_steps >= 1`` steps; ``.row(r)`` is the
    :class:`ConvergenceTrace` of ``dists[r]``.

    Iterates are produced by literal negation, so consecutive trace
    entries are related by :func:`negate` exactly.  The recorded
    distances, however, are carried in deviation coordinates d = p - 1/n,
    where one negation is exactly d *= -1/(n - 1): scaling the deviation
    keeps the per-step contraction of the distance sequence exact to
    rounding even once the iterates sit microscopically close to uniform,
    where re-deriving d by subtraction would be all cancellation noise.

    For n = 2 the trace records one application and stops with the
    ``oscillating`` marker set: the map is a pure swap and never settles
    unless the input is already uniform.

    Each step negates the block of rows still running at once; a row
    leaves the block at its own stop step.  The entropies are taken at
    the end, on all iterates as one block.  ``.row(r)`` equals
    ``converge_traces([dists[r]], tolerance, max_steps).row(0)`` bit for bit.
    """
    from .entropy import _entropies  # function-level to keep imports acyclic

    _check_tolerance("tolerance", tolerance)
    max_steps = _check_int("max_steps", max_steps, 1)
    q = _stacked(dists)
    m, n = q.shape
    center = 1.0 / n
    dev = q - center
    distance = np.max(np.abs(dev), axis=1)
    blocks = [(np.arange(m), q, distance)]  # (rows, iterates, distances) of each step
    converged, steps = distance <= tolerance, np.zeros(m, dtype=int)
    active = np.flatnonzero(~converged)
    q, dev = q[active], dev[active]
    if n == 2:  # a pure swap: one application, measured literally
        q = _negation(q)
        blocks.append((active, q, np.max(np.abs(q - center), axis=1)))
        steps[active] = 1
        max_steps = 0  # and no further step
    ratio = -1.0 / (n - 1)
    for step in range(1, max_steps + 1):
        if not active.size:
            break
        q = _negation(q)
        dev *= ratio
        distance = np.max(np.abs(dev), axis=1)
        blocks.append((active, q, distance))
        steps[active] = step
        stop = distance <= tolerance
        if stop.any():
            converged[active[stop]] = True
            active, q, dev = active[~stop], q[~stop], dev[~stop]
    rows, iterates, distances = (np.concatenate(column) for column in zip(*blocks))
    order = np.argsort(rows, kind="stable")  # input by input, each in step order
    iterates = iterates[order]
    return ConvergenceTraces(iterates, _entropies(iterates), distances[order], converged, steps,
                             oscillating=(n == 2) & ~converged)
