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

from dataclasses import dataclass

import numpy as np

from .distribution import DomainError, ProbDist, _unchecked

__all__ = [
    "negate",
    "negate_twice",
    "negate_iterated",
    "ConvergenceTrace",
    "converge_to_uniform",
]


def negate(p: ProbDist) -> ProbDist:
    """One application: entry i becomes (1 - p_i) / (n - 1)."""
    return _unchecked(_negation(p.probs))


def negate_twice(p: ProbDist) -> ProbDist:
    """Two applications in one step: entry i becomes (p_i + n - 2) / (n - 1)^2."""
    return _unchecked(_double_negation(p.probs))


def _negation(probs: np.ndarray) -> np.ndarray:
    """:func:`negate` of each distribution along the last axis."""
    return (1.0 - probs) / (probs.shape[-1] - 1)


def _double_negation(probs: np.ndarray) -> np.ndarray:
    """:func:`negate_twice` of each distribution along the last axis."""
    n = probs.shape[-1]
    return (probs + (n - 2)) / (n - 1) ** 2


def negate_iterated(p: ProbDist, k: int) -> ProbDist:
    """``k`` applications via the affine closed form.

    Entry i maps to 1/n + (p_i - 1/n) * r**k with r = -1/(n - 1).
    ``k = 0`` returns ``p`` itself; for n = 2 an even ``k`` returns p's
    entries exactly.
    """
    if k < 0:
        raise DomainError(f"iteration count must be >= 0, got {k}")
    if k == 0:
        return p
    # at a point mass, 1/n - (1 - 1/n)/(n - 1) can round to -1 ulp below 0
    return _unchecked(np.clip(_iterates(p.probs, [k])[0], 0.0, 1.0))


def _iterates(probs: np.ndarray, ks) -> np.ndarray:
    """One row 1/n + (p_i - 1/n) * r**k per k in ``ks``, as :func:`negate_iterated`."""
    n = probs.size
    center, ratio = 1.0 / n, -1.0 / (n - 1)
    powers = np.array([ratio**k for k in ks])  # Python's pow, not numpy's: same bits
    rows = center + (probs - center) * powers[:, None]
    # r**k is 1 only at n = 2, even k: the swaps restore p exactly, which
    # rounding p - 1/n and adding it back need not do
    rows[powers == 1.0] = probs
    return rows


@dataclass(frozen=True)
class ConvergenceTrace:
    """Record of repeated negation.

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
        return {
            "iterates": [q.tolist() for q in self.iterates],
            "entropies": list(self.entropies),
            "distances": list(self.distances),
            "converged": self.converged,
            "steps": self.steps,
            "oscillating": self.oscillating,
        }


def converge_to_uniform(
    p: ProbDist, tolerance: float = 1e-9, max_steps: int = 1000
) -> ConvergenceTrace:
    """Negate repeatedly until within ``tolerance`` of uniform (max norm).

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
    """
    from .entropy import shannon_entropy  # function-level to keep imports acyclic

    if tolerance <= 0:
        raise DomainError(f"tolerance must be > 0, got {tolerance}")
    if max_steps < 1:
        raise DomainError(f"max_steps must be >= 1, got {max_steps}")

    n = p.n
    center = 1.0 / n
    dev = p.probs - center
    iterates = [p]
    entropies = [shannon_entropy(p)]
    distances = [float(np.max(np.abs(dev)))]

    if distances[0] <= tolerance:
        return ConvergenceTrace(
            tuple(iterates), tuple(entropies), tuple(distances), True, 0
        )

    if n == 2:
        q = negate(p)
        iterates.append(q)
        entropies.append(shannon_entropy(q))
        distances.append(float(np.max(np.abs(q.probs - center))))
        return ConvergenceTrace(
            tuple(iterates), tuple(entropies), tuple(distances),
            converged=False, steps=1, oscillating=True,
        )

    ratio = -1.0 / (n - 1)
    converged = False
    steps = 0
    q = p
    for step in range(1, max_steps + 1):
        q = negate(q)
        dev = dev * ratio
        iterates.append(q)
        entropies.append(shannon_entropy(q))
        distances.append(float(np.max(np.abs(dev))))
        steps = step
        if distances[-1] <= tolerance:
            converged = True
            break

    return ConvergenceTrace(
        tuple(iterates), tuple(entropies), tuple(distances), converged, steps
    )
