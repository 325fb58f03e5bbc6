"""Jensen-type certificates for negation mixtures.

The negation map feeds a family of convexity bounds: averaging a convex f
over a distribution together with its negation, with weights 1/n^2 and
(n - 1)/n^2 per entry, can never fall below f evaluated at the uniform
point 1/n.  This module certifies that bound, its pointwise version, its
restatement on the negation pair, the concave mirror image, and a peeled
partial-mean refinement that tightens the same quantity step by step.

Functions enter as :class:`FunctionSpec` records carrying a declared
curvature tag.  The tag is not taken on faith: registration runs a seeded
spot-check of the chord inequality on random triples and refuses specs
whose numerics contradict their declaration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable

import numpy as np

from .certificates import (
    Certificate,
    EQUALITY_TOLERANCE,
    HOLDS_TOLERANCE,
    compare,
)
from .distribution import DimensionError, DomainError, ProbDist
from .negation import negate

__all__ = [
    "CurvatureError",
    "ChainUndefinedError",
    "FunctionSpec",
    "NEG_LOG",
    "X_LOG_X",
    "SQUARE",
    "BUILTIN_FUNCTIONS",
    "get_function",
    "jensen_check",
    "mixture_bound",
    "double_negation_mixture_bound",
    "pointwise_bound",
    "concave_mixture_bound",
    "self_information_bound",
    "PartialMeanChain",
    "partial_mean_chain",
]

_SPOT_CHECK_TRIPLES = 100
_SPOT_CHECK_TOL = 1e-12
_SPOT_CHECK_SEED = 20240817


class CurvatureError(ValueError):
    """A function's numerics contradict its declared curvature tag."""


class ChainUndefinedError(ValueError):
    """The partial-mean chain needs at least three outcomes."""


@dataclass(frozen=True)
class FunctionSpec:
    """A scalar function on [0, 1] tagged with its curvature.

    Parameters
    ----------
    name : str
        Registry key, also used in certificate names.
    curvature : str
        ``"convex"`` or ``"concave"``.
    fn : callable
        The function itself.  It may return ``inf`` at 0 (limit
        semantics); set ``zero_ok=False`` so the spot-check stays off
        that endpoint.
    domain_note : str
        Short human-readable caveat about endpoints, if any.
    zero_ok : bool
        Whether evaluating at exactly 0 yields a finite value.

    Construction runs the curvature spot-check: 100 seeded random triples
    x < y < z must satisfy the chord inequality within 1e-12, otherwise
    :class:`CurvatureError` aborts the registration.
    """

    name: str
    curvature: str
    fn: Callable[[float], float]
    domain_note: str = ""
    zero_ok: bool = True

    def __post_init__(self) -> None:
        if self.curvature not in ("convex", "concave"):
            raise ValueError(f"curvature must be 'convex' or 'concave', got {self.curvature!r}")
        self._spot_check()

    def __call__(self, x: float) -> float:
        return float(self.fn(x))

    def _spot_check(self) -> None:
        rng = np.random.default_rng(_SPOT_CHECK_SEED)
        lo = 0.0 if self.zero_ok else 1e-6
        checked = 0
        while checked < _SPOT_CHECK_TRIPLES:
            x, y, z = np.sort(rng.uniform(lo, 1.0, size=3))
            if z - x < 1e-9:
                continue
            chord = ((z - y) * self(x) + (y - x) * self(z)) / (z - x)
            fy = self(y)
            if self.curvature == "convex" and fy > chord + _SPOT_CHECK_TOL:
                raise CurvatureError(
                    f"{self.name!r} declared convex but violates the chord "
                    f"inequality at ({x}, {y}, {z})"
                )
            if self.curvature == "concave" and fy < chord - _SPOT_CHECK_TOL:
                raise CurvatureError(
                    f"{self.name!r} declared concave but violates the chord "
                    f"inequality at ({x}, {y}, {z})"
                )
            checked += 1


def _neg_log(x: float) -> float:
    return math.inf if x == 0.0 else -math.log2(x) + 0.0


def _x_log_x(x: float) -> float:
    return 0.0 if x == 0.0 else -x * math.log2(x) + 0.0


def _square(x: float) -> float:
    return x * x


NEG_LOG = FunctionSpec(
    "neg_log", "convex", _neg_log,
    domain_note="0 maps to +inf (limit of -log2)", zero_ok=False,
)
X_LOG_X = FunctionSpec(
    "x_log_x", "concave", _x_log_x,
    domain_note="0 maps to 0 (limit of -x*log2(x))",
)
SQUARE = FunctionSpec("square", "convex", _square)

#: read-only registry of the built-in functions, keyed by name
BUILTIN_FUNCTIONS = MappingProxyType(
    {f.name: f for f in (NEG_LOG, X_LOG_X, SQUARE)}
)


def get_function(name: str) -> FunctionSpec:
    """Look up a built-in by name, listing the options on a miss."""
    try:
        return BUILTIN_FUNCTIONS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_FUNCTIONS))
        raise LookupError(f"unknown function {name!r}; built-ins: {known}") from None


def _require(f: FunctionSpec, curvature: str) -> None:
    if f.curvature != curvature:
        raise CurvatureError(f"{f.name!r} is {f.curvature}, this check needs a {curvature} function")


def jensen_check(
    f: FunctionSpec,
    points: "np.ndarray | list[float]",
    weights: "np.ndarray | list[float]",
) -> Certificate:
    """Certify Jensen's inequality for ``f`` at a weighted point set.

    For convex f the claim is f(mean) <= weighted mean of f; concave f
    flips it.  Weights must be nonnegative and sum to 1 within 1e-12.
    Points where f diverges are fine as long as their weight is zero;
    with positive weight the function side becomes infinite and the bound
    holds trivially.  Equality is flagged when every point carrying
    weight agrees with the others within 1e-9.
    """
    x = np.asarray(points, dtype=float)
    w = np.asarray(weights, dtype=float)
    if x.ndim != 1 or w.ndim != 1:
        raise DimensionError("points and weights must be one-dimensional")
    if x.size != w.size:
        raise DimensionError(f"size mismatch: {x.size} points vs {w.size} weights")
    if x.size == 0:
        raise DimensionError("need at least one point")
    if np.any(w < -HOLDS_TOLERANCE):
        raise DomainError("weights must be nonnegative")
    w = np.where(w < 0.0, 0.0, w)
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise DomainError(f"weights must sum to 1, got {float(w.sum())!r}")
    if np.any(x < -HOLDS_TOLERANCE) or np.any(x > 1.0 + HOLDS_TOLERANCE):
        raise DomainError("points must lie in [0, 1]")
    x = np.clip(x, 0.0, 1.0)

    mean = float(np.dot(w, x))
    active = x[w > 0]
    f_side = math.fsum(wi * f(xi) for wi, xi in zip(w, x) if wi > 0)
    equality = bool(active.size == 0 or np.max(active) - np.min(active) <= EQUALITY_TOLERANCE)

    if f.curvature == "convex":
        lhs, rhs = f(mean), f_side
    else:
        lhs, rhs = f_side, f(mean)
    return compare(f"jensen[{f.name}]", lhs, rhs, equality=equality)


def _mixture_value(f: FunctionSpec, p: ProbDist) -> float:
    """(1/n^2) sum f(p_i) + ((n - 1)/n^2) sum f(negate(p)_i)."""
    n = p.n
    q = negate(p)
    fp = math.fsum(f(v) for v in p.probs)
    fq = math.fsum(f(v) for v in q.probs)
    return (fp + (n - 1) * fq) / n**2


def mixture_bound(f: FunctionSpec, p: ProbDist, *, name: str = "mixture_bound") -> Certificate:
    """Certify f(1/n) <= mean of f over p and its negation, f convex.

    The right side weights each f(p_i) by 1/n^2 and each f of the negated
    entry by (n - 1)/n^2; those 2n weights sum to 1, so this is Jensen at
    a mixture whose barycenter is exactly 1/n.  Equality holds exactly at
    the uniform distribution.
    """
    _require(f, "convex")
    return compare(name, f(1.0 / p.n), _mixture_value(f, p))


def double_negation_mixture_bound(f: FunctionSpec, p: ProbDist) -> Certificate:
    """The same bound one negation deeper: mixture of negate(p) and its negation."""
    _require(f, "convex")
    return mixture_bound(f, negate(p), name="double_negation_mixture_bound")


def pointwise_bound(f: FunctionSpec, p: ProbDist, i: int) -> Certificate:
    """Certify f(1/n) <= f(p_i)/n + (n - 1) f(negate(p)_i)/n for one index.

    Averaging these n pointwise bounds with weight 1/n each recovers
    :func:`mixture_bound`.
    """
    _require(f, "convex")
    n = p.n
    if not 0 <= i < n:
        raise IndexError(f"index {i} out of range for {n} outcomes")
    p_i = float(p.probs[i])
    neg_i = (1.0 - p_i) / (n - 1)
    rhs = (f(p_i) + (n - 1) * f(neg_i)) / n
    return compare(f"pointwise_bound[i={i}]", f(1.0 / n), rhs)


def concave_mixture_bound(f: FunctionSpec, p: ProbDist) -> Certificate:
    """The concave mirror image: mean of f over p and its negation <= f(1/n).

    For the built-in ``x_log_x`` this rearranges into an entropy mixture
    bound, H(p)/n + (n - 1) H(negate(p))/n <= log2(n), attached as a
    sub-certificate.
    """
    _require(f, "concave")
    detail: tuple[Certificate, ...] = ()
    if f.name == "x_log_x":
        from .entropy import shannon_entropy  # function-level to keep imports acyclic

        n = p.n
        h_mix = (shannon_entropy(p) + (n - 1) * shannon_entropy(negate(p))) / n
        detail = (compare("entropy_mixture_bound", h_mix, math.log2(n)),)
    return compare(
        "concave_mixture_bound", _mixture_value(f, p), f(1.0 / p.n), detail=detail
    )


def self_information_bound(p: ProbDist) -> Certificate:
    """:func:`mixture_bound` specialized to ``neg_log``.

    The right side is then a 1/n^2-weighted sum of self-informations and
    the left side is log2(n); equality pins down the uniform distribution,
    e.g. 3 bits exactly on eight equally likely outcomes.
    """
    return mixture_bound(NEG_LOG, p, name="self_information_bound")


@dataclass(frozen=True)
class PartialMeanChain:
    """Peeled partial means and the bound sequence they generate.

    With outcome ``excluded_index`` removed, ``zetas[t]`` is the mean of
    the remaining entries after the ``t`` highest-indexed ones have been
    peeled off (so ``zetas[0]`` averages all n - 1 of them, and equals the
    excluded entry of the negation).  ``bounds[t]`` replaces the peeled
    entries' contribution with their actual f values, so the sequence
    starts at f(zetas[0]), can only grow, and ends at the plain mean of f
    over the kept entries.
    """

    excluded_index: int
    zetas: tuple[float, ...]
    bounds: tuple[float, ...]

    def as_dict(self) -> dict:
        return {
            "excluded_index": self.excluded_index,
            "zetas": list(self.zetas),
            "bounds": list(self.bounds),
        }


def partial_mean_chain(
    f: FunctionSpec, p: ProbDist, i: int
) -> tuple[PartialMeanChain, Certificate]:
    """Build the peeled-mean refinement of the convex bound at index ``i``.

    Returns the chain data together with a certificate that
    f(mean of kept entries) <= every bound and that the bounds are
    non-decreasing.  Needs n >= 3: with only one entry kept there is
    nothing to peel, so n = 2 raises :class:`ChainUndefinedError`.
    """
    _require(f, "convex")
    n = p.n
    if n < 3:
        raise ChainUndefinedError(f"chain needs n >= 3, got n = {n}")
    if not 0 <= i < n:
        raise IndexError(f"index {i} out of range for {n} outcomes")

    kept = np.delete(p.probs, i)
    prefix = np.cumsum(kept)
    m_full = n - 1
    zetas = tuple(float(prefix[m - 1]) / m for m in range(m_full, 0, -1))
    f_kept = [f(v) for v in kept]

    bounds = []
    peeled = 0.0
    for t in range(1, n - 1):
        peeled += f_kept[m_full - t]
        m = m_full - t
        bounds.append((peeled + m * f(float(prefix[m - 1]) / m)) / m_full)
    bounds = tuple(bounds)

    lhs = f(zetas[0])
    holds = all(lhs <= b + HOLDS_TOLERANCE for b in bounds) and all(
        bounds[t + 1] >= bounds[t] - HOLDS_TOLERANCE for t in range(len(bounds) - 1)
    )
    cert = compare(f"partial_mean_chain[i={i}]", lhs, bounds[-1], holds=holds)
    return PartialMeanChain(excluded_index=i, zetas=zetas, bounds=bounds), cert
