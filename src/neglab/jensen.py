"""Jensen-type certificates for negation mixtures.

The negation map feeds a family of convexity bounds: averaging a convex f
over a distribution together with its negation, with weights 1/n^2 and
(n - 1)/n^2 per entry, can never fall below f evaluated at the uniform
point 1/n.  This module certifies that bound, its pointwise version, its
restatement on the negation pair, the concave mirror image, and a peeled
partial-mean refinement that tightens the same quantity step by step.

Functions enter as :class:`FunctionSpec` records carrying a declared
curvature tag.  The tag is not taken on faith: registration spot-checks
the chord inequality at every triple of a fixed grid and refuses specs
whose numerics contradict their declaration.  Kernels evaluate a spec on
whole arrays through :meth:`FunctionSpec.values`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterator, Sequence

import numpy as np

from .certificates import (
    Certificate,
    EQUALITY_TOLERANCE,
    HOLDS_TOLERANCE,
    _compare_columns,
    compare,
)
from .distribution import DimensionError, DomainError, ProbDist, _screen, _stacked
from .entropy import _cross_entropies, _entropies, _entropy_chains
from .negation import _double_negation, _negation, negate

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
    "partial_mean_chains",
    "pointwise_bounds",
    "certificate_suite",
    "certificate_suites",
]

_SPOT_CHECK_POINTS = 32
_SPOT_CHECK_TOL = 1e-12
#: every index triple i < j < k of the spot-check grid, as three arrays
_SPOT_CHECK_TRIPLES = np.nonzero(
    np.fromfunction(lambda i, j, k: (i < j) & (j < k), (_SPOT_CHECK_POINTS,) * 3))

#: doubles per temporary array of the chain kernel; bounds its peak memory
_CHAIN_BLOCK_ELEMENTS = 1 << 15


class CurvatureError(ValueError):
    """A function's numerics contradict its declared curvature tag."""


class ChainUndefinedError(ValueError):
    """The partial-mean chain needs at least three outcomes."""


@dataclass(frozen=True)
class FunctionSpec:
    """A function on [0, 1] tagged with its curvature.

    Parameters
    ----------
    name : str
        Registry key, also used in certificate names.
    curvature : str
        ``"convex"`` or ``"concave"``.
    fn : callable
        The function itself.  It may return ``inf`` at 0 (limit
        semantics); set ``zero_ok=False`` so the spot-check stays off
        that endpoint.  A ``fn`` that maps a whole array entry by entry
        (a numpy expression) is called once per array by :meth:`values`;
        one that takes only scalars (``math.sqrt``, say) is called once
        per entry.  Construction tells the two apart by a probe.
    domain_note : str
        Short human-readable caveat about endpoints, if any.
    zero_ok : bool
        Whether evaluating at exactly 0 yields a finite value.

    Construction runs the curvature spot-check: on 32 evenly spaced points
    from 0 (1e-6 without ``zero_ok``) to 1, every triple x < y < z must
    satisfy the chord inequality within 1e-12, otherwise
    :class:`CurvatureError` aborts the registration.
    """

    name: str
    curvature: str
    fn: Callable[[float], float]
    domain_note: str = ""
    zero_ok: bool = True
    _maps_arrays: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.curvature not in ("convex", "concave"):
            raise ValueError(f"curvature must be 'convex' or 'concave', got {self.curvature!r}")
        object.__setattr__(self, "_maps_arrays", self._probe_arrays())
        self._spot_check()

    def __call__(self, x: float) -> float:
        return float(self.fn(x))

    def values(self, x: np.ndarray) -> np.ndarray:
        """``fn`` applied entry by entry to an array of points in [0, 1]."""
        x = np.asarray(x, dtype=float)
        if self._maps_arrays:
            return np.asarray(self.fn(x), dtype=float)
        return np.fromiter(map(self, x.flat), dtype=float, count=x.size).reshape(x.shape)

    def _probe_arrays(self) -> bool:
        """Whether ``fn`` takes an array and agrees with its scalar calls on it."""
        probe = np.linspace(0.0 if self.zero_ok else 1e-6, 1.0, 5)
        try:
            out = np.asarray(self.fn(probe), dtype=float)
        except (TypeError, ValueError):  # scalar-only: math.* or an ``if`` on x
            return False
        return out.shape == probe.shape and np.array_equal(out, [self(v) for v in probe])

    def _spot_check(self) -> None:
        grid = np.linspace(0.0 if self.zero_ok else 1e-6, 1.0, _SPOT_CHECK_POINTS)
        f = self.values(grid)
        x, y, z = (grid[t] for t in _SPOT_CHECK_TRIPLES)
        fx, fy, fz = (f[t] for t in _SPOT_CHECK_TRIPLES)
        chord = ((z - y) * fx + (y - x) * fz) / (z - x)
        bad = (fy - chord if self.curvature == "convex" else chord - fy) > _SPOT_CHECK_TOL
        if bad.any():
            k = int(np.argmax(bad))
            raise CurvatureError(
                f"{self.name!r} declared {self.curvature} but violates the chord "
                f"inequality at ({x[k]}, {y[k]}, {z[k]})"
            )


# Each built-in is one numpy expression, evaluated alike on a float and on
# an array; the limits at 0 are taken with the warnings they raise silenced.

def _neg_log(x):
    with np.errstate(divide="ignore"):
        return -np.log2(x) + 0.0


def _x_log_x(x):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0.0, 0.0, -x * np.log2(x)) + 0.0


def _square(x):
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
    flips it.  Weights and points must lie in [0, 1] and the weights sum to
    1, all within 1e-12; NaN and infinite ones raise :class:`DomainError`.
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
    # dust is clamped first, so the screen checks the mass of the weights used
    w = np.where((w < 0.0) & (w >= -HOLDS_TOLERANCE), 0.0, w)
    ok, _, outside = _screen(np.stack([w, x]), HOLDS_TOLERANCE)
    if not ok[0]:
        raise DomainError(f"weights must lie in [0, 1] and sum to 1, got sum {float(w.sum())!r}")
    if outside[1].any():
        raise DomainError("points must lie in [0, 1]")
    x = np.clip(x, 0.0, 1.0)

    mean = float(np.dot(w, x))
    m = w > 0
    active = x[m]
    f_side = math.fsum((w[m] * f.values(active)).tolist())
    equality = bool(active.size == 0 or np.max(active) - np.min(active) <= EQUALITY_TOLERANCE)

    if f.curvature == "convex":
        lhs, rhs = f(mean), f_side
    else:
        lhs, rhs = f_side, f(mean)
    return compare(f"jensen[{f.name}]", lhs, rhs, equality=equality)


def _pair(p: ProbDist) -> np.ndarray:
    """p (row 0) and its negation (row 1)."""
    return np.stack([p.probs, _negation(p.probs)])


def _fsums(values: np.ndarray) -> np.ndarray:
    """``math.fsum`` along the last axis."""
    flat = values.reshape(-1, values.shape[-1]).tolist()
    return np.array([math.fsum(row) for row in flat]).reshape(values.shape[:-1])


def _mixture_value(sum_p, sum_q, n: int):
    """(1/n^2) sum f(p_i) + ((n - 1)/n^2) sum f(negate(p)_i), from the two sums."""
    return (sum_p + (n - 1) * sum_q) / n**2


def mixture_bound(f: FunctionSpec, p: ProbDist, *, name: str = "mixture_bound") -> Certificate:
    """Certify f(1/n) <= mean of f over p and its negation, f convex.

    The right side weights each f(p_i) by 1/n^2 and each f of the negated
    entry by (n - 1)/n^2; those 2n weights sum to 1, so this is Jensen at
    a mixture whose barycenter is exactly 1/n.  Equality holds exactly at
    the uniform distribution.
    """
    _require(f, "convex")
    return compare(name, f(1.0 / p.n), _mixture_value(*_fsums(f.values(_pair(p))), p.n))


def double_negation_mixture_bound(f: FunctionSpec, p: ProbDist) -> Certificate:
    """The same bound one negation deeper: mixture of negate(p) and its negation."""
    _require(f, "convex")
    return mixture_bound(f, negate(p), name="double_negation_mixture_bound")


def _pointwise(f_centre: float, f_p: np.ndarray, f_q: np.ndarray, n: int, first: int = 0):
    """Pointwise certificates for the columns of f at p and at its negation
    (m×k each), numbered from ``first``."""
    names = [f"pointwise_bound[i={i}]" for i in range(first, first + f_p.shape[1])]
    return _compare_columns(names, f_centre, (f_p + (n - 1) * f_q) / n)


def pointwise_bound(f: FunctionSpec, p: ProbDist, i: int) -> Certificate:
    """Certify f(1/n) <= f(p_i)/n + (n - 1) f(negate(p)_i)/n for one index.

    Averaging these n pointwise bounds with weight 1/n each recovers
    :func:`mixture_bound`.
    """
    _require(f, "convex")
    n = p.n
    if not 0 <= i < n:
        raise IndexError(f"index {i} out of range for {n} outcomes")
    f_p, f_q = f.values(_pair(p))[:, None, i:i + 1]
    return _pointwise(f(1.0 / n), f_p, f_q, n, first=i)[0].row(0)


def pointwise_bounds(f: FunctionSpec, p: ProbDist) -> list[Certificate]:
    """:func:`pointwise_bound` at every index, in order, as one array expression."""
    _require(f, "convex")
    f_p, f_q = f.values(_pair(p))[:, None]
    return [c.row(0) for c in _pointwise(f(1.0 / p.n), f_p, f_q, p.n)]


def _concave_mixtures(
    f: FunctionSpec, sum_p: np.ndarray, sum_q: np.ndarray, n: int, entropies
) -> Certificate:
    """:func:`concave_mixture_bound` of m inputs, as a column, from the sums
    of f over their rows p and negate(p) and, for ``x_log_x``, the entropies
    of those rows."""
    detail = []
    if f.name == "x_log_x":
        h_p, h_q = entropies
        h_mix = (h_p + (n - 1) * h_q) / n
        detail = _compare_columns(["entropy_mixture_bound"], h_mix[:, None], math.log2(n))
    lhs = _mixture_value(sum_p, sum_q, n)[:, None]
    (column,) = _compare_columns(["concave_mixture_bound"], lhs, f(1.0 / n), detail=detail)
    return column


def concave_mixture_bound(f: FunctionSpec, p: ProbDist) -> Certificate:
    """The concave mirror image: mean of f over p and its negation <= f(1/n).

    For the built-in ``x_log_x`` this rearranges into an entropy mixture
    bound, H(p)/n + (n - 1) H(negate(p))/n <= log2(n), attached as a
    sub-certificate.
    """
    _require(f, "concave")
    rows = _pair(p)
    sum_p, sum_q = _fsums(f.values(rows))[:, None]
    return _concave_mixtures(f, sum_p, sum_q, p.n, _entropies(rows)[:, None]).row(0)


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


def _chains(
    f: FunctionSpec, probs: np.ndarray, f_probs: np.ndarray, pairs: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The one chain kernel: blocks of ``(zetas, bounds, lhs, holds)``.

    ``probs`` is an m×n block of distributions and ``f_probs`` is
    ``f.values(probs)``; ``pairs`` lists (row, excluded index) pairs as
    flat indices ``row * n + i``.  Block rows follow ``pairs``; ``lhs`` is
    f(zetas[:, 0]) and ``holds`` whether it lies below every bound and the
    bounds never decrease.

    A block holds at most ``_CHAIN_BLOCK_ELEMENTS`` kept entries (or one
    pair, if n - 1 is more), so peak memory does not grow with m n^2.  The
    pair (r, i) keeps ``p_r[j + (j >= i)]`` for j < n - 1.  Both running
    sums are ``np.cumsum`` along the row, which adds in the same order as
    a scalar loop; differences of prefix sums would turn an infinite f(0)
    into inf - inf.
    """
    n = probs.shape[1]
    j = np.arange(n - 1)
    m_zeta = np.arange(n - 1, 0, -1)  # entries averaged by zetas[t]
    m_bound = m_zeta[1:]  # entries still averaged in bounds[t - 1]
    step = max(1, _CHAIN_BLOCK_ELEMENTS // (n - 1))
    for start in range(0, pairs.size, step):
        rows, excluded = np.divmod(pairs[start:start + step, None], n)
        src = j + (j >= excluded)
        zetas = np.cumsum(probs[rows, src], axis=1)[:, ::-1] / m_zeta
        f_zetas = f.values(zetas)
        peeled = np.cumsum(f_probs[rows, src][:, :0:-1], axis=1)
        bounds = (peeled + m_bound * f_zetas[:, 1:]) / (n - 1)
        lhs = f_zetas[:, 0]
        holds = np.all(lhs[:, None] <= bounds + HOLDS_TOLERANCE, axis=1) & np.all(
            bounds[:, 1:] >= bounds[:, :-1] - HOLDS_TOLERANCE, axis=1
        )
        yield zetas, bounds, lhs, holds


def _chain_columns(f: FunctionSpec, probs: np.ndarray, f_probs: np.ndarray) -> list[Certificate]:
    """The partial-mean chain certificates of every row of ``probs``, one column per index."""
    m, n = probs.shape
    lhs, rhs, holds = np.empty(m * n), np.empty(m * n), np.empty(m * n, dtype=bool)
    at = 0
    for _, bounds, lhs_b, holds_b in _chains(f, probs, f_probs, np.arange(m * n)):
        to = at + holds_b.size
        # copies: a view would keep the whole block alive
        lhs[at:to], rhs[at:to], holds[at:to] = lhs_b, bounds[:, -1], holds_b
        at = to
    names = [f"partial_mean_chain[i={i}]" for i in range(n)]
    return _compare_columns(names, lhs.reshape(m, n), rhs.reshape(m, n), holds=holds.reshape(m, n))


def _require_chain(f: FunctionSpec, p: ProbDist) -> None:
    _require(f, "convex")
    if p.n < 3:
        raise ChainUndefinedError(f"chain needs n >= 3, got n = {p.n}")


def partial_mean_chain(
    f: FunctionSpec, p: ProbDist, i: int
) -> tuple[PartialMeanChain, Certificate]:
    """Build the peeled-mean refinement of the convex bound at index ``i``.

    Returns the chain data together with a certificate that
    f(mean of kept entries) <= every bound and that the bounds are
    non-decreasing.  Needs n >= 3: with only one entry kept there is
    nothing to peel, so n = 2 raises :class:`ChainUndefinedError`.
    """
    _require_chain(f, p)
    if not 0 <= i < p.n:
        raise IndexError(f"index {i} out of range for {p.n} outcomes")
    probs = p.probs[None]
    ((zetas, bounds, lhs, holds),) = _chains(f, probs, f.values(probs), np.array([i]))
    chain = PartialMeanChain(
        excluded_index=i, zetas=tuple(zetas[0].tolist()), bounds=tuple(bounds[0].tolist())
    )
    return chain, compare(f"partial_mean_chain[i={i}]", lhs[0], bounds[0, -1], holds=holds[0])


def partial_mean_chains(f: FunctionSpec, p: ProbDist) -> list[Certificate]:
    """The certificates of :func:`partial_mean_chain` at every index, in order.

    Same values as n separate calls, without building the chain data.
    """
    _require_chain(f, p)
    probs = p.probs[None]
    return [c.row(0) for c in _chain_columns(f, probs, f.values(probs))]


def certificate_suite(f: FunctionSpec, p: ProbDist) -> list[Certificate]:
    """Every certificate of the CLI's ``verify`` for ``f`` at ``p``, in one pass.

    A convex ``f`` drives the convex bounds and ``x_log_x`` the concave
    one; a concave ``f`` drives the concave bound and ``neg_log`` the
    convex ones.  In order: the mixture bound, the n pointwise bounds, the
    self-information bound, the double-negation mixture bound, the
    concave mixture bound, the n partial-mean chains (n >= 3 only), the
    cross entropy against uniform and the entropy chain.  The same
    certificates as the separate functions, from one evaluation of each
    function on the rows p, negate(p), negate(negate(p)) and one entropy
    each of p, negate(p) and negate_twice(p) (the closed form that
    :func:`~neglab.entropy.entropy_chain_check` uses).  This is the
    one-row call of :func:`certificate_suites`' kernel.
    """
    return [c.row(0) for c in _suite(f, p.probs[None])]


def certificate_suites(f: FunctionSpec, dists: Sequence[ProbDist]) -> list[Certificate]:
    """:func:`certificate_suite` of m distributions of one length n, as columns.

    Returns the same certificates in the same order, each a column
    certificate whose entry r belongs to ``dists[r]``: ``c.row(r)`` is
    the certificate of that input.  The distributions are used as they
    are, without a second check.  The whole block is evaluated at once;
    only the sums of f (``math.fsum``) and the entropies of rows with
    zeros are taken row by row.
    """
    return _suite(f, _stacked(dists))


def _suite(f: FunctionSpec, probs: np.ndarray) -> list[Certificate]:
    """The kernel of :func:`certificate_suites`, on an m×n block of distributions."""
    convex = f if f.curvature == "convex" else NEG_LOG
    concave = f if f.curvature == "concave" else X_LOG_X
    m, n = probs.shape
    q = _negation(probs)
    qq = _negation(q)
    f_p, f_q, f_qq = f_rows = convex.values(np.stack([probs, q, qq]))
    sum_p, sum_q, sum_qq = _fsums(f_rows)
    f_centre = convex(1.0 / n)
    if convex is NEG_LOG:
        log_centre, log_sums = f_centre, (sum_p, sum_q)
    else:
        log_centre, log_sums = NEG_LOG(1.0 / n), _fsums(NEG_LOG.values(np.stack([probs, q])))
    entropies = [_entropies(rows) for rows in (probs, q, _double_negation(probs))]
    suite = [
        *_compare_columns(["mixture_bound"], f_centre, _mixture_value(sum_p, sum_q, n)[:, None]),
        *_pointwise(f_centre, f_p, f_q, n),
        *_compare_columns(
            ["self_information_bound"], log_centre, _mixture_value(*log_sums, n)[:, None]
        ),
        *_compare_columns(
            ["double_negation_mixture_bound"], f_centre, _mixture_value(sum_q, sum_qq, n)[:, None]
        ),
        _concave_mixtures(
            concave, *_fsums(concave.values(np.stack([probs, q]))), n, entropies[:2]
        ),
    ]
    if n >= 3:
        suite += _chain_columns(convex, probs, f_p)
    suite.append(_cross_entropies(probs, np.full((m, n), 1.0 / n), entropies[0]))
    suite.append(_entropy_chains(n, *entropies))
    return suite
