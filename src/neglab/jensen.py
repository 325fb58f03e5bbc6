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
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .certificates import Certificate, HOLDS_TOLERANCE, _compare_columns
from .distribution import DomainError, ProbDist, _check_int, _stacked
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
    "mixture_bound",
    "double_negation_mixture_bound",
    "pointwise_bound",
    "concave_mixture_bound",
    "self_information_bound",
    "PartialMeanChain",
    "partial_mean_chain",
    "certificate_suites",
]

_SPOT_CHECK_POINTS = 32
_SPOT_CHECK_TOL = 1e-12
#: every index triple i < j < k of the spot-check grid, as three arrays
_SPOT_CHECK_TRIPLES = np.nonzero(
    np.fromfunction(lambda i, j, k: (i < j) & (j < k), (_SPOT_CHECK_POINTS,) * 3))

#: cells per pass of the chain kernel (or one index's, if more): its peak memory is O(m n)
_PASS_CELLS = 1 << 16


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
        semantics), or raise there as ``math.log2`` does.  A ``fn`` that
        maps a whole array entry by entry (a numpy expression) is called
        once per array by :meth:`values`; one that takes only scalars
        (``math.sqrt``, say) is called once per entry.  Construction tells
        the two apart by a probe.

    Attributes
    ----------
    zero_ok : bool
        Whether evaluating at exactly 0 yields a finite value, found by
        construction from one call ``fn(0.0)`` with numpy's warnings
        silenced: False where it is not finite or raises
        :class:`ArithmeticError` or :class:`ValueError`.

    Construction runs the curvature spot-check: on 32 evenly spaced points
    from 0 (1e-6 without ``zero_ok``) to 1, every triple x < y < z must
    satisfy the chord inequality within 1e-12, otherwise
    :class:`CurvatureError` aborts the registration.
    """

    name: str
    curvature: str
    fn: Callable[[float], float]
    zero_ok: bool = field(init=False, compare=False)
    _maps_arrays: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.curvature not in ("convex", "concave"):
            raise ValueError(f"curvature must be 'convex' or 'concave', got {self.curvature!r}")
        object.__setattr__(self, "zero_ok", self._finite_at_zero())
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

    def _finite_at_zero(self) -> bool:
        """Whether ``fn(0.0)`` is a finite value."""
        try:
            with np.errstate(all="ignore"):
                return math.isfinite(self(0.0))
        except (ArithmeticError, ValueError):  # math.log2(0.0), 1 / 0.0
            return False

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
# an array; the limits at 0, neg_log(0) = inf and x_log_x(0) = 0, are taken
# with the warnings they raise silenced.

def _neg_log(x):
    with np.errstate(divide="ignore"):
        return -np.log2(x) + 0.0


def _x_log_x(x):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0.0, 0.0, -x * np.log2(x)) + 0.0


def _square(x):
    return x * x


NEG_LOG = FunctionSpec("neg_log", "convex", _neg_log)
X_LOG_X = FunctionSpec("x_log_x", "concave", _x_log_x)
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


def _mixtures(name: str, f_centre: float, sum_p, sum_q, n: int) -> Certificate:
    """The mixture bound ``name`` of m inputs, as a column, from f(1/n) and
    the sums of f over their rows p and negate(p)."""
    (column,) = _compare_columns([name], f_centre, _mixture_value(sum_p, sum_q, n)[:, None])
    return column


def _mixture_bound(name: str, f: FunctionSpec, p: ProbDist) -> Certificate:
    """The mixture bound of ``f`` at ``p``, as the certificate ``name``."""
    _require(f, "convex")
    sum_p, sum_q = _fsums(f.values(_pair(p)))[:, None]
    return _mixtures(name, f(1.0 / p.n), sum_p, sum_q, p.n).row(0)


def mixture_bound(f: FunctionSpec, p: ProbDist) -> Certificate:
    """Certify f(1/n) <= mean of f over p and its negation, f convex.

    The right side weights each f(p_i) by 1/n^2 and each f of the negated
    entry by (n - 1)/n^2; those 2n weights sum to 1, so this is Jensen at
    a mixture whose barycenter is exactly 1/n.  Equality holds exactly at
    the uniform distribution.  :func:`double_negation_mixture_bound` and
    :func:`self_information_bound` are the same bound under their own names.
    """
    return _mixture_bound("mixture_bound", f, p)


def double_negation_mixture_bound(f: FunctionSpec, p: ProbDist) -> Certificate:
    """The same bound one negation deeper: mixture of negate(p) and its negation."""
    return _mixture_bound("double_negation_mixture_bound", f, negate(p))


def _check_index(i, n: int) -> int:
    """``i`` as an ``int`` if it is an integer index in [0, n - 1], else :class:`IndexError`."""
    try:
        return _check_int("index", i, 0, n - 1)
    except DomainError as exc:
        raise IndexError(str(exc)) from None


def _pointwise(f_centre: float, f_p: np.ndarray, f_q: np.ndarray, n: int, first: int = 0):
    """Pointwise certificates for the columns of f at p and at its negation
    (m×k each), numbered from ``first``."""
    names = [f"pointwise_bound[i={i}]" for i in range(first, first + f_p.shape[1])]
    return _compare_columns(names, f_centre, (f_p + (n - 1) * f_q) / n)


def pointwise_bound(f: FunctionSpec, p: ProbDist, i: int) -> Certificate:
    """Certify f(1/n) <= f(p_i)/n + (n - 1) f(negate(p)_i)/n for one index.

    Averaging these n pointwise bounds with weight 1/n each recovers
    :func:`mixture_bound`.  The bounds of every index are the
    ``pointwise_bound[i=…]`` columns of :func:`certificate_suites`.
    """
    _require(f, "convex")
    n = p.n
    i = _check_index(i, n)
    f_p, f_q = f.values(_pair(p))[:, None, i:i + 1]
    return _pointwise(f(1.0 / n), f_p, f_q, n, first=i)[0].row(0)


def _concave_mixtures(
    f: FunctionSpec, sum_p: np.ndarray, sum_q: np.ndarray, n: int, entropies
) -> Certificate:
    """:func:`concave_mixture_bound` of m inputs, as a column, from the sums
    of f over their rows p and negate(p) and, for :data:`X_LOG_X` itself,
    the entropies of those rows."""
    detail = []
    if f is X_LOG_X:
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
    return _mixture_bound("self_information_bound", NEG_LOG, p)


class PartialMeanChain(NamedTuple):
    """Peeled partial means and the bound sequence they generate (an immutable NamedTuple).

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
        return {**self._asdict(), "zetas": list(self.zetas), "bounds": list(self.bounds)}


def _prefix_sums(x: np.ndarray) -> np.ndarray:
    """Hi and lo of the sums of each row's first j entries, j = 0..n: hi is
    ``np.cumsum``, lo the sum of its steps' errors by TwoSum (Ogita, Rump and
    Oishi, SIAM J. Sci. Comput. 26(6), 2005), so hi + lo is within about one
    rounding of exact.  An infinite step's error is 0, not inf - inf."""
    hi, lo = sums = np.zeros((2, x.shape[0], x.shape[1] + 1))
    np.cumsum(x, axis=1, out=hi[:, 1:])
    before, after = hi[:, :-1], hi[:, 1:]
    with np.errstate(invalid="ignore"):  # inf - inf, zeroed below
        added = after - before  # x as the step added it
        error = (before - (after - added)) + np.subtract(x, added, out=added)
    error[np.isinf(after)] = 0.0
    np.cumsum(error, axis=1, out=lo[:, 1:])
    return sums


def _chain_sums(probs: np.ndarray, f_probs: np.ndarray) -> tuple:
    """What every chain of the rows of ``probs`` is computed from: p, f(p)'s
    finite values and where it is infinite, and in column j of m×(n + 1)
    arrays p's prefix sums S_j (hi, lo, rounded) over the entries before j
    and the suffix sums G_j of f's finite values (hi, lo, rounded, inf where
    ``count``, of infinite values, is positive) over the entries from j on.
    """
    infinite = np.isinf(f_probs)
    f_p = np.where(infinite, 0.0, f_probs)
    sums = _prefix_sums(np.concatenate([probs, f_p[:, ::-1], infinite[:, ::-1]]))
    (s_hi, g_hi, count), (s_lo, g_lo, _) = sums.reshape(2, 3, len(probs), -1)
    g_hi, g_lo, count = g_hi[:, ::-1], g_lo[:, ::-1], count[:, ::-1]
    g = np.where(count > 0, np.inf, g_hi + g_lo)
    return probs, f_p, infinite, s_hi, s_lo, s_hi + s_lo, g_hi, g_lo, g, count


def _kept(f: FunctionSpec, sums: tuple, k: np.ndarray, i: np.ndarray):
    """``(zetas, f(zetas), bounds)`` of the chains without index ``i`` at ``k``
    kept entries averaged, for index arrays of one ndim that broadcast.

    For k < i the first k kept entries are p's own and sum to S_k; the rest
    sum f to G_k - f(p_i).  For k >= i they sum to S_{k+1} - p_i, exact
    (Sterbenz) from S's hi wherever p_i dominates, then clamped at 0; the
    rest sum f to G_{k+1}.  A bound is (that sum of f + k f(zeta))/(n - 1).
    """
    p, f_p, infinite, s_hi, s_lo, s, g_hi, g_lo, g, count = sums
    right, k1 = k >= i, k + 1
    kept = np.where(right, (s_hi[:, k1] - p[:, i]) + s_lo[:, k1], s[:, k])
    rest = (g_hi[:, k] - f_p[:, i]) + g_lo[:, k]
    rest = np.where(right, g[:, k1], np.where(count[:, k] > infinite[:, i], np.inf, rest))
    zetas = np.maximum(kept, 0.0) / k
    f_zetas = f.values(zetas)
    return zetas, f_zetas, (rest + k * f_zetas) / (p.shape[1] - 1)


def _chains(f: FunctionSpec, sums: tuple, excluded: np.ndarray):
    """The one chain kernel: m×e ``(lhs, rhs, holds)`` of the chains without
    each index i in ``excluded`` (ascending), by the rule of :func:`_kept`.

    ``lhs`` is f(zeta) at k = n - 1, ``rhs`` bound_1; ``holds``: ``lhs`` is
    below every bound_k (k = 1..n - 2) and bound_k below bound_{k-1}, within
    ``HOLDS_TOLERANCE``.  The chains go in passes over blocks of indices
    from i0 on, about ``_PASS_CELLS`` cells each, that evaluate k = i0 - 1..n - 2
    in place.  Below that every bound_k of the pass is a_k - f(p_i)/(n - 1),
    with a_k shared by every i > k (``a[1]`` if f(p_i) is infinite), so
    a's smallest value and steps decide them.
    """
    p, f_p, infinite, s_hi, s_lo, s, g_hi, g_lo, g, count = sums
    (m, n), tol, a = p.shape, HOLDS_TOLERANCE, None
    lowest, holds = np.full((m, excluded.size), np.inf), np.ones((m, excluded.size), dtype=bool)
    ks, start = np.arange(n - 1.0), 0
    while start < excluded.size:
        first = max(excluded[start] - 1, 1)
        part = slice(start, start + max(1, _PASS_CELLS // (m * (n - 1 - first))))
        i, k, start = excluded[part], ks[first:], part.stop
        if first > 1:  # bounds 1..first: a_k - f(p_i)/(n - 1)
            if a is None:
                a = (g_hi[:, 1:-2] + g_lo[:, 1:-2]) + ks[1:] * f.values(s[:, 1:-2] / ks[1:])
                a = np.where(count[:, 1:-2] > np.arange(2)[:, None, None], np.inf, a / (n - 1))
            least = a[..., :first].min(axis=-1)[..., None]
            rising = (a[..., :first - 1] >= a[..., 1:first] - tol).all(axis=-1)[..., None]
            t = infinite[:, i]
            lowest[:, part] = np.where(t, least[1], least[0]) - f_p[:, i] / (n - 1)
            holds[:, part] = np.where(t, rising[1], rising[0])
        bounds = s_hi[:, None, first + 1:n] - p[:, i, None]
        bounds += s_lo[:, None, first + 1:n]
        left = k[:max(i[-1] - first, 0)] < i[:, None]  # the cells at k < i, all at the start
        w = left.shape[1]
        np.copyto(bounds[..., :w], s[:, None, first:first + w], where=left)
        np.maximum(bounds, 0.0, out=bounds)
        bounds /= k
        bounds = f.values(bounds)
        bounds *= k
        rest = (g_hi[:, None, first:first + w] - f_p[:, i, None]) + g_lo[:, None, first:first + w]
        rest[count[:, None, first:first + w] > infinite[:, i, None]] = np.inf
        rest += bounds[..., :w]
        bounds += g[:, None, first + 1:n]
        np.copyto(bounds[..., :w], rest, where=left)
        bounds /= n - 1
        np.minimum(lowest[:, part], bounds.min(axis=-1), out=lowest[:, part])
        holds[:, part] &= (bounds[..., :-1] >= bounds[..., 1:] - tol).all(axis=-1)
    _, f_zetas, bounds = _kept(f, sums, np.array([[n - 1], [1]]), excluded[None])
    lhs = f_zetas[:, 0]
    return lhs, bounds[:, 1], holds & (lhs <= lowest + tol)


def _chain_columns(f: FunctionSpec, sums: tuple, excluded: np.ndarray) -> list[Certificate]:
    """The ``partial_mean_chain[i=…]`` columns of each index i in ``excluded``,
    decided from :func:`_chains`' sides and ``holds``."""
    lhs, rhs, holds = _chains(f, sums, excluded)
    names = [f"partial_mean_chain[i={i}]" for i in excluded.tolist()]
    return _compare_columns(names, lhs, rhs, holds=holds)


def partial_mean_chain(
    f: FunctionSpec, p: ProbDist, i: int
) -> tuple[PartialMeanChain, Certificate]:
    """Build the peeled-mean refinement of the convex bound at index ``i``.

    Returns the chain data together with a certificate that
    f(mean of kept entries) <= every bound and that the bounds are
    non-decreasing.  Needs n >= 3: with only one entry kept there is
    nothing to peel, so n = 2 raises :class:`ChainUndefinedError`.  The
    certificates of every index, without the chain data, are the
    ``partial_mean_chain[i=…]`` columns of :func:`certificate_suites`.
    """
    _require(f, "convex")
    if p.n < 3:
        raise ChainUndefinedError(f"chain needs n >= 3, got n = {p.n}")
    i = _check_index(i, p.n)
    probs = p.probs[None]
    sums = _chain_sums(probs, f.values(probs))
    zetas, _, bounds = _kept(f, sums, np.arange(p.n - 1, 0, -1), np.array([i]))
    chain = PartialMeanChain(
        excluded_index=i, zetas=tuple(zetas[0].tolist()), bounds=tuple(bounds[0, 1:].tolist())
    )
    return chain, _chain_columns(f, sums, np.array([i]))[0].row(0)


def certificate_suites(f: FunctionSpec, dists: Sequence[ProbDist]) -> list[Certificate]:
    """Every certificate of the CLI's ``verify`` for ``f`` at m distributions
    of one length n, in one pass, as columns.

    A convex ``f`` drives the convex bounds and ``x_log_x`` the concave
    one; a concave ``f`` drives the concave bound and ``neg_log`` the
    convex ones.  In order: the mixture bound, the n pointwise bounds, the
    self-information bound, the double-negation mixture bound, the
    concave mixture bound, the n partial-mean chains (n >= 3 only), the
    cross entropy against uniform and the entropy chain.  Each is a column
    certificate whose entry r belongs to ``dists[r]``: ``c.row(r)`` is the
    certificate of that input, and equals its certificate in
    ``certificate_suites(f, [dists[r]])`` bit for bit.  The values are
    those of the separate functions (:func:`mixture_bound`,
    :func:`pointwise_bound`, :func:`partial_mean_chain`, ...), from one
    evaluation of each function on the rows p, negate(p), negate(negate(p))
    and one entropy each of p, negate(p) and negate_twice(p) (the closed
    form that :func:`~neglab.entropy.entropy_chain_check` uses).

    The distributions are used as they are, without a second check.  The
    whole block is evaluated at once; only the sums of f (``math.fsum``)
    and the entropies of rows with zeros are taken row by row.
    """
    probs = _stacked(dists)
    convex = f if f.curvature == "convex" else NEG_LOG
    concave = f if f.curvature == "concave" else X_LOG_X
    m, n = probs.shape
    q = _negation(probs)
    qq = _negation(q)
    f_p, f_q, f_qq = f_rows = convex.values(np.stack([probs, q, qq]))
    sum_p, sum_q, sum_qq = _fsums(f_rows)
    f_centre = convex(1.0 / n)
    log_sums = _fsums(NEG_LOG.values(np.stack([probs, q])))
    entropies = [_entropies(rows) for rows in (probs, q, _double_negation(probs))]
    suite = [
        _mixtures("mixture_bound", f_centre, sum_p, sum_q, n),
        *_pointwise(f_centre, f_p, f_q, n),
        _mixtures("self_information_bound", NEG_LOG(1.0 / n), *log_sums, n),
        _mixtures("double_negation_mixture_bound", f_centre, sum_q, sum_qq, n),
        _concave_mixtures(
            concave, *_fsums(concave.values(np.stack([probs, q]))), n, entropies[:2]
        ),
    ]
    if n >= 3:
        suite += _chain_columns(convex, _chain_sums(probs, f_p), np.arange(n))
    suite.append(_cross_entropies(probs, np.full((m, n), 1.0 / n), entropies[0]))
    suite.append(_entropy_chains(n, *entropies))
    return suite
