"""Shannon entropy in bits and entropy-ordering certificates.

All logarithms are base 2 and the summand for a zero probability is taken
as its limit, 0 * log(0) = 0.  Negating a distribution never decreases its
entropy (for n >= 3 it strictly increases unless already uniform), which
yields the chain H(p) <= H(negate(p)) <= H(negate(negate(p))) <= log2(n)
certified below.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .certificates import Certificate, _compare_columns, compare
from .distribution import DimensionError, ProbDist, _check_int, pad_with_zeros, is_uniform
from .negation import _double_negation, _negation, negate

__all__ = [
    "shannon_entropy",
    "EntropyReport",
    "entropy_report",
    "cross_entropy_check",
    "entropy_chain_check",
    "zero_padding_entropy_check",
]


def shannon_entropy(p: ProbDist) -> float:
    """Entropy in bits, zero-probability outcomes contributing nothing.

    The one-row call of the block kernel :func:`_entropies`.
    """
    return _entropies(p.probs[None])[0].item()


def _support_sums(terms: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Per row of an m×n block, the sum of ``terms`` over the mask ``support``.

    A row of full support is summed along the row, which adds as ``np.sum``
    on the row does; any other row is compacted first, because a term left
    in place would change the order of numpy's pairwise sum.
    """
    sums = terms.sum(axis=1)
    for r in np.flatnonzero(~support.all(axis=1)).tolist():
        sums[r] = np.sum(terms[r][support[r]])
    return sums


def _entropies(rows: np.ndarray) -> np.ndarray:
    """The entropy in bits of each row of an m×n block."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return -_support_sums(rows * np.log2(rows), rows > 0) + 0.0


class EntropyReport(NamedTuple):
    """Entropy of a distribution next to the ceiling for its size (an immutable NamedTuple)."""

    n: int
    entropy_bits: float
    max_entropy_bits: float
    gap_bits: float

    def as_dict(self) -> dict:
        return self._asdict()


def entropy_report(p: ProbDist) -> EntropyReport:
    """Entropy, the log2(n) ceiling, and the gap between them.

    Row 0 of the block kernel :func:`_entropy_reports`.
    """
    return EntropyReport(p.n, *_entropy_reports(p.probs[None])[0].tolist())


def _entropy_reports(rows: np.ndarray) -> np.ndarray:
    """:func:`entropy_report`'s H, log2(n) and gap for each row of an m×n
    block, as an m×3 block."""
    h = _entropies(rows)
    ceiling = math.log2(rows.shape[1])
    return np.stack([h, np.full_like(h, ceiling), ceiling - h], axis=1)


def cross_entropy_check(p: ProbDist, q: ProbDist) -> Certificate:
    """Certify H(p) <= H(p, q), the cross entropy of p relative to q.

    When q assigns zero probability to an outcome p can produce, the cross
    entropy diverges; the certificate then carries ``infinite=True`` and
    the bound holds trivially.  Equality is flagged when p and q agree
    element-wise within 1e-12.
    """
    if p.n != q.n:
        raise DimensionError(f"size mismatch: {p.n} vs {q.n}")
    return _cross_entropies(p.probs[None], q.probs[None], _entropies(p.probs[None])).row(0)


def _cross_entropies(p: np.ndarray, q: np.ndarray, h_p: np.ndarray) -> Certificate:
    """:func:`cross_entropy_check` on each row pair of two m×n blocks, given H of p's rows.

    The sum runs over p's support, as in :func:`_entropies`; a zero of q
    there gives a term of -inf, and so an infinite cross entropy.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        rhs = -_support_sums(p * np.log2(q), p > 0)
    same = np.max(np.abs(p - q), axis=1) <= 1e-12
    (column,) = _compare_columns(
        ["cross_entropy"], h_p[:, None], rhs[:, None], equality=same[:, None]
    )
    return column


def entropy_chain_check(p: ProbDist) -> Certificate:
    """Certify H(p) <= H(negate(p)) <= H(negate(negate(p))) <= log2(n).

    The three links are attached as sub-certificates; the top-level sides
    are the ends of the chain.  Every link collapses to equality exactly
    when p is uniform.
    """
    rows = np.stack([p.probs, _negation(p.probs), _double_negation(p.probs)])
    return _entropy_chains(p.n, *_entropies(rows)[:, None]).row(0)


def _entropy_chains(n: int, h0: np.ndarray, h1: np.ndarray, h2: np.ndarray) -> Certificate:
    """:func:`entropy_chain_check` of m inputs from the entropies of their rows
    p, negate(p) and negate_twice(p)."""
    h_max = np.full_like(h2, math.log2(n))
    links = _compare_columns(
        ["entropy_le_negation_entropy",
         "negation_entropy_le_double_negation_entropy",
         "double_negation_entropy_le_log_n"],
        np.stack([h0, h1, h2], axis=1),
        np.stack([h1, h2, h_max], axis=1),
    )
    (chain,) = _compare_columns(
        ["entropy_chain"], h0[:, None], h_max[:, None],
        holds=np.all([c.holds for c in links], axis=0)[:, None],
        equality=np.all([c.equality for c in links], axis=0)[:, None],
        detail=links,
    )
    return chain


def zero_padding_entropy_check(p: ProbDist, k: int) -> Certificate:
    """Compare entropy before and after appending ``k`` zero outcomes, an integer ``k >= 1``.

    Padding leaves the entropy itself untouched (sub-certificate one, an
    equality claim decided exactly: the padded zeros are dropped before the
    sum, so both entropies add the same terms in the same order and come out
    the same double), but feeds the negation extra room: the
    negation of the padded distribution has strictly larger entropy
    whenever p is not uniform (sub-certificate two).  For uniform p the
    second comparison is recorded without being asserted.
    """
    k = _check_int("k", k, 1)
    padded = pad_with_zeros(p, k)
    h = shannon_entropy(p)
    h_padded = shannon_entropy(padded)
    same = h_padded == h
    preserved = compare("padding_preserves_entropy", h, h_padded, holds=same, equality=same)
    g = shannon_entropy(negate(p))
    g_padded = shannon_entropy(negate(padded))
    strict = not is_uniform(p)
    raised = compare(
        "padding_raises_negation_entropy", g, g_padded,
        holds=g_padded > g or not strict,
        equality=False if strict else None,
    )
    holds = preserved.holds and raised.holds
    return compare(
        "zero_padding_entropy", h, h_padded,
        holds=holds,
        equality=preserved.equality and holds,
        detail=(preserved, raised),
    )
