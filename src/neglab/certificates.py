"""Inequality certificates.

Every check in this package reports its result as a :class:`Certificate`
rather than a bare boolean, so callers can see both sides of the inequality,
the numeric slack, and whether the bound was met with equality.  Nested
claims (chains, grouped property checks) attach their parts as ``detail``
sub-certificates.  A batch kernel certifies one claim for m inputs at
once as a column: a certificate whose sides, slack and flags are length-m
arrays.  One rule, :func:`_decide`, decides every certificate, reached
through :func:`compare` for one claim or :func:`_compare_columns` for
columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HOLDS_TOLERANCE",
    "EQUALITY_TOLERANCE",
    "Certificate",
    "compare",
]

#: slack below which a "lhs <= rhs" claim is considered violated
HOLDS_TOLERANCE = 1e-12

#: absolute slack below which the two sides are reported as equal
EQUALITY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Certificate:
    """Outcome of a single numeric claim, normally ``lhs <= rhs``.

    Attributes
    ----------
    name : str
        What was checked, e.g. ``"pointwise_bound[i=2]"``.
    lhs, rhs : float
        The two sides as evaluated.  Either may be ``inf``.
    slack : float
        ``rhs - lhs``.  ``nan`` when both sides are infinite.
    holds : bool
        True when the claim is satisfied within ``HOLDS_TOLERANCE``.
    equality : bool
        True when the two sides agree within ``EQUALITY_TOLERANCE``.
        Implies ``holds``; never set on an infinite comparison.
    infinite : bool
        True when either side diverged (an outcome of probability zero
        under a logarithm, for instance).  The claim is then decided by
        direct comparison instead of slack arithmetic.
    detail : tuple of Certificate
        Sub-certificates for composite checks, empty otherwise.

    A column certificate holds the same claim for m inputs: ``lhs`` to
    ``infinite`` are length-m arrays, entry r belonging to input r, and
    its ``detail`` are columns of the same m inputs.  :meth:`row` gives
    the certificate of one input.
    """

    name: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    equality: bool
    infinite: bool = False
    detail: tuple["Certificate", ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # columns get the same rule on whole arrays from _compare_columns
        if not isinstance(self.holds, np.ndarray) and self.equality and not self.holds:
            raise ValueError(f"certificate {self.name!r}: equality without holds")

    def as_dict(self) -> dict:
        """Plain-data form of a one-input certificate, suitable for JSON output."""
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs, "slack": self.slack,
                "holds": self.holds, "equality": self.equality, "infinite": self.infinite,
                "detail": [d.as_dict() for d in self.detail]}

    def failures(self) -> list[str]:
        """Of a one-input certificate: the paths of it and its sub-certificates that fail."""
        return [path for _, path, c in _flat([self]) if not c.holds]

    def row(self, r: int) -> "Certificate":
        """Of a column certificate: input ``r``'s certificate, read off the decided columns."""
        return Certificate(
            self.name, self.lhs[r].item(), self.rhs[r].item(), self.slack[r].item(),
            self.holds[r].item(), self.equality[r].item(), self.infinite[r].item(),
            tuple(d.row(r) for d in self.detail),
        )


def _decide(lhs, rhs, holds, equality):
    """The rule of every certificate: ``(slack, holds, equality, infinite)`` of ``lhs <= rhs``.

    Evaluated alike on floats and on arrays of them: the flags come back
    as bools or as bool arrays.  ``holds`` and ``equality`` are ``None`` to
    read them off the slack, or bool overrides.  Both sides at the same
    infinity hold although their slack is nan.
    """
    infinite = (abs(lhs) == math.inf) | (abs(rhs) == math.inf)
    slack = rhs - lhs  # inf - inf is nan, finite - inf is -inf
    if holds is None:
        holds = (slack >= -HOLDS_TOLERANCE) | (lhs == rhs)
    if equality is None:
        equality = abs(slack) <= EQUALITY_TOLERANCE
    equality = equality & (infinite ^ True)  # not ~infinite: ~True is -2
    return slack, holds | equality, equality, infinite


def compare(
    name: str,
    lhs: float,
    rhs: float,
    *,
    holds: bool | None = None,
    equality: bool | None = None,
    detail: tuple[Certificate, ...] = (),
) -> Certificate:
    """Certify the claim ``lhs <= rhs``.

    By default ``holds`` and ``equality`` are read off the slack
    (``HOLDS_TOLERANCE`` and ``EQUALITY_TOLERANCE``), or off a direct
    comparison when a side is infinite.  Either may be supplied explicitly
    for checks whose condition is structural (all support points
    identical, a chain of sub-claims, say) rather than a single slack.
    Two rules hold whatever the overrides say: equality implies holds, and
    an infinite side never reports equality.  The rule is :func:`_decide`,
    which :func:`_compare_columns` applies to whole columns.
    """
    lhs, rhs = float(lhs), float(rhs)
    holds, equality = (None if x is None else bool(x) for x in (holds, equality))
    return Certificate(name, lhs, rhs, *_decide(lhs, rhs, holds, equality), tuple(detail))


def _compare_columns(
    names,
    lhs,
    rhs,
    *,
    holds=None,
    equality=None,
    detail: tuple[Certificate, ...] = (),
) -> list[Certificate]:
    """:func:`compare` on whole columns, by the same rule.

    ``lhs`` and ``rhs`` broadcast to m×K, column k holding the sides of
    claim ``names[k]`` for the m inputs; ``holds`` and ``equality``, when
    given, are m×K overrides as in :func:`compare`.  Returns one column
    certificate per name, each with the sub-columns ``detail``.
    """
    names = tuple(names)
    lhs, rhs = np.broadcast_arrays(np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float))
    if lhs.ndim != 2 or lhs.shape[1] != len(names):
        raise ValueError(f"{len(names)} names for sides of shape {lhs.shape}")
    holds, equality = (None if x is None else np.asarray(x, dtype=bool) for x in (holds, equality))
    with np.errstate(invalid="ignore"):  # inf - inf is nan, as in compare
        decided = _decide(lhs, rhs, holds, equality)
    detail = tuple(detail)
    return [
        Certificate(name, *fields, detail)
        for name, *fields in zip(names, lhs.T, rhs.T, *(a.T for a in decided))
    ]


def _flat(columns: list[Certificate], depth: int = 0, prefix: str = "") -> list[tuple]:
    """``(depth, path, certificate)`` of ``columns`` and, at any depth, their
    detail, depth-first; a path joins the names from the top with ``/``."""
    out = []
    for c in columns:
        out.append((depth, prefix + c.name, c))
        out += _flat(c.detail, depth + 1, f"{prefix}{c.name}/")
    return out


def _gathered(columns: list[Certificate], field: str) -> np.ndarray:
    """Field ``field`` of K columns of the same m inputs, as an m×K array.

    One-input certificates count as columns of m = 1.
    """
    return np.array([getattr(c, field) for c in columns]).reshape(len(columns), -1).T

