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
from operator import itemgetter

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
        """Plain-data form, suitable for JSON output."""
        return _as_dict(
            self.name, self.lhs, self.rhs, self.slack, self.holds, self.equality,
            self.infinite, [d.as_dict() for d in self.detail],
        )

    def failures(self) -> list[str]:
        """Names of this certificate and any sub-certificates that fail."""
        out = [] if self.holds else [self.name]
        for d in self.detail:
            out.extend(f"{self.name}/{sub}" for sub in d.failures())
        return out

    def row(self, r: int) -> "Certificate":
        """Of a column certificate: input ``r``'s certificate, read off the decided columns."""
        return Certificate(
            self.name, self.lhs[r].item(), self.rhs[r].item(), self.slack[r].item(),
            self.holds[r].item(), self.equality[r].item(), self.infinite[r].item(),
            tuple(d.row(r) for d in self.detail),
        )


def _as_dict(name, lhs, rhs, slack, holds, equality, infinite, detail) -> dict:
    """The plain-data form of one certificate, given its fields."""
    return {
        "name": name,
        "lhs": lhs,
        "rhs": rhs,
        "slack": slack,
        "holds": holds,
        "equality": equality,
        "infinite": infinite,
        "detail": detail,
    }


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


def _gathered(columns: list[Certificate], field: str) -> np.ndarray:
    """Field ``field`` of K columns of the same m inputs, as an m×K array."""
    return np.concatenate([getattr(c, field) for c in columns]).reshape(len(columns), -1).T


def _input_dicts(columns: list[Certificate]) -> list[list[dict]]:
    """Per input r, ``[c.row(r).as_dict() for c in columns]``.

    ``columns`` are column certificates of the same m inputs; each field
    is gathered across them once, so no per-input certificate is built.
    """
    fields = [
        _gathered(columns, name).tolist()
        for name in ("lhs", "rhs", "slack", "holds", "equality", "infinite")
    ]
    names = [c.name for c in columns]
    details = {k: _input_dicts(c.detail) for k, c in enumerate(columns) if c.detail}
    out = []
    for r, values in enumerate(zip(*fields)):
        subs = [[] for _ in names]
        for k, rows in details.items():
            subs[k] = rows[r]
        out.append(list(map(_as_dict, names, *values, subs)))
    return out


def _input_failures(columns: list[Certificate]) -> list[list[str]]:
    """Per input r, ``[name for c in columns for name in c.row(r).failures()]``."""
    holds = _gathered(columns, "holds")
    found = [(r, k, columns[k].name) for r, k in np.argwhere(~holds).tolist()]
    for k, c in enumerate(columns):
        if c.detail:
            found += [
                (r, k, f"{c.name}/{sub}")
                for r, subs in enumerate(_input_failures(c.detail)) for sub in subs
            ]
    out = [[] for _ in range(holds.shape[0])]
    # a stable sort keeps each failing column ahead of its failing detail
    for r, _, name in sorted(found, key=itemgetter(0, 1)):
        out[r].append(name)
    return out
