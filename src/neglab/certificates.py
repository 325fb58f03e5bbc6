"""Inequality certificates.

Every check in this package reports its result as a :class:`Certificate`
rather than a bare boolean, so callers can see both sides of the inequality,
the numeric slack, and whether the bound was met with equality.  Nested
claims (chains, grouped property checks) attach their parts as ``detail``
sub-certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        if self.equality and not self.holds:
            raise ValueError(f"certificate {self.name!r}: equality without holds")

    def as_dict(self) -> dict:
        """Plain-data form, suitable for JSON output."""
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "holds": self.holds,
            "equality": self.equality,
            "infinite": self.infinite,
            "detail": [d.as_dict() for d in self.detail],
        }

    def failures(self) -> list[str]:
        """Names of this certificate and any sub-certificates that fail."""
        out = [] if self.holds else [self.name]
        for d in self.detail:
            out.extend(f"{self.name}/{sub}" for sub in d.failures())
        return out


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

    This is the one way certificates are built.  By default ``holds`` and
    ``equality`` are read off the slack (``HOLDS_TOLERANCE`` and
    ``EQUALITY_TOLERANCE``), or off a direct comparison when a side is
    infinite.  Either may be supplied explicitly for checks whose
    condition is structural (all support points identical, a chain of
    sub-claims, say) rather than a single slack.  Two rules hold whatever
    the overrides say: equality implies holds, and an infinite side never
    reports equality.
    """
    lhs = float(lhs)
    rhs = float(rhs)
    infinite = math.isinf(lhs) or math.isinf(rhs)
    slack = rhs - lhs  # inf-aware: inf - inf is nan, finite - inf is -inf
    if infinite:
        eq = False
    else:
        eq = abs(slack) <= EQUALITY_TOLERANCE if equality is None else bool(equality)
    if holds is None:
        holds = lhs <= rhs if infinite else slack >= -HOLDS_TOLERANCE
    return Certificate(
        name=name,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        holds=bool(holds) or eq,
        equality=eq,
        infinite=infinite,
        detail=tuple(detail),
    )
