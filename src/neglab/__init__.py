"""Negation of discrete probability distributions.

Negating a distribution redistributes each outcome's complement mass
evenly over the other outcomes.  This package implements that operator
with its closed forms and convergence analysis, the entropy orderings it
induces, Jensen-type certificates for convex and concave functions of the
probabilities, and a parametric dissimilarity family between a
distribution and its (iterated) negation, plus a CLI front end.
"""

import sys as _sys

from .certificates import *  # noqa: F403 -- each module's __all__ is its public API
from .dissimilarity import *  # noqa: F403
from .distribution import *  # noqa: F403
from .entropy import *  # noqa: F403
from .jensen import *  # noqa: F403
from .negation import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in ("certificates", "distribution", "dissimilarity", "entropy", "jensen", "negation")
    for name in _sys.modules[f"{__name__}.{module}"].__all__
] + ["__version__"]
