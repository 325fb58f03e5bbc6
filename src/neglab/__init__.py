"""Negation of discrete probability distributions.

Negating a distribution redistributes each outcome's complement mass
evenly over the other outcomes.  This package implements that operator
with its closed forms and convergence analysis, the entropy orderings it
induces, Jensen-type certificates for convex and concave functions of the
probabilities, and a parametric dissimilarity family between a
distribution and its (iterated) negation, plus a CLI front end.
"""

from .certificates import Certificate, EQUALITY_TOLERANCE, HOLDS_TOLERANCE, compare
from .distribution import (
    DEFAULT_TOLERANCE,
    DimensionError,
    DomainError,
    ProbDist,
    ValidationReport,
    is_uniform,
    l1_distance,
    make_dist,
    pad_with_zeros,
    uniform,
)
from .dissimilarity import (
    CrossCheckError,
    DissimResult,
    IteratedDissimReport,
    NegationProfile,
    dissimilarity,
    dissimilarity_properties,
    iterated_negation_dissimilarity,
    negation_dissimilarity,
    negation_profile,
)
from .entropy import (
    EntropyReport,
    cross_entropy_check,
    entropy_chain_check,
    entropy_report,
    self_information,
    shannon_entropy,
    zero_padding_entropy_check,
)
from .jensen import (
    BUILTIN_FUNCTIONS,
    ChainUndefinedError,
    CurvatureError,
    FunctionSpec,
    NEG_LOG,
    PartialMeanChain,
    SQUARE,
    X_LOG_X,
    certificate_suite,
    concave_mixture_bound,
    double_negation_mixture_bound,
    get_function,
    jensen_check,
    mixture_bound,
    partial_mean_chain,
    partial_mean_chains,
    pointwise_bound,
    pointwise_bounds,
    self_information_bound,
)
from .negation import (
    ConvergenceTrace,
    converge_to_uniform,
    negate,
    negate_iterated,
    negate_twice,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "EQUALITY_TOLERANCE",
    "HOLDS_TOLERANCE",
    "compare",
    "DEFAULT_TOLERANCE",
    "DimensionError",
    "DomainError",
    "ProbDist",
    "ValidationReport",
    "is_uniform",
    "l1_distance",
    "make_dist",
    "pad_with_zeros",
    "uniform",
    "CrossCheckError",
    "DissimResult",
    "IteratedDissimReport",
    "NegationProfile",
    "dissimilarity",
    "dissimilarity_properties",
    "iterated_negation_dissimilarity",
    "negation_dissimilarity",
    "negation_profile",
    "EntropyReport",
    "cross_entropy_check",
    "entropy_chain_check",
    "entropy_report",
    "self_information",
    "shannon_entropy",
    "zero_padding_entropy_check",
    "BUILTIN_FUNCTIONS",
    "ChainUndefinedError",
    "CurvatureError",
    "FunctionSpec",
    "NEG_LOG",
    "PartialMeanChain",
    "SQUARE",
    "X_LOG_X",
    "certificate_suite",
    "concave_mixture_bound",
    "double_negation_mixture_bound",
    "get_function",
    "jensen_check",
    "mixture_bound",
    "partial_mean_chain",
    "partial_mean_chains",
    "pointwise_bound",
    "pointwise_bounds",
    "self_information_bound",
    "ConvergenceTrace",
    "converge_to_uniform",
    "negate",
    "negate_iterated",
    "negate_twice",
    "__version__",
]
