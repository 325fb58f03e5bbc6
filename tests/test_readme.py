"""The README documents the whole public API."""

import re
from pathlib import Path

import neglab

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_appears_in_a_readme_code_span():
    text = README.read_text(encoding="utf-8")
    # the fenced blocks go first, so that their fences do not pair with inline backticks
    fenced = re.compile(r"```.*?```", re.S)
    spans = fenced.findall(text) + re.findall(r"`([^`]+)`", fenced.sub("", text))
    names = {name for span in spans for name in re.findall(r"\w+", span)}
    assert [name for name in neglab.__all__ if name not in names] == []


#: the public API, so that any name added to or removed from it shows in a diff
PUBLIC_API = [
    "BUILTIN_FUNCTIONS", "Certificate", "ChainUndefinedError", "ConvergenceTrace",
    "ConvergenceTraces", "CurvatureError", "DEFAULT_TOLERANCE", "DimensionError", "DissimResult",
    "DomainError", "EQUALITY_TOLERANCE", "EntropyReport", "FunctionSpec", "HOLDS_TOLERANCE",
    "IteratedDissimReport", "MAX_ALPHA", "MAX_DEPTH", "NEG_LOG", "NegationProfile",
    "NegationProfiles", "PartialMeanChain", "ProbDist", "SQUARE", "ValidationReport", "X_LOG_X",
    "__version__", "certificate_suites", "compare", "concave_mixture_bound", "converge_traces",
    "cross_entropy_check", "dissim", "double_negation_mixture_bound", "entropy_chain_check",
    "entropy_report", "get_function", "is_uniform", "l1_distance", "make_dist", "make_dists",
    "mixture_bound", "negate", "negate_iterated", "negate_twice", "negation_dissimilarity",
    "negation_pairs", "negation_profiles", "pad_with_zeros", "partial_mean_chain",
    "pointwise_bound", "self_information_bound", "shannon_entropy", "uniform",
    "zero_padding_entropy_check",
]


def test_the_public_api_is_the_pinned_list():
    assert len(PUBLIC_API) == 54
    assert sorted(neglab.__all__) == PUBLIC_API
    assert all(hasattr(neglab, name) for name in neglab.__all__)
