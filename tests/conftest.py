import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from neglab import ProbDist, make_dist

settings.register_profile(
    "neglab",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("neglab")


@st.composite
def distributions(draw, min_n=2, max_n=16, min_entry=1e-6):
    """Random strictly positive points on the simplex."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    raw = draw(
        st.lists(
            st.floats(min_value=min_entry, max_value=1.0),
            min_size=n,
            max_size=n,
        )
    )
    arr = np.asarray(raw)
    return ProbDist(arr / arr.sum())


@st.composite
def distribution_pairs(draw, min_n=2, max_n=16):
    """Two independent distributions on the same simplex."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    def one():
        raw = np.asarray(
            draw(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=n, max_size=n))
        )
        return ProbDist(raw / raw.sum())
    return one(), one()


@st.composite
def mixed_batches(draw, max_n=12, max_size=10):
    """Distributions of mixed n in [2, max_n] in input order: positive rows,
    rows with exact zeros, point masses and uniform rows."""
    batch = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_size))):
        n = draw(st.integers(min_value=2, max_value=max_n))
        kind = draw(st.sampled_from(["positive", "zeros", "point", "uniform"]))
        if kind == "uniform":
            arr = np.full(n, 1.0)
        elif kind == "point":
            arr = np.zeros(n)
            arr[draw(st.integers(min_value=0, max_value=n - 1))] = 1.0
        else:
            arr = np.asarray(draw(st.lists(st.floats(min_value=1e-6, max_value=1.0),
                                           min_size=n, max_size=n)))
            if kind == "zeros":
                arr[draw(st.lists(st.integers(min_value=1, max_value=n - 1), max_size=n - 1))] = 0.0
        batch.append(ProbDist(arr / arr.sum()))
    return batch


def by_length(batch):
    """The distributions of ``batch`` grouped by n, each group in input order."""
    groups = {}
    for p in batch:
        groups.setdefault(p.n, []).append(p)
    return list(groups.values())


def random_simplex(rng, n):
    """Dirichlet draw as a ProbDist."""
    return ProbDist(rng.dirichlet(np.ones(n)))


def assert_identical(got, want, path="") -> None:
    """``got == want`` down to the float bits and the types; NaN matches NaN."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            assert_identical(got[key], want[key], f"{path}/{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_identical(g, w, f"{path}[{i}]")
    elif isinstance(want, float) and math.isnan(want):
        assert math.isnan(got), path
    elif isinstance(want, float):
        assert struct.pack("<d", got) == struct.pack("<d", want), (path, got, want)
    else:
        assert got == want, path


def oracle_as_dict(cert) -> dict:
    """``Certificate.as_dict`` as a recursive walk of one certificate's tree."""
    return {
        "name": cert.name,
        "lhs": cert.lhs,
        "rhs": cert.rhs,
        "slack": cert.slack,
        "holds": cert.holds,
        "equality": cert.equality,
        "infinite": cert.infinite,
        "detail": [oracle_as_dict(d) for d in cert.detail],
    }


def oracle_failures(cert) -> list[str]:
    """``Certificate.failures`` as a recursive walk of one certificate's tree."""
    out = [] if cert.holds else [cert.name]
    for d in cert.detail:
        out.extend(f"{cert.name}/{sub}" for sub in oracle_failures(d))
    return out


@pytest.fixture
def p4():
    return make_dist([1 / 3, 1 / 6, 1 / 6, 1 / 3])


@pytest.fixture
def p3():
    return make_dist([2 / 3, 1 / 6, 1 / 6])


@pytest.fixture
def q5():
    return make_dist([2 / 3, 1 / 6, 1 / 6, 0.0, 0.0])


@pytest.fixture
def p5_peak():
    return make_dist([1 / 8, 1 / 8, 1 / 2, 1 / 8, 1 / 8])
