"""The one certificate rule, through compare() and its column form."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from neglab import EQUALITY_TOLERANCE, HOLDS_TOLERANCE, Certificate, compare
from neglab.certificates import _compare_columns

from conftest import assert_identical, oracle_as_dict, oracle_failures

INF = math.inf


def test_equality_override_forces_holds():
    cert = compare("c", 1.0, 0.0, equality=True)
    assert cert.equality and cert.holds
    cert = compare("c", 1.0, 0.0, holds=False, equality=True)
    assert cert.equality and cert.holds


def test_holds_override_replaces_the_slack_test():
    assert not compare("c", 0.0, 1.0, holds=False).holds
    assert compare("c", 1.0, 0.0, holds=True).holds
    # the equality default still reads the slack
    assert compare("c", 1.0, 1.0, holds=False).equality
    assert not compare("c", 1.0, 2.0, holds=True).equality


@pytest.mark.parametrize("lhs,rhs", [(INF, INF), (0.5, INF), (INF, 0.5), (-INF, 0.0)])
@pytest.mark.parametrize("holds", [None, True, False])
@pytest.mark.parametrize("equality", [None, True, False])
def test_infinite_side_never_reports_equality(lhs, rhs, holds, equality):
    cert = compare("c", lhs, rhs, holds=holds, equality=equality)
    assert cert.infinite
    assert not cert.equality
    assert cert.holds == ((lhs <= rhs) if holds is None else holds)


def test_no_tolerance_parameters():
    with pytest.raises(TypeError):
        compare("c", 0.0, 1.0, tol=1.0)
    with pytest.raises(TypeError):
        compare("c", 0.0, 1.0, eq_tol=1.0)


def test_equality_without_holds_is_rejected():
    with pytest.raises(ValueError):
        Certificate("c", 1.0, 0.0, -1.0, holds=False, equality=True)


# --- compare()'s contract at the edges of its inputs ------------------------

def _types(cert):
    return [type(getattr(cert, f)) for f in ("lhs", "rhs", "slack", "holds", "equality", "infinite")]


@pytest.mark.parametrize("lhs,rhs", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
def test_nan_side_decides_nothing(lhs, rhs):
    cert = compare("c", lhs, rhs)
    assert math.isnan(cert.slack)
    assert (cert.holds, cert.equality, cert.infinite) == (False, False, False)


@pytest.mark.parametrize("lhs,rhs", [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)])
def test_signed_zeros_are_equal_and_keep_their_sign(lhs, rhs):
    cert = compare("c", lhs, rhs)
    assert (_bits(cert.lhs), _bits(cert.rhs)) == (_bits(lhs), _bits(rhs))
    assert _bits(cert.slack) == _bits(rhs - lhs)
    assert (cert.holds, cert.equality, cert.infinite) == (True, True, False)


@pytest.mark.parametrize("kind", [float, np.float32, np.float64])
@pytest.mark.parametrize("override", [None, False, True, np.bool_(False), np.bool_(True)])
def test_numpy_inputs_give_python_fields(kind, override):
    lhs, rhs = kind(0.1), kind(0.3)
    cert = compare("c", lhs, rhs, holds=override, equality=override)
    assert _types(cert) == [float] * 3 + [bool] * 3
    assert (cert.lhs, cert.rhs, cert.slack) == (float(lhs), float(rhs), float(rhs) - float(lhs))
    # both flags overridden alike, or read off a slack of 0.2
    assert cert.holds == (True if override is None else bool(override))
    assert cert.equality == (False if override is None else bool(override))
    assert_identical(cert.as_dict(), oracle_as_dict(cert))


@pytest.mark.parametrize("lhs,rhs", [(1.0, 2.0), (2.0, 1.0), (1.0, 1.0), (INF, 1.0), (math.nan, 0.0)])
def test_every_field_is_a_python_float_or_bool(lhs, rhs):
    assert _types(compare("c", lhs, rhs)) == [float] * 3 + [bool] * 3


def test_detail_comes_back_as_the_same_objects():
    inner, failing = compare("d", 0.0, 1.0), compare("e", 1.0, 0.0)
    given = [inner, failing, inner]
    cert = compare("c", 0.0, 1.0, detail=given)
    assert type(cert.detail) is tuple
    assert len(cert.detail) == 3 and all(a is b for a, b in zip(cert.detail, given))


finite = st.floats(min_value=-1e6, max_value=1e6)


@given(finite, finite)
def test_default_path_reads_the_slack(lhs, rhs):
    cert = compare("c", lhs, rhs)
    slack = rhs - lhs
    equality = abs(slack) <= EQUALITY_TOLERANCE
    assert cert.slack == slack
    assert cert.equality == equality
    assert cert.holds == (slack >= -HOLDS_TOLERANCE or equality)
    assert not cert.infinite
    assert cert.detail == ()


# --- the column rule against compare() -------------------------------------

#: offsets rhs - lhs on both sides of the holds band (1e-12) and the equality band (1e-9)
BAND_OFFSETS = [0.0, 5e-13, 1e-12, 1.5e-12, 5e-10, 1e-9, 1.5e-9, 1e-3]


@st.composite
def sides(draw):
    """One (lhs, rhs) pair: finite near a band edge, or with an infinite side."""
    kind = draw(st.sampled_from(["band", "band", "lhs_inf", "rhs_inf", "both_inf"]))
    x = draw(st.floats(min_value=-1e3, max_value=1e3))
    inf = draw(st.sampled_from([math.inf, -math.inf]))
    if kind == "band":
        return x, x + draw(st.sampled_from(BAND_OFFSETS)) * draw(st.sampled_from([1, -1]))
    if kind == "lhs_inf":
        return inf, x
    if kind == "rhs_inf":
        return x, inf
    return inf, draw(st.sampled_from([math.inf, -math.inf]))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


#: an override entry: a Python bool or a numpy one
flag = st.booleans().flatmap(lambda b: st.sampled_from([b, np.bool_(b)]))


@given(st.data(), st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=5))
def test_column_rule_matches_compare(data, m, k):
    pairs = data.draw(st.lists(sides(), min_size=m * k, max_size=m * k))
    lhs = np.array([a for a, _ in pairs]).reshape(m, k)
    rhs = np.array([b for _, b in pairs]).reshape(m, k)
    flags = st.one_of(st.none(), st.lists(flag, min_size=m * k, max_size=m * k))
    holds, equality = data.draw(flags), data.draw(flags)
    cols = _compare_columns(
        [f"c{j}" for j in range(k)], lhs, rhs,
        holds=None if holds is None else np.reshape(holds, (m, k)),
        equality=None if equality is None else np.reshape(equality, (m, k)),
    )
    for r in range(m):
        for j in range(k):
            at = r * k + j
            cert = compare(f"c{j}", lhs[r, j], rhs[r, j],
                           holds=None if holds is None else holds[at],
                           equality=None if equality is None else equality[at])
            col = cols[j]
            assert col.name == cert.name
            assert _bits(col.lhs[r]) == _bits(cert.lhs)
            assert _bits(col.rhs[r]) == _bits(cert.rhs)
            slack = float(col.slack[r])
            assert (math.isnan(slack) and math.isnan(cert.slack)) or _bits(slack) == _bits(cert.slack)
            assert (bool(col.holds[r]), bool(col.equality[r]), bool(col.infinite[r])) == (
                cert.holds, cert.equality, cert.infinite
            )
            # the row reads the column's entries as Python floats and bools
            assert_identical(col.row(r).as_dict(), cert.as_dict())
            assert {type(v) for v in (cert.lhs, cert.rhs, cert.slack)} == {float}
            assert {type(v) for v in (cert.holds, cert.equality, cert.infinite)} == {bool}


@given(st.data(), st.integers(min_value=1, max_value=4))
def test_columns_materialise_like_certificates(data, m):
    # failing and passing columns and details, in every combination drawn
    def sides(k):
        values = st.lists(st.sampled_from([0.0, 1.0, -1.0, math.inf]), min_size=m * k, max_size=m * k)
        return np.reshape(data.draw(values), (m, k)), np.reshape(data.draw(values), (m, k))

    detail = _compare_columns(["d0", "d1"], *sides(2))
    a, c = _compare_columns(["a", "c"], *sides(2))
    (b,) = _compare_columns(["b"], *sides(1), detail=detail)
    for r in range(m):
        certs = [col.row(r) for col in (a, b, c)]
        assert [cert.name for cert in certs] == ["a", "b", "c"]
        assert [d.name for d in certs[1].detail] == ["d0", "d1"]
        for cert in certs:
            assert cert.failures() == oracle_failures(cert)
            assert_identical(cert.as_dict(), oracle_as_dict(cert))


def test_compare_columns_needs_one_name_per_column():
    with pytest.raises(ValueError):
        _compare_columns(["a"], np.zeros((2, 2)), 1.0)
    with pytest.raises(ValueError):
        _compare_columns(["a"], 0.0, 1.0)
