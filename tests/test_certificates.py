"""compare(), the one constructor of certificates, and its rules."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from neglab import EQUALITY_TOLERANCE, HOLDS_TOLERANCE, Certificate, compare

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
