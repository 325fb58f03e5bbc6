"""CLI plumbing: grammar, formats, exit codes, round-trips."""

import contextlib
import csv
import dataclasses
import errno
import gc
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from itertools import chain, groupby
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

import neglab
from neglab import (
    MAX_DEPTH,
    SQUARE,
    certificate_suites,
    cli,
    converge_traces,
    distribution,
    entropy_report,
    make_dist,
    negation_profiles,
)
from neglab.cli import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    MAX_UNIFORM_N,
    main,
)

from conftest import assert_identical


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_negate_golden(capsys):
    code, doc = run_json(capsys, "negate", "--dist", "1/3,1/6,1/6,1/3")
    assert code == EXIT_OK
    assert doc["command"] == "negate"
    assert doc["all_hold"] is True
    rec = doc["results"][0]
    assert max(abs(a - b) for a, b in zip(rec["negation"], [2 / 9, 5 / 18, 5 / 18, 2 / 9])) <= 1e-14
    assert max(abs(a - b) for a, b in zip(rec["double_negation"], [7 / 27, 13 / 54, 13 / 54, 7 / 27])) <= 1e-14


def test_negate_uniform_fixed_point(capsys):
    code, doc = run_json(capsys, "negate", "--dist", "uniform:4")
    assert code == EXIT_OK
    rec = doc["results"][0]
    assert rec["negation"] == rec["distribution"]


def test_negate_bad_sum_exits_2(capsys):
    code, doc = run_json(capsys, "negate", "--dist", "0.5,0.6")
    assert code == EXIT_VALIDATION
    assert doc["error"]["kind"] == "validation"
    assert abs(doc["error"]["report"]["sum_error"] - 0.1) < 1e-12
    assert doc["all_hold"] is False


def test_out_of_range_entry_exits_2(capsys):
    code, doc = run_json(capsys, "negate", "--dist", "1.5,-0.5")
    assert code == EXIT_VALIDATION
    assert doc["error"]["report"]["bad_indices"] == [0, 1]


def test_single_entry_exits_2(capsys):
    code, _, _ = run(capsys, "negate", "--dist", "1.0")
    assert code == EXIT_VALIDATION


def test_unparseable_value_exits_4(capsys):
    code, _, err = run(capsys, "negate", "--dist", "abc,0.5")
    assert code == EXIT_USAGE
    assert "error" in err


_BIG = 2**1100
_NUMERATORS = st.integers() | st.just(0) | st.integers(min_value=-_BIG * 4, max_value=_BIG * 4)
_DENOMINATORS = (st.integers() | st.integers(min_value=-_BIG * 4, max_value=_BIG * 4)).filter(bool)


@given(_NUMERATORS, _DENOMINATORS)
@example(0, -3)
@example(-1, _BIG)
@example(1, -_BIG)
@example(_BIG, 1)
@example(-_BIG, 3)
def test_a_rational_rounds_once_as_fraction_does(num, den):
    # int / int is correctly rounded, as Fraction's float; 0/-n is 0.0 there,
    # and a rational beyond the largest double raises OverflowError
    token = f"{num}/{den}"
    try:
        want = float(Fraction(num, den))
    except OverflowError as exc:
        with pytest.raises(cli._UsageError, match=f"{token!r}: {exc}$"):
            cli._parse_scalar(token)
        return
    assert_identical(cli._parse_scalar(token), want)


@pytest.mark.parametrize("token, why", [
    (f"{_BIG}/1", "integer division result too large for a float"),
    (f"-{_BIG}/3", "integer division result too large for a float"),
    ("1/0", "division by zero"),
], ids=["2**1100/1", "-2**1100/3", "1/0"])
def test_an_unrepresentable_rational_exits_4(capsys, token, why):
    code, out, err = run(capsys, "negate", "--dist", f"0.5,{token}")
    assert code == EXIT_USAGE and out == ""
    assert err.endswith(f"{token!r}: {why}\n"), err


_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("source, text, named", [
    ("dist", "0.5,1e400", "'1e400' (item 1 of distribution 0)"),
    ("dist", f"{_HUGE},0.5", f"'{_HUGE}' (item 0 of distribution 0)"),
    ("dist", " inf ,0.5", "'inf' (item 0 of distribution 0)"),
    ("dist", "0.5,-inf", "'-inf' (item 1 of distribution 0)"),
    ("dist", "nan,0.5", "'nan' (item 0 of distribution 0)"),
    ("csv", "0.5,0.5\n0.25,1e400,nan\n", "'1e400' (item 1 of distribution 1)"),
    ("json", "[[0.5, 0.5], [1e400, 0.5]]", "inf (item 0 of distribution 1)"),
    ("json", "[[0.5, -Infinity]]", "-inf (item 1 of distribution 0)"),
    ("json", "[0.5, NaN]", "nan (item 1 of distribution 0)"),
], ids=["dist_1e400", "dist_401_digits", "dist_inf", "dist_minus_inf", "dist_nan", "csv_1e400",
        "json_1e400", "json_minus_infinity", "json_nan"])
def test_a_non_finite_item_exits_4_naming_it(capsys, tmp_path, source, text, named):
    # every reader rejects a number a double cannot carry, as a JSON integer
    # of 401 digits and a rational beyond the largest double already are
    if source == "dist":
        argv = ["--dist", text]
    else:
        path = tmp_path / f"batch.{source}"
        path.write_text(text)
        argv = ["--file", str(path)]
    code, out, err = run(capsys, "entropy", *argv, "--format", "json")
    assert code == EXIT_USAGE and out == ""
    assert err == f"neglab: error: value {named} is not a finite number\n"


@pytest.mark.parametrize("argv", [["--dist", "1e308,1e308"], ["--dist", "1.5e308,-1.5e308"]])
def test_a_finite_row_whose_total_overflows_fails_validation(capsys, argv):
    code, doc = run_json(capsys, "entropy", *argv)
    assert code == EXIT_VALIDATION
    assert doc["error"]["kind"] == "validation"


def test_missing_input_exits_4(capsys):
    code, _, err = run(capsys, "entropy")
    assert code == EXIT_USAGE


def test_unknown_flag_exits_4(capsys):
    code, _, _ = run(capsys, "negate", "--bogus", "1")
    assert code == EXIT_USAGE


def test_unknown_function_exits_4(capsys):
    code, _, err = run(capsys, "verify", "--dist", "uniform:3", "--fn", "septic")
    assert code == EXIT_USAGE
    assert "neg_log" in err


def test_entropy_values(capsys):
    code, doc = run_json(capsys, "entropy", "--dist", "uniform:4")
    assert code == EXIT_OK
    rec = doc["results"][0]
    assert rec["entropy_bits"] == 2.0
    assert rec["gap_bits"] == 0.0


def test_converge_trace(capsys):
    code, doc = run_json(capsys, "converge", "--dist", "1/3,1/6,1/6,1/3", "--tol", "1e-6")
    assert code == EXIT_OK
    rec = doc["results"][0]
    assert rec["converged"] is True
    assert rec["steps"] == 11
    assert len(rec["iterates"]) == 12


def test_converge_oscillation_marker(capsys):
    code, doc = run_json(capsys, "converge", "--dist", "0.9,0.1", "--tol", "1e-6")
    assert code == EXIT_OK  # non-convergence is a reported state, not an error
    rec = doc["results"][0]
    assert rec["oscillating"] is True
    assert rec["converged"] is False


def test_verify_all_hold(capsys):
    code, doc = run_json(capsys, "verify", "--dist", "1/3,1/6,1/6,1/3", "--fn", "neg_log")
    assert code == EXIT_OK
    rec = doc["results"][0]
    assert rec["all_hold"] is True
    assert rec["failing"] == []
    names = {c["name"] for c in rec["certificates"]}
    assert "mixture_bound" in names
    assert "self_information_bound" in names
    assert "double_negation_mixture_bound" in names
    assert "concave_mixture_bound" in names
    assert "cross_entropy" in names
    assert "entropy_chain" in names
    assert "pointwise_bound[i=0]" in names
    assert "partial_mean_chain[i=0]" in names


def test_verify_uniform_equality_flags(capsys):
    code, doc = run_json(capsys, "verify", "--dist", "uniform:6", "--fn", "neg_log")
    assert code == EXIT_OK
    for cert in doc["results"][0]["certificates"]:
        assert cert["holds"]
        if cert["name"] != "cross_entropy":
            continue
        assert cert["equality"]


def test_verify_symmetric_peak_reports_equality(capsys):
    code, doc = run_json(capsys, "verify", "--dist", "1/8,1/8,1/2,1/8,1/8", "--fn", "neg_log")
    assert code == EXIT_OK
    certs = {c["name"]: c for c in doc["results"][0]["certificates"]}
    # the chain that excludes the central peak collapses to equality at 3 bits
    peak = certs["partial_mean_chain[i=2]"]
    assert peak["equality"] and peak["lhs"] == 3.0


def test_verify_two_outcomes_skips_chain(capsys):
    code, doc = run_json(capsys, "verify", "--dist", "0.7,0.3", "--fn", "square")
    assert code == EXIT_OK
    rec = doc["results"][0]
    assert not any(c["name"].startswith("partial_mean_chain") for c in rec["certificates"])
    assert any("skipped" in note for note in rec["notes"])


@pytest.mark.parametrize("fn", ["neg_log", "square", "x_log_x"])
def test_verify_skip_note_only_at_two_outcomes(capsys, fn):
    code, doc = run_json(capsys, "verify", "--dist", "0.7,0.3", "--fn", fn)
    assert code == EXIT_OK
    assert doc["results"][0]["notes"] == ["partial_mean_chain skipped: needs n >= 3"]
    code, doc = run_json(capsys, "verify", "--dist", "0.5,0.3,0.2", "--fn", fn)
    assert code == EXIT_OK
    assert "notes" not in doc["results"][0]


def test_verify_concave_function_flips_roles(capsys):
    code, doc = run_json(capsys, "verify", "--dist", "1/3,1/6,1/6,1/3", "--fn", "x_log_x")
    assert code == EXIT_OK
    assert doc["results"][0]["all_hold"] is True


def test_dissim_profile(capsys):
    code, doc = run_json(capsys, "dissim", "--dist", "1/3,1/6,1/6,1/3", "--alpha", "0,1,2")
    assert code == EXIT_OK
    rec = doc["results"][0]
    values = [r["value"] for r in rec["profile"]]
    assert abs(values[0] - 0.16992500144231236) <= 1e-12
    assert abs(values[1] - 0.08246216019197295) <= 1e-12
    assert values[0] > values[1] > values[2]
    assert rec["properties"]["holds"] is True
    assert len(rec["iterated"]["results"]) == 3  # default depth


def test_dissim_json_results_carry_each_number_once(capsys, tmp_path):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([[0.5, 0.3, 0.2], [0.25] * 4]))
    code, doc = run_json(capsys, "dissim", "--file", str(path), "--alpha", "0,3", "--depth", "2")
    assert code == EXIT_OK
    results = [r for rec in doc["results"] for r in rec["profile"] + rec["iterated"]["results"]]
    assert len(results) == 8
    for r in results:
        assert list(r) == ["alpha", "value", "l1"]


def test_dissim_flag_validation(capsys):
    code, _, _ = run(capsys, "dissim", "--dist", "uniform:3", "--alpha", "2,1")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "dissim", "--dist", "uniform:3", "--alpha", "0", "--depth", "0")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "dissim", "--dist", "uniform:3", "--alpha", "x")
    assert code == EXIT_USAGE


def test_dissim_depth_bound_exits_4_before_any_array(capsys):
    # a depth of 10**12 would ask numpy for terabytes; the flag is refused first
    code, out, err = run(capsys, "dissim", "--dist", "0.5,0.3,0.2", "--depth", str(10**12))
    assert code == EXIT_USAGE and out == ""
    assert err == f"neglab: error: --depth must be an integer in [1, {MAX_DEPTH}], got {10**12}\n"
    assert run(capsys, "dissim", "--dist", "0.5,0.3,0.2", "--depth", str(MAX_DEPTH))[0] == EXIT_OK


REPORT_FIXTURES = [
    "negation_golden_four_outcomes",
    "negation_golden_padded",
    "entropy_padding_ordering",
    "entropy_chain_four_outcomes",
    "symmetric_peak_equality",
    "dissimilarity_golden",
]


def _detail(cert, name):
    return next(sub for sub in cert["detail"] if sub["name"] == name)


def test_report_passes(capsys):
    code, doc = run_json(capsys, "report")
    assert code == EXIT_OK
    assert doc["all_hold"] is True
    assert [f["name"] for f in doc["results"]] == REPORT_FIXTURES
    assert all(f["holds"] for f in doc["results"])
    fixtures = {f["name"]: f for f in doc["results"]}
    # each fixture is a certificate; its numbers are its sides or its detail's
    assert fixtures["negation_golden_four_outcomes"]["lhs"] <= 1e-14
    assert fixtures["negation_golden_padded"]["lhs"] <= 1e-14
    padding = fixtures["entropy_padding_ordering"]
    assert padding["rhs"] - padding["lhs"] > 1e-6
    peak = fixtures["symmetric_peak_equality"]
    assert peak["lhs"] == 3.0
    assert _detail(peak, "perturbed_gap")["rhs"] > 1e-4
    dis = fixtures["dissimilarity_golden"]
    assert abs(dis["lhs"] - -math.log2(8 / 9)) <= 1e-12
    props = _detail(dis, "dissimilarity_properties")
    assert _detail(props, "value_non_decreasing_in_alpha")["holds"] is False


def _bump_golden(monkeypatch) -> str:
    """Move one golden value 1e-12 off and return its fixture's name: outside
    the fixture's 1e-14, inside the 1e-9 band where compare() would call the
    two sides equal."""
    fixture, op, given, expected = cli._GOLDEN[0]
    bumped = (expected[0] + 1e-12, *expected[1:])
    monkeypatch.setattr(cli, "_GOLDEN", ((fixture, op, given, bumped), *cli._GOLDEN[1:]))
    return fixture


def test_report_fails_closed(capsys, monkeypatch):
    fixture = _bump_golden(monkeypatch)
    code, doc = run_json(capsys, "report")
    assert code == EXIT_FAILURE
    assert doc["all_hold"] is False
    holds = {f["name"]: f["holds"] for f in doc["results"]}
    assert holds.pop(fixture) is False
    assert all(holds.values())


@pytest.mark.parametrize("certificate, fixture", [
    ("zero_padding_entropy_check", "entropy_padding_ordering"),
    ("entropy_chain_check", "entropy_chain_four_outcomes"),
])
def test_report_fails_when_the_library_certificate_it_restates_fails(
    capsys, monkeypatch, certificate, fixture
):
    # the fixture's own thresholds still pass; only the library's verdict fails
    library = getattr(neglab, certificate)

    def failing(*args):
        return dataclasses.replace(library(*args), holds=False, equality=False)

    monkeypatch.setattr(cli, certificate, failing, raising=False)
    code, doc = run_json(capsys, "report")
    assert code == EXIT_FAILURE
    assert doc["all_hold"] is False
    fixtures = {f["name"]: f for f in doc["results"]}
    assert fixtures.pop(fixture)["detail"][0]["holds"] is False
    assert all(f["holds"] for f in fixtures.values())


def test_report_text_one_line_per_fixture(capsys):
    code, out, _ = run(capsys, "report", "--format", "text")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "command: report" and lines[-1] == "all_hold: true"
    top = [line for line in lines if line.startswith("[")]
    assert [line.split()[1].rstrip(":") for line in top] == REPORT_FIXTURES
    assert all(line.startswith("[ok] ") for line in top)
    # the failing direction is recorded in the detail, not asserted
    assert "    [FAIL] value_non_decreasing_in_alpha: " in out


def test_report_csv_names_nested_details_by_path(capsys):
    code, out, _ = run(capsys, "report", "--format", "csv")
    assert code == EXIT_OK
    rows = {r["name"]: r for r in csv.DictReader(out.splitlines())}
    assert [name for name in rows if "/" not in name] == REPORT_FIXTURES
    nested = "dissimilarity_golden/dissimilarity_properties/value_non_decreasing_in_alpha"
    assert rows[nested]["holds"] == "false"
    assert rows["dissimilarity_golden"]["holds"] == "true"


def test_env_tolerance_override(capsys, monkeypatch):
    # no environment variable sets the tolerance: off by 1e-3 in mass, the
    # row passes at --tol 1e-2 only
    monkeypatch.setenv("NEGLAB_TOL", "1e-2")
    code, doc = run_json(capsys, "negate", "--dist", "0.5,0.501")
    assert code == EXIT_VALIDATION
    assert doc["input"]["tolerance"] == 1e-9
    code, doc = run_json(capsys, "negate", "--dist", "0.5,0.501", "--tol", "1e-2")
    assert code == EXIT_OK
    assert doc["input"]["tolerance"] == 1e-2


def test_env_tolerance_invalid_exits_4(capsys, monkeypatch):
    # an invalid --tol exits 4; the same text in NEGLAB_TOL is not read
    code, out, err = run(capsys, "negate", "--dist", "0.5,0.5", "--tol", "not-a-number")
    assert code == EXIT_USAGE and out == "" and "--tol" in err
    for env in ("not-a-number", "1"):
        monkeypatch.setenv("NEGLAB_TOL", env)
        code, doc = run_json(capsys, "negate", "--dist", "0.5,0.5")
        assert code == EXIT_OK
        assert doc["input"]["tolerance"] == 1e-9


def test_non_finite_tolerance_exits_4(capsys):
    code, _, err = run(capsys, "negate", "--dist", "0.5,0.5", "--tol", "inf")
    assert code == EXIT_USAGE and "finite" in err


def test_tolerance_of_one_or_more_exits_4(capsys):
    # a tolerance of 1 would read 5,-3 as 1,0
    code, out, err = run(capsys, "negate", "--dist", "5,-3", "--tol", "10")
    assert code == EXIT_USAGE and out == ""
    assert err == "neglab: error: --tol must be finite and in (0, 1), got 10.0\n"


def test_report_takes_no_tolerance(capsys):
    # report reads no distributions, so a tolerance would change nothing
    code, out, err = run(capsys, "report", "--tol", "5")
    assert code == EXIT_USAGE and out == "" and "--tol" in err
    code, doc = run_json(capsys, "report")
    assert code == EXIT_OK
    assert doc["input"] == {}


def test_text_format_uses_15_digits(capsys):
    code, out, _ = run(capsys, "entropy", "--dist", "1/3,1/6,1/6,1/3")
    assert code == EXIT_OK
    assert "1.91829583405449" in out
    assert "1.918295834054489" not in out  # 16th digit must not appear


def test_csv_format(capsys):
    code, out, _ = run(capsys, "negate", "--dist", "uniform:3", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["dist", "index", "p", "negation", "double_negation"]
    assert len(rows) == 4


def test_csv_verify_flattens_certificates(capsys):
    code, out, _ = run(capsys, "verify", "--dist", "uniform:4", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.DictReader(out.splitlines()))
    assert {"name", "lhs", "rhs", "slack", "holds"} <= set(rows[0])
    assert any(r["name"].startswith("entropy_chain/") for r in rows)


def test_json_file_input(capsys, tmp_path):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([[0.5, 0.5], [0.25, 0.25, 0.25, 0.25]]))
    code, doc = run_json(capsys, "entropy", "--file", str(path))
    assert code == EXIT_OK
    assert [r["entropy_bits"] for r in doc["results"]] == [1.0, 2.0]


def test_csv_file_input(capsys, tmp_path):
    path = tmp_path / "batch.csv"
    path.write_text("1/2,1/2\n1/4,1/4,1/4,1/4\n")
    code, doc = run_json(capsys, "entropy", "--file", str(path))
    assert code == EXIT_OK
    assert len(doc["results"]) == 2


@pytest.mark.parametrize("content", ["0.2,,0.3,0.5\n", "0.5,0.5\n0.5,0.5,\n", "0.5,0.5\n,0.5,0.5\n"],
                         ids=["middle", "trailing", "leading"])
def test_csv_empty_cell_exits_4_as_in_dist(capsys, tmp_path, content):
    path = tmp_path / "batch.csv"
    path.write_text(content)
    code, out, err = run(capsys, "entropy", "--file", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err == "neglab: error: empty value in distribution\n"


def test_csv_lines_without_a_value_are_skipped(capsys, tmp_path):
    path = tmp_path / "batch.csv"
    path.write_text("\n1/2,1/2\n  \n , ,\n1/4,1/4,1/4,1/4\n\n")
    code, doc = run_json(capsys, "entropy", "--file", str(path))
    assert code == EXIT_OK
    assert doc["input"]["distributions"] == [[0.5, 0.5], [0.25] * 4]


@pytest.mark.parametrize("name, text", [
    ("batch.csv", "0.2,0.3,0.5\n1/4,1/4,1/4,1/4\n"),
    ("batch.json", "[[0.2, 0.3, 0.5], [0.25, 0.25, 0.25, 0.25]]"),
], ids=["csv", "json"])
def test_a_utf8_bom_is_dropped(capsys, tmp_path, name, text):
    # spreadsheet exports and some editors start a UTF-8 file with U+FEFF
    plain, marked = tmp_path / name, tmp_path / f"bom_{name}"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    code, want = run_json(capsys, "negate", "--file", str(plain))
    assert code == EXIT_OK
    code, got = run_json(capsys, "negate", "--file", str(marked))
    assert code == EXIT_OK
    assert got["input"]["distributions"] == want["input"]["distributions"] == [
        [0.2, 0.3, 0.5], [0.25] * 4]
    assert got["results"] == want["results"]


def test_file_with_bad_row_exits_2(capsys, tmp_path):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([[0.5, 0.5], [0.9, 0.3]]))
    code, doc = run_json(capsys, "entropy", "--file", str(path))
    assert code == EXIT_VALIDATION
    assert doc["error"]["index"] == 1


def test_mixed_lengths_report_the_first_bad_row_in_input_order(capsys, tmp_path):
    # rows of one length are screened together; index 1 (n = 5) comes before
    # the bad n = 3 row at index 2, although the n = 3 rows are screened first
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([[0.2, 0.3, 0.5], [0.2, 0.2, 0.2, 0.2, 0.3], [0.5, 0.6, 0.1]]))
    for command in ("verify", "negate"):
        code, doc = run_json(capsys, command, "--file", str(path))
        assert code == EXIT_VALIDATION
        assert doc["error"]["index"] == 1
        assert doc["error"]["why"] == "values outside [0, 1] or bad total mass"
        assert doc["error"]["report"] == {"sum_error": pytest.approx(0.1), "bad_indices": []}


def test_single_entry_row_after_good_rows_exits_2_at_its_index(capsys, tmp_path):
    # the report is the screen's, as for any other row: [1] sums to 1, and 2 lies outside [0, 1]
    why = "a distribution needs at least 2 outcomes, got 1"
    path = tmp_path / "batch.json"
    for entry, sum_error, bad_indices in ((1.0, 0.0, []), (2.0, 1.0, [0])):
        path.write_text(json.dumps([[0.2, 0.3, 0.5], [0.5, 0.5], [entry], [0.9, 0.3]]))
        code, doc = run_json(capsys, "entropy", "--file", str(path))
        assert code == EXIT_VALIDATION
        assert doc["error"]["index"] == 2
        assert doc["error"]["why"] == why
        assert doc["error"]["report"] == {"sum_error": sum_error, "bad_indices": bad_indices}
        code, out, _ = run(capsys, "entropy", "--file", str(path), "--format", "csv")
        assert code == EXIT_VALIDATION
        assert list(csv.reader(out.splitlines()))[1] == [
            "2", why, "%.15g" % sum_error, " ".join(map(str, bad_indices))]
        code, out, _ = run(capsys, "entropy", "--file", str(path), "--format", "text")
        assert code == EXIT_VALIDATION
        assert f"(sum_error={sum_error:.15g}, bad_indices={bad_indices})" in out


def test_verify_mixed_lengths_keeps_input_order(capsys, tmp_path):
    rows = [[0.2, 0.3, 0.5], [0.5, 0.5], [0.1, 0.2, 0.3, 0.4], [0.6, 0.4], [0.0, 0.5, 0.5]]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(rows))
    code, doc = run_json(capsys, "verify", "--file", str(path), "--fn", "square")
    assert code == EXIT_OK
    assert [rec["distribution"] for rec in doc["results"]] == rows
    for rec in doc["results"]:
        certs = [c.row(0) for c in certificate_suites(SQUARE, [make_dist(rec["distribution"])])]
        assert rec["certificates"] == json.loads(json.dumps([c.as_dict() for c in certs]))
        assert ("notes" in rec) == (len(rec["distribution"]) == 2)


def test_verify_certifies_rows_accepted_under_tol_without_a_second_check(capsys, monkeypatch):
    # a row accepted under --tol must be certified, not checked again under
    # DEFAULT_TOLERANCE.  Stand-in: narrow the default band to 0 and pass a row
    # whose float sum is one ulp below 1; its renormalization sums to one ulp
    # above 1, so a second check at 0 would refuse it.
    monkeypatch.setattr(distribution, "DEFAULT_TOLERANCE", 0.0)
    accepted = make_dist([0.7, 0.2, 0.1], 1e-9).tolist()
    assert math.fsum(accepted) != 1.0
    code, doc = run_json(capsys, "verify", "--dist", "0.7,0.2,0.1", "--tol", "1e-9")
    assert code == EXIT_OK
    assert doc["results"][0]["distribution"] == accepted


@pytest.mark.parametrize("content", [
    '["ab"]',
    '[[0.5, null]]',
    '[0.5, [0.5]]',
    '{"input": {"distributions": 5}}',
    '{"input": [1, 2]}',
    '[true, false]',
    '[[0.5, true]]',
    '[[0.5, "0.5"]]',
    pytest.param('[[0.5, 0.5]', id="unclosed"),
    pytest.param(f"[[1{'0' * 400}, 0.5]]", id="401_digit_integer"),
    pytest.param(f"0.5,{'1' * (csv.field_size_limit() + 1)}\n", id="csv_cell_over_field_size_limit"),
])
def test_malformed_json_file_exits_4(capsys, tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    code, out, err = run(capsys, "entropy", "--file", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_dissim_alpha_upper_limit(capsys):
    code, doc = run_json(capsys, "dissim", "--dist", "0.5,0.3,0.2", "--alpha", "0,1021")
    assert code == EXIT_OK
    assert doc["input"]["alphas"] == [0, 1021]
    code, out, err = run(capsys, "dissim", "--dist", "0.5,0.3,0.2", "--alpha", "0,1022")
    assert code == EXIT_USAGE
    assert out == ""
    assert "1021" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, why", [
    (["--dist", "0.5,,0.5"], "empty value in distribution"),
    (["--dist", "0.5,0.5,"], "empty value in distribution"),
    (["--dist", "uniform:abc"], "uniform:n needs an integer, got 'abc'"),
    (["--alpha", "0,,1"], "--alpha must be comma-separated integers, got '0,,1'"),
    (["--alpha", "0,1,"], "--alpha must be comma-separated integers, got '0,1,'"),
    (["--alpha", ""], "--alpha must be comma-separated integers, got ''"),
], ids=["dist_middle", "dist_trailing", "uniform_not_int", "alpha_middle", "alpha_trailing",
        "alpha_empty"])
def test_an_empty_or_malformed_list_item_exits_4(capsys, argv, why):
    argv = argv if argv[0] == "--dist" else ["--dist", "0.5,0.5", *argv]
    code, out, err = run(capsys, "dissim", *argv)
    assert code == EXIT_USAGE and out == ""
    assert err == f"neglab: error: {why}\n"


def test_uniform_size_limit(capsys):
    # the bound is checked before the n values are built, so 10**18 costs nothing
    for n in (10**18, MAX_UNIFORM_N + 1, 1):
        code, out, err = run(capsys, "negate", "--dist", f"uniform:{n}")
        assert code == EXIT_USAGE
        assert out == ""
        assert str(MAX_UNIFORM_N) in err and "Traceback" not in err


def test_verify_size_limit(capsys, monkeypatch):
    # the cap is checked per group, before its certificates are computed
    monkeypatch.setattr(cli, "MAX_VERIFY_N", 8)
    code, doc = run_json(capsys, "verify", "--dist", "uniform:8")
    assert code == EXIT_OK and doc["all_hold"] is True
    code, out, err = run(capsys, "verify", "--dist", "uniform:9")
    assert code == EXIT_USAGE and out == ""
    assert err == "neglab: error: verify takes n <= 8 (MAX_VERIFY_N), got n = 9\n"


def test_missing_file_exits_4(capsys, tmp_path):
    code, _, _ = run(capsys, "entropy", "--file", str(tmp_path / "nope.json"))
    assert code == EXIT_USAGE


def test_dist_with_file_exits_4(capsys, tmp_path):
    # the file is never read when --dist wins; together they are a usage error
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[0.6, 0.6]]))
    for command in ("negate", "entropy", "converge", "verify", "dissim"):
        code, out, err = run(capsys, command, "--dist", "0.5,0.5", "--file", str(path))
        assert code == EXIT_USAGE
        assert out == "" and err == "neglab: error: --dist and --file cannot be used together\n"


def _mixed_batch(seed, size=120):
    """Dirichlet(1) rows of n uniform in [2, 16], about a tenth with exact zeros."""
    rng = np.random.default_rng(seed)
    rows = []
    for n in [2, *rng.integers(2, 17, size=size - 1).tolist()]:
        p = rng.dirichlet(np.ones(n))
        if rng.random() < 0.1:
            p[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 0.0
            p = p / p.sum()
        rows.append(p.tolist())
    return rows


def test_grouped_records_equal_the_one_row_calls(capsys, tmp_path):
    rows = _mixed_batch(3)
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(rows))
    code, entropy = run_json(capsys, "entropy", "--file", str(path))
    assert code == EXIT_OK
    code, converge = run_json(capsys, "converge", "--file", str(path), "--max-steps", "40")
    assert code == EXIT_OK
    code, dissim = run_json(capsys, "dissim", "--file", str(path), "--alpha", "0,2,5", "--depth", "4")
    assert code == EXIT_OK
    for row, e, c, d in zip(rows, entropy["results"], converge["results"], dissim["results"], strict=True):
        p = make_dist(row)
        assert e == json.loads(json.dumps({"distribution": p.tolist(), **entropy_report(p).as_dict()}))
        trace = converge_traces([p], tolerance=1e-9, max_steps=40).row(0).as_dict()
        assert c == json.loads(json.dumps({"distribution": p.tolist(), "tolerance": 1e-9, **trace}))
        profile = negation_profiles([p], [0, 2, 5], 4).row(0).as_dict()
        assert d == json.loads(json.dumps({"distribution": p.tolist(), **profile}))


def test_json_round_trip_bit_for_bit(capsys, tmp_path):
    first = tmp_path / "first.json"
    code, _, _ = run(
        capsys, "negate", "--dist", "0.20000001,0.3,0.2,0.29999999",
        "--format", "json", "--out", str(first),
    )
    assert code == EXIT_OK
    doc1 = json.loads(first.read_text())

    second = tmp_path / "second.json"
    code, _, _ = run(
        capsys, "negate", "--file", str(first), "--format", "json", "--out", str(second),
    )
    assert code == EXIT_OK
    doc2 = json.loads(second.read_text())
    assert doc1["results"] == doc2["results"]
    assert doc1["input"]["distributions"] == doc2["input"]["distributions"]


def test_emitted_negation_reingests_exactly(capsys):
    # feed a result distribution back in: values survive JSON unchanged
    code, doc = run_json(capsys, "negate", "--dist", "1/3,1/6,1/6,1/3")
    neg = doc["results"][0]["negation"]
    code, doc2 = run_json(capsys, "negate", "--dist", ",".join(repr(v) for v in neg))
    assert code == EXIT_OK
    assert doc2["input"]["distributions"][0] == neg
    assert doc2["results"][0]["distribution"] == neg


def test_out_file_writing(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "report", "--format", "json", "--out", str(target))
    assert code == EXIT_OK
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["all_hold"] is True


@pytest.mark.parametrize("target", ["missing/doc.json", "."])
def test_unwritable_out_exits_4(capsys, tmp_path, target):
    # a missing directory, and a directory in place of a file
    path = tmp_path / target
    code, out, err = run(capsys, "negate", "--dist", "uniform:2", "--out", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"neglab: error: cannot write {path}: [Errno ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("argv, expected", [
    (["entropy", "--dist", "0.5,0.5"], EXIT_OK),
    (["entropy", "--dist", "0.6,0.6"], EXIT_VALIDATION),
    (["dissim", "--dist", "0.5,0.5000000000000001", "--alpha", "1021"], EXIT_VALIDATION),
    (["report"], EXIT_FAILURE),  # with one golden value bumped
    (["entropy", "--bogus"], EXIT_USAGE),
    (["converge", "--dist", "0.5,0.5", "--max-steps", "0"], EXIT_USAGE),
    (["entropy", "--dist", "0.5,0.5", "--out", "."], EXIT_USAGE),
])
def test_main_leaves_the_collector_as_it_found_it(capsys, monkeypatch, collecting, argv, expected):
    if expected == EXIT_FAILURE:
        _bump_golden(monkeypatch)
    before = gc.isenabled()
    frozen = gc.get_freeze_count()
    (gc.enable if collecting else gc.disable)()
    try:
        assert main(argv) == expected
        assert gc.isenabled() is collecting
        assert gc.get_freeze_count() == frozen  # only the process entry freezes
    finally:
        (gc.enable if before else gc.disable)()


def test_records_are_built_and_rendered_with_the_collector_paused(capsys, monkeypatch):
    seen = []

    def entropies(rows):
        seen.append(gc.isenabled())
        return cli_entropies(rows)

    def render_json(doc):
        seen.append(gc.isenabled())
        return cli_render_json(doc)

    cli_entropies, cli_render_json = cli._entropy_reports, cli._render_json
    monkeypatch.setattr(cli, "_entropy_reports", entropies)
    monkeypatch.setattr(cli, "_render_json", render_json)
    assert gc.isenabled()
    assert main(["entropy", "--dist", "0.5,0.5", "--format", "json"]) == EXIT_OK
    assert seen == [False, False]
    assert gc.isenabled()


# --- the process entry: python -m neglab and the neglab script --------------

def _child(*args, env_update=None, **kwargs):
    """``python *args`` with the package on the path, its stderr as text."""
    env = {**os.environ, "PYTHONPATH": str(Path(neglab.__file__).resolve().parent.parent), **(env_update or {})}
    return subprocess.run([sys.executable, *args], env=env, stderr=subprocess.PIPE, text=True, **kwargs)


@pytest.fixture(params=["closed pipe", "/dev/full"])
def unwritable_stdout(request):
    """A file descriptor whose every write fails: EPIPE or ENOSPC."""
    if request.param == "/dev/full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        fd = os.open("/dev/full", os.O_WRONLY)
    else:
        read, fd = os.pipe()
        os.close(read)
    yield fd
    os.close(fd)


def _batch_of_2000(tmp_path):
    """A 2,000-row batch, whose negate document in JSON is some 300 kB."""
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([[k / 2048, 1 - k / 2048] for k in range(2000)]))
    return ["--file", str(path), "--format", "json"]


def _assert_one_stdout_error(proc):
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("neglab: error: cannot write stdout: [Errno ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("source", ["uniform", "file"])
def test_stdout_that_cannot_be_written_exits_4(tmp_path, unwritable_stdout, source):
    # a few bytes fail at the flush, a 2,000-row document already at the write
    argv = ["--dist", "uniform:2"] if source == "uniform" else _batch_of_2000(tmp_path)
    _assert_one_stdout_error(_child("-m", "neglab", "negate", *argv, stdout=unwritable_stdout))


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_reader_that_leaves_mid_document_exits_4(tmp_path, unbuffered):
    # the reader takes one byte of a document larger than the pipe holds, so a
    # write comes back short and the next one fails; under PYTHONUNBUFFERED the
    # text layer alone would drop the rest of the short write and exit 0
    read, write = os.pipe()
    reader = subprocess.Popen([sys.executable, "-c", "import os; os.read(0, 1)"], stdin=read)
    os.close(read)
    try:
        proc = _child("-m", "neglab", "negate", *_batch_of_2000(tmp_path), stdout=write,
                      env_update={"PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write)
        reader.wait()
    _assert_one_stdout_error(proc)


def test_a_closed_stdout_exits_4():
    # the process starts with file descriptor 1 closed, so sys.stdout is None
    _assert_one_stdout_error(_child("-m", "neglab", "negate", "--dist", "uniform:2",
                                    preexec_fn=lambda: os.close(1)))


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]], ids=["neglab", "verify"])
def test_help_on_a_stdout_that_cannot_be_written_exits_4(unwritable_stdout, argv):
    # argparse drops a failed write of the help text, and the process exited 0
    _assert_one_stdout_error(_child("-m", "neglab", *argv, stdout=unwritable_stdout))


def test_help_on_a_closed_stdout_exits_4():
    # argparse writes the help to stderr where sys.stdout is None, and exited 0
    _assert_one_stdout_error(_child("-m", "neglab", "verify", "--help",
                                    preexec_fn=lambda: os.close(1)))


def _read_only_stderr():
    os.dup2(os.open(os.devnull, os.O_RDONLY), 2)


@pytest.mark.parametrize("argv, expected", [
    (["negate", "--dist", "uniform:2"], EXIT_OK),
    (["negate", "--dist", "0.6,0.6"], EXIT_VALIDATION),
    (["dissim", "--dist", "0.5,0.5000000000000001", "--alpha", "1021"], EXIT_VALIDATION),
    (["negate"], EXIT_USAGE),
])
@pytest.mark.parametrize("stderr", [lambda: os.close(2), _read_only_stderr], ids=["closed", "read_only"])
def test_a_stderr_that_cannot_be_written_leaves_stdout_and_the_exit_code_as_they_are(argv, expected, stderr):
    # an error line has nowhere to go, and never goes to stdout
    usable = _child("-m", "neglab", *argv, stdout=subprocess.PIPE)
    unusable = _child("-m", "neglab", *argv, stdout=subprocess.PIPE, preexec_fn=stderr)
    assert usable.returncode == unusable.returncode == expected
    assert unusable.stdout == usable.stdout and "neglab:" not in unusable.stdout
    assert unusable.stderr == ""


def test_the_process_entry_freezes_the_collector_before_exit():
    # what is still alive at exit is not rescanned by the shutdown collections
    code = ("import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
            "sys.argv = ['neglab', 'negate', '--dist', 'uniform:2']\n"
            "runpy.run_module('neglab', run_name='__main__', alter_sys=True)\n")
    proc = _child("-c", code, stdout=subprocess.DEVNULL)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert int(proc.stderr) > 0


def test_the_neglab_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["scripts"] == {"neglab": "neglab.__main__:run"}


def test_the_cli_module_is_not_a_script():
    proc = _child("-m", "neglab.cli", "--help", stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == EXIT_OK
    assert "negate" in out


def test_json_output_is_one_compact_line(capsys):
    code, out, _ = run(capsys, "verify", "--dist", "0.5,0.3,0.2", "--format", "json")
    assert code == EXIT_OK
    assert out.endswith("\n") and out.count("\n") == 1
    assert out == json.dumps(json.loads(out)) + "\n"


# --- CSV against the DictWriter renderer it replaced, applied to JSON ------

def _oracle_fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.15g}"
    return str(x)


def _oracle_negate(d_idx, rec):
    return [
        {"dist": d_idx, "index": i, "p": v, "negation": nb, "double_negation": nbb}
        for i, (v, nb, nbb) in enumerate(
            zip(rec["distribution"], rec["negation"], rec["double_negation"])
        )
    ]


def _oracle_entropy(d_idx, rec):
    return [{"dist": d_idx, **{k: v for k, v in rec.items() if k != "distribution"}}]


def _oracle_converge(d_idx, rec):
    return [
        {
            "dist": d_idx,
            "step": k,
            "distance": distance,
            "entropy_bits": entropy,
            "converged": rec["converged"],
            "oscillating": rec["oscillating"],
        }
        for k, (distance, entropy) in enumerate(zip(rec["distances"], rec["entropies"]))
    ]


def _oracle_dissim(d_idx, rec):
    levels = [("alpha", r["alpha"], r) for r in rec["profile"]]
    levels += [("iterate", k, r) for k, r in enumerate(rec["iterated"]["results"], start=1)]
    return [
        {
            "dist": d_idx,
            "kind": kind,
            "level": level,
            "value": r["value"],
            "closed_form_value": r["value"],
            "l1": r["l1"],
            "properties_hold": rec["properties"]["holds"],
        }
        for kind, level, r in levels
    ]


def _oracle_cert_rows(d_idx, cert, prefix=""):
    name = prefix + cert["name"]
    rows = [
        {
            "dist": d_idx,
            "name": name,
            "lhs": cert["lhs"],
            "rhs": cert["rhs"],
            "slack": cert["slack"],
            "holds": cert["holds"],
            "equality": cert["equality"],
            "infinite": cert["infinite"],
        }
    ]
    for sub in cert["detail"]:
        rows += _oracle_cert_rows(d_idx, sub, name + "/")
    return rows


def _oracle_verify(d_idx, rec):
    return [row for cert in rec["certificates"] for row in _oracle_cert_rows(d_idx, cert)]


_ORACLE_ROWS = {
    "negate": _oracle_negate,
    "entropy": _oracle_entropy,
    "converge": _oracle_converge,
    "dissim": _oracle_dissim,
    "verify": _oracle_verify,
    "report": _oracle_cert_rows,
}


def _oracle_csv(doc):
    """The CSV of a JSON document, rendered one dict row at a time."""
    if "error" in doc:
        err = doc["error"]
        rows = [
            {
                "dist": err["index"],
                "error": err["why"],
                "sum_error": err["report"]["sum_error"],
                "bad_indices": " ".join(map(str, err["report"]["bad_indices"])),
            }
        ]
    else:
        to_rows = _ORACLE_ROWS[doc["command"]]
        rows = [row for idx, rec in enumerate(doc["results"]) for row in to_rows(idx, rec)]
    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _oracle_fmt(v) for k, v in row.items()})
    return buf.getvalue()


# --- text against the dict-walking renderer it replaced, applied to JSON ----

def _oracle_vec(values):
    return ", ".join(_oracle_fmt(v) for v in values)


def _oracle_cert_lines(cert, out, indent=""):
    mark = "ok" if cert["holds"] else "FAIL"
    eq = " (equality)" if cert["equality"] else ""
    inf = " (infinite)" if cert["infinite"] else ""
    out.append(
        f"{indent}[{mark}] {cert['name']}: lhs={_oracle_fmt(cert['lhs'])} "
        f"rhs={_oracle_fmt(cert['rhs'])} slack={_oracle_fmt(cert['slack'])}{eq}{inf}"
    )
    for sub in cert["detail"]:
        _oracle_cert_lines(sub, out, indent + "  ")


def _oracle_text_negate(rec, out):
    out.append(f"  negation:        {_oracle_vec(rec['negation'])}")
    out.append(f"  double negation: {_oracle_vec(rec['double_negation'])}")


def _oracle_text_entropy(rec, out):
    out.append(
        f"  entropy {_oracle_fmt(rec['entropy_bits'])} bits of "
        f"{_oracle_fmt(rec['max_entropy_bits'])} max, gap {_oracle_fmt(rec['gap_bits'])}"
    )


def _oracle_text_converge(rec, out):
    state = "converged" if rec["converged"] else (
        "oscillating (period 2, never converges)" if rec["oscillating"] else "stopped at max_steps"
    )
    out.append(f"  {state} after {rec['steps']} steps")
    out.append(f"  final distance {_oracle_fmt(rec['distances'][-1])}, "
               f"entropy {_oracle_fmt(rec['entropies'][-1])} bits")


def _oracle_text_dissim(rec, out):
    for r in rec["profile"]:
        out.append(f"  alpha={r['alpha']}: value={_oracle_fmt(r['value'])} (l1={_oracle_fmt(r['l1'])})")
    _oracle_cert_lines(rec["properties"], out, "  ")
    iterated = rec["iterated"]
    vals = _oracle_vec([r["value"] for r in iterated["results"]])
    out.append(
        f"  vs iterates 1..{len(iterated['results'])}: {vals} "
        f"(non-decreasing: {_oracle_fmt(iterated['non_decreasing'])})"
    )


def _oracle_text_verify(rec, out):
    for cert in rec["certificates"]:
        _oracle_cert_lines(cert, out, "  ")
    for note in rec.get("notes", ()):
        out.append(f"  note: {note}")


_ORACLE_LINES = {
    "negate": _oracle_text_negate,
    "entropy": _oracle_text_entropy,
    "converge": _oracle_text_converge,
    "dissim": _oracle_text_dissim,
    "verify": _oracle_text_verify,
    "report": _oracle_cert_lines,
}


def _oracle_text(doc):
    """The text of a JSON document, rendered by walking its dicts."""
    out = [f"command: {doc['command']}"]
    if "error" in doc:
        err = doc["error"]
        rep = err["report"]
        out.append(
            f"validation failed for distribution {err['index']}: {err['why']} "
            f"(sum_error={_oracle_fmt(rep['sum_error'])}, bad_indices={rep['bad_indices']})"
        )
    render = _ORACLE_LINES[doc["command"]]
    for idx, rec in enumerate(doc["results"]):
        if "distribution" in rec:
            out.append(f"distribution {idx}: {_oracle_vec(rec['distribution'])}")
        render(rec, out)
    out.append(f"all_hold: {_oracle_fmt(doc['all_hold'])}")
    return "\n".join(out) + "\n"


def _csv_batch():
    """Every n in 2..16, rows with exact zeros, a point mass and uniform rows."""
    rng = np.random.default_rng(11)
    rows = [rng.dirichlet(np.ones(n)).tolist() for n in range(2, 17)]
    for n in (3, 7, 12):
        p = rng.dirichlet(np.ones(n))
        p[rng.choice(n, size=n // 2, replace=False)] = 0.0
        rows.append((p / p.sum()).tolist())
    return rows + [[0.0, 0.0, 1.0, 0.0], [0.2] * 5, [0.5, 0.5], rows[4]]


_BATCH_ARGV = pytest.mark.parametrize("argv", [
    ["negate"],
    ["entropy"],
    ["converge"],
    ["converge", "--max-steps", "2"],
    ["dissim"],
    ["dissim", "--alpha", "0", "--depth", "1"],
    ["dissim", "--alpha", "0,1,2,3,4,5,6,7", "--depth", "8"],
    ["verify", "--fn", "neg_log"],
    ["verify", "--fn", "square"],
    ["verify", "--fn", "x_log_x"],
])
_BATCH_ROWS = pytest.mark.parametrize(
    "rows", [_csv_batch(), [[0.5, 0.5], [0.3, 0.2, 0.5], [0.6, 0.6]]],
    ids=["mixed_n", "validation_error"],
)


@_BATCH_ARGV
@_BATCH_ROWS
def test_csv_equals_the_dict_rows_of_the_json_document(capsys, tmp_path, argv, rows):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(rows))
    code, doc = run_json(capsys, *argv, "--file", str(path))
    assert code == run(capsys, *argv, "--file", str(path))[0]
    assert run(capsys, *argv, "--file", str(path), "--format", "csv")[1] == _oracle_csv(doc)


@_BATCH_ARGV
@_BATCH_ROWS
def test_text_equals_the_dict_lines_of_the_json_document(capsys, tmp_path, argv, rows):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(rows))
    code, doc = run_json(capsys, *argv, "--file", str(path))
    assert run(capsys, *argv, "--file", str(path), "--format", "text")[:2] == (code, _oracle_text(doc))


@_BATCH_ARGV
@_BATCH_ROWS
def test_json_documents_are_the_bytes_json_dumps_writes(capsys, tmp_path, argv, rows):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(rows))
    code, out, err = run(capsys, *argv, "--file", str(path), "--format", "json")
    assert (code, err) == (EXIT_VALIDATION if [0.6, 0.6] in rows else EXIT_OK, "")
    assert out == json.dumps(json.loads(out)) + "\n"


def test_json_verify_writes_infinite_sides_nan_slacks_and_notes_as_json_dumps(capsys, tmp_path):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(_csv_batch()))
    code, out, _ = run(capsys, "verify", "--file", str(path), "--format", "json")
    assert code == EXIT_OK
    assert out == json.dumps(json.loads(out)) + "\n"
    assert "Infinity" in out and "NaN" in out
    assert out.count('"notes": ["partial_mean_chain skipped: needs n >= 3"]') == 2


@pytest.mark.parametrize("bump", [False, True])
def test_json_report_is_the_bytes_json_dumps_writes(capsys, monkeypatch, bump):
    if bump:
        _bump_golden(monkeypatch)
    code, out, _ = run(capsys, "report", "--format", "json")
    assert code == (EXIT_FAILURE if bump else EXIT_OK)
    assert out == json.dumps(json.loads(out)) + "\n"


def test_json_verify_with_failing_certificates_is_the_bytes_json_dumps_writes(
    capsys, monkeypatch, tmp_path
):
    # no valid input fails a certificate, so fail a top-level column and a
    # detail column for every other input of each group
    def failing(column):
        holds = column.holds.copy()
        holds[::2] = False
        return dataclasses.replace(column, holds=holds, equality=column.equality & holds)

    def failing_suites(f, dists):
        suite = cli_certificate_suites(f, dists)
        chain = suite[-1]
        return [failing(suite[0]), *suite[1:-1],
                dataclasses.replace(chain, detail=(failing(chain.detail[0]), *chain.detail[1:]))]

    cli_certificate_suites = cli.certificate_suites
    monkeypatch.setattr(cli, "certificate_suites", failing_suites)
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(_csv_batch()))
    code, out, _ = run(capsys, "verify", "--file", str(path), "--format", "json")
    assert code == EXIT_FAILURE
    assert out == json.dumps(json.loads(out)) + "\n"
    doc = json.loads(out)
    assert doc["all_hold"] is False
    failing_paths = ["mixture_bound", "entropy_chain/entropy_le_negation_entropy"]
    assert {tuple(rec["failing"]) for rec in doc["results"]} == {(), tuple(failing_paths)}
    assert all(rec["all_hold"] is (not rec["failing"]) for rec in doc["results"])
    # the same failing flags as CSV and text
    for fmt, oracle in (("csv", _oracle_csv), ("text", _oracle_text)):
        assert run(capsys, "verify", "--file", str(path), "--format", fmt)[:2] == (EXIT_FAILURE, oracle(doc))


def test_dissim_csv_reads_a_failing_properties_column(capsys, monkeypatch, tmp_path):
    # no valid input fails the properties certificate, so fail every other one
    def failing_profiles(dists, alphas, depth):
        profiles = cli_negation_profiles(dists, alphas, depth)
        holds = profiles.properties.holds.copy()
        holds[::2] = False
        return profiles._replace(properties=dataclasses.replace(profiles.properties, holds=holds))

    cli_negation_profiles = cli.negation_profiles
    monkeypatch.setattr(cli, "negation_profiles", failing_profiles)
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(_csv_batch()))
    code, doc = run_json(capsys, "dissim", "--file", str(path))
    assert code == EXIT_FAILURE
    assert {rec["properties"]["holds"] for rec in doc["results"]} == {True, False}
    code, out, _ = run(capsys, "dissim", "--file", str(path), "--format", "csv")
    assert code == EXIT_FAILURE
    assert out == _oracle_csv(doc)
    code, out, _ = run(capsys, "dissim", "--file", str(path), "--format", "text")
    assert code == EXIT_FAILURE
    assert out == _oracle_text(doc)


def test_report_csv_equals_the_dict_rows_of_the_json_document(capsys, monkeypatch):
    # as it stands, then with a failing fixture
    for expected in (EXIT_OK, EXIT_FAILURE):
        if expected == EXIT_FAILURE:
            _bump_golden(monkeypatch)
        code, doc = run_json(capsys, "report")
        assert code == expected
        assert run(capsys, "report", "--format", "csv")[1] == _oracle_csv(doc)


def test_report_text_equals_the_dict_lines_of_the_json_document(capsys, monkeypatch):
    # as it stands, then with a failing fixture
    for expected in (EXIT_OK, EXIT_FAILURE):
        if expected == EXIT_FAILURE:
            _bump_golden(monkeypatch)
        code, doc = run_json(capsys, "report")
        assert code == expected
        assert run(capsys, "report", "--format", "text")[1] == _oracle_text(doc)


def test_report_writes_a_name_that_needs_escaping_in_every_format(capsys, monkeypatch):
    # a quote and a comma need CSV quoting, a quote a JSON escape, and a
    # percent sign must come through each format's template as itself
    name = 'golden "4", 100%'
    first = cli._GOLDEN[0][0]
    monkeypatch.setattr(cli, "_GOLDEN", tuple((name if fixture == first else fixture, *rest)
                                               for fixture, *rest in cli._GOLDEN))
    code, out, _ = run(capsys, "report", "--format", "json")
    assert code == EXIT_OK
    assert out == json.dumps(json.loads(out)) + "\n"
    doc = json.loads(out)
    assert doc["results"][0]["name"] == name
    assert run(capsys, "report", "--format", "csv")[1] == _oracle_csv(doc)
    assert run(capsys, "report", "--format", "text")[1] == _oracle_text(doc)


# --- exit-code contract under arbitrary --file contents and flags -----------

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=16,
)
# documents the loader accepts, so the handlers run too
_DISTRIBUTION_DOCUMENTS = st.sampled_from([
    [0.5, 0.5],
    [[1, 0]],
    [[0.2, 0.3, 0.5], [0.25, 0.25, 0.25, 0.25]],
    [[0.6, 0.6]],
    {"input": {"distributions": [[0.1, 0.0, 0.9]]}},
    [[1e308, 1e308]],
    [[-5, 3]],
])
_COMMAND_NAMES = st.sampled_from(["negate", "entropy", "converge", "verify", "dissim", "report", "bogus"])
_FLAGS = st.lists(st.sampled_from([
    ("--format", "json"), ("--format", "csv"), ("--format", "text"), ("--format", "xml"),
    ("--fn", "neg_log"), ("--fn", "square"), ("--fn", "x_log_x"), ("--fn", "cube"),
    ("--tol", "1e-9"), ("--tol", "0.5"), ("--tol", "0"), ("--tol", "nan"), ("--tol", "inf"),
    ("--tol", "1"), ("--tol", "10"),
    ("--max-steps", "3"), ("--max-steps", "0"), ("--max-steps", "x"),
    ("--alpha", "0,2"), ("--alpha", "2,1"), ("--alpha", "5000"), ("--alpha", "a"), ("--alpha", "0,1022"),
    ("--depth", "2"), ("--depth", "0"),
    ("--dist", "0.5,0.5"), ("--dist", "uniform:3"), ("--dist", "1/0"), ("--dist", "uniform:1"),
    ("--out", "."),  # a directory
]), max_size=4)


@settings(max_examples=150)
@given(document=_JSON_VALUES | _DISTRIBUTION_DOCUMENTS, command=_COMMAND_NAMES, flags=_FLAGS)
def test_any_file_and_flags_keep_the_exit_code_contract(
    tmp_path_factory, document, command, flags
):
    path = tmp_path_factory.getbasetemp() / "fuzz_input.json"
    path.write_text(json.dumps(document))
    argv = [command, "--file", str(path)] + [tok for flag in flags for tok in flag]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_FAILURE, EXIT_USAGE), argv
    assert "Traceback" not in err.getvalue()


# --- a batch's groups in forked worker processes ----------------------------

def _wide_batch():
    """Six Dirichlet(1) rows of n = 512, a third of the first one's entries zero."""
    rows = np.random.default_rng(512).dirichlet(np.ones(512), size=6)
    rows[0, ::3] = 0.0
    return (rows / rows.sum(axis=1, keepdims=True)).tolist()


def _in_workers(capsys, argv, workers):
    """The exit code, stdout and stderr of ``main(argv, workers=workers)``,
    asserting that it left no child process behind."""
    code = main(argv, workers=workers)
    captured = capsys.readouterr()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return code, captured.out, captured.err


@pytest.fixture
def a_worker_per_value(monkeypatch):
    """Every value of a batch may have a worker of its own, so that small batches fork."""
    monkeypatch.setattr(cli, "_VALUES_PER_WORKER", 1)


@pytest.mark.parametrize("workers", [1, 2, 3, 4, 7])
def test_slices_are_contiguous_runs_of_about_equal_values(a_worker_per_value, workers):
    groups = cli._validate(_csv_batch(), 1e-9)
    slices = cli._slices(groups, workers)
    assert len(slices) == workers
    pieces = [piece for part in slices for piece in part]
    # the groups in order, a group cut at a slice's end going on in the next
    assert [n for n, _ in groupby(group[0].n for _, group in pieces)] == [
        group[0].n for _, group in groups]
    joined = {}
    for idxs, group in pieces:
        positions, rows = joined.setdefault(group[0].n, ([], []))
        positions += idxs
        rows += group
    assert list(joined.values()) == groups
    total = sum(len(idxs) * group[0].n for idxs, group in groups)
    for part in slices:  # within a row of the largest n of an equal share
        assert abs(sum(len(idxs) * group[0].n for idxs, group in part) - total / workers) <= 16


@pytest.mark.parametrize("rows, slices", [(1, 1), (4095, 1), (4096, 2), (6143, 2), (6144, 3), (16384, 8)])
def test_each_worker_takes_at_least_values_per_worker_values(rows, slices):
    # rows of n = 2 offered eight workers: 4,096 rows are 8,192 values, two workers' worth
    groups = [(list(range(rows)), [distribution.uniform(2)] * rows)]
    assert len(cli._slices(groups, 8)) == slices


@_BATCH_ARGV
@pytest.mark.parametrize("rows", [_csv_batch(), _wide_batch()], ids=["mixed_n", "n_512"])
def test_workers_write_the_bytes_of_one_process(capsys, tmp_path, a_worker_per_value, argv, rows):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(rows))
    for fmt in ("json", "csv", "text"):
        full = [*argv, "--file", str(path), "--format", fmt]
        alone = _in_workers(capsys, full, 1)
        assert alone[0] == EXIT_OK
        for workers in (2, 3):
            assert _in_workers(capsys, full, workers) == alone


def test_report_in_workers_is_report_in_one_process(capsys, a_worker_per_value):
    for fmt in ("json", "csv", "text"):
        alone = _in_workers(capsys, ["report", "--format", fmt], 1)
        for workers in (2, 3):
            assert _in_workers(capsys, ["report", "--format", fmt], workers) == alone


_QUARTERS = [0.25] * 4
#: rows whose dissimilarity at alpha = 1021 underflows, naming l1 = 2.2e-16 and 1.1e-16
_UNDERFLOW_2 = [0.5, 0.5000000000000001]
_UNDERFLOW_4 = [0.25, 0.25, 0.25000000000000006, 0.24999999999999994]


def _two_groups(tmp_path):
    """20 rows of n = 4, then one of n = 9, which the last slice holds."""
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([*[_QUARTERS] * 20, [1 / 9] * 9]))
    return path


@pytest.mark.parametrize("rows, argv, expected, named, at", [
    # input 1, in the n = 2 group after the n = 4 group's 80 values, beats input 2 in the first slice
    ([_QUARTERS, _UNDERFLOW_2, _UNDERFLOW_4, *[_QUARTERS] * 18], ["dissim", "--alpha", "1021"],
     EXIT_VALIDATION, "l1 = 2.220446049250313e-16", 1),
    # the n = 9 group, after the n = 4 group, is over verify's cap
    ([*[_QUARTERS] * 20, [1 / 9] * 9], ["verify"], EXIT_USAGE, "got n = 9", 20),
])
def test_an_error_in_a_child_slice_is_that_of_one_process(
    capsys, monkeypatch, tmp_path, a_worker_per_value, rows, argv, expected, named, at
):
    monkeypatch.setattr(cli, "MAX_VERIFY_N", 8)
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(rows))
    groups = cli._validate(rows, 1e-9)
    alone = _in_workers(capsys, [*argv, "--file", str(path)], 1)
    assert alone[0] == expected and named in alone[2] and alone[1] == ""
    for workers in (2, 3):
        assert at not in chain.from_iterable(idxs for idxs, _ in cli._slices(groups, workers)[0])
        assert _in_workers(capsys, [*argv, "--file", str(path)], workers) == alone


@pytest.mark.parametrize("raising_n", [4, 9], ids=["own_slice", "child_slice"])
def test_a_kernel_that_raises_raises_as_in_one_process(capsys, monkeypatch, tmp_path, a_worker_per_value,
                                                       raising_n):
    # the n = 4 group starts the first slice, which this process runs; the
    # n = 9 group ends the last one, which a child runs
    def entropies(rows):
        if rows.shape[1] == raising_n:
            raise ZeroDivisionError(f"n = {raising_n}")
        return cli_entropies(rows)

    cli_entropies = cli._entropy_reports
    monkeypatch.setattr(cli, "_entropy_reports", entropies)
    path = _two_groups(tmp_path)
    for workers in (1, 2, 3):
        with pytest.raises(ZeroDivisionError, match=f"^n = {raising_n}$"):
            main(["entropy", "--file", str(path)], workers=workers)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    capsys.readouterr()


def test_a_childs_warnings_are_issued_here_and_it_writes_no_stderr(capsys, monkeypatch, tmp_path,
                                                                   a_worker_per_value):
    def entropies(rows):
        if rows.shape[1] == 9:  # the group of the last slice
            warnings.warn("n = 9", UserWarning)
        return cli_entropies(rows)

    cli_entropies = cli._entropy_reports
    monkeypatch.setattr(cli, "_entropy_reports", entropies)
    path = _two_groups(tmp_path)
    argv = ["entropy", "--file", str(path)]
    with pytest.warns(UserWarning, match="^n = 9$"):
        alone = _in_workers(capsys, argv, 1)
    with pytest.warns(UserWarning, match="^n = 9$"):
        assert _in_workers(capsys, argv, 3) == alone
    assert alone[2] == ""


def test_a_child_that_dies_raises_here(capsys, monkeypatch, tmp_path, a_worker_per_value):
    def entropies(rows):
        if os.getpid() != parent:
            os._exit(1)  # as a child killed by a signal would, it sends nothing
        return cli_entropies(rows)

    cli_entropies, parent = cli._entropy_reports, os.getpid()
    monkeypatch.setattr(cli, "_entropy_reports", entropies)
    path = _two_groups(tmp_path)
    with pytest.raises(RuntimeError, match="^worker process [0-9]+ sent no result$"):
        _in_workers(capsys, ["entropy", "--file", str(path)], 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_slice_with_no_process_to_fork_runs_in_this_one(capsys, monkeypatch, tmp_path, a_worker_per_value):
    def fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    path = tmp_path / "batch.json"
    path.write_text(json.dumps(_csv_batch()))
    argv = ["verify", "--file", str(path), "--format", "json"]
    alone = _in_workers(capsys, argv, 1)
    monkeypatch.setattr(os, "fork", fork)
    assert _in_workers(capsys, argv, 3) == alone


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="one CPU to run on")
def test_one_cpu_and_all_cpus_write_the_same_bytes(tmp_path):
    # a verify_small-shaped batch, 16,000 values: python -m neglab splits it
    # over the CPUs it may run on, unless it may run on one
    rng = np.random.default_rng(7)
    rows = rng.dirichlet(np.ones(8), size=2000)
    rows[rng.random(2000) < 0.1, :3] = 0.0
    path = tmp_path / "batch.json"
    path.write_text(json.dumps((rows / rows.sum(axis=1, keepdims=True)).tolist()))
    cpu = min(os.sched_getaffinity(0))
    for argv in (["verify", "--fn", "neg_log", "--format", "json"], ["converge", "--format", "text"],
                 ["dissim", "--format", "csv"]):
        spread, alone = (_child("-m", "neglab", *argv, "--file", str(path), stdout=subprocess.PIPE, **pin)
                         for pin in ({}, {"preexec_fn": lambda: os.sched_setaffinity(0, {cpu})}))
        assert spread.returncode == EXIT_OK
        assert (spread.returncode, spread.stdout, spread.stderr) == (alone.returncode, alone.stdout, alone.stderr)


def _joined_batches():
    """Two mixed-n batches A and B that share n = 3 and n = 5, each with rows
    with exact zeros, a point mass or a uniform row."""
    rng = np.random.default_rng(33)

    def rows(ns):
        out = [rng.dirichlet(np.ones(n)) for n in ns]
        out[1][[0, 2]] = 0.0
        return [(row / row.sum()).tolist() for row in out]

    a = [*rows([3, 5, 2, 3, 8]), [1.0, 0.0, 0.0]]
    b = [*rows([5, 4, 3, 2]), [0.2] * 5]
    return a, b


def _reindexed(text: str, by: int, pattern: str) -> str:
    """``text`` with the input index that ``pattern``'s group matches at the
    start of each line raised by ``by``."""
    return re.sub(pattern, lambda m: m[0].replace(m[1], str(int(m[1]) + by), 1), text, flags=re.M)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("command", [
    ["negate"], ["entropy"], ["converge"], ["dissim"],
    ["verify", "--fn", "neg_log"], ["verify", "--fn", "square"], ["verify", "--fn", "x_log_x"],
], ids=" ".join)
def test_the_records_of_a_joined_batch_are_each_batchs_in_turn(capsys, tmp_path, a_worker_per_value,
                                                               command, workers):
    # A + B is A's records, then B's with their input index moved by len(A):
    # the groups of one n in both batches are cut and joined anew, and with
    # two workers each batch is split at its own place
    a, b = _joined_batches()
    paths = {}
    for name, rows in (("a", a), ("b", b), ("ab", a + b)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(rows))
    for fmt in ("json", "csv", "text"):
        (code_a, out_a, err_a), (code_b, out_b, err_b), (code, out, err) = (
            _in_workers(capsys, [*command, "--file", str(paths[name]), "--format", fmt], workers)
            for name in ("a", "b", "ab"))
        assert err_a == err_b == err == ""
        assert code == (EXIT_OK if code_a == code_b == EXIT_OK else EXIT_FAILURE)
        if fmt == "json":
            doc_a, doc_b, doc = map(json.loads, (out_a, out_b, out))
            assert [json.dumps(r) for r in doc["results"]] == [
                json.dumps(r) for r in doc_a["results"] + doc_b["results"]]
            assert doc["all_hold"] == (doc_a["all_hold"] and doc_b["all_hold"])
        elif fmt == "csv":
            header, _, rows_a = out_a.partition("\r\n")
            assert out == header + "\r\n" + rows_a + _reindexed(
                out_b.partition("\r\n")[2], len(a), r"^(\d+),")
        else:
            head, _, body_b = out_b.partition("\n")
            body_a = out_a.partition("\n")[2].rpartition("all_hold: ")[0]
            body_b = body_b.rpartition("all_hold: ")[0]
            assert out == (head + "\n" + body_a + _reindexed(body_b, len(a), r"^distribution (\d+): ")
                           + f"all_hold: {'true' if code == EXIT_OK else 'false'}\n")


def test_every_default_is_the_librarys():
    # the tolerance, --max-steps and --depth each have one source, the library
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    parse = cli._build_parser().parse_args
    assert parse(["converge"]).tol is distribution.DEFAULT_TOLERANCE
    assert default(converge_traces, "tolerance") is distribution.DEFAULT_TOLERANCE
    assert parse(["converge"]).max_steps == default(converge_traces, "max_steps") == 1000
    assert parse(["dissim"]).depth == default(negation_profiles, "depth") == 3
