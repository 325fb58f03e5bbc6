"""CLI plumbing: grammar, formats, exit codes, round-trips."""

import contextlib
import csv
import dataclasses
import gc
import io
import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from neglab import (
    MAX_DEPTH,
    SQUARE,
    certificate_suite,
    cli,
    converge_to_uniform,
    distribution,
    make_dist,
    negation_profile,
)
from neglab.cli import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    MAX_UNIFORM_N,
    main,
)


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
    monkeypatch.setenv("NEGLAB_TOL", "1e-2")
    # off by 1e-3 in mass: passes at the env tolerance
    code, doc = run_json(capsys, "negate", "--dist", "0.5,0.501")
    assert code == EXIT_OK
    assert doc["input"]["tolerance"] == 1e-2
    # an explicit flag wins over the env var
    monkeypatch.setenv("NEGLAB_TOL", "1e-12")
    code, _, _ = run(capsys, "negate", "--dist", "0.5,0.501", "--tol", "1e-2")
    assert code == EXIT_OK


def test_env_tolerance_invalid_exits_4(capsys, monkeypatch):
    monkeypatch.setenv("NEGLAB_TOL", "not-a-number")
    code, _, _ = run(capsys, "negate", "--dist", "0.5,0.5")
    assert code == EXIT_USAGE


def test_non_finite_tolerance_exits_4(capsys, monkeypatch):
    code, _, err = run(capsys, "negate", "--dist", "0.5,0.5", "--tol", "inf")
    assert code == EXIT_USAGE and "finite" in err
    monkeypatch.setenv("NEGLAB_TOL", "inf")
    code, _, _ = run(capsys, "negate", "--dist", "0.5,0.5")
    assert code == EXIT_USAGE


def test_tolerance_of_one_or_more_exits_4(capsys, monkeypatch):
    # a tolerance of 1 would read 5,-3 as 1,0
    code, out, err = run(capsys, "negate", "--dist", "5,-3", "--tol", "10")
    assert code == EXIT_USAGE and out == ""
    assert err == "neglab: error: --tol must be finite and in (0, 1), got 10.0\n"
    monkeypatch.setenv("NEGLAB_TOL", "1")
    code, out, err = run(capsys, "negate", "--dist", "0.5,0.5")
    assert code == EXIT_USAGE and out == ""
    assert err == "neglab: error: NEGLAB_TOL must be finite and in (0, 1), got 1.0\n"


def test_report_takes_no_tolerance(capsys, monkeypatch):
    # report reads no distributions, so a tolerance would change nothing
    code, out, err = run(capsys, "report", "--tol", "5")
    assert code == EXIT_USAGE and out == "" and "--tol" in err
    monkeypatch.setenv("NEGLAB_TOL", "not-a-number")
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
        assert doc["error"]["report"] == {"ok": False, "sum_error": pytest.approx(0.1),
                                          "bad_indices": []}


def test_single_entry_row_after_good_rows_exits_2_at_its_index(capsys, tmp_path):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([[0.2, 0.3, 0.5], [0.5, 0.5], [1.0], [0.9, 0.3]]))
    code, doc = run_json(capsys, "entropy", "--file", str(path))
    assert code == EXIT_VALIDATION
    assert doc["error"]["index"] == 2
    assert doc["error"]["why"] == "a distribution needs at least 2 outcomes, got 1"
    assert doc["error"]["report"] == {"ok": False, "sum_error": math.inf, "bad_indices": []}


def test_verify_mixed_lengths_keeps_input_order(capsys, tmp_path):
    rows = [[0.2, 0.3, 0.5], [0.5, 0.5], [0.1, 0.2, 0.3, 0.4], [0.6, 0.4], [0.0, 0.5, 0.5]]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(rows))
    code, doc = run_json(capsys, "verify", "--file", str(path), "--fn", "square")
    assert code == EXIT_OK
    assert [rec["distribution"] for rec in doc["results"]] == rows
    for rec in doc["results"]:
        certs = certificate_suite(SQUARE, make_dist(rec["distribution"]))
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


def test_uniform_size_limit(capsys):
    # the bound is checked before the n values are built, so 10**18 costs nothing
    for n in (10**18, MAX_UNIFORM_N + 1, 1):
        code, out, err = run(capsys, "negate", "--dist", f"uniform:{n}")
        assert code == EXIT_USAGE
        assert out == ""
        assert str(MAX_UNIFORM_N) in err and "Traceback" not in err


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
    code, converge = run_json(capsys, "converge", "--file", str(path), "--max-steps", "40")
    assert code == EXIT_OK
    code, dissim = run_json(capsys, "dissim", "--file", str(path), "--alpha", "0,2,5", "--depth", "4")
    assert code == EXIT_OK
    for row, c, d in zip(rows, converge["results"], dissim["results"], strict=True):
        p = make_dist(row)
        trace = converge_to_uniform(p, tolerance=1e-9, max_steps=40).as_dict()
        assert c == json.loads(json.dumps({"distribution": p.tolist(), "tolerance": 1e-9, **trace}))
        profile = negation_profile(p, [0, 2, 5], 4).as_dict()
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


@pytest.mark.parametrize("argv", [
    ["dissim", "--dist", "0.5,0.3,0.2"],
    ["dissim", "--dist", "0.5,0.3,0.2", "--format", "json"],
    ["report"],
])
def test_failed_cross_check_exits_3(capsys, monkeypatch, argv):
    # no correct arithmetic fails the cross-check, so fail every one; the
    # package attribute neglab.dissimilarity is the function, not the module
    monkeypatch.setattr(sys.modules["neglab.dissimilarity"], "_CROSS_CHECK_TOL", -1.0)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_FAILURE
    assert out == ""
    assert err.startswith("neglab: cross-check failed: literal value ")
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
    (gc.enable if collecting else gc.disable)()
    try:
        assert main(argv) == expected
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if before else gc.disable)()


def test_records_are_built_and_rendered_with_the_collector_paused(capsys, monkeypatch):
    seen = []

    def entropy_report(p):
        seen.append(gc.isenabled())
        return cli_entropy_report(p)

    def render_json(doc):
        seen.append(gc.isenabled())
        return cli_render_json(doc)

    cli_entropy_report, cli_render_json = cli.entropy_report, cli._render_json
    monkeypatch.setattr(cli, "entropy_report", entropy_report)
    monkeypatch.setattr(cli, "_render_json", render_json)
    assert gc.isenabled()
    assert main(["entropy", "--dist", "0.5,0.5", "--format", "json"]) == EXIT_OK
    assert seen == [False, False]
    assert gc.isenabled()


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
            "closed_form_value": r["closed_form_value"],
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


def test_report_csv_equals_the_dict_rows_of_the_json_document(capsys):
    code, doc = run_json(capsys, "report")
    assert code == EXIT_OK
    assert run(capsys, "report", "--format", "csv")[1] == _oracle_csv(doc)


def test_report_text_equals_the_dict_lines_of_the_json_document(capsys):
    code, doc = run_json(capsys, "report")
    assert code == EXIT_OK
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
