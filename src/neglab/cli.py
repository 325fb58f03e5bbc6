"""Command-line front end.

Subcommands cover batch negation, entropy reports, convergence traces,
the full certificate suite, dissimilarity profiles, and a golden-fixture
report.  Output goes to stdout or ``--out`` as JSON (one compact line,
full precision, round-trip safe), CSV, or readable text; numeric text is
printed with 15 significant digits.

Exit codes are a stable contract: 0 success, 2 input validation failure,
3 certificate or fixture failure (or a failed cross-check), 4 usage error.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import os
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .certificates import Certificate, _flat, _gathered, _input_dicts, _input_failures, compare
from .distribution import (DEFAULT_TOLERANCE, DimensionError, DomainError, ValidationReport,
                           _check_int, _check_tolerance, make_dist, make_dists)
from .dissimilarity import MAX_DEPTH, CrossCheckError, _check_alphas, negation_profile, negation_profiles
from .entropy import entropy_report, shannon_entropy
from .jensen import (
    NEG_LOG,
    BUILTIN_FUNCTIONS,
    certificate_suites,
    get_function,
    partial_mean_chain,
)
from .negation import converge_traces, negate, negate_twice, negation_pairs

__all__ = ["main", "EXIT_OK", "EXIT_VALIDATION", "EXIT_FAILURE", "EXIT_USAGE", "MAX_UNIFORM_N"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_FAILURE = 3
EXIT_USAGE = 4

#: largest n accepted by ``--dist uniform:n``; checked before the n values are built
MAX_UNIFORM_N = 1 << 20


class _UsageError(Exception):
    """Bad flags or malformed values; maps to exit code 4."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for validation
        raise _UsageError(message)


def _fmt(x) -> str:
    """15 significant digits for text and CSV output."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.15g}"
    return str(x)


def _cells(*values) -> list[str]:
    """One CSV row: ``_fmt`` of each value."""
    return list(map(_fmt, values))


def _parse_scalar(token: str) -> float:
    token = token.strip()
    if not token:
        raise _UsageError("empty value in distribution")
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            return float(Fraction(int(num.strip()), int(den.strip())))
        return float(token)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise _UsageError(f"cannot parse value {token!r}: {exc}") from None


def _parse_dist_text(text: str) -> list[float]:
    text = text.strip()
    if text.startswith("uniform:"):
        tail = text.split(":", 1)[1]
        try:
            n = int(tail)
        except ValueError:
            raise _UsageError(f"uniform:n needs an integer, got {tail!r}") from None
        if not 2 <= n <= MAX_UNIFORM_N:
            raise _UsageError(f"uniform:n needs 2 <= n <= {MAX_UNIFORM_N}, got {n}")
        return [1.0 / n] * n
    return [_parse_scalar(tok) for tok in text.split(",")]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _load_file(path: str) -> list[list[float]]:
    """JSON array of distributions, or CSV with one distribution per row.

    A flat JSON array of numbers is taken as a single distribution, and a
    JSON object emitted by this tool is re-ingested through its
    ``input.distributions`` field, so output documents round-trip.  Any
    other JSON shape is a usage error.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None
    stripped = text.lstrip()
    if not (stripped.startswith("[") or stripped.startswith("{")):
        try:
            rows = [[c.strip() for c in row if c.strip()] for row in csv.reader(io.StringIO(text))]
        except csv.Error as exc:
            raise _UsageError(f"invalid CSV in {path}: {exc}") from None
        return [[_parse_scalar(c) for c in cells] for cells in rows if cells]
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise _UsageError(f"invalid JSON in {path}: {exc}") from None
    if isinstance(data, dict):
        inp = data.get("input")
        data = inp.get("distributions") if isinstance(inp, dict) else None
        if data is None:
            raise _UsageError(f"{path}: JSON object lacks input.distributions")
    if isinstance(data, list) and data and all(map(_is_number, data)):
        data = [data]
    if not isinstance(data, list) or not all(
        isinstance(row, list) and all(map(_is_number, row)) for row in data
    ):
        raise _UsageError(f"{path}: expected a list of number lists or one flat number list")
    try:
        return [[float(v) for v in row] for row in data]
    except OverflowError:
        raise _UsageError(f"{path}: a number is too large for a float") from None


def _gather_inputs(args) -> list[list[float]]:
    if args.dist is not None and args.file is not None:
        raise _UsageError("--dist and --file cannot be used together")
    if args.dist:
        return [_parse_dist_text(args.dist)]
    if args.file:
        rows = _load_file(args.file)
        if not rows:
            raise _UsageError(f"{args.file}: no distributions found")
        return rows
    raise _UsageError("provide a distribution with --dist or --file")


def _flag(check, *args):
    """``check(*args)``, a library range rule on a flag's value, with its
    :class:`DomainError` as a usage error."""
    try:
        return check(*args)
    except DomainError as exc:
        raise _UsageError(str(exc)) from None


def _resolve_tolerance(args) -> float:
    if args.tol is not None:
        return _flag(_check_tolerance, "--tol", args.tol)
    env = os.environ.get("NEGLAB_TOL")
    if env is None or not env.strip():
        return DEFAULT_TOLERANCE
    try:
        tol = float(env)
    except ValueError:
        raise _UsageError(f"NEGLAB_TOL is not a number: {env!r}") from None
    return _flag(_check_tolerance, "NEGLAB_TOL", tol)


def _validate(raw: list[list[float]], tolerance: float):
    """Each same-length group of rows as (its positions, its ProbDists), in
    order of first appearance, or (index, report, why) for the first bad row.

    Rows of one length are screened as one block; the failure reported is
    the first in input order, whichever block it sits in.
    """
    positions: dict[int, list[int]] = {}
    for idx, row in enumerate(raw):
        positions.setdefault(len(row), []).append(idx)
    groups, failures = [], []
    for idxs in positions.values():
        try:
            result = make_dists([raw[i] for i in idxs], tolerance)
        except DimensionError as exc:
            report = ValidationReport(ok=False, sum_error=math.inf, bad_indices=())
            failures.append((idxs[0], report, str(exc)))
            continue
        if isinstance(result, tuple):
            r, report = result
            failures.append((idxs[r], report, "values outside [0, 1] or bad total mass"))
        else:
            groups.append((idxs, result))
    return min(failures, key=lambda failure: failure[0]) if failures else groups


def _by_group(groups, count: int, step, render) -> tuple[list, bool]:
    """The records of ``count`` inputs in input order, and whether every claim held.

    ``step(group)`` gives the ``(result, all_hold)`` of each of
    :func:`_validate`'s ``groups`` and ``render(group, result)`` its inputs'
    records.  A group that raises :class:`DomainError` is charged to its
    input ``index``, the first if the error names none; the error raised is
    that of the first input in input order, whichever group it sits in.
    """
    records, holds, failures = [None] * count, [], []
    for idxs, group in groups:
        try:
            result, group_holds = step(group)
        except DomainError as exc:
            failures.append((idxs[getattr(exc, "index", 0)], exc))
            continue
        holds.append(group_holds)
        for i, record in zip(idxs, render(group, result)):
            records[i] = record
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return records, all(holds)


# ---------------------------------------------------------------------------
# subcommands.  A command's step(args, inp) checks its own flags, may record
# them in the document's ``input`` block ``inp``, and returns the function
# from a same-n group to its (result, all_hold).  Its json, csv and text
# entries (the _dicts_*, _rows_* and _lines_* functions) turn a group and its
# result into one record per input: the input's dict, its CSV rows after the
# ``dist`` cell, or the input with its text lines.

_CERT_HEADER = ("dist", "name", "lhs", "rhs", "slack", "holds", "equality", "infinite")
_CERT_FIELDS = _CERT_HEADER[2:]


def _certificate_fields(columns: list[Certificate], formats) -> tuple[list, list[list[tuple]]]:
    """``_flat(columns)`` and, per input, one tuple per certificate of its
    fields ``_CERT_FIELDS``, each through its function of ``formats``.

    Each field is gathered once across the certificates and formatted once.
    """
    flat = _flat(columns)
    certs = [c for _, _, c in flat]
    fields = list(zip(*(
        map(fmt, _gathered(certs, name).ravel().tolist())
        for name, fmt in zip(_CERT_FIELDS, formats)
    )))
    return flat, [fields[start:start + len(certs)] for start in range(0, len(fields), len(certs))]


def _certificate_rows(columns: list[Certificate]) -> list[list[tuple]]:
    """Per input, the CSV rows of ``columns`` and, at any depth, their detail, named by path."""
    flat, inputs = _certificate_fields(columns, [_fmt] * 6)
    paths = [path for _, path, _ in flat]
    return [[(path, *fields) for path, fields in zip(paths, rows)] for rows in inputs]


_MARK = {True: "[ok]", False: "[FAIL]"}
_EQUALITY = {True: " (equality)", False: ""}
_INFINITE = {True: " (infinite)", False: ""}


def _certificate_lines(columns: list[Certificate], indent: str) -> list[list[str]]:
    """Per input, one text line per certificate of ``columns`` at ``indent``,
    its detail below it two spaces deeper at each level."""
    flat, inputs = _certificate_fields(columns, [_fmt] * 3 + [_MARK.get, _EQUALITY.get, _INFINITE.get])
    heads = [(indent + "  " * depth, c.name) for depth, _, c in flat]
    return [
        [f"{head}{mark} {name}: lhs={lhs} rhs={rhs} slack={slack}{eq}{inf}"
         for (head, name), (lhs, rhs, slack, mark, eq, inf) in zip(heads, rows)]
        for rows in inputs
    ]


def _vec(values) -> str:
    return ", ".join(map(_fmt, values))


def _dicts_negate(group, pairs):
    return [
        {"distribution": p.tolist(), "negation": q, "double_negation": qq}
        for p, q, qq in zip(group, *pairs)
    ]


def _rows_negate(group, pairs):
    return [
        [_cells(i, v, nb, nbb) for i, (v, nb, nbb) in enumerate(zip(p, q, qq))]
        for p, q, qq in zip(group, *pairs)
    ]


def _lines_negate(group, pairs):
    return [
        (p, [f"  negation:        {_vec(q)}", f"  double negation: {_vec(qq)}"])
        for p, q, qq in zip(group, *pairs)
    ]


def _step_converge(args, inp):
    _flag(_check_int, "--max-steps", args.max_steps, 1)
    return lambda group: ((args.tolerance, converge_traces(group, args.tolerance, args.max_steps)), True)


def _dicts_converge(group, result):
    tolerance, traces = result
    return [{"distribution": p.tolist(), "tolerance": tolerance, **trace}
            for p, trace in zip(group, traces.as_dicts())]


def _rows_converge(group, result):
    traces = result[1]
    steps = list(zip(_cells(*traces.distances.tolist()), _cells(*traces.entropies.tolist())))
    return [
        [(str(k), distance, entropy, converged, oscillating)
         for k, (distance, entropy) in enumerate(steps[end - n - 1:end])]
        for end, n, converged, oscillating in zip(
            np.cumsum(traces.steps + 1).tolist(), traces.steps.tolist(),
            _cells(*traces.converged.tolist()), _cells(*traces.oscillating.tolist()))
    ]


def _lines_converge(group, result):
    traces = result[1]
    last = np.cumsum(traces.steps + 1) - 1
    records = []
    for p, steps, converged, oscillating, distance, entropy in zip(
        group, traces.steps.tolist(), traces.converged.tolist(), traces.oscillating.tolist(),
        _cells(*traces.distances[last].tolist()), _cells(*traces.entropies[last].tolist()),
    ):
        state = "converged" if converged else (
            "oscillating (period 2, never converges)" if oscillating else "stopped at max_steps"
        )
        records.append((p, [f"  {state} after {steps} steps",
                            f"  final distance {distance}, entropy {entropy} bits"]))
    return records


def _step_dissim(args, inp):
    try:
        alphas = [int(a) for a in args.alpha.split(",") if a.strip()]
    except ValueError:
        raise _UsageError(f"--alpha must be comma-separated integers, got {args.alpha!r}") from None
    _flag(_check_alphas, alphas, "--alpha")
    _flag(_check_int, "--depth", args.depth, 1, MAX_DEPTH)
    inp["alphas"] = alphas
    inp["depth"] = args.depth

    def step(group):
        profiles = negation_profiles(group, alphas, args.depth)
        return profiles, profiles.properties.holds.all()
    return step


def _dissim_fields(profiles):
    """Per input, the cells of its values and of its l1s: against its negation
    at each level, then against each iterate."""
    return [(_cells(*value), _cells(*l1))
            for value, l1 in zip(profiles.value.tolist(), profiles.l1.tolist())]


def _rows_dissim(group, profiles):
    """A row's ``value`` is also its ``closed_form_value``."""
    levels = [("alpha", str(a)) for a in profiles.alphas]
    levels += [("iterate", str(k)) for k in range(1, profiles.l1.shape[1] - len(profiles.alphas) + 1)]
    return [
        [(kind, level, v, v, d, held) for (kind, level), v, d in zip(levels, values, l1)]
        for (values, l1), held in zip(_dissim_fields(profiles), _cells(*profiles.properties.holds.tolist()))
    ]


def _lines_dissim(group, profiles):
    alphas, depth = profiles.alphas, profiles.l1.shape[1] - len(profiles.alphas)
    records = []
    for p, (values, l1), properties, flag in zip(
        group, _dissim_fields(profiles), _certificate_lines([profiles.properties], "  "),
        _cells(*profiles.non_decreasing.tolist()),
    ):
        lines = [f"  alpha={a}: value={v} (l1={d})" for a, v, d in zip(alphas, values, l1)]
        lines += properties
        lines.append(f"  vs iterates 1..{depth}: {', '.join(values[len(alphas):])} "
                     f"(non-decreasing: {flag})")
        records.append((p, lines))
    return records


_SKIPPED_CHAIN = "partial_mean_chain skipped: needs n >= 3"


def _step_verify(args, inp):
    try:
        f = get_function(args.fn)
    except LookupError as exc:  # its message lists the built-ins
        raise _UsageError(str(exc)) from None
    inp["function"] = args.fn

    def step(group):
        # the rows were validated under --tol and are not checked again
        suite = certificate_suites(f, group)
        failing = _input_failures(suite)
        return (f.name, suite, failing), not any(failing)
    return step


def _dicts_verify(group, result):
    fn, suite, failing = result
    notes = {"notes": [_SKIPPED_CHAIN]} if group[0].n < 3 else {}
    return [
        {"distribution": p.tolist(), "function": fn, "certificates": certs,
         "all_hold": not fails, "failing": fails, **notes}
        for p, certs, fails in zip(group, _input_dicts(suite), failing)
    ]


def _lines_verify(group, result):
    notes = [f"  note: {_SKIPPED_CHAIN}"] if group[0].n < 3 else []
    return [(p, lines + notes) for p, lines in zip(group, _certificate_lines(result[1], "  "))]


# ---------------------------------------------------------------------------
# the golden fixture report: one certificate per worked example.  A fixture
# decides ``holds`` by its own thresholds and never claims equality, because
# compare()'s 1e-9 equality band would pass any two sides that close.

def _frac(text: str) -> tuple[float, ...]:
    """Space-separated exact fractions, each rounded once to a float."""
    return tuple(float(Fraction(t)) for t in text.split())


_P4 = _frac("1/3 1/6 1/6 1/3")
_P3 = _frac("2/3 1/6 1/6")
_Q5 = _P3 + (0.0, 0.0)

#: (fixture, operator, input, exact expected output) of each golden negation
_GOLDEN = (
    ("negation_golden_four_outcomes", negate, _P4, _frac("2/9 5/18 5/18 2/9")),
    ("negation_golden_four_outcomes", negate_twice, _P4, _frac("7/27 13/54 13/54 7/27")),
    ("negation_golden_padded", negate, _P3, _frac("1/6 5/12 5/12")),
    ("negation_golden_padded", negate, _Q5, _frac("1/12 5/24 5/24 1/4 1/4")),
)


def _claim(name: str, lhs: float, rhs: float, ok: bool, *detail: Certificate) -> Certificate:
    """``lhs`` against ``rhs``, passed or failed by ``ok`` alone."""
    return compare(name, lhs, rhs, holds=ok, equality=False, detail=detail)


def _golden_fixtures(_) -> tuple[list[Certificate], bool]:
    """The step of ``report``, for no group: the fixtures and whether all hold."""
    golden: dict[str, list[Certificate]] = {}
    for fixture, op, given, expected in _GOLDEN:
        err = max(abs(g - e) for g, e in zip(op(make_dist(given)).tolist(), expected))
        golden.setdefault(fixture, []).append(
            _claim(f"{op.__name__}[n={len(given)}]", err, 1e-14, err <= 1e-14)
        )
    fixtures = [
        _claim(name, max(c.lhs for c in subs), 1e-14, all(c.holds for c in subs), *subs)
        for name, subs in golden.items()
    ]

    p4, p3, q5 = make_dist(_P4), make_dist(_P3), make_dist(_Q5)
    h3, h5 = shannon_entropy(p3), shannon_entropy(q5)
    g3, g5 = shannon_entropy(negate(p3)), shannon_entropy(negate(q5))
    padding = _claim("entropy_unchanged_by_padding", h3, h5, abs(h3 - h5) <= 1e-12)
    fixtures.append(_claim(
        "entropy_padding_ordering", g3, g5, padding.holds and g5 - g3 > 1e-6, padding
    ))

    h0, h1, h2 = (shannon_entropy(d) for d in (p4, negate(p4), negate_twice(p4)))
    steps = (
        _claim("negation_raises_entropy", h0, h1, h1 - h0 > 1e-6),
        _claim("double_negation_raises_entropy", h1, h2, h2 - h1 > 1e-6),
        _claim("below_ceiling", h2, 2.0, h2 <= 2.0 and 2.0 - h2 > 1e-6),
    )
    fixtures.append(_claim(
        "entropy_chain_four_outcomes", h0, 2.0, all(c.holds for c in steps), *steps
    ))

    peak_raw = _frac("1/8 1/8 1/2 1/8 1/8")
    _, peak = partial_mean_chain(NEG_LOG, make_dist(peak_raw), 2)
    perturbed_raw = [peak_raw[0] + 0.01, *peak_raw[1:]]
    perturbed = make_dist([v / sum(perturbed_raw) for v in perturbed_raw])
    _, pert = partial_mean_chain(NEG_LOG, perturbed, 2)
    gap = abs(pert.rhs - pert.lhs)
    sym_ok = peak.lhs == 3.0 and abs(peak.rhs - peak.lhs) <= 1e-12 and peak.equality
    fixtures.append(_claim(
        "symmetric_peak_equality", peak.lhs, peak.rhs, sym_ok and gap > 1e-4,
        peak, _claim("perturbed_gap", 1e-4, gap, gap > 1e-4),
    ))

    # the closed form shrinks as alpha grows; the once-claimed non-decreasing
    # direction fails and is recorded in the properties' detail, not asserted.
    # Each level's literal value, from its min-pair sum, is set against it.
    expected0 = -math.log2(8.0 / 9.0)
    profile = negation_profile(p4, [0, 1, 2, 3], 1)
    res, props = profile.profile, profile.properties
    literal = [-math.log2((1.0 + 0.5 * r.sum_of_min_pairs) / 2.0) + 0.0 for r in res]
    closed_form = [
        _claim(f"closed_form[alpha={r.alpha}]", v, r.value, abs(v - r.value) <= 1e-12)
        for r, v in zip(res, literal)
    ]
    direction = {c.name: c.holds for c in props.detail}
    fixtures.append(_claim(
        "dissimilarity_golden", res[0].value, expected0,
        abs(res[0].value - expected0) <= 1e-12
        and all(c.holds for c in closed_form)
        and props.holds
        and direction["value_non_increasing_in_alpha"]
        and not direction["value_non_decreasing_in_alpha"],
        *closed_form, props,
    ))
    return fixtures, all(c.holds for c in fixtures)


# ---------------------------------------------------------------------------
# rendering

def _render_json(doc: dict) -> str:
    # one-shot dumps without indent runs CPython's C encoder; the documents
    # are acyclic, so the encoder need not track the containers it is in
    return json.dumps(doc, check_circular=False) + "\n"


_ERROR_HEADER = ("dist", "error", "sum_error", "bad_indices")


def _render_csv(doc: dict) -> str:
    if "error" in doc:
        err = doc["error"]
        header = _ERROR_HEADER
        rows = [_cells(err["index"], err["why"], err["report"]["sum_error"],
                       " ".join(map(str, err["report"]["bad_indices"])))]
    else:
        header = _COMMANDS[doc["command"]].header
        records = doc["results"]
        rows = [(dist, *row) for dist, record in zip(map(str, range(len(records))), records)
                for row in record]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _render_text(doc: dict) -> str:
    out = [f"command: {doc['command']}"]
    if "error" in doc:
        err = doc["error"]
        rep = err["report"]
        out.append(
            f"validation failed for distribution {err['index']}: {err['why']} "
            f"(sum_error={_fmt(rep['sum_error'])}, bad_indices={rep['bad_indices']})"
        )
    for idx, (p, lines) in enumerate(doc["results"]):
        if p is not None:  # a report fixture has no distribution
            out.append(f"distribution {idx}: {_vec(p)}")
        out += lines
    out.append(f"all_hold: {_fmt(doc['all_hold'])}")
    return "\n".join(out) + "\n"


def _emit(doc: dict, fmt: str, out_path: str | None) -> None:
    text = {"json": _render_json, "csv": _render_csv, "text": _render_text}[fmt](doc)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {out_path}: {exc}") from None
    else:
        sys.stdout.write(text)


class _Command(NamedTuple):
    """One subcommand: its step, its record of each format, and what it adds to the parser."""

    step: Callable  # (args, inp) -> (group -> (result, all_hold))
    json: Callable  # (group, result) -> per input, its dict
    csv: Callable  # (group, result) -> per input, its CSV rows after the dist cell
    text: Callable  # (group, result) -> per input, (the input, its text lines)
    header: tuple  # the CSV header row
    help: str
    flags: tuple = ()  # (flag, add_argument keywords) beyond the common ones
    dist_input: bool = True  # takes --dist, --file and --tol


_COMMANDS = {
    "negate": _Command(
        # each input's negation and double negation, as lists
        lambda args, inp: lambda group: ([block.tolist() for block in negation_pairs(group)], True),
        _dicts_negate, _rows_negate, _lines_negate,
        ("dist", "index", "p", "negation", "double_negation"),
        "emit a distribution, its negation, and its double negation",
    ),
    "entropy": _Command(
        lambda args, inp: lambda group: ([entropy_report(p) for p in group], True),
        lambda group, reports: [{"distribution": p.tolist(), **r.as_dict()}
                                for p, r in zip(group, reports)],
        lambda group, reports: [[_cells(r.n, r.entropy_bits, r.max_entropy_bits, r.gap_bits)]
                                for r in reports],
        lambda group, reports: [(p, [f"  entropy {_fmt(r.entropy_bits)} bits of "
                                     f"{_fmt(r.max_entropy_bits)} max, gap {_fmt(r.gap_bits)}"])
                                for p, r in zip(group, reports)],
        ("dist", "n", "entropy_bits", "max_entropy_bits", "gap_bits"),
        "entropy in bits against the log2(n) ceiling",
    ),
    "converge": _Command(
        _step_converge, _dicts_converge, _rows_converge, _lines_converge,
        ("dist", "step", "distance", "entropy_bits", "converged", "oscillating"),
        "iterate negation toward uniform and trace the path",
        flags=(("--max-steps", {"type": int, "default": 1000}),),
    ),
    "verify": _Command(
        _step_verify, _dicts_verify, lambda group, result: _certificate_rows(result[1]), _lines_verify,
        _CERT_HEADER,
        "run the full certificate suite",
        flags=(("--fn", {"default": "neg_log",
                         "help": f"built-in function ({', '.join(BUILTIN_FUNCTIONS)})"}),),
    ),
    "dissim": _Command(
        _step_dissim,
        lambda group, profiles: [{"distribution": p.tolist(), **profile}
                                 for p, profile in zip(group, profiles.as_dicts())],
        _rows_dissim, _lines_dissim,
        ("dist", "kind", "level", "value", "closed_form_value", "l1", "properties_hold"),
        "dissimilarity profile against the negation",
        flags=(
            ("--alpha", {"default": "0,1,2,3", "help": "comma-separated nonnegative integer levels"}),
            ("--depth", {"type": int, "default": 3,
                         "help": "negation iterates to compare against (>= 1)"}),
        ),
    ),
    "report": _Command(
        lambda args, inp: _golden_fixtures,  # report reads no distributions
        lambda _, fixtures: _input_dicts(fixtures)[0],
        lambda _, fixtures: [_certificate_rows([c])[0] for c in fixtures],
        lambda _, fixtures: [(None, _certificate_lines([c], "")[0]) for c in fixtures],
        _CERT_HEADER,
        "reproduce the golden fixtures and report pass/fail",
        dist_input=False,
    ),
}


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(
        prog="neglab",
        description="Negation of discrete probability distributions: "
        "entropy orderings, convexity certificates, dissimilarity profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        if cmd.dist_input:
            p.add_argument("--dist", help="comma-separated values (decimals or a/b rationals), or uniform:n")
            p.add_argument("--file", help="JSON array of distributions, or CSV one distribution per row")
            p.add_argument("--tol", type=float, default=None,
                           help="validation/convergence tolerance (default 1e-9, env NEGLAB_TOL)")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", help="write output to this path instead of stdout")
        for flag, kwargs in cmd.flags:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"neglab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help lands here; argparse uses 0 for it
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    # the inputs, records and documents built below form no reference
    # cycles, so the cyclic collector would only spend time scanning them
    collecting = gc.isenabled()
    gc.disable()
    try:
        cmd = _COMMANDS[args.command]
        render = getattr(cmd, args.format)
        if not cmd.dist_input:
            doc_input = {}
        else:
            args.tolerance = _resolve_tolerance(args)
            raw = _gather_inputs(args)
            doc_input = {"distributions": raw, "tolerance": args.tolerance}
            groups = _validate(raw, args.tolerance)
            if isinstance(groups, tuple):
                idx, report, why = groups
                doc = {
                    "command": args.command,
                    "input": doc_input,
                    "error": {"kind": "validation", "index": idx, "why": why,
                              "report": report.as_dict()},
                    "results": [],
                    "all_hold": False,
                }
                _emit(doc, args.format, args.out)
                return EXIT_VALIDATION

        step = cmd.step(args, doc_input)
        if cmd.dist_input:
            results, all_hold = _by_group(groups, len(raw), step, render)
        else:  # each fixture is a record
            fixtures, all_hold = step(None)
            results = render(None, fixtures)
        doc = {"command": args.command, "input": doc_input, "results": results, "all_hold": all_hold}
        _emit(doc, args.format, args.out)
        return EXIT_OK if all_hold else EXIT_FAILURE
    except _UsageError as exc:
        print(f"neglab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, DimensionError) as exc:
        print(f"neglab: invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CrossCheckError as exc:
        print(f"neglab: cross-check failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
