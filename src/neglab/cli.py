"""Command-line front end.

Subcommands cover batch negation, entropy reports, convergence traces,
the full certificate suite, dissimilarity profiles, and a golden-fixture
report.  Output goes to stdout or ``--out`` as JSON (one compact line,
full precision, round-trip safe), CSV, or readable text; numeric text is
printed with 15 significant digits.

Exit codes are a stable contract: 0 success, 2 input validation failure,
3 certificate or fixture failure, 4 usage error.
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

from .certificates import Certificate, _input_dicts, _input_failures, compare
from .distribution import DimensionError, DomainError, ValidationReport, make_dist, make_dists
from .dissimilarity import MAX_ALPHA, negation_profile, negation_profiles
from .entropy import entropy_report, shannon_entropy
from .jensen import (
    NEG_LOG,
    BUILTIN_FUNCTIONS,
    certificate_suites,
    get_function,
    partial_mean_chain,
)
from .negation import converge_traces, negate, negate_twice

__all__ = ["main", "EXIT_OK", "EXIT_VALIDATION", "EXIT_FAILURE", "EXIT_USAGE", "MAX_UNIFORM_N"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_FAILURE = 3
EXIT_USAGE = 4

_DEFAULT_TOLERANCE = 1e-9

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


def _resolve_tolerance(args) -> float:
    if getattr(args, "tol", None) is not None:
        tol = args.tol
    else:
        env = os.environ.get("NEGLAB_TOL")
        if env is not None and env.strip():
            try:
                tol = float(env)
            except ValueError:
                raise _UsageError(f"NEGLAB_TOL is not a number: {env!r}") from None
        else:
            tol = _DEFAULT_TOLERANCE
    if not 0 < tol < math.inf:
        raise _UsageError(f"tolerance must be finite and > 0, got {tol}")
    return tol


def _by_length(rows) -> dict[int, list[int]]:
    """Positions of the rows of each length, in input order."""
    groups: dict[int, list[int]] = {}
    for idx, row in enumerate(rows):
        groups.setdefault(len(row), []).append(idx)
    return groups


def _validate(raw: list[list[float]], tolerance: float):
    """All rows into ProbDists, or (index, report, why) for the first bad row.

    Rows of one length are screened as one block; the failure reported is
    the first in input order, whichever block it sits in.
    """
    dists = [None] * len(raw)
    failures = []
    for idxs in _by_length(raw).values():
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
            for i, p in zip(idxs, result):
                dists[i] = p
    return min(failures, key=lambda failure: failure[0]) if failures else dists


def _by_group(dists, records_of) -> list:
    """``records_of(group)`` for each same-n group of ``dists``, in input order.

    A group that raises :class:`DomainError` is charged to its input
    ``index``, the first if the error names none; the error raised is that
    of the first input in input order, whichever group it sits in.
    """
    records, failures = [None] * len(dists), []
    for idxs in _by_length(dists).values():
        try:
            group = records_of([dists[i] for i in idxs])
        except DomainError as exc:
            failures.append((idxs[getattr(exc, "index", 0)], exc))
            continue
        for i, record in zip(idxs, group):
            records[i] = record
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return records


# ---------------------------------------------------------------------------
# subcommand handlers: each takes (dists, args, inp), checks its own flags,
# may record them in the document's ``input`` block ``inp``, and returns
# (records, all_hold); the CSV rows of a record, lists of cell strings under
# the command's CSV header, come from its ``_csv_*`` function, called only
# for ``--format csv``

def _run_negate(dists, args, inp):
    records = [
        {
            "distribution": p.tolist(),
            "negation": negate(p).tolist(),
            "double_negation": negate_twice(p).tolist(),
        }
        for p in dists
    ]
    return records, True


def _csv_negate(d_idx, rec):
    return [
        _cells(d_idx, i, v, nb, nbb)
        for i, (v, nb, nbb) in enumerate(
            zip(rec["distribution"], rec["negation"], rec["double_negation"])
        )
    ]


def _run_entropy(dists, args, inp):
    return [{"distribution": p.tolist(), **entropy_report(p).as_dict()} for p in dists], True


def _csv_entropy(d_idx, rec):
    return [_cells(d_idx, rec["n"], rec["entropy_bits"], rec["max_entropy_bits"], rec["gap_bits"])]


def _run_converge(dists, args, inp):
    if args.max_steps < 1:
        raise _UsageError(f"--max-steps must be >= 1, got {args.max_steps}")

    def records_of(group):
        traces = converge_traces(group, args.tolerance, args.max_steps)
        return [{"distribution": p.tolist(), "tolerance": args.tolerance, **trace}
                for p, trace in zip(group, traces.as_dicts())]
    return _by_group(dists, records_of), True


def _csv_converge(d_idx, rec):
    return [
        _cells(d_idx, k, distance, entropy, rec["converged"], rec["oscillating"])
        for k, (distance, entropy) in enumerate(zip(rec["distances"], rec["entropies"]))
    ]


def _run_dissim(dists, args, inp):
    try:
        alphas = [int(a) for a in args.alpha.split(",") if a.strip()]
    except ValueError:
        raise _UsageError(f"--alpha must be comma-separated integers, got {args.alpha!r}") from None
    if not alphas or alphas != sorted(alphas) or alphas[0] < 0:
        raise _UsageError("--alpha must be nonempty, nonnegative, sorted ascending")
    if alphas[-1] > MAX_ALPHA:
        raise _UsageError(f"--alpha levels must be <= {MAX_ALPHA}, got {alphas[-1]}")
    if args.depth < 1:
        raise _UsageError(f"--depth must be >= 1, got {args.depth}")
    inp["alphas"] = alphas
    inp["depth"] = args.depth
    holds = []

    def records_of(group):
        profiles = negation_profiles(group, alphas, args.depth)
        holds.append(profiles.properties.holds.all())
        if args.format == "csv":  # a record is then its input's rows of cells
            return _dissim_cells(profiles)
        return [{"distribution": p.tolist(), **profile}
                for p, profile in zip(group, profiles.as_dicts())]
    return _by_group(dists, records_of), all(holds)


def _dissim_cells(profiles) -> list[list[tuple]]:
    """Per input of a group, its CSV rows after the ``dist`` cell.

    They are read off the group's arrays: a row's ``value`` is also its
    ``closed_form_value``, and the alpha rows share the l1 of p and its
    negation.  Entry 1 of the arrays, q against p, has no row.
    """
    levels = [("alpha", str(a)) for a in profiles.alphas]
    levels += [("iterate", str(k)) for k in range(1, profiles.l1.shape[1] - 1)]
    values = np.concatenate([profiles.value[:, 0], profiles.value[:, 2:, 0]], axis=1)
    l1s = np.concatenate([profiles.l1[:, :1], profiles.l1[:, 2:]], axis=1)
    records = []
    for value, l1, held in zip(values.tolist(), l1s.tolist(), profiles.properties.holds.tolist()):
        first, *iterates = _cells(*l1)
        l1, held = [first] * len(profiles.alphas) + iterates, _fmt(held)
        records.append([(kind, level, v, v, d, held)
                        for (kind, level), v, d in zip(levels, _cells(*value), l1)])
    return records


def _csv_dissim(d_idx, rec):
    dist = str(d_idx)
    return [[dist, *row] for row in rec]


def _run_verify(dists, args, inp):
    try:
        f = get_function(args.fn)
    except LookupError as exc:  # its message lists the built-ins
        raise _UsageError(str(exc)) from None
    inp["function"] = args.fn

    def records_of(group):
        # the rows were validated under --tol and are not checked again
        suite = certificate_suites(f, group)
        notes = {"notes": ["partial_mean_chain skipped: needs n >= 3"]} if group[0].n < 3 else {}
        return [
            {"distribution": p.tolist(), "function": args.fn, "certificates": certs,
             "all_hold": not failing, "failing": failing, **notes}
            for p, certs, failing in zip(group, _input_dicts(suite), _input_failures(suite))
        ]
    records = _by_group(dists, records_of)
    return records, all(rec["all_hold"] for rec in records)


_CERT_HEADER = ("dist", "name", "lhs", "rhs", "slack", "holds", "equality", "infinite")


def _cert_rows(d_idx, cert, prefix=""):
    """CSV rows of a certificate dict and, at any depth, its detail, named by path."""
    name = prefix + cert["name"]
    rows = [_cells(d_idx, name, cert["lhs"], cert["rhs"], cert["slack"],
                   cert["holds"], cert["equality"], cert["infinite"])]
    for sub in cert["detail"]:
        rows += _cert_rows(d_idx, sub, name + "/")
    return rows


def _csv_verify(d_idx, rec):
    return [row for cert in rec["certificates"] for row in _cert_rows(d_idx, cert)]


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


def _run_report(dists, args, inp):
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
    return [c.as_dict() for c in fixtures], all(c.holds for c in fixtures)


# ---------------------------------------------------------------------------
# rendering

def _render_json(doc: dict) -> str:
    # one-shot dumps without indent runs CPython's C encoder
    return json.dumps(doc) + "\n"


_ERROR_HEADER = ("dist", "error", "sum_error", "bad_indices")


def _render_csv(doc: dict) -> str:
    if "error" in doc:
        err = doc["error"]
        header = _ERROR_HEADER
        rows = [_cells(err["index"], err["why"], err["report"]["sum_error"],
                       " ".join(map(str, err["report"]["bad_indices"])))]
    else:
        cmd = _COMMANDS[doc["command"]]
        header = cmd.header
        rows = [row for idx, rec in enumerate(doc["results"]) for row in cmd.csv(idx, rec)]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _vec(values) -> str:
    return ", ".join(_fmt(v) for v in values)


def _cert_lines(cert: dict, out: list[str], indent: str = "") -> None:
    mark = "ok" if cert["holds"] else "FAIL"
    eq = " (equality)" if cert["equality"] else ""
    inf = " (infinite)" if cert["infinite"] else ""
    out.append(
        f"{indent}[{mark}] {cert['name']}: lhs={_fmt(cert['lhs'])} "
        f"rhs={_fmt(cert['rhs'])} slack={_fmt(cert['slack'])}{eq}{inf}"
    )
    for sub in cert["detail"]:
        _cert_lines(sub, out, indent + "  ")


def _text_negate(rec: dict, out: list[str]) -> None:
    out.append(f"  negation:        {_vec(rec['negation'])}")
    out.append(f"  double negation: {_vec(rec['double_negation'])}")


def _text_entropy(rec: dict, out: list[str]) -> None:
    out.append(
        f"  entropy {_fmt(rec['entropy_bits'])} bits of "
        f"{_fmt(rec['max_entropy_bits'])} max, gap {_fmt(rec['gap_bits'])}"
    )


def _text_converge(rec: dict, out: list[str]) -> None:
    state = "converged" if rec["converged"] else (
        "oscillating (period 2, never converges)" if rec["oscillating"] else "stopped at max_steps"
    )
    out.append(f"  {state} after {rec['steps']} steps")
    out.append(f"  final distance {_fmt(rec['distances'][-1])}, entropy {_fmt(rec['entropies'][-1])} bits")


def _text_dissim(rec: dict, out: list[str]) -> None:
    for r in rec["profile"]:
        out.append(f"  alpha={r['alpha']}: value={_fmt(r['value'])} (l1={_fmt(r['l1'])})")
    _cert_lines(rec["properties"], out, "  ")
    iterated = rec["iterated"]
    vals = _vec([r["value"] for r in iterated["results"]])
    out.append(
        f"  vs iterates 1..{len(iterated['results'])}: {vals} "
        f"(non-decreasing: {_fmt(iterated['non_decreasing'])})"
    )


def _text_verify(rec: dict, out: list[str]) -> None:
    for cert in rec["certificates"]:
        _cert_lines(cert, out, "  ")
    for note in rec.get("notes", ()):
        out.append(f"  note: {note}")


def _render_text(doc: dict) -> str:
    out = [f"command: {doc['command']}"]
    if "error" in doc:
        err = doc["error"]
        rep = err["report"]
        out.append(
            f"validation failed for distribution {err['index']}: {err['why']} "
            f"(sum_error={_fmt(rep['sum_error'])}, bad_indices={rep['bad_indices']})"
        )
    render = _COMMANDS[doc["command"]].text
    for idx, rec in enumerate(doc["results"]):
        if "distribution" in rec:
            out.append(f"distribution {idx}: {_vec(rec['distribution'])}")
        render(rec, out)
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
    """One subcommand: how it runs, renders, and what it adds to the parser."""

    run: Callable  # (dists, args, inp) -> (records, all_hold)
    text: Callable  # (record, lines) -> None, appends the record's text lines
    csv: Callable  # (index, record) -> the record's CSV rows, lists of cell strings
    header: tuple  # the CSV header row
    help: str
    flags: tuple = ()  # (flag, add_argument keywords) beyond the common ones
    dist_input: bool = True  # takes --dist, --file and --tol


_COMMANDS = {
    "negate": _Command(
        _run_negate, _text_negate, _csv_negate,
        ("dist", "index", "p", "negation", "double_negation"),
        "emit a distribution, its negation, and its double negation",
    ),
    "entropy": _Command(
        _run_entropy, _text_entropy, _csv_entropy,
        ("dist", "n", "entropy_bits", "max_entropy_bits", "gap_bits"),
        "entropy in bits against the log2(n) ceiling",
    ),
    "converge": _Command(
        _run_converge, _text_converge, _csv_converge,
        ("dist", "step", "distance", "entropy_bits", "converged", "oscillating"),
        "iterate negation toward uniform and trace the path",
        flags=(("--max-steps", {"type": int, "default": 1000}),),
    ),
    "verify": _Command(
        _run_verify, _text_verify, _csv_verify, _CERT_HEADER,
        "run the full certificate suite",
        flags=(("--fn", {"default": "neg_log",
                         "help": f"built-in function ({', '.join(BUILTIN_FUNCTIONS)})"}),),
    ),
    "dissim": _Command(
        _run_dissim, _text_dissim, _csv_dissim,
        ("dist", "kind", "level", "value", "closed_form_value", "l1", "properties_hold"),
        "dissimilarity profile against the negation",
        flags=(
            ("--alpha", {"default": "0,1,2,3", "help": "comma-separated nonnegative integer levels"}),
            ("--depth", {"type": int, "default": 3,
                         "help": "negation iterates to compare against (>= 1)"}),
        ),
    ),
    "report": _Command(
        _run_report, _cert_lines, _cert_rows, _CERT_HEADER,
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
        if not cmd.dist_input:
            dists, doc_input = None, {}
        else:
            args.tolerance = _resolve_tolerance(args)
            raw = _gather_inputs(args)
            doc_input = {"distributions": raw, "tolerance": args.tolerance}
            dists = _validate(raw, args.tolerance)
            if isinstance(dists, tuple):
                idx, report, why = dists
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

        results, all_hold = cmd.run(dists, args, doc_input)
        doc = {"command": args.command, "input": doc_input, "results": results, "all_hold": all_hold}
        _emit(doc, args.format, args.out)
        return EXIT_OK if all_hold else EXIT_FAILURE
    except _UsageError as exc:
        print(f"neglab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, DimensionError) as exc:
        print(f"neglab: invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
