"""Command-line front end.

Subcommands cover batch negation, entropy reports, convergence traces,
the full certificate suite, dissimilarity profiles, and a golden-fixture
report.  Output goes to stdout or ``--out`` as JSON (one compact line,
full precision, round-trip safe), CSV, or readable text; numeric text is
printed with 15 significant digits.

Exit codes are a stable contract: 0 success, 2 input validation failure,
3 certificate or fixture failure, 4 usage error (an ``--out`` path or a
stdout that cannot be written among them).  The process entry, for
``python -m neglab`` and the ``neglab`` script, is ``run`` in
``neglab.__main__``.

A batch's same-n groups are computed and rendered in up to ``workers``
processes: ``main`` cuts them into contiguous slices of about equal
values, runs the first itself and each other one in a forked child, and
writes the records in input order, so the output is byte for byte that of
one process.  ``run`` passes one worker per CPU of the process's affinity
where ``os.fork`` exists; a batch of fewer than ``2 * _VALUES_PER_WORKER``
values, and an in-process ``main()`` by default, run in one process.
"""

from __future__ import annotations

import argparse
import csv
import errno
import gc
import inspect
import io
import json
import math
import os
import pickle
import signal
import sys
import warnings
from itertools import chain, compress, pairwise
from typing import Callable, NamedTuple

import numpy as np

from .certificates import Certificate, _flat, _gathered, compare
from .distribution import (DEFAULT_TOLERANCE, DimensionError, DomainError, _check_int,
                           _check_tolerance, _report, _stacked, make_dist, make_dists)
from .dissimilarity import MAX_DEPTH, _check_alphas, negation_profiles
from .entropy import _entropy_reports, entropy_chain_check, zero_padding_entropy_check
from .jensen import (
    NEG_LOG,
    BUILTIN_FUNCTIONS,
    certificate_suites,
    get_function,
    partial_mean_chain,
)
from .negation import converge_traces, negate, negate_twice, negation_pairs

__all__ = ["main", "EXIT_OK", "EXIT_VALIDATION", "EXIT_FAILURE", "EXIT_USAGE", "MAX_UNIFORM_N",
           "MAX_VERIFY_N"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_FAILURE = 3
EXIT_USAGE = 4

#: largest n accepted by ``--dist uniform:n``; checked before the n values are built
MAX_UNIFORM_N = 1 << 20
#: largest n that ``verify`` takes: its n partial-mean chains cost O(n²) per input
MAX_VERIFY_N = 1 << 15
#: the fewest values (rows × n) a worker process is given, so a batch of
#: fewer than twice this runs in one process: on 4,096 values of ``negate``'s
#: JSON, a fork and the pickled records cost about what two processes save
_VALUES_PER_WORKER = 4096


class _UsageError(Exception):
    """Bad flags or malformed values; maps to exit code 4."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for validation
        raise _UsageError(message)

    def print_help(self):
        """The help on stdout, under :func:`_write`'s rule: argparse would drop
        a failed write, and write to stderr where stdout is closed."""
        _write([self.format_help()], None)


def _parse_scalar(token: str) -> float:
    token = token.strip()
    if not token:
        raise _UsageError("empty value in distribution")
    try:
        if "/" in token:
            num, den = map(int, token.split("/", 1))
            return num / den if den > 0 else -num / -den  # rounded once; 0/-n is 0.0, as in Fraction
        return float(token)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise _UsageError(f"cannot parse value {token!r}: {exc}") from None


def _finite(rows: list[list[float]], cells: list[list[str]] | None = None) -> list[list[float]]:
    """``rows`` if every item is a finite number, checked in one pass over the
    whole block; else a usage error naming the first item that is not, as
    its cell of ``cells`` spells it when given."""
    finite = np.isfinite(np.fromiter(chain.from_iterable(rows), float, sum(map(len, rows))))
    if finite.all():
        return rows
    k = int(finite.argmin())
    for i, row in enumerate(rows):
        if k < len(row):
            break
        k -= len(row)
    item = cells[i][k].strip() if cells else rows[i][k]
    raise _UsageError(f"value {item!r} (item {k} of distribution {i}) is not a finite number")


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
    tokens = text.split(",")
    return _finite([[_parse_scalar(tok) for tok in tokens]], [tokens])[0]


def _load_file(path: str) -> list[list[float]]:
    """JSON array of distributions, or CSV with one distribution per row.

    A flat JSON array of numbers is taken as a single distribution, and a
    JSON object emitted by this tool is re-ingested through its
    ``input.distributions`` field, so output documents round-trip.  Any
    other JSON shape is a usage error.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None
    stripped = text.lstrip()
    if not (stripped.startswith("[") or stripped.startswith("{")):
        try:  # each cell as a --dist item; a line with no value in any cell is skipped
            cells = [row for row in csv.reader(io.StringIO(text)) if any(map(str.strip, row))]
        except csv.Error as exc:
            raise _UsageError(f"invalid CSV in {path}: {exc}") from None
        return _finite([[_parse_scalar(c) for c in row] for row in cells], cells)
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise _UsageError(f"invalid JSON in {path}: {exc}") from None
    if isinstance(data, dict):
        inp = data.get("input")
        data = inp.get("distributions") if isinstance(inp, dict) else None
        if data is None:
            raise _UsageError(f"{path}: JSON object lacks input.distributions")
    # json.loads builds no subclasses, so each number's type is int or float
    # itself, and a bool's is bool
    if isinstance(data, list) and data and set(map(type, data)) <= {int, float}:
        data = [data]
    if not (isinstance(data, list) and all(isinstance(row, list) for row in data)
            and set(map(type, chain.from_iterable(data))) <= {int, float}):
        raise _UsageError(f"{path}: expected a list of number lists or one flat number list")
    try:
        rows = [list(map(float, row)) for row in data]
    except OverflowError:
        raise _UsageError(f"{path}: a number is too large for a float") from None
    return _finite(rows)


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


def _default(fn: Callable, name: str):
    """The default of ``fn``'s parameter ``name``, which a flag takes as its own."""
    return inspect.signature(fn).parameters[name].default


def _flag(check, *args):
    """``check(*args)``, a library range rule on a flag's value, with its
    :class:`DomainError` as a usage error."""
    try:
        return check(*args)
    except DomainError as exc:
        raise _UsageError(str(exc)) from None


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
        except DimensionError as exc:  # fewer than 2 outcomes; the report is the screen's
            failures.append((idxs[0], _report(raw[idxs[0]], tolerance), str(exc)))
            continue
        if isinstance(result, tuple):
            r, report = result
            failures.append((idxs[r], report, "values outside [0, 1] or bad total mass"))
        else:
            groups.append((idxs, result))
    return min(failures, key=lambda failure: failure[0]) if failures else groups


def _slices(groups, workers: int) -> list[list]:
    """``groups`` cut into at most ``workers`` contiguous slices of about
    equal Σ rows×n, each of at least about ``_VALUES_PER_WORKER`` values; a
    group that straddles a cut is split into sub-groups, each with its own
    positions.  The first slice holds the first group's first row."""
    sizes = [len(idxs) * group[0].n for idxs, group in groups]
    total = sum(sizes)
    workers = max(1, min(workers, total // _VALUES_PER_WORKER))
    slices = [[] for _ in range(workers)]
    before = 0  # the values of the groups before this one
    for (idxs, group), size in zip(groups, sizes):
        # the row that starts at value v goes to slice v * workers // total, so
        # slice j starts at the first row k with (before + k n) workers >= j total
        scale = group[0].n * workers
        cuts = [0, *(min(len(idxs), max(0, (j * total - before * workers + scale - 1) // scale))
                     for j in range(1, workers)), len(idxs)]
        for part, start, stop in zip(slices, cuts, cuts[1:]):
            if start < stop:
                part.append((idxs[start:stop], group[start:stop]))
        before += size
    return [part for part in slices if part]


def _run(part, step, render) -> tuple[list, list, list]:
    """For a slice of groups: the positions and records of each group that
    ``step`` computed, whether each one's claims held, and each
    :class:`DomainError` raised with the input position it is charged to.
    A group's rows are stacked once, into the m×n block its renderer reads."""
    done, holds, failures = [], [], []
    for idxs, group in part:
        try:
            result, group_holds = step(group)
        except DomainError as exc:
            failures.append((idxs[getattr(exc, "index", 0)], exc))
            continue
        holds.append(group_holds)
        done.append((idxs, render(idxs, _stacked(group), result)))
    return done, holds, failures


def _outcome(part, step, render):
    """:func:`_run`'s result for ``part``, or the exception it raised."""
    try:
        return _run(part, step, render)
    except Exception as exc:
        return exc


def _fork(part, step, render) -> tuple[int, object] | tuple[None, None]:
    """A forked child that sends the :func:`_outcome` of ``part`` and the
    warnings it caught, pickled, on a pipe and exits: its pid and the
    pipe's read end, or two Nones where no process can be forked."""
    read, write = os.pipe()
    try:
        # not spawn, which would import numpy again in each worker, at more
        # than a slice's cost; neglab starts no thread, and numpy's OpenBLAS
        # winds its pool down across a fork
        pid = os.fork()
    except OSError:  # a process limit, or no memory
        os.close(read)
        os.close(write)
        return None, None
    if pid:
        os.close(write)  # so that a later child holds no copy of it
        return pid, open(read, "rb")
    try:  # the child writes to its pipe alone, and never returns
        os.close(read)
        with warnings.catch_warnings(record=True) as caught:
            outcome = _outcome(part, step, render)
        notes = [(w.message, w.category, w.filename, w.lineno) for w in caught]
        payload = pickle.dumps((outcome, notes), pickle.HIGHEST_PROTOCOL)
        with open(write, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)


def _received(pid: int, pipe):
    """The outcome that the child ``pid`` sent on ``pipe``, with the warnings it caught issued here."""
    payload = pipe.read()
    if not payload:  # killed, or its outcome did not pickle
        return RuntimeError(f"worker process {pid} sent no result")
    outcome, notes = pickle.loads(payload)  # the bytes of a child of this process
    for note in notes:
        warnings.warn_explicit(*note)
    return outcome


def _by_group(groups, count: int, step, render, workers: int = 1) -> tuple[list, bool]:
    """The records of ``count`` inputs in input order, and whether every claim held.

    ``step(group)`` gives the ``(result, all_hold)`` of each of
    :func:`_validate`'s ``groups`` and ``render(positions, probs, result)``
    the records of its inputs, at ``positions`` in input order, from their
    m×n block ``probs``.  A group that raises :class:`DomainError` is
    charged to its input ``index``, the first if the error names none; the
    error raised is that of the first input in input order, whichever group
    it sits in.  Any other exception is raised as the groups in order reach
    it.

    The groups run in :func:`_slices` of up to ``workers`` slices: the
    first in this process, each other one in a forked child, all at once
    (in this process, after the first, where no child can be forked).
    Every child is reaped before this returns or raises, and killed first
    if this process's own slice raises.
    """
    first, *rest = _slices(groups, workers)
    children = []  # each other slice with the pid and pipe of its child, in slice order
    try:
        for part in rest:
            children.append((part, *_fork(part, step, render)))
        outcomes = [_run(first, step, render), *(
            _outcome(part, step, render) if pid is None else _received(pid, pipe)
            for part, pid, pipe in children)]
    except BaseException:
        for _, pid, _ in children:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for _, pid, pipe in children:
            if pid is not None:
                pipe.close()
                os.waitpid(pid, 0)
    records, holds, failures = [None] * count, [], []
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
        done, part_holds, part_failures = outcome
        for idxs, part_records in done:
            for i, record in zip(idxs, part_records):
                records[i] = record
        holds += part_holds
        failures += part_failures
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return records, all(holds)


# ---------------------------------------------------------------------------
# subcommands.  A command's step(args, inp) checks its own flags, may record
# them in the document's ``input`` block ``inp``, and returns the function
# from a same-n group to its (result, all_hold).  Its json, csv and text
# entries turn the group's input positions, its rows as one m×n block and
# its result into the text of each input's record.  Each format fills one
# %-template per group, with names, paths, levels and indices written into
# it once; its holes take each input's numbers, as JSON texts or through
# %.15g for CSV and text, and its flags through lookup tables.

_CERT_HEADER = ("dist", "name", "lhs", "rhs", "slack", "holds", "equality", "infinite")
_JSON_BOOL = {True: "true", False: "false"}
_JSON_CONSTANT = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _values(a: np.ndarray) -> list:
    """The values of ``a`` in row-major order."""
    return a.ravel().tolist()


def _each(table: dict) -> Callable:
    """The format of a whole array that is ``table``'s entry for each of its values, in row-major order."""
    return lambda a: map(table.__getitem__, _values(a))


def _interleaved(width: int, *columns) -> list[tuple]:
    """One value of each of ``columns`` in turn, in tuples of ``width`` values."""
    return list(zip(*[chain.from_iterable(zip(*columns))] * width))


def _json_numbers(a: np.ndarray) -> list[str]:
    """The JSON text of each float of ``a``, in row-major order: its repr, or
    ``Infinity``, ``-Infinity`` or ``NaN`` as json.dumps writes them."""
    texts = list(map(float.__repr__, _values(a)))
    finite = np.isfinite(a)
    if not finite.all():
        for i in np.flatnonzero(~finite).tolist():
            texts[i] = _JSON_CONSTANT[texts[i]]
    return texts


def _json_inputs(block: np.ndarray) -> list[tuple[str, ...]]:
    """Per entry of the first axis of ``block``, the JSON texts of its floats, in row-major order."""
    return list(zip(*[iter(_json_numbers(block))] * math.prod(block.shape[1:])))


def _json_rows(block: np.ndarray) -> list[str]:
    """Per row of the m×n ``block``, the JSON text of its items without the brackets."""
    return list(map(", ".join, _json_inputs(block)))


def _literal(obj) -> str:
    """The JSON text of ``obj`` as literal text of a %-template."""
    return json.dumps(obj).replace("%", "%%")


def _csv_cell(cell: str) -> str:
    """``cell`` as a CSV field, quoted as the csv module's writer quotes one:
    where it holds a comma, a double quote or a line break."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _numbers(n: int) -> str:
    """A %-template of ``n`` comma-separated numbers at 15 significant digits."""
    return ", ".join(["%.15g"] * n)


def _csv(rows: list[str], positions, *columns) -> list[str]:
    """Per input, its CSV records: each of ``rows``, the %-template of a
    row's cells after ``dist``, filled with the input's position and then one
    value of each of ``columns``, m×len(rows) values in row-major order."""
    template = "".join(f"%d,{row}\r\n" for row in rows)
    return [template % holes for holes in _interleaved(
        len(rows) * (1 + len(columns)), np.repeat(positions, len(rows)).tolist(), *columns)]


def _json(tail: str, probs: np.ndarray, holes) -> list[str]:
    """Per row p of ``probs``, its record ``{"distribution": [p], `` and then
    the %-template ``tail`` filled with its ``holes``."""
    template = '{"distribution": [%s], ' + tail
    return [template % (p, *h) for p, h in zip(_json_rows(probs), holes)]


def _text(tail: str, positions, probs: np.ndarray, holes) -> list[str]:
    """Per row p of ``probs``, its line ``distribution i: p``, then the
    %-template ``tail`` filled with its ``holes``."""
    template = "distribution %d: " + _numbers(probs.shape[1]) + "\n" + tail
    return [template % (i, *p, *h) for i, p, h in zip(positions, probs.tolist(), holes)]


_MARK = {True: "[ok]", False: "[FAIL]"}
_EQUALITY = {True: " (equality)", False: ""}
_INFINITE = {True: " (infinite)", False: ""}
_SIDES = ("lhs", "rhs", "slack")

# per format, each certificate's fields in the order of its holes, with their formats
_JSON_CERT = [(side, _json_numbers) for side in _SIDES] + [
    (flag, _each(_JSON_BOOL)) for flag in ("holds", "equality", "infinite")]
_CSV_CERT = [(side, _values) for side in _SIDES] + _JSON_CERT[3:]
_TEXT_CERT = [("holds", _each(_MARK)), *_CSV_CERT[:3],
              ("equality", _each(_EQUALITY)), ("infinite", _each(_INFINITE))]


def _certificate_holes(columns: list[Certificate], fields) -> tuple[list, list]:
    """``_flat(columns)`` and, per field of ``fields`` (a name and its
    format), the name's field of every certificate, gathered once as an m×K
    array, through its format."""
    flat = _flat(columns)
    certs = [c for _, _, c in flat]
    return flat, [fmt(_gathered(certs, name)) for name, fmt in fields]


def _template(c: Certificate) -> str:
    """The JSON text of ``c`` and its detail as a %-template, with a hole for
    each field of each certificate, in ``_flat`` order."""
    return ('{"name": ' + _literal(c.name) + ', "lhs": %s, "rhs": %s, "slack": %s, "holds": %s, '
            '"equality": %s, "infinite": %s, "detail": [' + ", ".join(map(_template, c.detail)) + "]}")


def _certificate_json(columns: list[Certificate]) -> tuple[list, str, list[tuple]]:
    """``_flat(columns)``, the %-template of ``columns`` as the items of a
    JSON list and, per input, the texts that fill its holes."""
    flat, values = _certificate_holes(columns, _JSON_CERT)
    return flat, ", ".join(map(_template, columns)), _interleaved(6 * len(flat), *values)


def _certificate_csv(positions, columns: list[Certificate]) -> list[str]:
    """Per input, the CSV rows of ``columns`` and, at any depth, their detail, named by path."""
    flat, values = _certificate_holes(columns, _CSV_CERT)
    return _csv([_csv_cell(path).replace("%", "%%") + ",%.15g,%.15g,%.15g,%s,%s,%s" for _, path, _ in flat],
                positions, *values)


def _certificate_text(columns: list[Certificate], indent: str) -> tuple[str, list[tuple]]:
    """The %-template of one text line per certificate of ``columns`` at
    ``indent``, its detail below it two spaces deeper at each level, and per
    input the values that fill its holes."""
    flat, values = _certificate_holes(columns, _TEXT_CERT)
    template = "".join(f"{indent}{'  ' * depth}%s {c.name.replace('%', '%%')}: "
                       "lhs=%.15g rhs=%.15g slack=%.15g%s%s\n" for depth, _, c in flat)
    return template, _interleaved(6 * len(flat), *values)


def _json_negate(_, probs, pairs):
    return _json('"negation": [%s], "double_negation": [%s]}', probs, zip(*map(_json_rows, pairs)))


def _step_converge(args, inp):
    _flag(_check_int, "--max-steps", args.max_steps, 1)
    return lambda group: ((args.tolerance, converge_traces(group, args.tolerance, args.max_steps)), True)


def _json_converge(_, probs, result):
    """Input r's iterates, entropies and distances are its entries of each,
    between its two offsets."""
    tolerance, traces = result
    iterates = _json_rows(traces.iterates)
    entropies, distances = _json_numbers(traces.entropies), _json_numbers(traces.distances)
    return _json('"tolerance": ' + _literal(tolerance) + ', "iterates": [[%s]], "entropies": [%s], '
                 '"distances": [%s], "converged": %s, "steps": %d, "oscillating": %s}', probs, [
        ("], [".join(iterates[start:end]), ", ".join(entropies[start:end]),
         ", ".join(distances[start:end]), _JSON_BOOL[converged], steps, _JSON_BOOL[oscillating])
        for (start, end), steps, converged, oscillating in zip(
            pairwise(traces._offsets().tolist()), traces.steps.tolist(), traces.converged.tolist(),
            traces.oscillating.tolist())])


def _csv_converge(positions, probs, result):
    """Input r's rows are its steps, between its two offsets, each filled as a record of its own."""
    traces = result[1]
    offsets = traces._offsets()
    counts = np.diff(offsets)
    rows = _csv(["%d,%.15g,%.15g,%s,%s"], np.repeat(positions, counts),
                _values(np.arange(offsets[-1]) - np.repeat(offsets[:-1], counts)),
                _values(traces.distances), _values(traces.entropies),
                *(_each(_JSON_BOOL)(np.repeat(flag, counts))
                  for flag in (traces.converged, traces.oscillating)))
    return ["".join(rows[start:end]) for start, end in pairwise(offsets.tolist())]


_STOPPED = {True: "oscillating (period 2, never converges)", False: "stopped at max_steps"}


def _text_converge(positions, probs, result):
    traces = result[1]
    last = traces._offsets()[1:] - 1
    return _text("  %s after %d steps\n  final distance %.15g, entropy %.15g bits\n", positions, probs, [
        ("converged" if converged else _STOPPED[oscillating], *numbers)
        for converged, oscillating, *numbers in zip(
            traces.converged.tolist(), traces.oscillating.tolist(), traces.steps.tolist(),
            traces.distances[last].tolist(), traces.entropies[last].tolist())])


def _step_dissim(args, inp):
    try:
        alphas = [int(a) for a in args.alpha.split(",")]
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


def _json_dissim(_, probs, profiles):
    """Per input: its L + depth results, its properties and its iterated flag
    fill the template's holes in that order; each result's level is literal."""
    levels, at = profiles._columns()
    results = ['{"alpha": %d, "value": %%s, "l1": %%s}' % a for a in at]
    _, properties, holes = _certificate_json([profiles.properties])
    split = 2 * levels  # the profile's texts of an input's results
    return _json('"negation": [%s], "profile": [' + ", ".join(results[:levels]) + '], "properties": '
                 + properties + ', "iterated": {"alpha": ' + str(at[0]) + ', "results": ['
                 + ", ".join(results[levels:]) + '], "non_decreasing": %s}}', probs, [
        (q, *texts[:split], *fields, *texts[split:], _JSON_BOOL[flag])
        for q, texts, fields, flag in zip(
            _json_rows(profiles.negations), _json_inputs(np.stack([profiles.value, profiles.l1], axis=-1)),
            holes, profiles.non_decreasing.tolist())])


def _csv_dissim(positions, probs, profiles):
    """A row's ``value`` is also its ``closed_form_value``."""
    levels, at = profiles._columns()
    kinds = [f"alpha,{a}" for a in at[:levels]] + [f"iterate,{k}" for k in range(1, len(at) - levels + 1)]
    values = _values(profiles.value)
    return _csv([kind + ",%.15g,%.15g,%.15g,%s" for kind in kinds], positions, values, values,
                _values(profiles.l1), _each(_JSON_BOOL)(np.repeat(profiles.properties.holds, len(at))))


def _text_dissim(positions, probs, profiles):
    levels, at = profiles._columns()
    depth = len(at) - levels
    properties, holes = _certificate_text([profiles.properties], "  ")
    tail = ("".join(f"  alpha={a}: value=%.15g (l1=%.15g)\n" for a in at[:levels]) + properties
            + f"  vs iterates 1..{depth}: {_numbers(depth)} (non-decreasing: %s)\n")
    pairs = np.stack([profiles.value[:, :levels], profiles.l1[:, :levels]], axis=-1)
    return _text(tail, positions, probs, [
        (*pair, *fields, *iterated, _JSON_BOOL[flag]) for pair, fields, iterated, flag in zip(
            pairs.reshape(len(probs), -1).tolist(), holes, profiles.value[:, levels:].tolist(),
            profiles.non_decreasing.tolist())])


_SKIPPED_CHAIN = "partial_mean_chain skipped: needs n >= 3"


def _step_verify(args, inp):
    try:
        f = get_function(args.fn)
    except LookupError as exc:  # its message lists the built-ins
        raise _UsageError(str(exc)) from None
    inp["function"] = args.fn

    def step(group):
        if group[0].n > MAX_VERIFY_N:
            raise _UsageError(f"verify takes n <= {MAX_VERIFY_N} (MAX_VERIFY_N), got n = {group[0].n}")
        # the rows were validated under --tol and are not checked again
        suite = certificate_suites(f, group)
        failing = ~_gathered([c for _, _, c in _flat(suite)], "holds")
        return (f.name, suite, failing), not failing.any()
    return step


def _json_verify(_, probs, result):
    fn, suite, failing = result
    flat, certificates, holes = _certificate_json(suite)
    notes = ', "notes": ' + _literal([_SKIPPED_CHAIN]) if probs.shape[1] < 3 else ""
    # each path is encoded once; a group in which every claim holds needs none
    paths = [json.dumps(path) for _, path, _ in flat] if failing.any() else []
    return _json('"function": ' + _literal(fn) + ', "certificates": [' + certificates
                 + '], "all_hold": %s, "failing": [%s]' + notes + "}", probs, [
        (*fields, _JSON_BOOL[not any(fails)], ", ".join(compress(paths, fails)))
        for fields, fails in zip(holes, failing.tolist())])


def _text_verify(positions, probs, result):
    certificates, holes = _certificate_text(result[1], "  ")
    notes = f"  note: {_SKIPPED_CHAIN}\n" if probs.shape[1] < 3 else ""
    return _text(certificates + notes, positions, probs, holes)


# ---------------------------------------------------------------------------
# the golden fixture report: one certificate per worked example.  A fixture
# that restates a library certificate keeps it as its detail and holds only
# if it holds, under thresholds of the fixture's own.  Those thresholds
# (1e-14, 1e-12, 1e-6 and 1e-4) are pass conditions of worked examples, not
# decision tolerances of the library.  A fixture never claims equality,
# because compare()'s 1e-9 equality band would pass any two sides that close.

def _frac(text: str) -> tuple[float, ...]:
    """Space-separated exact fractions, each rounded once to a float."""
    return tuple(map(_parse_scalar, text.split()))


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

    padding = zero_padding_entropy_check(make_dist(_P3), 2)
    _, raised = padding.detail
    fixtures.append(_claim(
        "entropy_padding_ordering", raised.lhs, raised.rhs,
        padding.holds and raised.slack > 1e-6, padding,
    ))

    p4 = make_dist(_P4)
    chain = entropy_chain_check(p4)
    fixtures.append(_claim(
        "entropy_chain_four_outcomes", chain.lhs, chain.rhs,
        chain.holds and all(link.slack > 1e-6 for link in chain.detail), chain,
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
    # The literal min-pair form is checked against the closed form exactly,
    # at every level, in tests/test_exact_oracle.py, not here.
    expected0 = -math.log2(8.0 / 9.0)
    profile = negation_profiles([p4], [0, 1, 2, 3], 1).row(0)
    value0, props = profile.profile[0].value, profile.properties
    direction = {c.name: c.holds for c in props.detail}
    fixtures.append(_claim(
        "dissimilarity_golden", value0, expected0,
        abs(value0 - expected0) <= 1e-12
        and props.holds
        and direction["value_non_increasing_in_alpha"]
        and not direction["value_non_decreasing_in_alpha"],
        props,
    ))
    return fixtures, all(c.holds for c in fixtures)


# ---------------------------------------------------------------------------
# rendering

def _render_json(doc: dict) -> list[str]:
    """The parts of ``doc`` as ``json.dumps`` writes it, its ``results`` being
    the JSON texts of the records and ``results`` and ``all_hold`` its last keys."""
    # one-shot dumps without indent runs CPython's C encoder; the documents
    # are acyclic, so the encoder need not track the containers it is in
    head = json.dumps({key: value for key, value in doc.items() if key not in ("results", "all_hold")},
                      check_circular=False)
    records = doc["results"]
    parts = [", "] * (2 * len(records))  # each record after a separator, the first after the head
    parts[1::2] = records
    parts[:1] = [f'{head[:-1]}, "results": [']
    parts.append(f'], "all_hold": {_JSON_BOOL[doc["all_hold"]]}}}\n')
    return parts


_ERROR_HEADER = ("dist", "error", "sum_error", "bad_indices")


def _render_csv(doc: dict) -> list[str]:
    if "error" not in doc:
        return [",".join(_COMMANDS[doc["command"]].header) + "\r\n", *doc["results"]]
    err, report = doc["error"], doc["error"]["report"]
    cells = (str(err["index"]), err["why"], "%.15g" % report["sum_error"],  # the why may hold a comma
             " ".join(map(str, report["bad_indices"])))
    return [",".join(_ERROR_HEADER) + "\r\n" + ",".join(map(_csv_cell, cells)) + "\r\n"]


def _render_text(doc: dict) -> list[str]:
    head = f"command: {doc['command']}\n"
    if "error" in doc:
        err = doc["error"]
        rep = err["report"]
        head += (f"validation failed for distribution {err['index']}: {err['why']} "
                 f"(sum_error={rep['sum_error']:.15g}, bad_indices={rep['bad_indices']})\n")
    return [head, *doc["results"], f"all_hold: {_JSON_BOOL[doc['all_hold']]}\n"]


def _write(parts: list[str], out_path: str | None) -> None:
    """``parts`` in one ``writelines``, to ``out_path`` or else stdout; a
    usage error where they cannot be written."""
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.writelines(parts)
        except OSError as exc:
            raise _UsageError(f"cannot write {out_path}: {exc}") from None
    else:
        try:
            if sys.stdout is None:  # the process started with file descriptor 1 closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.writelines(parts)
            sys.stdout.flush()
        except OSError as exc:  # a closed pipe, a full disk
            raise _UsageError(f"cannot write stdout: {exc}") from None


def _emit(doc: dict, fmt: str, out_path: str | None) -> None:
    _write({"json": _render_json, "csv": _render_csv, "text": _render_text}[fmt](doc), out_path)


def _error(line: str) -> None:
    """``line`` on stderr, where it can be written.  A process started with
    file descriptor 2 closed has no stderr, and print would write to stdout."""
    if sys.stderr is not None:
        try:
            print(line, file=sys.stderr)
        except OSError:  # a closed pipe, a full disk, a descriptor not open for writing
            pass


class _Command(NamedTuple):
    """One subcommand: its step, its record of each format, and what it adds to the parser."""

    step: Callable  # (args, inp) -> (group -> (result, all_hold))
    json: Callable  # (positions, probs, result) -> per input, the text of its record in each format
    csv: Callable
    text: Callable
    header: tuple  # the CSV header row
    help: str
    flags: tuple = ()  # (flag, add_argument keywords) beyond the common ones
    dist_input: bool = True  # takes --dist, --file and --tol


_COMMANDS = {
    "negate": _Command(
        # the group's negations and double negations, as two m×n blocks
        lambda args, inp: lambda group: (negation_pairs(group), True),
        _json_negate,
        lambda positions, probs, pairs: _csv(
            [f"{i},%.15g,%.15g,%.15g" for i in range(probs.shape[1])], positions,
            *map(_values, (probs, *pairs))),
        lambda positions, probs, pairs: _text(
            "  negation:        {0}\n  double negation: {0}\n".format(_numbers(probs.shape[1])),
            positions, probs, np.hstack(pairs).tolist()),
        ("dist", "index", "p", "negation", "double_negation"),
        "emit a distribution, its negation, and its double negation",
    ),
    "entropy": _Command(
        # H, log2 n and the gap of each input, as an m×3 block
        lambda args, inp: lambda group: (_entropy_reports(_stacked(group)), True),
        lambda _, probs, columns: _json(
            f'"n": {probs.shape[1]}, "entropy_bits": %s, "max_entropy_bits": %s, "gap_bits": %s}}',
            probs, _json_inputs(columns)),
        lambda positions, probs, columns: _csv(
            [f"{probs.shape[1]},%.15g,%.15g,%.15g"], positions, *map(_values, columns.T)),
        lambda positions, probs, columns: _text(
            "  entropy %.15g bits of %.15g max, gap %.15g\n", positions, probs, columns.tolist()),
        ("dist", "n", "entropy_bits", "max_entropy_bits", "gap_bits"),
        "entropy in bits against the log2(n) ceiling",
    ),
    "converge": _Command(
        _step_converge, _json_converge, _csv_converge, _text_converge,
        ("dist", "step", "distance", "entropy_bits", "converged", "oscillating"),
        "iterate negation toward uniform and trace the path",
        flags=(("--max-steps", {"type": int, "default": _default(converge_traces, "max_steps")}),),
    ),
    "verify": _Command(
        _step_verify, _json_verify, lambda positions, _, result: _certificate_csv(positions, result[1]),
        _text_verify, _CERT_HEADER,
        "run the full certificate suite",
        flags=(("--fn", {"default": "neg_log",
                         "help": f"built-in function ({', '.join(BUILTIN_FUNCTIONS)})"}),),
    ),
    "dissim": _Command(
        _step_dissim, _json_dissim, _csv_dissim, _text_dissim,
        ("dist", "kind", "level", "value", "closed_form_value", "l1", "properties_hold"),
        "dissimilarity profile against the negation",
        flags=(
            ("--alpha", {"default": "0,1,2,3", "help": "comma-separated nonnegative integer levels"}),
            ("--depth", {"type": int, "default": _default(negation_profiles, "depth"),
                         "help": "negation iterates to compare against (>= 1)"}),
        ),
    ),
    "report": _Command(
        lambda args, inp: _golden_fixtures,  # report reads no distributions
        lambda _, __, fixtures: [
            template % fields for _, template, (fields,) in map(_certificate_json, [[c] for c in fixtures])],
        lambda positions, _, fixtures: [_certificate_csv([i], [c])[0] for i, c in zip(positions, fixtures)],
        lambda _, __, fixtures: [
            template % fields for template, (fields,) in (_certificate_text([c], "") for c in fixtures)],
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
            p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE,
                           help="validation/convergence tolerance (default 1e-9)")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", help="write output to this path instead of stdout")
        for flag, kwargs in cmd.flags:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv: list[str] | None = None, *, workers: int = 1) -> int:
    """Run the command line ``argv`` (``sys.argv[1:]`` when None) and return
    its exit code.  A batch's groups are computed and rendered in up to
    ``workers`` processes (see ``_by_group``); the output is that of one."""
    parser = _build_parser()
    # the inputs, records and documents built below form no reference
    # cycles, so the cyclic collector would only spend time scanning them
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = parser.parse_args(argv)
        cmd = _COMMANDS[args.command]
        render = getattr(cmd, args.format)
        if not cmd.dist_input:
            doc_input = {}
        else:
            args.tolerance = _flag(_check_tolerance, "--tol", args.tol)
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
            results, all_hold = _by_group(groups, len(raw), step, render, workers)
        else:  # each fixture is a record
            fixtures, all_hold = step(None)
            results = render(range(len(fixtures)), None, fixtures)
        doc = {"command": args.command, "input": doc_input, "results": results, "all_hold": all_hold}
        _emit(doc, args.format, args.out)
        return EXIT_OK if all_hold else EXIT_FAILURE
    except _UsageError as exc:
        _error(f"neglab: error: {exc}")
        return EXIT_USAGE
    except SystemExit as exc:  # --help lands here; argparse uses 0 for it
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except (DomainError, DimensionError) as exc:
        _error(f"neglab: invalid input: {exc}")
        return EXIT_VALIDATION
    finally:
        if collecting:
            gc.enable()

