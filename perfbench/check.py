"""Output checks: each returns None when an output matches the reference,
else a one-line reason.

Outputs are parsed, never compared byte for byte, so a deliberate change
of writer (compact JSON, say) still passes.  Certificate names and their
holds/equality/infinite flags must match exactly, every float within
1e-12 (relative above 1), and the distributions a later invocation
re-reads from an output document must equal the generated batch bit for
bit.
"""

from __future__ import annotations

import csv
import json
import math
import re

import numpy as np

import reference

FLOAT_TOL = 1e-12
FLAGS = ("holds", "equality", "infinite")


def close(got, want: float) -> bool:
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    got = float(got)
    if math.isnan(want):
        return math.isnan(got)
    if math.isinf(want):
        return got == want
    return abs(got - want) <= FLOAT_TOL * max(1.0, abs(want))


def _vector(got, want, what: str) -> str | None:
    if not isinstance(got, list) or len(got) != len(want):
        return f"{what}: expected {len(want)} values"
    for j, (g, w) in enumerate(zip(got, want)):
        if not close(g, float(w)):
            return f"{what}[{j}]: {g!r} != {float(w)!r}"
    return None


def _certificate(got, want: dict, where: str) -> str | None:
    if not isinstance(got, dict) or got.get("name") != want["name"]:
        return f"{where}: expected certificate {want['name']}"
    where = f"{where}/{want['name']}"
    for flag in FLAGS:
        if got.get(flag) is not want[flag]:
            return f"{where}: {flag} is {got.get(flag)!r}, expected {want[flag]}"
    for key in ("lhs", "rhs", "slack"):
        if not close(got.get(key), want[key]):
            return f"{where}: {key} {got.get(key)!r} != {want[key]!r}"
    detail = got.get("detail")
    if not isinstance(detail, list) or len(detail) != len(want["detail"]):
        return f"{where}: expected {len(want['detail'])} detail certificates"
    for g, w in zip(detail, want["detail"]):
        problem = _certificate(g, w, where)
        if problem:
            return problem
    return None


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh), None
    except (OSError, ValueError) as exc:
        return None, f"unreadable JSON output: {exc}"


def _document(doc, command: str, count: int) -> str | None:
    if not isinstance(doc, dict) or doc.get("command") != command:
        return f"not a {command} document"
    if doc.get("all_hold") is not True:
        return "all_hold is not true"
    if not isinstance(doc.get("results"), list) or len(doc["results"]) != count:
        return f"expected {count} results"
    return None


def same_bits(got, batch: list[list[float]]) -> bool:
    """Rows equal the batch as doubles, bit for bit."""
    try:
        return all(
            np.array_equal(np.asarray(g, dtype=float).view(np.int64),
                           np.asarray(w, dtype=float).view(np.int64))
            for g, w in zip(got, batch, strict=True)
        )
    except (TypeError, ValueError):
        return False


def verify_json(path: str, dists: list[np.ndarray], expected: list[list[dict]]) -> str | None:
    doc, problem = _load_json(path)
    problem = problem or _document(doc, "verify", len(dists))
    if problem:
        return problem
    for i, (rec, p, certs) in enumerate(zip(doc["results"], dists, expected)):
        if not isinstance(rec, dict):
            return f"result {i}: not an object"
        if rec.get("all_hold") is not True or rec.get("failing") != []:
            return f"result {i}: certificates fail: {rec.get('failing')}"
        problem = _vector(rec.get("distribution"), p, f"result {i} distribution")
        if problem:
            return problem
        got = rec.get("certificates")
        if not isinstance(got, list) or len(got) != len(certs):
            return f"result {i}: expected {len(certs)} certificates"
        for g, w in zip(got, certs):
            problem = _certificate(g, w, f"result {i}")
            if problem:
                return problem
    return None


def negate_json(path: str, batch: list[list[float]], dists: list[np.ndarray]) -> str | None:
    doc, problem = _load_json(path)
    problem = problem or _document(doc, "negate", len(dists))
    if problem:
        return problem
    if not same_bits(doc.get("input", {}).get("distributions"), batch):
        return "input.distributions differ from the generated batch"
    for i, (rec, p) in enumerate(zip(doc["results"], dists)):
        if not isinstance(rec, dict):
            return f"result {i}: not an object"
        for key, want in (("distribution", p), ("negation", reference.negate(p)),
                          ("double_negation", reference.negate_twice(p))):
            problem = _vector(rec.get(key), want, f"result {i} {key}")
            if problem:
                return problem
    return None


_DIST = re.compile(r"^distribution (\d+): (.*)$")
_STATE = re.compile(r"^\s+(converged|oscillating|stopped)\b.*\bafter (\d+) steps$")
_FINAL = re.compile(r"^\s+final distance (\S+), entropy (\S+) bits$")


def converge_text(path: str, dists: list[np.ndarray], expected: list[dict]) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return f"unreadable output: {exc}"
    if not lines or lines[-1].strip() != "all_hold: true":
        return "all_hold is not true"
    found: list[dict] = []
    try:
        for line in lines:
            if m := _DIST.match(line):
                if int(m.group(1)) != len(found):
                    return f"distribution {m.group(1)} out of order"
                found.append({"values": [float(v) for v in m.group(2).split(",")]})
            elif found and (m := _STATE.match(line)):
                found[-1].update(state=m.group(1), steps=int(m.group(2)))
            elif found and (m := _FINAL.match(line)):
                found[-1].update(distance=float(m.group(1)), entropy=float(m.group(2)))
    except ValueError as exc:
        return f"unparsable number: {exc}"
    if len(found) != len(dists):
        return f"expected {len(dists)} results, found {len(found)}"
    for i, (got, p, want) in enumerate(zip(found, dists, expected)):
        problem = _vector(got["values"], p, f"result {i} distribution")
        if problem:
            return problem
        if got.get("state") != want["state"] or got.get("steps") != want["steps"]:
            return f"result {i}: {got.get('state')} after {got.get('steps')}, expected {want['state']} after {want['steps']}"
        for key in ("distance", "entropy"):
            if not close(got.get(key), want[key]):
                return f"result {i}: final {key} {got.get(key)!r} != {want[key]!r}"
    return None


def dissim_csv(path: str, expected: list[list[dict]]) -> str | None:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, csv.Error) as exc:
        return f"unreadable CSV output: {exc}"
    want_rows = [(i, r) for i, rows_i in enumerate(expected) for r in rows_i]
    if len(rows) != len(want_rows):
        return f"expected {len(want_rows)} rows, found {len(rows)}"
    try:
        for got, (i, want) in zip(rows, want_rows):
            where = f"dist {i} {want['kind']} {want['level']}"
            if (int(got["dist"]), got["kind"], int(got["level"])) != (i, want["kind"], want["level"]):
                return f"{where}: row is dist {got['dist']} {got['kind']} {got['level']}"
            if got["properties_hold"] != ("true" if want["properties_hold"] else "false"):
                return f"{where}: properties_hold is {got['properties_hold']}"
            for key in ("value", "closed_form_value", "l1"):
                if not close(float(got[key]), want[key]):
                    return f"{where}: {key} {got[key]} != {want[key]!r}"
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed row: {exc!r}"
    return None


def setup_text(path: str) -> str | None:
    """``negate --dist uniform:2`` prints a negation of [0.5, 0.5]."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return f"unreadable output: {exc}"
    m = re.search(r"^\s*negation:\s*(.*)$", text, re.MULTILINE)
    try:
        ok = m is not None and [float(v) for v in m.group(1).split(",")] == [0.5, 0.5]
    except ValueError:
        ok = False
    return None if ok else "negation of uniform:2 is not [0.5, 0.5]"
