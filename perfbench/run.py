"""Benchmark of the neglab batch CLI.

Run from the root of a neglab checkout:

    python3 perfbench/run.py --workload verify_small --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload as real ``python -m neglab`` child
processes, one at a time (a closed loop with one client), for
``--seconds`` seconds, and reports the end-to-end metrics.  ``--trace 1``
runs the same invocations in-process through ``neglab.cli.main``,
alternating untraced and traced passes, and reports the per-layer
metrics.  Every invocation's output is checked against an independent
reference (``reference.py``); the last line printed is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The inputs come from ``gen.py`` and depend only on ``--seed``.  The CLI
runs from ``src/`` of the checkout this file sits in; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import calibrate
import check
import gen
import reference
import trace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_tmp")

ALPHAS = list(range(8))
DEPTH = 8
SETUP_ARGV = ["negate", "--dist", "uniform:2"]
SETUP_PROBES_PER_PASS = 2
#: a run must end within 180 s; no child may outlive this many seconds of it
RUN_BUDGET_S = 170.0


@dataclass
class Step:
    """One CLI invocation: its argv, where its output lands, how to check it."""

    argv: list[str]
    out: str
    check: Callable[[str], str | None]
    stdout: bool = True  # False when the command writes ``out`` itself
    verified: str | None = None  # digest of an output that passed ``check``

    def problem(self) -> str | None:
        """Why the last output is wrong, or None.  An output byte-identical
        to one that already passed is not parsed again."""
        try:
            with open(self.out, "rb") as fh:
                digest = hashlib.file_digest(fh, "sha256").hexdigest()
        except OSError as exc:
            return f"no output: {exc}"
        if digest == self.verified:
            return None
        problem = self.check(self.out)
        if problem is None:
            self.verified = digest
        return problem


def plan(workload: str, work: str, batch: list[list[float]]) -> list[Step]:
    inp = os.path.join(work, "input.json")
    gen.write_batch(batch, inp)
    dists = [reference.validated(row) for row in batch]
    if workload.startswith("verify"):
        certs = [reference.verify_certificates(p) for p in dists]
        fn = ["--fn", "neg_log"] if workload == "verify_small" else []
        return [Step(["verify", *fn, "--file", inp, "--format", "json"],
                     os.path.join(work, "verify.json"),
                     lambda path: check.verify_json(path, dists, certs))]
    doc = os.path.join(work, "doc.json")
    trajectories = [reference.converge(p) for p in dists]
    profiles = [reference.dissim_rows(p, ALPHAS, DEPTH) for p in dists]
    return [
        Step(["negate", "--file", inp, "--format", "json", "--out", doc], doc,
             lambda path: check.negate_json(path, batch, dists), stdout=False),
        Step(["converge", "--file", doc, "--format", "text"],
             os.path.join(work, "converge.txt"),
             lambda path: check.converge_text(path, dists, trajectories)),
        Step(["dissim", "--file", doc, "--alpha", ",".join(map(str, ALPHAS)),
              "--depth", str(DEPTH), "--format", "csv"],
             os.path.join(work, "dissim.csv"),
             lambda path: check.dissim_csv(path, profiles)),
    ]


class Tally:
    """Invocations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, step: Step, code: int, problem: str | None = None) -> None:
        self.attempted += 1
        if code != 0:
            problem = f"exit code {code}"
        if problem:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {step.argv[0]}: {problem}", file=sys.stderr)


# ---------------------------------------------------------------------------
# end to end: child processes

def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("NEGLAB_TOL", None)
    return env


def spawn(step: Step, env: dict, deadline: float) -> tuple[int, float, float]:
    """Run one invocation; return exit code, wall seconds and max RSS in MB."""
    target = step.out if step.stdout else os.devnull
    with open(target, "wb") as out:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "neglab", *step.argv],
                                stdout=out, env=env)
        killer = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def end_to_end(steps: list[Step], setup: Step, n_dists: int, seconds: float,
               deadline: float, tally: Tally) -> dict:
    env = _child_env()

    def run(step: Step) -> tuple[float, float]:
        code, wall, rss = spawn(step, env, deadline)
        tally.record(step, code, None if code else step.problem())
        return wall, rss

    run(setup)  # warm-up: bytecode compilation and page cache, not timed
    setups, walls, speeds, peak = [], [], [], 0.0
    stop = perf_counter() + seconds
    while not walls or perf_counter() < stop:
        before = calibrate.kernel_seconds()
        probes = [run(setup)[0] for _ in range(SETUP_PROBES_PER_PASS)]
        wall = 0.0
        for step in steps:
            step_wall, rss = run(step)
            wall += step_wall
            peak = max(peak, rss)
        # the pass ran at this speed relative to the reference machine
        speed = 2.0 * calibrate.REFERENCE_S / (before + calibrate.kernel_seconds())
        walls.append(wall)
        speeds.append(speed)
        setups.extend(probes)
    rates = [n_dists / wall for wall in walls]
    print(f"raw dists_per_s over {len(rates)} passes: {' '.join(f'{r:.4g}' for r in rates)}")
    print(f"machine speed per pass: {' '.join(f'{v:.3g}' for v in speeds)}")
    print(f"setup_s over {len(setups)} probes: {' '.join(f'{p:.4g}' for p in setups)}")
    return {
        "dists_per_s": (statistics.median(r / v for r, v in zip(rates, speeds)), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak, "MB"),
    }


# ---------------------------------------------------------------------------
# per layer: traced in-process runs

def _import_neglab():
    sys.path.insert(0, SRC)
    import neglab.cli

    if not os.path.abspath(neglab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"neglab imported from {neglab.__file__}, not {SRC}")
    return neglab.cli.main


def _in_process(main, step: Step, tally: Tally) -> float:
    """Run ``main(argv)`` for one step with stdout captured; return its wall time."""
    target = step.out if step.stdout else os.devnull
    with open(target, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        start = perf_counter()
        try:
            code = main(step.argv)
        except Exception as exc:  # a crash is a failed invocation, not a lost run
            tally.record(step, 0, f"raised {exc!r}")
            return perf_counter() - start
        elapsed = perf_counter() - start
    tally.record(step, code, None if code else step.problem())
    return elapsed


def per_layer(steps: list[Step], seconds: float, tally: Tally) -> tuple[dict, str | None]:
    main = _import_neglab()
    os.environ.pop("NEGLAB_TOL", None)
    for step in steps:  # warm-up, not timed
        _in_process(main, step, tally)
    plain, traced, selfs = [], [], []
    first: dict | None = None
    problem = None
    stop = perf_counter() + seconds
    while not traced or perf_counter() < stop:
        gc.collect()
        plain.append(sum(_in_process(main, s, tally) for s in steps))
        gc.collect()
        tracer = trace.Tracer()
        tracer.install()
        try:
            root = tracer.span("cli", main)
            wall = sum(_in_process(root, s, tally) for s in steps)
        finally:
            tracer.uninstall()
        traced.append(wall)
        selfs.append(tracer.self_s)
        covered = sum(tracer.self_s.values())
        if abs(covered - wall) > 1e-3 * wall:
            problem = f"layer self times sum to {covered:.6f} s of {wall:.6f} s traced"
        exact = tracer.exact()
        if first is None:
            first = exact
        elif exact != first:
            problem = "calls or counts differ between traced passes"
    print(f"untraced main() s over {len(plain)} passes: {' '.join(f'{t:.4g}' for t in plain)}")
    print(f"traced main() s over {len(traced)} passes: {' '.join(f'{t:.4g}' for t in traced)}")
    metrics = {}
    for layer in trace.LAYERS:
        metrics[f"{layer}.self_s"] = (statistics.median(s[layer] for s in selfs), "s")
    for name, value in first.items():
        metrics[name] = (value, "bytes" if name.endswith(".bytes") else "count")
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics, problem


# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description="neglab CLI benchmark")
    parser.add_argument("--workload", required=True, choices=gen.BATCHES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still kills and reaps its child (see ``spawn``)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "neglab", "__init__.py")):
        print(f"no neglab sources under {SRC}", file=sys.stderr)
        return 2
    deadline = perf_counter() + RUN_BUDGET_S

    batch = gen.generate(args.seed)[args.workload]
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    tally = Tally()
    problem = None
    try:
        steps = plan(args.workload, work, batch)
        if args.trace:
            metrics, problem = per_layer(steps, args.seconds, tally)
        else:
            setup = Step(SETUP_ARGV, os.path.join(work, "setup.txt"), check.setup_text)
            metrics = end_to_end(steps, setup, len(batch), args.seconds, deadline, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if problem:
        print(f"FAILED trace: {problem}", file=sys.stderr)
    correct = tally.failed == 0 and problem is None
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{tally.failed} of {tally.attempted} invocations failed "
          f"(failed_frac {tally.failed / tally.attempted:.6g})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
