"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402
import trace  # noqa: E402


def _generate(seed: int, out) -> dict[str, bytes]:
    subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), "--seed", str(seed),
                    "--out", str(out)], check=True)
    return {name: (out / f"{name}.json").read_bytes() for name in gen.BATCHES}


def test_same_seed_same_input_bytes(tmp_path):
    first = _generate(7, tmp_path / "a")
    assert first == _generate(7, tmp_path / "b")
    other = _generate(8, tmp_path / "c")
    assert all(first[name] != other[name] for name in gen.BATCHES)


def test_batches_are_valid_and_cover_the_edge_paths():
    batches = gen.generate(7)
    assert [len(batches[name]) for name in gen.BATCHES] == [2000, 6, 2000]
    for rows in batches.values():
        for row in rows:
            arr = np.asarray(row)
            assert np.all(np.isfinite(arr)) and np.all(arr >= 0) and arr.max() > 0
            assert abs(arr.sum() - 1.0) < 1e-12
    assert any(0.0 in row for row in batches["verify_wide"])
    assert 150 < sum(0.0 in row for row in batches["verify_small"]) < 250
    assert {len(row) for row in batches["roundtrip_pipeline"]} == set(range(2, 17))


def _cli(argv, stdout_path):
    env = dict(os.environ, PYTHONPATH=run.SRC)
    env.pop("NEGLAB_TOL", None)
    with open(stdout_path, "wb") as out:
        return subprocess.run([sys.executable, "-m", "neglab", *argv], stdout=out,
                              env=env, check=False).returncode


@pytest.fixture(scope="module")
def verify_output(tmp_path_factory):
    """A real ``verify`` output on 40 distributions, a quarter with zeros."""
    work = tmp_path_factory.mktemp("verify")
    rows = gen.generate(3)["verify_small"]
    zeroed = [r for r in rows if 0.0 in r][:10]
    batch = zeroed + [r for r in rows if 0.0 not in r][:30]
    steps = run.plan("verify_small", str(work), batch)
    assert _cli(steps[0].argv, steps[0].out) == 0
    return steps[0]


def _failures_after(step, mutate) -> int:
    with open(step.out, encoding="utf-8") as fh:
        doc = json.load(fh)
    mutate(doc)
    mutated = step.out + ".mutated"
    with open(mutated, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    probe = run.Step(step.argv, mutated, step.check)
    tally = run.Tally()
    tally.record(probe, 0, probe.problem())
    return tally.failed


def test_compact_rewrite_of_a_correct_output_passes(verify_output):
    # _failures_after re-writes without indent: the check parses, it does
    # not pin the writer's bytes
    assert _failures_after(verify_output, lambda doc: None) == 0


@pytest.mark.parametrize("cert_index", [0, 3, -1])
def test_flipped_holds_flag_counts_as_failed(verify_output, cert_index):
    def flip(doc):
        cert = doc["results"][5]["certificates"][cert_index]
        cert["holds"] = not cert["holds"]

    assert _failures_after(verify_output, flip) == 1


@pytest.mark.parametrize("key", ["lhs", "rhs", "slack"])
def test_float_nudged_by_1e9_counts_as_failed(verify_output, key):
    def nudge(doc):
        for rec in doc["results"]:
            for cert in rec["certificates"]:
                if math.isfinite(cert[key]):
                    cert[key] += 1e-9
                    return
    assert _failures_after(verify_output, nudge) == 1


def test_nudged_dissim_csv_value_counts_as_failed(tmp_path):
    batch = gen.generate(3)["roundtrip_pipeline"][:30]
    steps = run.plan("roundtrip_pipeline", str(tmp_path), batch)
    for step in steps:
        assert _cli(step.argv, step.out if step.stdout else os.devnull) == 0
        assert step.problem() is None
    dissim = steps[-1]
    with open(dissim.out, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[3].split(",")
    cells[3] = repr(float(cells[3]) + 1e-9)
    lines[3] = ",".join(cells)
    with open(dissim.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert dissim.problem() is not None


def _traced_counts(main, steps) -> tuple[dict, float, float]:
    tally = run.Tally()
    tracer = trace.Tracer()
    tracer.install()
    try:
        root = tracer.span("cli", main)
        wall = sum(run._in_process(root, s, tally) for s in steps)
    finally:
        tracer.uninstall()
    assert tally.failed == 0
    return tracer.exact(), sum(tracer.self_s.values()), wall


@pytest.mark.parametrize("workload,size", [
    ("verify_small", 60), ("verify_wide", 1), ("roundtrip_pipeline", 60),
])
def test_traced_counts_repeat_exactly_and_self_times_partition(tmp_path, workload, size):
    main = run._import_neglab()
    batch = gen.generate(5)[workload][:size]
    steps = run.plan(workload, str(tmp_path), batch)
    first, covered, wall = _traced_counts(main, steps)
    assert covered == pytest.approx(wall, rel=1e-3)
    second, _, _ = _traced_counts(main, steps)
    assert first == second
    assert first["cli.calls"] == len(steps)
    if workload.startswith("verify"):
        assert first["jensen.f_evals"] > 0 and first["certificates.built"] > 0
        assert first["distribution.probdist_built"] > 0


def test_tracer_restores_every_name():
    run._import_neglab()
    import neglab.cli

    before = dict(vars(neglab.cli))
    tracer = trace.Tracer()
    tracer.install()
    tracer.uninstall()
    assert dict(vars(neglab.cli)) == before


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_and_calibration_are_independent_of_neglab():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, calibrate, check, gen, reference; "
         "print(any(m.startswith('neglab') for m in sys.modules))"],
        cwd=HERE, capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False"
