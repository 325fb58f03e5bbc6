"""Seeded input generator for the neglab benchmark.

One seed fixes all three batches.  Each batch draws from its own child of
``numpy.random.SeedSequence(seed)``, so generating one batch never shifts
another.  Distributions are Dirichlet(1) draws; about a tenth of them get
between 1 and n - 1 exact zeros and are renormalised.  Zeroing all n
entries would leave nothing to renormalise (0/0 = NaN), hence the cap.

Usage: python3 perfbench/gen.py --seed 7 --out DIR
writes DIR/verify_small.json, DIR/verify_wide.json and
DIR/roundtrip_pipeline.json, each a JSON array of distributions.
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

ZERO_SHARE = 0.10

BATCHES = ("verify_small", "verify_wide", "roundtrip_pipeline")


def _draw(rng: np.random.Generator, n: int, zeroed: bool) -> list[float]:
    p = rng.dirichlet(np.ones(n))
    if zeroed:
        k = int(rng.integers(1, n))  # 1 .. n - 1 zeros, never all n
        p[rng.choice(n, size=k, replace=False)] = 0.0
        p = p / p.sum()
    return p.tolist()


def _batch(rng: np.random.Generator, sizes: list[int], force_zeros: int | None) -> list[list[float]]:
    out = []
    for i, n in enumerate(sizes):
        zeroed = bool(rng.random() < ZERO_SHARE) or i == force_zeros
        out.append(_draw(rng, n, zeroed))
    return out


def generate(seed: int) -> dict[str, list[list[float]]]:
    """All three batches for ``seed``, keyed by workload name."""
    small_rng, wide_rng, trip_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )
    # roundtrip: n uniform in [2, 16]; the first entry is pinned to n = 2 so
    # the oscillating two-outcome path always runs
    trip_sizes = trip_rng.integers(2, 17, size=2000).tolist()
    trip_sizes[0] = 2
    return {
        "verify_small": _batch(small_rng, [8] * 2000, force_zeros=None),
        "verify_wide": _batch(wide_rng, [512] * 6, force_zeros=0),
        "roundtrip_pipeline": _batch(trip_rng, trip_sizes, force_zeros=None),
    }


def write_batch(batch: list[list[float]], path: str) -> None:
    """JSON with repr floats, so the CLI reads back the exact doubles."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(batch, fh)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the batches into")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    for name, batch in generate(args.seed).items():
        write_batch(batch, os.path.join(args.out, f"{name}.json"))


if __name__ == "__main__":
    main()
