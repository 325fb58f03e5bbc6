"""Machine-speed calibration for ``dists_per_s``.

The machine the benchmark was sized on is shared, and its speed for
CPU-bound work drifts between regimes minutes long that differ by up to
1.6x.  Wall and CPU time drift alike, so neither measures around it.
Instead a fixed kernel of the same kind of work as the CLI (small numpy
arrays, scalar float math, Python objects, indented JSON) is timed before
and after every pass, and the pass's throughput is divided by its speed,
``REFERENCE_S / kernel time``.  The kernel never touches neglab, so no
change to the program can move it.
"""

from __future__ import annotations

import json
import math
import statistics
from time import perf_counter

import numpy as np

#: typical kernel time, in seconds, on the machine the benchmark was sized
#: on (Python 3.11.7, numpy 2.4.6, 2 vCPUs), so that speed reads about 1
REFERENCE_S = 0.0065
REPEATS = 9


def _kernel() -> int:
    rng = np.random.default_rng(20240817)
    rows = []
    for _ in range(100):
        p = rng.dirichlet(np.ones(8))
        q = np.clip((1.0 - p) / 7, 0.0, 1.0)
        rows.append({
            "p": p.tolist(),
            "q": q.tolist(),
            "h": float(-np.sum(p * np.log2(p))),
            "f": math.fsum(-math.log2(x) for x in p),
        })
    return len(json.dumps(rows, indent=2))


def kernel_seconds() -> float:
    """Median time of the fixed kernel over a few repetitions."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)
