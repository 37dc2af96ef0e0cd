"""Section 3 complexity claim: acquisition optimization cost grows with D.

The paper argues the per-step cost of BO blows up with dimension: GP
posterior evaluation is ``O(N² + N·D)`` per acquisition query, and the
number of queries needed by the acquisition optimizer grows super-linearly
in ``D``.  This bench times one full acquisition optimization (DIRECT-L +
COBYLA at the library's fixed caps) at several dimensions and asserts the
wall-clock trend.  The whole sweep runs ``SWEEPS`` times and each dimension
keeps its fastest time: on a shared host, the first second or so of
compute in a process started after an idle spell has run several times
slower than the rest, enough on its own to make D=2 look dearer than D=60.
"""

import time

import numpy as np

from benchmarks.conftest import run_once
from repro.acquisition import MultiWeightAcquisition
from repro.bo import acquisition_search
from repro.gp import GaussianProcess
from repro.kernels import Matern52
from repro.utils import render_table
from repro.utils.validation import unit_cube_bounds

DIMS = (2, 8, 19, 60)
N_TRAIN = 100
SWEEPS = 3


def _time_one(dim: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (N_TRAIN, dim))
    y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(N_TRAIN)
    gp = GaussianProcess(Matern52(dim=dim), noise_variance=1e-3).fit(X, y)
    acq = MultiWeightAcquisition(gp, [0.5])
    start = time.perf_counter()
    acquisition_search(acq.evaluate_segments, 1, unit_cube_bounds(dim))
    return time.perf_counter() - start


def test_sec3_acquisition_cost(benchmark):
    def sweep():
        runs = [{d: _time_one(d, seed=d) for d in DIMS} for _ in range(SWEEPS)]
        return {d: min(run[d] for run in runs) for d in DIMS}

    times = run_once(benchmark, sweep)
    print()
    print(
        render_table(
            ["D", "acquisition optimization (s)"],
            [[d, f"{t:.3f}"] for d, t in times.items()],
            title="Section 3 — per-step acquisition optimization cost vs D",
        )
    )
    # the cost at D=60 clearly exceeds the cost at D=2
    assert times[60] > times[2]
