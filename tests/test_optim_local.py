"""Tests for the local optimizer COBYLA and the DIRECT + COBYLA composition."""

import numpy as np
import pytest

from repro.optim import (
    Cobyla,
    CountingObjective,
    GlobalLocalOptimizer,
    Direct,
)
from repro.utils.validation import unit_cube_bounds


def sphere_at(c):
    c = np.asarray(c, dtype=float)
    return lambda x: float(np.sum((x - c) ** 2))


def rosenbrock2(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


LOCALS = [
    Cobyla(max_evaluations=2000),
]


class TestLocalConvergence:
    @pytest.mark.parametrize("opt", LOCALS, ids=lambda o: type(o).__name__)
    def test_sphere_3d(self, opt):
        result = opt.minimize(sphere_at([0.2, -0.3, 0.5]), unit_cube_bounds(3))
        assert result.fun < 1e-4

    @pytest.mark.parametrize("opt", LOCALS, ids=lambda o: type(o).__name__)
    def test_warm_start_used(self, opt):
        result = opt.minimize(
            sphere_at([0.5, 0.5]), unit_cube_bounds(2), x0=np.array([0.45, 0.55])
        )
        assert result.fun < 1e-4

    def test_cobyla_rosenbrock_makes_progress(self):
        opt = Cobyla(max_evaluations=5000, rho_begin=0.3, rho_end=1e-8)
        bounds = np.array([[-2.0, 2.0], [-2.0, 2.0]])
        start = np.array([-1.0, 1.0])
        result = opt.minimize(rosenbrock2, bounds, x0=start)
        # linear trust-region models crawl in the banana valley; require
        # substantial progress from f(start) = 4, not full convergence
        assert result.fun < 0.3 * rosenbrock2(start)

    def test_optimum_on_boundary(self):
        opt = Cobyla(max_evaluations=1000)
        result = opt.minimize(sphere_at([2.0, 2.0]), unit_cube_bounds(2))
        assert result.fun == pytest.approx(2.0, abs=0.05)

    @pytest.mark.parametrize("opt", LOCALS, ids=lambda o: type(o).__name__)
    def test_stays_in_bounds(self, opt):
        seen = []

        def fun(x):
            seen.append(np.array(x))
            return float(np.sum((x - 2.0) ** 2))

        opt.minimize(fun, unit_cube_bounds(2))
        pts = np.array(seen)
        assert np.all(pts >= -1.0 - 1e-9) and np.all(pts <= 1.0 + 1e-9)


class TestBudgets:
    @pytest.mark.parametrize(
        "opt",
        [
            Cobyla(max_evaluations=50),
        ],
        ids=lambda o: type(o).__name__,
    )
    def test_respects_budget(self, opt):
        counted = CountingObjective(sphere_at([0.2] * 4))
        opt.minimize(counted, unit_cube_bounds(4))
        assert counted.n_evaluations <= 60

    def test_cobyla_tiny_budget_falls_back(self):
        opt = Cobyla(max_evaluations=3)
        result = opt.minimize(sphere_at([0.0] * 8), unit_cube_bounds(8))
        assert result.n_evaluations <= 3
        assert not result.success


class TestComposition:
    def test_global_local_beats_global_alone(self):
        fun = sphere_at([0.123, -0.456, 0.789])
        bounds = unit_cube_bounds(3)
        coarse = Direct(max_evaluations=150).minimize(fun, bounds)
        combo = GlobalLocalOptimizer(
            Direct(max_evaluations=150), Cobyla(max_evaluations=500)
        ).minimize(fun, bounds)
        assert combo.fun <= coarse.fun

    def test_global_local_counts_both(self):
        fun = sphere_at([0.2, 0.2])
        combo = GlobalLocalOptimizer(
            Direct(max_evaluations=100), Cobyla(max_evaluations=100)
        )
        result = combo.minimize(fun, unit_cube_bounds(2))
        assert result.n_evaluations > 100  # both stages ran


class TestCountingObjective:
    def test_counts_and_tracks_best(self):
        counted = CountingObjective(sphere_at([0.0, 0.0]))
        counted(np.array([1.0, 1.0]))
        counted(np.array([0.5, 0.5]))
        counted(np.array([0.8, 0.8]))  # worse, should not update best
        assert counted.n_evaluations == 3
        assert counted.best_f == pytest.approx(0.5)
        np.testing.assert_allclose(counted.best_x, [0.5, 0.5])

    def test_history_records_improvements_only(self):
        counted = CountingObjective(sphere_at([0.0]))
        for v in [1.0, 0.5, 0.7, 0.2]:
            counted(np.array([v]))
        assert len(counted.history) == 3  # 1.0, 0.5, 0.2
