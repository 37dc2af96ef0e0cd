"""Tests for the DIRECT-L global optimizer."""

import numpy as np
import pytest

from repro.optim import Direct
from repro.utils.validation import unit_cube_bounds


def sphere_at(c):
    c = np.asarray(c, dtype=float)
    return lambda x: float(np.sum((x - c) ** 2))


class TestConvergence:
    def test_sphere_2d(self):
        opt = Direct(max_evaluations=600)
        result = opt.minimize(sphere_at([0.3, -0.4]), unit_cube_bounds(2))
        assert result.fun < 1e-5
        np.testing.assert_allclose(result.x, [0.3, -0.4], atol=1e-2)

    def test_sphere_5d(self):
        opt = Direct(max_evaluations=3000)
        result = opt.minimize(sphere_at([0.2] * 5), unit_cube_bounds(5))
        assert result.fun < 1e-3

    def test_multimodal_finds_global_basin(self):
        """Rastrigin-like in 2-D: DIRECT should land in the global basin."""

        def fun(x):
            return float(
                np.sum(x**2 - 0.3 * np.cos(5 * np.pi * x)) + 0.6
            )

        opt = Direct(max_evaluations=1500)
        result = opt.minimize(fun, unit_cube_bounds(2))
        assert np.linalg.norm(result.x) < 0.15

    def test_asymmetric_bounds(self):
        opt = Direct(max_evaluations=500)
        bounds = np.array([[2.0, 10.0], [-5.0, -1.0]])
        result = opt.minimize(sphere_at([3.0, -2.0]), bounds)
        assert result.fun < 1e-4

    def test_optimum_on_boundary(self):
        opt = Direct(max_evaluations=800)
        result = opt.minimize(sphere_at([2.0, 2.0]), unit_cube_bounds(2))
        # best feasible point is the (1, 1) corner
        assert result.fun == pytest.approx(2.0, abs=0.05)


class TestBudgets:
    def test_respects_max_evaluations(self):
        opt = Direct(max_evaluations=100)
        result = opt.minimize(sphere_at([0.1, 0.1, 0.1]), unit_cube_bounds(3))
        assert result.n_evaluations <= 100

    def test_budget_one(self):
        opt = Direct(max_evaluations=1)
        result = opt.minimize(sphere_at([0.0, 0.0]), unit_cube_bounds(2))
        assert result.n_evaluations == 1
        np.testing.assert_allclose(result.x, [0.0, 0.0])  # the centre

    def test_f_target_early_stop(self):
        opt = Direct(max_evaluations=100_000, f_target=0.01)
        result = opt.minimize(sphere_at([0.25, 0.25]), unit_cube_bounds(2))
        assert result.fun <= 0.01
        assert result.success
        assert result.n_evaluations < 100_000

    def test_history_is_monotone(self):
        opt = Direct(max_evaluations=500)
        result = opt.minimize(sphere_at([0.3, 0.3]), unit_cube_bounds(2))
        values = [f for _, f in result.history]
        assert values == sorted(values, reverse=True)

    def test_no_eval_free_spinning(self):
        """The loop must terminate promptly once the budget is exhausted."""
        calls = {"n": 0}

        def fun(x):
            calls["n"] += 1
            return float(np.sum(x**2))

        opt = Direct(max_evaluations=51, max_iterations=10**6)
        result = opt.minimize(fun, unit_cube_bounds(4))
        assert calls["n"] == result.n_evaluations <= 51


class TestValidation:
    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            Direct(max_evaluations=0)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Direct().minimize(sphere_at([0.0]), [[1.0, 0.0]])
