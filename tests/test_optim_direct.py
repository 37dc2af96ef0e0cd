"""Tests for the DIRECT-L global optimizer, one search row at a time."""

import numpy as np
import pytest

from repro.optim import direct_rows
from repro.utils.validation import unit_cube_bounds


def sphere_at(c):
    c = np.asarray(c, dtype=float)
    return lambda x: float(np.sum((x - c) ** 2))


def search(fun, bounds, **config):
    """One DIRECT-L row over the ``(d, 2)`` ``bounds``, scoring each point
    with ``fun`` in order."""
    lower, upper = np.asarray(bounds, dtype=float).T
    return direct_rows(
        1, lower, upper, lambda X, segments: np.array([fun(x) for x in X]), **config
    )


class TestConvergence:
    def test_sphere_2d(self):
        result = search(
            sphere_at([0.3, -0.4]), unit_cube_bounds(2), max_evaluations=600
        )
        assert result.fun[0] < 1e-5
        np.testing.assert_allclose(result.x[0], [0.3, -0.4], atol=1e-2)

    def test_sphere_5d(self):
        result = search(
            sphere_at([0.2] * 5), unit_cube_bounds(5), max_evaluations=3000
        )
        assert result.fun[0] < 1e-3

    def test_multimodal_finds_global_basin(self):
        """Rastrigin-like in 2-D: DIRECT should land in the global basin."""

        def fun(x):
            return float(
                np.sum(x**2 - 0.3 * np.cos(5 * np.pi * x)) + 0.6
            )

        result = search(fun, unit_cube_bounds(2), max_evaluations=1500)
        assert np.linalg.norm(result.x[0]) < 0.15

    def test_asymmetric_bounds(self):
        bounds = np.array([[2.0, 10.0], [-5.0, -1.0]])
        result = search(sphere_at([3.0, -2.0]), bounds, max_evaluations=500)
        assert result.fun[0] < 1e-4

    def test_optimum_on_boundary(self):
        result = search(
            sphere_at([2.0, 2.0]), unit_cube_bounds(2), max_evaluations=800
        )
        # best feasible point is the (1, 1) corner
        assert result.fun[0] == pytest.approx(2.0, abs=0.05)


class TestBudgets:
    def test_respects_max_evaluations(self):
        result = search(
            sphere_at([0.1, 0.1, 0.1]), unit_cube_bounds(3), max_evaluations=100
        )
        assert result.n_evaluations[0] <= 100

    def test_budget_one(self):
        result = search(sphere_at([0.0, 0.0]), unit_cube_bounds(2), max_evaluations=1)
        assert result.n_evaluations[0] == 1
        np.testing.assert_allclose(result.x[0], [0.0, 0.0])  # the centre

    def test_f_target_early_stop(self):
        result = search(
            sphere_at([0.25, 0.25]),
            unit_cube_bounds(2),
            max_evaluations=100_000,
            f_target=0.01,
        )
        assert result.fun[0] <= 0.01
        assert result.success[0]
        assert result.n_evaluations[0] < 100_000

    def test_no_eval_free_spinning(self):
        """The loop must terminate promptly once the budget is exhausted."""
        calls = {"n": 0}

        def fun(x):
            calls["n"] += 1
            return float(np.sum(x**2))

        result = search(
            fun, unit_cube_bounds(4), max_evaluations=51, max_iterations=10**6
        )
        assert calls["n"] == result.n_evaluations[0] <= 51


class TestValidation:
    """``direct_rows`` rejects a bad configuration before any evaluation."""

    @staticmethod
    def _unscored(X, segments):
        raise AssertionError("scored despite a bad configuration")

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError, match="max_evaluations must be >= 1"):
            direct_rows(
                1, -np.ones(2), np.ones(2), self._unscored, max_evaluations=0
            )

    def test_rejects_bad_bounds(self):
        for lower, upper in ([1.0], [0.0]), ([0.0, 0.0], [1.0, 0.0]), ([0.0], [np.inf]):
            with pytest.raises(ValueError, match="bound"):
                direct_rows(
                    1,
                    np.array(lower),
                    np.array(upper),
                    self._unscored,
                    max_evaluations=100,
                )
