"""Tests for the synthetic objective functions."""

import numpy as np
import pytest

from repro.synthetic import (
    EmbeddedFunction,
    RareFailureFunction,
    random_orthonormal,
    sphere,
    ysyn,
)


class TestYsyn:
    def test_zero_at_target(self):
        c = np.array([0.3, -0.5])
        assert ysyn(c)(c) == 0.0

    def test_normalization_eq10(self):
        c = np.array([3.0, 4.0])  # norm 5
        fun = ysyn(c)
        assert fun(np.zeros(2)) == pytest.approx(1.0)

    def test_rejects_zero_target(self):
        with pytest.raises(ValueError):
            ysyn(np.zeros(3))


class TestClassicFunctions:
    def test_sphere_minimum(self):
        assert sphere(np.zeros(5)) == 0.0


class TestRandomOrthonormal:
    def test_orthonormal_columns(self, rng):
        B = random_orthonormal(10, 4, seed=rng)
        np.testing.assert_allclose(B.T @ B, np.eye(4), atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_orthonormal(3, 4)


class TestEmbeddedFunction:
    def test_invariance_orthogonal_to_subspace(self, rng):
        """The defining property of effective dimensionality (Section 4.1):
        moving orthogonally to the effective subspace leaves y unchanged."""
        fun = EmbeddedFunction(sphere, total_dim=8, effective_dim=3, seed=0)
        x = rng.uniform(-1, 1, 8)
        # component orthogonal to span(B)
        delta = rng.standard_normal(8)
        delta -= fun.basis @ (fun.basis.T @ delta)
        assert fun(x + delta) == pytest.approx(fun(x), abs=1e-10)

    def test_sensitivity_inside_subspace(self, rng):
        fun = EmbeddedFunction(sphere, total_dim=8, effective_dim=3, seed=1)
        x = rng.uniform(-0.5, 0.5, 8)
        direction = fun.basis[:, 0]
        assert fun(x + 0.5 * direction) != pytest.approx(fun(x))

    def test_dimension_check(self):
        fun = EmbeddedFunction(sphere, total_dim=5, effective_dim=2, seed=2)
        with pytest.raises(ValueError):
            fun(np.zeros(4))


class TestRareFailureFunction:
    def test_pocket_value_below_threshold(self):
        fun = RareFailureFunction(15, 3, threshold=-1.0, depth=3.0, seed=4)
        x = np.clip(fun.pocket_x, -1, 1)
        assert fun(x) < fun.threshold

    def test_failures_rare_under_uniform(self, rng):
        fun = RareFailureFunction(
            15, 3, threshold=-1.0, depth=3.0, radius=0.15, seed=5
        )
        X = rng.uniform(-1, 1, (5000, 15))
        values = np.array([fun(x) for x in X])
        assert np.mean(values < fun.threshold) < 0.01

    def test_effective_subspace_invariance(self, rng):
        fun = RareFailureFunction(12, 2, seed=6)
        x = rng.uniform(-0.5, 0.5, 12)
        delta = rng.standard_normal(12)
        delta -= fun.basis @ (fun.basis.T @ delta)
        assert fun(x + delta) == pytest.approx(fun(x), abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            RareFailureFunction(10, 2, center_fraction=0.0)
        with pytest.raises(ValueError):
            RareFailureFunction(10, 2, depth=-1.0)
