"""Tests for the sampling baselines: MC and SSS."""

import numpy as np
import pytest

from repro.bo import RunSpec
from repro.runtime import FunctionObjective
from repro.sampling import MonteCarloSampler, ScaledSigmaSampler
from repro.utils.validation import unit_cube_bounds


def bowl(x):
    return float(np.sum(np.asarray(x) ** 2))


def wrap(fn, dim):
    return FunctionObjective(fn, dim=dim, bounds=unit_cube_bounds(dim))


def bowl_objective(dim):
    return wrap(bowl, dim)


class TestMonteCarloSampler:
    def test_budget_and_bounds(self, rng):
        sampler = MonteCarloSampler(200, seed=0)
        result = sampler.solve(objective=bowl_objective(3))
        assert result.n_evaluations == 200
        assert np.all(np.abs(result.X) <= 1.0)

    def test_method_label(self):
        result = MonteCarloSampler(10, seed=0).solve(objective=bowl_objective(2))
        assert result.method == "MC"

    def test_reproducible(self):
        a = MonteCarloSampler(50, seed=3).solve(objective=bowl_objective(2))
        b = MonteCarloSampler(50, seed=3).solve(objective=bowl_objective(2))
        np.testing.assert_array_equal(a.X, b.X)

    def test_run_wrapper_removed(self):
        # the deprecated positional run() entry point is gone; solve()
        # and the Campaign facade are the only ways in
        assert not hasattr(MonteCarloSampler(10, seed=0), "run")

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            MonteCarloSampler(0)


class TestScaledSigmaSampler:
    def test_total_budget(self):
        sampler = ScaledSigmaSampler(50, scales=(1.0, 2.0, 3.0), seed=0)
        assert sampler.n_samples == 150
        result = sampler.solve(objective=bowl_objective(4))
        assert result.n_evaluations == 150

    def test_samples_clipped_into_box(self):
        sampler = ScaledSigmaSampler(100, scales=(4.0,), seed=1)
        result = sampler.solve(objective=bowl_objective(3))
        assert np.all(np.abs(result.X) <= 1.0)

    def test_larger_scales_reach_further(self):
        near = ScaledSigmaSampler(300, scales=(0.5,), seed=2).solve(
            objective=bowl_objective(5)
        )
        far = ScaledSigmaSampler(300, scales=(4.0,), seed=2).solve(
            objective=bowl_objective(5)
        )
        assert np.abs(far.X).mean() > np.abs(near.X).mean()

    def test_model_fit_on_detectable_failures(self):
        """With a common failure region the SSS model fits and extrapolates."""

        def radius(x):
            return -float(np.linalg.norm(x))  # failure = large radius

        sampler = ScaledSigmaSampler(
            400, scales=(1.0, 1.5, 2.0, 3.0, 4.0), seed=3
        )
        result = sampler.solve(
            objective=wrap(radius, 4), spec=RunSpec(threshold=-1.2)
        )
        assert "sss_fit" in result.extra
        fit = result.extra["sss_fit"]
        # failure fraction grows with scale
        fractions = result.extra["failure_fractions"]
        assert fractions[-1] > fractions[0]
        assert 0.0 <= fit.failure_rate(1.0) <= 1.0

    def test_no_fit_when_failures_too_rare(self):
        result = ScaledSigmaSampler(20, scales=(1.0, 2.0), seed=4).solve(
            objective=bowl_objective(3), spec=RunSpec(threshold=-1.0)
        )
        assert "sss_fit" not in result.extra

    def test_run_wrapper_removed(self):
        assert not hasattr(ScaledSigmaSampler(10, scales=(1.0,), seed=0), "run")

    def test_validation(self):
        with pytest.raises(ValueError):
            ScaledSigmaSampler(0)
        with pytest.raises(ValueError):
            ScaledSigmaSampler(10, scales=())
        with pytest.raises(ValueError):
            ScaledSigmaSampler(10, sigma_fraction=0.0)
