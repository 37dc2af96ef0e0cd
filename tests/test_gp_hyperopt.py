"""Tests for marginal-likelihood hyperparameter fitting."""

import numpy as np
import pytest

from repro.gp import GaussianProcess, Standardizer, fit_hyperparameters
from repro.kernels import Matern52, SquaredExponential


class TestFitHyperparameters:
    def test_improves_lml(self, small_dataset):
        X, y = small_dataset
        gp = GaussianProcess(
            Matern52(dim=3, lengthscale=10.0), noise_variance=1.0
        ).fit(X, y)
        before = gp.log_marginal_likelihood()
        result = fit_hyperparameters(gp, n_restarts=3, seed=0)
        assert result.log_marginal_likelihood >= before

    def test_leaves_gp_at_best_theta(self, small_dataset):
        X, y = small_dataset
        gp = GaussianProcess(Matern52(dim=3), noise_variance=0.1).fit(X, y)
        result = fit_hyperparameters(gp, n_restarts=2, seed=1)
        np.testing.assert_allclose(gp.theta, result.theta)
        assert gp.log_marginal_likelihood() == pytest.approx(
            result.log_marginal_likelihood, rel=1e-9
        )

    def test_respects_bounds(self, small_dataset):
        X, y = small_dataset
        gp = GaussianProcess(Matern52(dim=3), noise_variance=0.1).fit(X, y)
        fit_hyperparameters(gp, n_restarts=3, seed=2)
        bounds = gp.theta_bounds()
        assert np.all(gp.theta >= bounds[:, 0] - 1e-9)
        assert np.all(gp.theta <= bounds[:, 1] + 1e-9)

    def test_recovers_noise_scale(self, rng):
        """With abundant noisy data, fitted noise lands near the truth."""
        X = rng.uniform(-2, 2, (120, 1))
        true_noise = 0.05
        y = np.sin(X[:, 0]) + np.sqrt(true_noise) * rng.standard_normal(120)
        gp = GaussianProcess(SquaredExponential(dim=1), noise_variance=1.0).fit(X, y)
        fit_hyperparameters(gp, n_restarts=3, seed=3)
        assert 0.01 < gp.noise_variance < 0.25

    def test_requires_fit(self):
        gp = GaussianProcess(SquaredExponential())
        with pytest.raises(RuntimeError):
            fit_hyperparameters(gp)

    def test_rejects_zero_restarts(self, small_dataset):
        X, y = small_dataset
        gp = GaussianProcess(Matern52(dim=3), noise_variance=0.1).fit(X, y)
        with pytest.raises(ValueError):
            fit_hyperparameters(gp, n_restarts=0)

    def test_rejects_surrogate_without_evaluate_theta(self):
        class Opaque:
            """Fitted, but offers no side-effect-free evidence scoring."""

            is_fitted = True

        with pytest.raises(TypeError, match="Opaque.*evaluate_theta"):
            fit_hyperparameters(Opaque())

    def test_reproducible_with_seed(self, small_dataset):
        X, y = small_dataset
        results = []
        for _ in range(2):
            gp = GaussianProcess(Matern52(dim=3), noise_variance=0.1).fit(X, y)
            results.append(fit_hyperparameters(gp, n_restarts=3, seed=77).theta)
        np.testing.assert_allclose(results[0], results[1])


class TestStandardizer:
    def test_transform_roundtrip(self, rng):
        y = rng.uniform(-5, 20, 50)
        s = Standardizer()
        z = s.fit_transform(y)
        np.testing.assert_allclose(s.inverse_transform(z), y, atol=1e-12)

    def test_standardized_moments(self, rng):
        y = rng.uniform(-5, 20, 200)
        z = Standardizer().fit_transform(y)
        assert abs(z.mean()) < 1e-12
        assert z.std() == pytest.approx(1.0)

    def test_scalar_threshold_maps_consistently(self, rng):
        y = rng.uniform(0, 10, 30)
        s = Standardizer().fit(y)
        t = 4.2
        assert s.transform_scalar(t) == pytest.approx(s.transform([t])[0])
        assert s.inverse_transform_scalar(s.transform_scalar(t)) == pytest.approx(t)

    def test_constant_labels_use_unit_scale(self):
        s = Standardizer().fit([3.0, 3.0, 3.0])
        np.testing.assert_allclose(s.transform([3.0, 4.0]), [0.0, 1.0])

    def test_variance_scaling(self, rng):
        y = rng.uniform(-5, 20, 50)
        s = Standardizer().fit(y)
        assert s.scale_variance(1.0) == pytest.approx(s.scale_** 2)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            Standardizer().transform([1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Standardizer().fit([])
