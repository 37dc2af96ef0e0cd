"""Tests for exact GP regression (paper Eqs. 5-8)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gp import GaussianProcess, MarginalLikelihoodEvaluator
from repro.kernels import Matern52


def make_gp(noise=1e-8, **kwargs):
    return GaussianProcess(Matern52(dim=1), noise_variance=noise, **kwargs)


class TestFitPredict:
    def test_interpolates_with_tiny_noise(self):
        X = np.linspace(-1, 1, 7)[:, None]
        y = np.sin(3 * X[:, 0])
        gp = make_gp().fit(X, y)
        pred = gp.predict(X)
        np.testing.assert_allclose(pred.mean, y, atol=1e-4)
        assert np.all(pred.variance < 1e-4)

    def test_uncertainty_grows_away_from_data(self):
        X = np.zeros((1, 1))
        gp = make_gp().fit(X, [0.0])
        near = gp.predict([[0.1]]).variance[0]
        far = gp.predict([[3.0]]).variance[0]
        assert far > near

    def test_variance_nonnegative(self, rng):
        X = rng.uniform(-1, 1, (30, 2))
        y = rng.standard_normal(30)
        gp = GaussianProcess(Matern52(dim=2), noise_variance=1e-6).fit(X, y)
        pred = gp.predict(rng.uniform(-1, 1, (50, 2)))
        assert np.all(pred.variance >= 0)

    def test_prior_reversion_far_away(self):
        gp = make_gp().fit([[0.0]], [5.0])
        pred = gp.predict([[100.0]])
        assert pred.mean[0] == pytest.approx(0.0, abs=1e-6)  # zero prior mean
        assert pred.variance[0] == pytest.approx(1.0, abs=1e-6)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            make_gp().predict([[0.0]])

    def test_std_is_sqrt_variance(self, small_dataset):
        X, y = small_dataset
        gp = GaussianProcess(Matern52(dim=3), noise_variance=1e-4).fit(X, y)
        pred = gp.predict(X[:5])
        np.testing.assert_allclose(pred.std, np.sqrt(pred.variance))


class TestAddData:
    def test_incremental_matches_batch(self, small_dataset):
        X, y = small_dataset
        gp_batch = GaussianProcess(Matern52(dim=3), noise_variance=1e-4).fit(X, y)
        gp_inc = GaussianProcess(Matern52(dim=3), noise_variance=1e-4)
        gp_inc.fit(X[:10], y[:10]).add_data(X[10:], y[10:])
        test = X[:3] + 0.05
        np.testing.assert_allclose(
            gp_inc.predict(test).mean, gp_batch.predict(test).mean, atol=1e-10
        )

    def test_add_data_without_fit_fits(self):
        gp = make_gp()
        gp.add_data([[0.0]], [1.0])
        assert gp.is_fitted

    def test_dim_mismatch_rejected(self, small_dataset):
        X, y = small_dataset
        gp = GaussianProcess(Matern52(dim=3), noise_variance=1e-4).fit(X, y)
        with pytest.raises(ValueError):
            gp.add_data(np.zeros((1, 2)), [0.0])


class TestLogMarginalLikelihood:
    def test_matches_direct_formula(self, small_dataset):
        X, y = small_dataset
        noise = 1e-3
        gp = GaussianProcess(Matern52(dim=3), noise_variance=noise).fit(X, y)
        K = gp.kernel(X) + noise * np.eye(len(y))
        direct = (
            -0.5 * y @ np.linalg.solve(K, y)
            - 0.5 * np.linalg.slogdet(K)[1]
            - 0.5 * len(y) * np.log(2 * np.pi)
        )
        assert gp.log_marginal_likelihood() == pytest.approx(direct, rel=1e-9)

    def test_gradient_matches_numeric(self, small_dataset):
        X, y = small_dataset
        gp = GaussianProcess(
            Matern52(dim=3, ard=True), noise_variance=1e-2
        ).fit(X, y)
        theta0 = gp.theta.copy()
        lml, analytic = MarginalLikelihoodEvaluator(gp).evaluate(theta0)
        assert lml == pytest.approx(gp.log_marginal_likelihood(), abs=1e-10)
        eps = 1e-6
        numeric = np.zeros_like(theta0)
        for i in range(theta0.shape[0]):
            tp = theta0.copy()
            tp[i] += eps
            gp.theta = tp
            lp = gp.log_marginal_likelihood()
            tm = theta0.copy()
            tm[i] -= eps
            gp.theta = tm
            lm = gp.log_marginal_likelihood()
            numeric[i] = (lp - lm) / (2 * eps)
        gp.theta = theta0
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)


class TestThetaPlumbing:
    def test_theta_includes_noise(self, small_dataset):
        X, y = small_dataset
        gp = GaussianProcess(Matern52(dim=3), noise_variance=1e-2).fit(X, y)
        assert gp.theta.shape == (gp.kernel.n_params + 1,)
        assert gp.theta[-1] == pytest.approx(np.log(1e-2))

    def test_setting_theta_refits(self, small_dataset):
        X, y = small_dataset
        gp = GaussianProcess(Matern52(dim=3), noise_variance=1e-2).fit(X, y)
        before = gp.predict(X[:1]).mean[0]
        theta = gp.theta.copy()
        theta[0] += 1.0
        gp.theta = theta
        after = gp.predict(X[:1]).mean[0]
        assert before != after

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            GaussianProcess(Matern52(), noise_variance=0.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(3, 20))
def test_property_posterior_variance_never_exceeds_prior(seed, n):
    """Conditioning on data can only reduce predictive variance."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, (n, 2))
    y = rng.standard_normal(n)
    kernel = Matern52(dim=2, variance=1.3)
    gp = GaussianProcess(kernel, noise_variance=1e-4).fit(X, y)
    test = rng.uniform(-2, 2, (10, 2))
    assert np.all(gp.predict(test).variance <= kernel.diag(test) + 1e-9)
