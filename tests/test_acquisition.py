"""Tests for the acquisition functions and the acquisition search."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.acquisition import (
    ExpectedImprovement,
    LowerConfidenceBound,
    MultiWeightAcquisition,
    ProbabilityOfImprovement,
    pbo_weights,
)
from repro.bo import acquisition_search
from repro.gp import GaussianProcess
from repro.kernels import Matern52

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def fitted_gp(rng):
    X = rng.uniform(-1, 1, (15, 2))
    y = np.sum(X**2, axis=1)
    return GaussianProcess(Matern52(dim=2), noise_variance=1e-4).fit(X, y)


class TestConventions:
    """All acquisitions are minimized: lower value = better sample point."""

    def test_requires_fitted_gp(self):
        gp = GaussianProcess(Matern52())
        for cls in (ProbabilityOfImprovement, ExpectedImprovement):
            with pytest.raises(RuntimeError):
                cls(gp)

    def test_incumbent_is_min_label(self, fitted_gp):
        acq = ExpectedImprovement(fitted_gp)
        assert acq.incumbent == pytest.approx(fitted_gp.y_train.min())


class TestExpectedImprovement:
    def test_nonpositive_everywhere(self, fitted_gp, rng):
        acq = ExpectedImprovement(fitted_gp)
        values = acq.evaluate(rng.uniform(-1, 1, (50, 2)))
        assert np.all(values <= 0.0)

    def test_prefers_low_mean_region(self, fitted_gp):
        """EI near the bowl minimum beats EI at the rim."""
        acq = ExpectedImprovement(fitted_gp)
        centre, rim = acq.evaluate(np.array([[0.0, 0.0], [0.95, 0.95]]))
        assert centre <= rim

    def test_zero_at_well_sampled_worse_point(self, fitted_gp):
        acq = ExpectedImprovement(fitted_gp)
        worst_idx = int(np.argmax(fitted_gp.y_train))
        value = acq.evaluate(fitted_gp.X_train[worst_idx])[0]
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_xi_reduces_improvement(self, fitted_gp):
        plain = ExpectedImprovement(fitted_gp, xi=0.0)
        margin = ExpectedImprovement(fitted_gp, xi=0.5)
        x = np.array([[0.1, 0.1]])
        assert margin.evaluate(x)[0] >= plain.evaluate(x)[0]

    def test_negative_xi_rejected(self, fitted_gp):
        with pytest.raises(ValueError):
            ExpectedImprovement(fitted_gp, xi=-0.1)


class TestProbabilityOfImprovement:
    def test_range(self, fitted_gp, rng):
        acq = ProbabilityOfImprovement(fitted_gp)
        values = acq.evaluate(rng.uniform(-1, 1, (50, 2)))
        assert np.all(values <= 0.0) and np.all(values >= -1.0)


class TestLowerConfidenceBound:
    def test_equals_mean_minus_kappa_sigma(self, fitted_gp):
        acq = LowerConfidenceBound(fitted_gp, kappa=1.7)
        x = np.array([[0.4, 0.4]])
        pred = fitted_gp.predict(x)
        assert acq.evaluate(x)[0] == pytest.approx(
            pred.mean[0] - 1.7 * pred.std[0]
        )

    def test_kappa_zero_is_pure_mean(self, fitted_gp):
        acq = LowerConfidenceBound(fitted_gp, kappa=0.0)
        x = np.array([[0.2, -0.6]])
        assert acq.evaluate(x)[0] == pytest.approx(fitted_gp.predict(x).mean[0])


def weighted(gp, weight):
    """Eq. 9 under one weight, scored one block at a time."""
    acq = MultiWeightAcquisition(gp, [weight])
    return lambda X: acq.evaluate_segments(X, [(0, X.shape[0])])


class TestWeightedAcquisition:
    def test_eq9_formula(self, fitted_gp):
        acq = weighted(fitted_gp, 0.3)
        x = np.array([[0.5, 0.1]])
        pred = fitted_gp.predict(x)
        expected = 0.7 * pred.mean[0] - 0.3 * pred.std[0]
        assert acq(x)[0] == pytest.approx(expected)

    def test_w0_is_pure_exploitation(self, fitted_gp):
        acq = weighted(fitted_gp, 0.0)
        x = np.array([[0.5, 0.1]])
        assert acq(x)[0] == pytest.approx(fitted_gp.predict(x).mean[0])

    def test_w1_is_pure_exploration(self, fitted_gp):
        acq = weighted(fitted_gp, 1.0)
        x = np.array([[0.5, 0.1]])
        assert acq(x)[0] == pytest.approx(-fitted_gp.predict(x).std[0])

    def test_weight_bounds(self, fitted_gp):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                MultiWeightAcquisition(fitted_gp, [bad])


def scorer(gp, name):
    """One of the scoring entry points, as a function of ``X``."""
    if name == "predict":
        return gp.predict
    if name == "segments":
        multi = MultiWeightAcquisition(gp, [0.3])
        return lambda X: multi.evaluate_segments(X, [(0, np.atleast_2d(X).shape[0])])
    acquisitions = {
        "EI": ExpectedImprovement,
        "PI": ProbabilityOfImprovement,
        "LCB": LowerConfidenceBound,
    }
    return acquisitions[name](gp).evaluate


SCORERS = ("predict", "EI", "PI", "LCB", "segments")


class TestOneInputCheck:
    """``predict`` checks every scoring call's input; the acquisitions
    pass theirs straight through, so bad rows still raise from each."""

    @pytest.mark.parametrize("name", SCORERS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, fitted_gp, name, bad):
        X = np.zeros((4, 2))
        X[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            scorer(fitted_gp, name)(X)

    @pytest.mark.parametrize("name", SCORERS)
    def test_wrong_column_count_rejected(self, fitted_gp, name):
        with pytest.raises(ValueError, match="columns"):
            scorer(fitted_gp, name)(np.zeros((4, 3)))

    @pytest.mark.parametrize("name", SCORERS)
    def test_one_point_may_come_as_a_vector(self, fitted_gp, name):
        x = np.array([0.3, -0.2])
        one = scorer(fitted_gp, name)(x)
        row = scorer(fitted_gp, name)(x[None, :])
        if name == "predict":
            one, row = one.variance, row.variance
        assert one.shape == (1,)
        assert one.tobytes() == row.tobytes()


class TestPboWeights:
    def test_spans_zero_to_one(self):
        w = pbo_weights(5)
        assert w[0] == 0.0 and w[-1] == 1.0
        assert len(w) == 5

    def test_single_weight_balanced(self):
        np.testing.assert_array_equal(pbo_weights(1), [0.5])

    def test_monotone(self):
        w = pbo_weights(19)
        assert np.all(np.diff(w) > 0)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            pbo_weights(0)


class TestOptimizeAcquisition:
    """The one DIRECT-L then COBYLA search, on one row."""

    bounds = np.array([[-1.0, 1.0], [-1.0, 1.0]])

    def test_finds_bowl_minimum(self, fitted_gp):
        """Pure exploitation on a bowl-shaped posterior goes to the middle."""
        score = MultiWeightAcquisition(fitted_gp, [0.0]).evaluate_segments
        result = acquisition_search(score, 1, self.bounds)
        assert result.X.shape == (1, 2)
        assert np.linalg.norm(result.X[0]) < 0.3

    def test_counts_acquisition_evaluations(self, fitted_gp):
        acq = ExpectedImprovement(fitted_gp)
        result = acquisition_search(
            lambda X, segments: acq.evaluate(X), 1, self.bounds, 50, 30
        )
        assert 0 < result.n_evaluations <= 80

    def test_default_optimizer_validation(self, fitted_gp):
        score = MultiWeightAcquisition(fitted_gp, [0.5]).evaluate_segments
        with pytest.raises(ValueError, match="max_evaluations must be >= 1"):
            acquisition_search(score, 1, self.bounds, global_budget=0)
        with pytest.raises(ValueError, match="max_evaluations must be >= 2"):
            acquisition_search(score, 1, self.bounds, local_budget=1)


def test_no_repro_module_imports_scipy_stats():
    """EI and PI take the normal cdf and pdf from ``scipy.special`` and
    numpy; loading ``scipy.stats`` would add its import time to every start
    of ``python -m repro.serve``, ``replay`` and ``report``."""
    script = (
        "import importlib, pkgutil, sys\n"
        "import repro\n"
        "for module in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if not module.name.endswith('.__main__'):\n"
        "        importlib.import_module(module.name)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
