"""Tests for Specification folding and RunResult bookkeeping."""

import numpy as np
import pytest

from repro.bo import FailureSummary, RunResult, Specification


class TestSpecification:
    def test_failure_above(self):
        spec = Specification("IQ", threshold=12.0, failure_when="above", units="mA")
        assert spec.is_failure(13.0)
        assert not spec.is_failure(11.0)

    def test_failure_below(self):
        spec = Specification("gain", threshold=40.0, failure_when="below")
        assert spec.is_failure(39.0)
        assert not spec.is_failure(41.0)

    def test_minimization_folding_above(self):
        """Eq. 1 form: failure iff minimized value < T."""
        spec = Specification("IQ", threshold=12.0, failure_when="above")
        T = spec.minimization_threshold
        assert spec.to_minimization(13.0) < T  # failing value
        assert spec.to_minimization(11.0) > T  # passing value

    def test_minimization_folding_below(self):
        spec = Specification("gain", threshold=40.0, failure_when="below")
        T = spec.minimization_threshold
        assert spec.to_minimization(39.0) < T
        assert spec.to_minimization(41.0) > T

    def test_involution(self):
        spec = Specification("x", threshold=1.0, failure_when="above")
        assert spec.from_minimization(spec.to_minimization(3.7)) == pytest.approx(3.7)

    def test_vectorized(self):
        spec = Specification("x", threshold=0.5, failure_when="above")
        out = spec.is_failure(np.array([0.4, 0.6]))
        np.testing.assert_array_equal(out, [False, True])

    def test_format_value(self):
        spec = Specification("IQ", threshold=12.0, failure_when="above", units="mA")
        assert spec.format_value(spec.to_minimization(12.7)) == "12.7mA"

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            Specification("x", threshold=0.0, failure_when="sideways")


class TestRunResult:
    def make(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([0.5, -0.2, 0.9, -0.8])
        return RunResult(X=X, y=y, n_init=2, method="test")

    def test_best(self):
        result = self.make()
        assert result.best_y == -0.8
        assert result.best_index == 3
        np.testing.assert_array_equal(result.best_x, [1.0, 1.0])

    def test_summarize_counts_failures(self):
        summary = self.make().summarize(threshold=0.0)
        assert summary.n_failures == 2
        assert summary.first_failure_index == 2  # 1-based
        assert summary.detected

    def test_summarize_no_failures(self):
        summary = self.make().summarize(threshold=-5.0)
        assert summary.n_failures == 0
        assert summary.first_failure_index is None
        assert not summary.detected

    def test_n_init_validation(self):
        with pytest.raises(ValueError):
            RunResult(X=np.zeros((2, 1)), y=np.zeros(2), n_init=5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            RunResult(X=np.zeros((2, 1)), y=np.zeros(3), n_init=0)


class TestFailureSummary:
    def test_detected_flag(self):
        s = FailureSummary(
            method="m", n_simulations=10, worst_value=0.0,
            n_failures=0, first_failure_index=None, total_seconds=1.0,
        )
        assert not s.detected
