"""Equivalence guards for the vectorized GP hot path.

The hot-path rework (cached kernel workspaces, fused LML value+gradient,
incremental Cholesky updates, batched acquisition evaluation, the
multi-row DIRECT-L and COBYLA engines behind the acquisition search, and
chunked broker dispatch) is pure plumbing: every optimization must return
what the straightforward implementation returns.  These tests pin that
contract so future performance work cannot silently change numbers.  The
references: per-weight one-row searches and the coroutine searches the
engines replaced (``tests/search_reference.py``) for the proposal, scipy's
``solve_triangular`` and ``scipy.stats.norm`` for the posterior and EI/PI,
and a one-row-per-call objective wrapper for chunked dispatch.
"""

import time

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.stats import norm

from repro.acquisition.functions import (
    _MIN_STD,
    ExpectedImprovement,
    MultiWeightAcquisition,
    ProbabilityOfImprovement,
    pbo_weights,
)
from repro.bo.engine import RunSpec
from repro.bo.loop import ACQUISITIONS, SequentialBO
from repro.bo.propose import acquisition_search
from repro.circuits.behavioral.uvlo import UVLOTestbench
from repro.gp import GaussianProcess
from repro.gp.evaluator import MarginalLikelihoodEvaluator
from repro.kernels import Matern52
from repro.optim import cobyla_rows
from repro.runtime import (
    BrokerConfig,
    EvaluationBroker,
    FaultInjectingObjective,
    FaultPlan,
    FunctionObjective,
    Objective,
)
from tests.fails_alone import assert_fails_alone
from tests.gp_reference import lml_gradient_two_pass
from tests.search_reference import (
    ReferenceCobyla,
    SegmentScorer,
    drive_alone,
    reference_propose_batch,
)


def _dataset(n, d, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (n, d))
    y = np.sin(X.sum(axis=1)) + 0.1 * rng.standard_normal(n)
    return X, y


class TestIncrementalCholeskyEquivalence:
    """``add_data`` rank-k updates must match a from-scratch refit."""

    @pytest.mark.parametrize("batch", [1, 3, 7])
    def test_matches_full_refit(self, batch):
        X, y = _dataset(40, 4, seed=1)
        n0 = 40 - 2 * batch

        inc = GaussianProcess(Matern52(dim=4, ard=True), noise_variance=1e-4)
        inc.add_data(X[:n0], y[:n0])
        inc.add_data(X[n0 : n0 + batch], y[n0 : n0 + batch])
        inc.add_data(X[n0 + batch :], y[n0 + batch :])

        full = GaussianProcess(Matern52(dim=4, ard=True), noise_variance=1e-4)
        full.fit(X, y)

        Z = _dataset(16, 4, seed=9)[0]
        p_inc, p_full = inc.predict(Z), full.predict(Z)
        np.testing.assert_allclose(p_inc.mean, p_full.mean, atol=1e-8)
        np.testing.assert_allclose(p_inc.variance, p_full.variance, atol=1e-8)
        assert inc.log_marginal_likelihood() == pytest.approx(
            full.log_marginal_likelihood(), abs=1e-8
        )

    def test_many_small_appends(self):
        X, y = _dataset(36, 3, seed=2)
        inc = GaussianProcess(Matern52(dim=3), noise_variance=1e-4)
        inc.add_data(X[:12], y[:12])
        for i in range(12, 36, 2):
            inc.add_data(X[i : i + 2], y[i : i + 2])
        full = GaussianProcess(Matern52(dim=3), noise_variance=1e-4)
        full.fit(X, y)
        Z = _dataset(10, 3, seed=11)[0]
        np.testing.assert_allclose(
            inc.predict(Z).mean, full.predict(Z).mean, atol=1e-8
        )
        np.testing.assert_allclose(
            inc.predict(Z).variance, full.predict(Z).variance, atol=1e-8
        )

    def test_append_after_theta_change_still_exact(self):
        """Hyperparameter moves force the full-refit fallback, exactly."""
        X, y = _dataset(30, 3, seed=3)
        inc = GaussianProcess(Matern52(dim=3), noise_variance=1e-4)
        inc.add_data(X[:20], y[:20])
        theta = inc.theta
        theta[:-1] += 0.3  # perturb kernel params between appends
        inc.theta = theta
        inc.add_data(X[20:], y[20:])

        full = GaussianProcess(Matern52(dim=3), noise_variance=1e-4)
        full.fit(X[:1], y[:1])  # any data; theta setter refits
        full.theta = theta
        full.fit(X, y)
        Z = _dataset(8, 3, seed=13)[0]
        np.testing.assert_allclose(
            inc.predict(Z).mean, full.predict(Z).mean, atol=1e-8
        )


class TestPredictEquivalence:
    """``predict`` equals scipy's ``solve_triangular`` posterior, bitwise.

    ``fit`` leaves an F-ordered Cholesky factor and the rank-k update of
    ``add_data`` a C-ordered one; the raw LAPACK solve must take scipy's
    branch for each, since the two branches round differently.
    """

    @staticmethod
    def _reference(gp, X):
        k = gp.kernel.cross(gp._workspace, X)
        v = solve_triangular(gp._chol, k, lower=True, check_finite=False)
        variance = gp.kernel.diag(X) - np.sum(v**2, axis=0)
        return k.T @ gp._alpha, np.maximum(variance, 0.0)

    def _check(self, gp, n_test):
        # 57 points, predicted in blocks of n_test: a one-column solve is
        # where the branches differ, so every point gets its own block
        Z = _dataset(57, 4, seed=17)[0]
        for start in range(0, Z.shape[0], n_test):
            block = Z[start : start + n_test]
            pred = gp.predict(block)
            mean, variance = self._reference(gp, block)
            assert pred.mean.tobytes() == mean.tobytes()
            assert pred.variance.tobytes() == variance.tobytes()

    @pytest.mark.parametrize("n_test", [1, 3, 57])
    def test_after_fit(self, n_test):
        X, y = _dataset(40, 4, seed=1)
        gp = GaussianProcess(Matern52(dim=4, ard=True), noise_variance=1e-4)
        gp.fit(X, y)
        assert gp._chol.flags.f_contiguous
        self._check(gp, n_test)

    @pytest.mark.parametrize("n_test", [1, 3, 57])
    def test_after_rank_k_update(self, n_test):
        X, y = _dataset(40, 4, seed=1)
        gp = GaussianProcess(Matern52(dim=4, ard=True), noise_variance=1e-4)
        gp.fit(X[:33], y[:33])
        gp.add_data(X[33:], y[33:])
        assert gp._chol.flags.c_contiguous and not gp._chol.flags.f_contiguous
        self._check(gp, n_test)


class TestNormalFormulaEquivalence:
    """EI and PI equal the ``scipy.stats.norm`` formulas, bitwise.

    The points cover training inputs, where the posterior std sits at the
    ``_MIN_STD`` floor, and rays out to far from the data, where ``|z|``
    reaches about 40 on either side of zero.
    """

    @staticmethod
    def _fitted(offset):
        rng = np.random.default_rng(21)
        X = rng.uniform(-1.0, 1.0, (10, 2))
        y = offset + np.sin(3.0 * X[:, 0]) + X[:, 1]
        gp = GaussianProcess(
            Matern52(dim=2, lengthscale=0.3), noise_variance=1e-16
        ).fit(X, y)
        directions = np.random.default_rng(22).standard_normal((400, 2))
        radii = np.geomspace(1e-3, 50.0, 400)
        starts = X[rng.integers(0, X.shape[0], radii.shape[0])]
        return gp, np.vstack([X, starts + directions * radii[:, None]])

    @pytest.mark.parametrize("offset", [-40.0, 40.0])
    @pytest.mark.parametrize("xi", [0.0, 0.3])
    def test_matches_scipy_stats(self, offset, xi):
        gp, points = self._fitted(offset)
        pred = gp.predict(points)
        std = np.maximum(pred.std, _MIN_STD)
        improvement = np.min(gp.y_train) - xi - pred.mean
        z = improvement / std
        assert np.any(pred.std[: gp.n_train] < _MIN_STD)
        far = np.abs(z[gp.n_train :])
        assert np.any((far > 35.0) & (far < 45.0))

        pi = -np.asarray(norm.cdf(z), dtype=float)
        ei = -np.maximum(
            np.asarray(improvement * norm.cdf(z) + std * norm.pdf(z), dtype=float),
            0.0,
        )
        got_pi = ProbabilityOfImprovement(gp, xi=xi).evaluate(points)
        got_ei = ExpectedImprovement(gp, xi=xi).evaluate(points)
        assert got_pi.tobytes() == pi.tobytes()
        assert got_ei.tobytes() == ei.tobytes()


class TestFusedEvaluatorEquivalence:
    """One-pass (lml, grad) must equal the two-call path: the model's
    evidence and the two-pass gradient reference (``tests/gp_reference.py``)."""

    KERNELS = {
        "matern52-ard": lambda: Matern52(dim=4, ard=True),
        "matern52-iso": lambda: Matern52(dim=4),
    }

    @pytest.mark.parametrize("kernel_name", sorted(KERNELS))
    def test_matches_model_two_call_path(self, kernel_name):
        X, y = _dataset(35, 4, seed=4)
        gp = GaussianProcess(
            self.KERNELS[kernel_name](), noise_variance=1e-3
        ).fit(X, y)
        evaluator = MarginalLikelihoodEvaluator(gp)
        bounds = gp.theta_bounds()
        rng = np.random.default_rng(7)
        reference = GaussianProcess(
            self.KERNELS[kernel_name](), noise_variance=1e-3
        ).fit(X, y)
        for _ in range(5):
            theta = rng.uniform(
                np.maximum(bounds[:, 0], -3.0), np.minimum(bounds[:, 1], 3.0)
            )
            lml, grad = evaluator.evaluate(theta)
            reference.theta = theta
            assert lml == pytest.approx(
                reference.log_marginal_likelihood(), abs=1e-8
            )
            np.testing.assert_allclose(
                grad, lml_gradient_two_pass(reference), atol=1e-8, rtol=1e-8
            )

    def test_does_not_mutate_source_gp(self):
        X, y = _dataset(25, 3, seed=5)
        gp = GaussianProcess(Matern52(dim=3), noise_variance=1e-3).fit(X, y)
        theta_before = gp.theta.copy()
        lml_before = gp.log_marginal_likelihood()
        evaluator = MarginalLikelihoodEvaluator(gp)
        evaluator.evaluate(theta_before + 0.5)
        np.testing.assert_array_equal(gp.theta, theta_before)
        assert gp.log_marginal_likelihood() == lml_before

    def test_repeated_evaluations_are_stable(self):
        """Workspace buffer reuse must not leak state across thetas."""
        X, y = _dataset(30, 4, seed=6)
        gp = GaussianProcess(
            Matern52(dim=4, ard=True), noise_variance=1e-3
        ).fit(X, y)
        evaluator = MarginalLikelihoodEvaluator(gp)
        theta_a = gp.theta
        theta_b = theta_a + 0.4
        first = evaluator.evaluate(theta_a)
        evaluator.evaluate(theta_b)  # dirty every cached buffer
        again = evaluator.evaluate(theta_a)
        assert again[0] == pytest.approx(first[0], abs=1e-12)
        np.testing.assert_allclose(again[1], first[1], atol=1e-12)


class TestBatchedAcquisitionEquivalence:
    """Vectorized acquisition scoring must match point-at-a-time calls."""

    def test_evaluate_matches_scalar_calls(self):
        X, y = _dataset(30, 5, seed=8)
        gp = GaussianProcess(Matern52(dim=5), noise_variance=1e-4).fit(X, y)
        acq = MultiWeightAcquisition(gp, [0.3])
        Z = _dataset(20, 5, seed=15)[0]
        batched = acq.evaluate_segments(Z, [(0, Z.shape[0])])
        pointwise = np.array(
            [float(acq.evaluate_segments(z[None, :], [(0, 1)])[0]) for z in Z]
        )
        np.testing.assert_allclose(batched, pointwise, atol=1e-12)


class TestGemmAcquisitionEquivalence:
    """The one-predict multi-weight scoring vs per-weight Eq. 9 evaluation."""

    def _fitted(self, n_weights=5):
        X, y = _dataset(30, 4, seed=3)
        gp = GaussianProcess(
            Matern52(dim=4, ard=True), noise_variance=1e-4
        ).fit(X, y)
        return gp, pbo_weights(n_weights)

    def test_evaluate_segments_matches_per_weight(self):
        """Each segment's reweight by row index is its weight's own Eq. 9."""
        gp, weights = self._fitted()
        multi = MultiWeightAcquisition(gp, weights)
        segments = [(0, 4), (2, 1), (4, 6), (2, 3)]
        union = _dataset(sum(m for _, m in segments), 4, seed=11)[0]
        values = multi.evaluate_segments(union, segments)
        assert values.shape == (union.shape[0],)
        pred = gp.predict(union)
        offset = 0
        for index, m in segments:
            block = slice(offset, offset + m)
            expected = MultiWeightAcquisition(
                gp, [weights[index]]
            ).evaluate_segments(union[block], [(0, m)])
            np.testing.assert_allclose(values[block], expected, atol=1e-8)
            # bitwise against the scalar-weight arithmetic on one predict
            w = float(weights[index])
            np.testing.assert_array_equal(
                values[block], (1.0 - w) * pred.mean[block] - w * pred.std[block]
            )
            offset += m

    def test_segment_lengths_validated(self):
        gp, weights = self._fitted(3)
        multi = MultiWeightAcquisition(gp, weights)
        union = _dataset(5, 4, seed=0)[0]
        with pytest.raises(ValueError, match="segment lengths"):
            multi.evaluate_segments(union, [(0, 2), (1, 2)])

    def test_weight_index_validated(self):
        gp, weights = self._fitted(3)
        multi = MultiWeightAcquisition(gp, weights)
        union = _dataset(2, 4, seed=0)[0]
        with pytest.raises(IndexError, match="weight index"):
            multi.evaluate_segments(union, [(3, 2)])

    def test_weights_validated(self):
        gp, _ = self._fitted(2)
        with pytest.raises(ValueError):
            MultiWeightAcquisition(gp, [])
        with pytest.raises(ValueError):
            MultiWeightAcquisition(gp, [0.2, 1.5])


class TestCobylaCoroutineEquivalence:
    """The coroutine ``ReferenceCobyla.search`` (the point-at-a-time code
    the array engine replaced), driven by hand, must replay a one-row
    ``cobyla_rows`` search exactly."""

    @staticmethod
    def _fun(x):
        x = np.asarray(x)
        return float(np.sum((x - 0.3) ** 2) + 0.1 * np.sin(5.0 * x[0]))

    def _run(self, lower, upper, x0, **config):
        """The one-row engine search and the coroutine driven alone."""
        result = cobyla_rows(
            lower[None, :],
            upper[None, :],
            x0[None, :],
            lambda X, segments: np.array([self._fun(x) for x in X]),
            **config,
        )
        reference = ReferenceCobyla(**config).search(lower, upper, x0=x0)
        return result, drive_alone(reference, self._fun)

    def test_search_driven_matches_one_row(self):
        lower, upper = -np.ones(3), np.ones(3)
        x0 = np.array([0.4, -0.2, 0.1])
        result, (best_x, best_f, n_evals, outcome) = self._run(
            lower, upper, x0, max_evaluations=200
        )
        np.testing.assert_array_equal(best_x, result.x[0])
        assert best_f == result.fun[0]
        assert n_evals == result.n_evaluations[0]
        assert outcome.n_iterations == result.n_iterations[0]
        assert outcome.success == result.success[0]
        assert outcome.message == result.message[0]

    def test_budget_below_simplex_falls_back_to_x0(self):
        lower, upper = -np.ones(3), np.ones(3)
        x0 = np.array([0.1, 0.2, -0.3])
        result, (best_x, _, n_evals, outcome) = self._run(
            lower, upper, x0, max_evaluations=2
        )
        np.testing.assert_array_equal(result.x[0], x0)
        np.testing.assert_array_equal(best_x, x0)
        assert result.n_evaluations[0] == n_evals == 1
        assert not result.success[0] and not outcome.success
        assert "budget below simplex" in result.message[0]
        assert result.message[0] == outcome.message


def _search(gp, weights, box, *budgets):
    """The pBO proposal: one search row per weight."""
    score = MultiWeightAcquisition(gp, weights).evaluate_segments
    return acquisition_search(score, len(weights), box, *budgets)


class TestLockstepProposalEquivalence:
    """Lockstep proposals must match independent per-weight searches.

    The bitwise reference is the moved coroutine loop
    (``tests/search_reference.py``): one DIRECT and one COBYLA coroutine
    per search row, driven in lockstep over the same candidate unions.
    """

    def _setup(self):
        X, y = _dataset(25, 3, seed=10)
        gp = GaussianProcess(
            Matern52(dim=3, lengthscale=1.5), noise_variance=1e-4
        ).fit(X, y)
        box = np.column_stack([-np.ones(3), np.ones(3)])
        return gp, pbo_weights(4), box

    @staticmethod
    def _independent(gp, weights, box, *budgets):
        """The reference: one one-row search of Eq. 9 per weight."""
        results = [_search(gp, [w], box, *budgets) for w in weights]
        X = np.concatenate([r.X for r in results])
        return X, sum(r.n_evaluations for r in results)

    def test_lockstep_matches_independent_fallback(self):
        gp, weights, box = self._setup()
        lockstep = _search(gp, weights, box)
        X, n_evaluations = self._independent(gp, weights, box)
        np.testing.assert_allclose(lockstep.X, X, atol=1e-8)
        assert lockstep.n_evaluations == n_evaluations

    def test_custom_stack_matches_independent(self):
        """Custom budgets go lockstep too."""
        gp, weights, box = self._setup()
        lockstep = _search(gp, weights, box, 120, 60)
        X, n_evaluations = self._independent(gp, weights, box, 120, 60)
        np.testing.assert_allclose(lockstep.X, X, atol=1e-8)
        assert lockstep.n_evaluations == n_evaluations

    @pytest.mark.parametrize(
        "budgets", [(400, 150), (7, 3), (41, 11)], ids=["default", "tiny", "odd"]
    )
    def test_matches_coroutine_lockstep_bitwise(self, budgets):
        gp, weights, box = self._setup()
        proposal = _search(gp, weights, box, *budgets)
        X, n_evaluations = reference_propose_batch(
            SegmentScorer(gp, weights), len(weights), box, *budgets
        )
        np.testing.assert_array_equal(proposal.X, X)
        assert proposal.n_evaluations == n_evaluations

    @pytest.mark.parametrize("budgets", [(400, 150), (7, 3)], ids=["default", "tiny"])
    @pytest.mark.parametrize("acquisition", ["ei", "pi", "lcb"])
    def test_sequential_matches_coroutine_composition_bitwise(
        self, acquisition, budgets
    ):
        """SequentialBO's one-row proposal is DIRECT-L then COBYLA."""
        gp, _, box = self._setup()
        global_budget, local_budget = budgets
        engine = SequentialBO(
            acquisition, global_budget=global_budget, local_budget=local_budget
        )
        proposal = engine._propose(gp, box)
        score = ACQUISITIONS[acquisition](gp, engine.xi, engine.kappa).evaluate
        X, n_evaluations = reference_propose_batch(
            lambda union, segments: [score(union)], 1, box, *budgets
        )
        np.testing.assert_array_equal(proposal.X, X)
        assert proposal.n_evaluations == n_evaluations


class _Delegate(Objective):
    """The wrapped objective with a chosen ``prefers_batch``.

    Records the row count of every ``evaluate`` call, so tests can see the
    chunks the broker dispatched.  With ``prefers_batch=False`` the broker
    calls it one row at a time: the reference side of the chunk tests.
    """

    def __init__(self, inner: Objective, prefers_batch: bool) -> None:
        self._inner = inner
        self._prefers_batch = prefers_batch
        self.call_rows: list[int] = []

    @property
    def dim(self) -> int:
        return self._inner.dim

    @property
    def bounds(self):
        return self._inner.bounds

    @property
    def cache_key(self) -> str:
        return self._inner.cache_key

    @property
    def prefers_batch(self) -> bool:
        return self._prefers_batch

    def evaluate(self, X):
        self.call_rows.append(len(X))
        return self._inner.evaluate(X)


class _SlowRows(Objective):
    """Vectorized sum of squares that sleeps on rows with ``x[0] > 0.9``.

    Records every row it is asked to evaluate, in call order.
    """

    dim = 2

    def __init__(self, sleep_seconds: float) -> None:
        self.sleep_seconds = sleep_seconds
        self.calls: list[list[float]] = []

    @property
    def prefers_batch(self) -> bool:
        return True

    def evaluate(self, X):
        X = np.asarray(X, dtype=float)
        self.calls.extend(X.tolist())
        if np.any(X[:, 0] > 0.9):
            time.sleep(self.sleep_seconds)
        return np.sum(X**2, axis=1)


class TestDispatchEquivalence:
    """Multi-row chunk dispatch vs one row per ``evaluate`` call."""

    def _objective(self):
        return UVLOTestbench().objective("delta_vthl")

    def _rows(self, objective=None):
        return _Delegate(objective or self._objective(), prefers_batch=False)

    def _points(self, n=40, seed=4):
        obj = self._objective()
        rng = np.random.default_rng(seed)
        return rng.uniform(-1.0, 1.0, (n, obj.dim))

    def test_chunk_matches_row_bitwise(self):
        X = self._points()
        row_objective = self._rows()
        row = EvaluationBroker(row_objective).evaluate_batch(X)
        chunk = EvaluationBroker(self._objective()).evaluate_batch(X)
        assert row_objective.call_rows == [1] * 40
        np.testing.assert_array_equal(row, chunk)

    def test_auto_dispatch_selection(self):
        """Chunks span the round only for a batch objective with no timeout."""
        X = self._points(n=6, seed=2)
        cases = [
            (True, None, [6]),
            (False, None, [1] * 6),
            (True, 5.0, [1] * 6),
        ]
        for prefers_batch, timeout, rows in cases:
            objective = _Delegate(self._objective(), prefers_batch)
            EvaluationBroker(
                objective, BrokerConfig(timeout_seconds=timeout)
            ).evaluate_batch(X)
            assert objective.call_rows == rows

    @pytest.mark.parametrize("max_retries", [0, 1])
    def test_timeout_dispatches_single_rows(self, tmp_path, max_retries):
        """A hung point costs only its own deadline, on every attempt.

        The rows after it start their own deadlines, so each healthy row
        is simulated exactly once and stored before the hung one raises.
        """
        objective = _SlowRows(sleep_seconds=0.5)
        X = np.array([[0.1, 0.2], [0.95, 0.0], [-0.3, 0.4]])
        broker, values = assert_fails_alone(
            lambda cache, ledger: EvaluationBroker(
                objective,
                BrokerConfig(timeout_seconds=0.05, max_retries=max_retries),
                cache=cache,
                ledger=ledger,
            ),
            X,
            [1],
            tmp_path / "run.jsonl",
        )
        assert values == np.sum(X[[0, 2]] ** 2, axis=1).tolist()
        assert broker.stats.n_timeouts == max_retries + 1
        assert broker.stats.n_attempt_failures == max_retries + 1
        for row in (0, 2):
            assert objective.calls.count(X[row].tolist()) == 1

    def test_chunk_with_fault_injection_matches_clean(self):
        X = self._points(n=30, seed=5)
        clean = EvaluationBroker(self._rows()).evaluate_batch(X)
        faulty = _Delegate(
            FaultInjectingObjective(
                self._objective(),
                FaultPlan(failure_rate=0.3, nan_fraction=0.4, seed=5),
            ),
            prefers_batch=True,
        )
        broker = EvaluationBroker(
            faulty, BrokerConfig(max_retries=5, backoff_seconds=0.0)
        )
        y = broker.evaluate_batch(X)
        assert broker.stats.n_attempt_failures > 0  # faults did fire
        assert faulty.call_rows[0] == 30  # the first round went as one chunk
        np.testing.assert_array_equal(y, clean)

    def test_chunk_fails_only_its_bad_rows(self, tmp_path):
        def half_nan(X):
            return np.where(X[:, 0] > 0, np.nan, np.sum(X**2, axis=1))

        objective = FunctionObjective(half_nan, dim=2, vectorized=True)
        X = np.array([[-0.5, 0.1], [0.5, 0.2], [-0.25, 0.3], [0.75, 0.4]])
        _, values = assert_fails_alone(
            lambda cache, ledger: EvaluationBroker(
                objective, BrokerConfig(max_retries=0), cache=cache, ledger=ledger
            ),
            X,
            [1, 3],
            tmp_path / "run.jsonl",
        )
        assert values == np.sum(X[[0, 2]] ** 2, axis=1).tolist()

    def test_campaign_chunk_vs_row_identical(self):
        from repro.bo.rembo import RemboBO

        results = []
        for rows in (True, False):
            tb = UVLOTestbench()
            objective = tb.objective("delta_vthl")
            engine = RemboBO(
                batch_size=3,
                embedding_dim=2,
                tune_every=1,
                n_restarts=1,
                seed=11,
            )
            results.append(
                engine.solve(
                    objective=self._rows(objective) if rows else objective,
                    spec=RunSpec(
                        bounds=tb.bounds(),
                        n_init=5,
                        n_batches=2,
                        threshold=tb.threshold("delta_vthl"),
                    ),
                )
            )
        row, chunk = results
        np.testing.assert_array_equal(row.X, chunk.X)
        np.testing.assert_array_equal(row.y, chunk.y)

    def test_mna_campaign_chunk_vs_row_identical(self):
        """Stacked MNA chunks drive the same 16 + 10x8 campaign as rows."""
        from repro.bo.rembo import RemboBO
        from repro.circuits.mna import uvlo_demo_objective

        results = []
        for rows in (True, False):
            objective = uvlo_demo_objective()
            if rows:
                objective = self._rows(objective)
            engine = RemboBO(batch_size=8, embedding_dim=4, seed=7)
            results.append(
                engine.solve(
                    objective=objective, spec=RunSpec(n_init=16, n_batches=10)
                )
            )
            if rows:  # repeated (clipped) points are cache hits
                assert set(objective.call_rows) == {1}
        row, chunk = results
        np.testing.assert_array_equal(row.X, chunk.X)
        np.testing.assert_array_equal(row.y, chunk.y)
