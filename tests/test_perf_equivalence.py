"""Equivalence guards for the vectorized GP hot path.

The hot-path rework (cached kernel workspaces, fused LML value+gradient,
incremental Cholesky updates, batched acquisition evaluation, the
multi-row DIRECT-L and COBYLA engines behind the pBO proposal, and chunked
broker dispatch) is pure plumbing: every optimization must return what the
straightforward implementation returns.  These tests pin that contract so
future performance work cannot silently change numbers.  The references:
per-weight ``minimize`` calls and the coroutine searches the engines
replaced (``tests/search_reference.py``) for the proposal, and a
one-row-per-call objective wrapper for chunked dispatch.
"""

import time

import numpy as np
import pytest

from repro.acquisition.functions import (
    MultiWeightAcquisition,
    WeightedAcquisition,
    pbo_weights,
)
from repro.acquisition.optimize import default_acquisition_optimizer
from repro.bo.engine import RunSpec
from repro.bo.propose import propose_batch
from repro.circuits.behavioral.uvlo import UVLOTestbench
from repro.gp import GaussianProcess
from repro.gp.evaluator import MarginalLikelihoodEvaluator
from repro.kernels import (
    Matern32,
    Matern52,
    RationalQuadratic,
    SquaredExponential,
)
from repro.optim import Cobyla, Direct, GlobalLocalOptimizer
from repro.runtime import (
    BrokerConfig,
    EvaluationBroker,
    FaultInjectingObjective,
    FaultPlan,
    FunctionObjective,
    Objective,
)
from tests.search_reference import (
    ReferenceCobyla,
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
        inc = GaussianProcess(SquaredExponential(dim=3), noise_variance=1e-4)
        inc.add_data(X[:12], y[:12])
        for i in range(12, 36, 2):
            inc.add_data(X[i : i + 2], y[i : i + 2])
        full = GaussianProcess(SquaredExponential(dim=3), noise_variance=1e-4)
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
        inc = GaussianProcess(Matern32(dim=3), noise_variance=1e-4)
        inc.add_data(X[:20], y[:20])
        theta = inc.theta
        theta[:-1] += 0.3  # perturb kernel params between appends
        inc.theta = theta
        inc.add_data(X[20:], y[20:])

        full = GaussianProcess(Matern32(dim=3), noise_variance=1e-4)
        full.fit(X[:1], y[:1])  # any data; theta setter refits
        full.theta = theta
        full.fit(X, y)
        Z = _dataset(8, 3, seed=13)[0]
        np.testing.assert_allclose(
            inc.predict(Z).mean, full.predict(Z).mean, atol=1e-8
        )


class TestFusedEvaluatorEquivalence:
    """One-pass (lml, grad) must equal the two-call model path."""

    KERNELS = {
        "matern52-ard": lambda: Matern52(dim=4, ard=True),
        "se-iso": lambda: SquaredExponential(dim=4),
        "rq-ard": lambda: RationalQuadratic(dim=4, ard=True),
    }

    @pytest.mark.parametrize("kernel_name", sorted(KERNELS))
    def test_matches_model_two_call_path(self, kernel_name):
        X, y = _dataset(35, 4, seed=4)
        gp = GaussianProcess(
            self.KERNELS[kernel_name](), noise_variance=1e-3, train_noise=True
        ).fit(X, y)
        evaluator = MarginalLikelihoodEvaluator(gp)
        bounds = gp.theta_bounds()
        rng = np.random.default_rng(7)
        reference = GaussianProcess(
            self.KERNELS[kernel_name](), noise_variance=1e-3, train_noise=True
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
                grad,
                reference.log_marginal_likelihood_gradient(),
                atol=1e-8,
                rtol=1e-8,
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
        acq = WeightedAcquisition(gp, weight=0.3)
        Z = _dataset(20, 5, seed=15)[0]
        batched = acq.evaluate(Z)
        pointwise = np.array([float(acq(z)) for z in Z])
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
            expected = WeightedAcquisition(
                gp, weight=float(weights[index])
            ).evaluate(union[block])
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
    the array engine replaced), driven by hand, must replay ``minimize``
    exactly."""

    @staticmethod
    def _fun(x):
        x = np.asarray(x)
        return float(np.sum((x - 0.3) ** 2) + 0.1 * np.sin(5.0 * x[0]))

    def _drive(self, cobyla, lower, upper, x0):
        reference = ReferenceCobyla(
            rho_begin=cobyla.rho_begin,
            rho_end=cobyla.rho_end,
            max_evaluations=cobyla.max_evaluations,
        )
        return drive_alone(reference.search(lower, upper, x0=x0), self._fun)

    def test_search_driven_matches_minimize(self):
        cobyla = Cobyla(max_evaluations=200)
        lower, upper = -np.ones(3), np.ones(3)
        x0 = np.array([0.4, -0.2, 0.1])
        bounds = np.column_stack([lower, upper])
        result = cobyla.minimize(self._fun, bounds, x0=x0)
        best_x, best_f, n_evals, outcome = self._drive(
            cobyla, lower, upper, x0
        )
        np.testing.assert_array_equal(best_x, result.x)
        assert best_f == result.fun
        assert n_evals == result.n_evaluations
        assert outcome.n_iterations == result.n_iterations
        assert outcome.success == result.success
        assert outcome.message == result.message

    def test_budget_below_simplex_falls_back_to_x0(self):
        cobyla = Cobyla(max_evaluations=2)
        lower, upper = -np.ones(3), np.ones(3)
        x0 = np.array([0.1, 0.2, -0.3])
        result = cobyla.minimize(
            self._fun, np.column_stack([lower, upper]), x0=x0
        )
        best_x, _, n_evals, outcome = self._drive(cobyla, lower, upper, x0)
        np.testing.assert_array_equal(result.x, x0)
        np.testing.assert_array_equal(best_x, x0)
        assert result.n_evaluations == n_evals == 1
        assert not result.success and not outcome.success
        assert "budget below simplex" in result.message
        assert result.message == outcome.message


class TestLockstepProposalEquivalence:
    """Lockstep proposals must match independent per-weight searches.

    The bitwise reference is the moved coroutine loop
    (``tests/search_reference.py``): one DIRECT and one COBYLA coroutine
    per weight, driven in lockstep over the same candidate unions.
    """

    def _setup(self):
        X, y = _dataset(25, 3, seed=10)
        gp = GaussianProcess(
            Matern52(dim=3, lengthscale=1.5), noise_variance=1e-4
        ).fit(X, y)
        box = np.column_stack([-np.ones(3), np.ones(3)])
        return gp, pbo_weights(4), box

    @staticmethod
    def _independent(gp, weights, box, factory):
        """The reference: one full ``minimize`` of Eq. 9 per weight."""
        results = [
            factory(box.shape[0]).minimize(
                WeightedAcquisition(gp, weight=float(w)), box
            )
            for w in weights
        ]
        X = np.array([r.x for r in results])
        return X, sum(r.n_evaluations for r in results)

    def test_lockstep_matches_independent_fallback(self):
        gp, weights, box = self._setup()
        lockstep = propose_batch(gp, weights, box)
        X, n_evaluations = self._independent(
            gp, weights, box, default_acquisition_optimizer
        )
        np.testing.assert_allclose(lockstep.X, X, atol=1e-8)
        assert lockstep.n_evaluations == n_evaluations

    def test_custom_stack_matches_independent(self):
        """Custom budgets and an unbounded local stage go lockstep too."""
        gp, weights, box = self._setup()

        def factory(dim):
            return default_acquisition_optimizer(
                dim, global_budget=120, local_budget=60, local_radius=None
            )

        lockstep = propose_batch(gp, weights, box, optimizer_factory=factory)
        X, n_evaluations = self._independent(gp, weights, box, factory)
        np.testing.assert_allclose(lockstep.X, X, atol=1e-8)
        assert lockstep.n_evaluations == n_evaluations

    @pytest.mark.parametrize(
        "budgets",
        [(None, None, 0.1), (120, 60, None), (7, 3, 0.1), (41, 11, 0.5)],
        ids=["default", "unbounded-local", "tiny", "odd"],
    )
    def test_matches_coroutine_lockstep_bitwise(self, budgets):
        gp, weights, box = self._setup()
        global_budget, local_budget, local_radius = budgets

        def factory(dim):
            return default_acquisition_optimizer(
                dim, global_budget, local_budget, local_radius=local_radius
            )

        proposal = propose_batch(gp, weights, box, optimizer_factory=factory)
        X, n_evaluations = reference_propose_batch(gp, weights, box, factory)
        np.testing.assert_array_equal(proposal.X, X)
        assert proposal.n_evaluations == n_evaluations

    @pytest.mark.parametrize(
        "stack, built",
        [
            (Cobyla(max_evaluations=50), "Cobyla$"),
            (
                GlobalLocalOptimizer(
                    Direct(max_evaluations=50), Direct(max_evaluations=50)
                ),
                r"Direct \+ Direct",
            ),
        ],
        ids=["bare-local", "direct-direct"],
    )
    def test_other_stacks_rejected(self, stack, built):
        gp, weights, box = self._setup()
        with pytest.raises(TypeError, match=r"\(Direct, Cobyla\).*built " + built):
            propose_batch(gp, weights, box, optimizer_factory=lambda d: stack)


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
    """Vectorized sum of squares that sleeps on rows with ``x[0] > 0.9``."""

    dim = 2

    def __init__(self, sleep_seconds: float) -> None:
        self.sleep_seconds = sleep_seconds

    @property
    def prefers_batch(self) -> bool:
        return True

    def evaluate(self, X):
        X = np.asarray(X, dtype=float)
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
        np.testing.assert_array_equal(row.y, chunk.y)
        np.testing.assert_array_equal(row.X, chunk.X)

    def test_n_jobs_split_invariant(self):
        """Splitting a round across n_jobs workers changes no value."""
        X = self._points(n=23, seed=8)
        reference = EvaluationBroker(self._rows()).evaluate_batch(X)
        for n_jobs, sizes in ((1, [23]), (2, [12, 11]), (5, [5, 5, 5, 5, 3])):
            objective = _Delegate(self._objective(), prefers_batch=True)
            broker = EvaluationBroker(
                objective, BrokerConfig(executor="thread", n_jobs=n_jobs)
            )
            np.testing.assert_array_equal(
                broker.evaluate_batch(X).y, reference.y
            )
            assert sorted(objective.call_rows, reverse=True) == sizes

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

    def test_timeout_dispatches_single_rows(self):
        """A batch objective under a timeout times out one point, not all."""
        objective = _SlowRows(sleep_seconds=0.5)
        X = np.array([[0.1, 0.2], [0.95, 0.0], [-0.3, 0.4]])
        broker = EvaluationBroker(
            objective,
            BrokerConfig(
                timeout_seconds=0.05,
                n_jobs=3,
                max_retries=0,
                failure_policy="skip",
            ),
        )
        batch = broker.evaluate_batch(X)
        np.testing.assert_array_equal(batch.index, [0, 2])
        np.testing.assert_array_equal(batch.y, np.sum(X[[0, 2]] ** 2, axis=1))
        assert broker.stats.n_attempt_failures == 1
        assert broker.stats.n_skipped == 1

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
        batch = broker.evaluate_batch(X)
        assert broker.stats.n_attempt_failures > 0  # faults did fire
        assert faulty.call_rows[0] == 30  # the first round went as one chunk
        np.testing.assert_array_equal(batch.y, clean.y)

    def test_chunk_skip_policy_drops_only_bad_rows(self):
        def half_nan(X):
            return np.where(X[:, 0] > 0, np.nan, np.sum(X**2, axis=1))

        objective = FunctionObjective(half_nan, dim=2, vectorized=True)
        X = np.array([[-0.5, 0.1], [0.5, 0.2], [-0.25, 0.3], [0.75, 0.4]])
        broker = EvaluationBroker(
            objective, BrokerConfig(max_retries=0, failure_policy="skip")
        )
        batch = broker.evaluate_batch(X)
        np.testing.assert_array_equal(batch.index, [0, 2])
        np.testing.assert_array_equal(batch.X, X[[0, 2]])

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
