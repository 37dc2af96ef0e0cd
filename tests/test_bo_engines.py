"""Tests for the three BO engines on cheap objectives."""

import numpy as np
import pytest

from repro.bo import BatchBO, RemboBO, RunSpec, SequentialBO, uniform_initial_design
from repro.bo.engine import Engine, SurrogateManager
from repro.runtime import FunctionObjective
from repro.sampling import MonteCarloSampler, ScaledSigmaSampler
from repro.synthetic import RareFailureFunction
from repro.utils.validation import unit_cube_bounds


def bowl(x):
    return float(np.sum((np.asarray(x) - 0.3) ** 2))


def wrap(fn, dim):
    return FunctionObjective(fn, dim=dim, bounds=unit_cube_bounds(dim))


def bowl_objective(dim):
    return wrap(bowl, dim)


#: Reduced acquisition caps that keep the engine tests fast.
TINY = dict(global_budget=80, local_budget=40)


class TestUniformInitialDesign:
    def test_shape_and_bounds(self):
        X = uniform_initial_design(unit_cube_bounds(4), 10, seed=0)
        assert X.shape == (10, 4)
        assert np.all(np.abs(X) <= 1.0)

    def test_reproducible(self):
        a = uniform_initial_design(unit_cube_bounds(2), 5, seed=1)
        b = uniform_initial_design(unit_cube_bounds(2), 5, seed=1)
        np.testing.assert_array_equal(a, b)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            uniform_initial_design(unit_cube_bounds(2), 0)


class TestSurrogateManager:
    def test_refit_standardizes(self, rng):
        manager = SurrogateManager(2, seed=0)
        X = rng.uniform(-1, 1, (12, 2))
        y = 100.0 + 10.0 * rng.standard_normal(12)
        gp = manager.refit(X, y)
        assert abs(gp.y_train.mean()) < 1e-9  # standardized labels

    def test_tune_every_cadence(self, rng):
        manager = SurrogateManager(2, tune_every=2, seed=0)
        X = rng.uniform(-1, 1, (8, 2))
        y = rng.standard_normal(8)
        manager.refit(X, y)
        theta_after_first = manager.model.theta.copy()
        # second refit (cadence 2) must not re-tune: same theta
        manager.refit(X, y)
        np.testing.assert_allclose(manager.model.theta, theta_after_first)

    def test_validation(self):
        with pytest.raises(ValueError):
            SurrogateManager(0)
        with pytest.raises(ValueError):
            SurrogateManager(2, tune_every=0)


class TestSequentialBO:
    def test_satisfies_engine_protocol(self):
        assert isinstance(SequentialBO(seed=0), Engine)

    def test_improves_on_initial_design(self):
        engine = SequentialBO(acquisition="ei", seed=0, **TINY)
        result = engine.solve(
            objective=bowl_objective(2), spec=RunSpec(n_init=5, budget=20)
        )
        assert result.n_evaluations == 20
        assert result.best_y < result.y[:5].min()

    @pytest.mark.parametrize("acq", ["ei", "pi", "lcb"])
    def test_all_acquisitions_run(self, acq):
        engine = SequentialBO(acquisition=acq, seed=1, **TINY)
        result = engine.solve(
            objective=bowl_objective(2), spec=RunSpec(n_init=4, budget=10)
        )
        assert result.n_evaluations == 10
        assert result.method == acq.upper()

    def test_initial_data_reused(self):
        X0 = uniform_initial_design(unit_cube_bounds(2), 6, seed=2)
        y0 = np.array([bowl(x) for x in X0])
        engine = SequentialBO(seed=2, **TINY)
        result = engine.solve(
            objective=bowl_objective(2),
            spec=RunSpec(budget=10, initial_data=(X0, y0)),
        )
        np.testing.assert_array_equal(result.X[:6], X0)
        assert result.n_init == 6

    def test_budget_below_init_rejected(self):
        engine = SequentialBO(seed=0)
        with pytest.raises(ValueError):
            engine.solve(
                objective=bowl_objective(2), spec=RunSpec(n_init=10, budget=5)
            )

    def test_rejects_bare_callable(self):
        engine = SequentialBO(seed=0)
        with pytest.raises(TypeError, match="FunctionObjective"):
            engine.solve(objective=bowl, spec=RunSpec(n_init=4, budget=8))

    def test_run_wrapper_removed(self):
        # the deprecated positional run() entry point is gone; solve()
        # and the Campaign facade are the only ways in
        assert not hasattr(SequentialBO(seed=0), "run")

    def test_unknown_acquisition(self):
        with pytest.raises(ValueError):
            SequentialBO(acquisition="ucb")

    @pytest.mark.parametrize(
        "params, message",
        [
            (dict(acquisition="lcb", kappa=-1.0), "kappa must be non-negative"),
            (dict(acquisition="ei", xi=-0.1), "xi must be non-negative"),
            (dict(acquisition="pi", xi=-0.1), "xi must be non-negative"),
        ],
        ids=["lcb-kappa", "ei-xi", "pi-xi"],
    )
    def test_bad_acquisition_parameter_rejected_before_simulating(
        self, params, message
    ):
        calls = []

        def counted_bowl(x):
            calls.append(1)
            return bowl(x)

        with pytest.raises(ValueError, match=message):
            SequentialBO(seed=0, **params).solve(
                objective=wrap(counted_bowl, 2), spec=RunSpec(n_init=4, budget=6)
            )
        assert not calls

    def test_counts_acquisition_evaluations(self):
        engine = SequentialBO(seed=4, **TINY)
        result = engine.solve(
            objective=bowl_objective(2), spec=RunSpec(n_init=4, budget=8)
        )
        assert result.acquisition_evaluations > 0


class TestBatchBO:
    def test_satisfies_engine_protocol(self):
        assert isinstance(BatchBO(batch_size=2, seed=0), Engine)

    def test_batch_structure(self):
        engine = BatchBO(batch_size=4, seed=0, **TINY)
        result = engine.solve(
            objective=bowl_objective(2), spec=RunSpec(n_init=5, n_batches=3)
        )
        assert result.n_evaluations == 5 + 12
        assert result.method == "pBO"

    def test_custom_weights_validated(self):
        with pytest.raises(ValueError):
            BatchBO(batch_size=3, weights=[0.5, 0.5])
        with pytest.raises(ValueError):
            BatchBO(batch_size=2, weights=[0.2, 1.5])

    def test_improves_on_initial_design(self):
        engine = BatchBO(batch_size=3, seed=1, **TINY)
        result = engine.solve(
            objective=bowl_objective(3), spec=RunSpec(n_init=6, n_batches=4)
        )
        assert result.best_y < result.y[:6].min()


class TestRemboBO:
    def test_satisfies_engine_protocol(self):
        assert isinstance(RemboBO(batch_size=2, seed=0), Engine)

    def test_fixed_embedding_dim(self):
        engine = RemboBO(
            batch_size=3,
            embedding_dim=2,
            seed=0,
            **TINY,
        )
        result = engine.solve(
            objective=bowl_objective(6), spec=RunSpec(n_init=5, n_batches=3)
        )
        assert result.n_evaluations == 5 + 9
        assert result.model_dim == 2
        assert result.Z is not None
        assert result.Z.shape == (result.n_evaluations, 2)
        assert result.extra["embedding_dim"] == 2

    def test_proposals_inside_omega(self):
        engine = RemboBO(
            batch_size=4,
            embedding_dim=3,
            seed=1,
            **TINY,
        )
        result = engine.solve(
            objective=bowl_objective(8), spec=RunSpec(n_init=5, n_batches=2)
        )
        assert np.all(np.abs(result.X) <= 1.0 + 1e-12)

    def test_automatic_dimension_selection(self):
        fun = RareFailureFunction(10, 2, threshold=-1.0, radius=0.4, seed=3)
        engine = RemboBO(
            batch_size=3,
            embedding_dim=None,
            dimension_candidates=[1, 2, 4],
            dimension_trials=2,
            seed=2,
            **TINY,
        )
        result = engine.solve(
            objective=wrap(fun, 10), spec=RunSpec(n_init=10, n_batches=2)
        )
        assert "dimension_selection" in result.extra
        assert result.model_dim in (1, 2, 4)

    def test_finds_planted_rare_failure(self):
        """End-to-end: Algorithm 1 detects a synthetic rare failure."""
        fun = RareFailureFunction(
            16, 3, threshold=-1.2, depth=3.0, radius=0.28,
            center_fraction=0.55, seed=9,
        )
        engine = RemboBO(batch_size=6, embedding_dim=4, seed=12)
        result = engine.solve(
            objective=wrap(fun, 16),
            spec=RunSpec(n_init=10, n_batches=8, threshold=fun.threshold),
        )
        summary = result.summarize(fun.threshold)
        assert summary.detected

    def test_embedding_dim_exceeding_D_rejected(self):
        engine = RemboBO(batch_size=2, embedding_dim=10, seed=0)
        with pytest.raises(ValueError):
            engine.solve(
                objective=bowl_objective(4), spec=RunSpec(n_init=3, n_batches=1)
            )


class TestSharedLoop:
    """Rules the one campaign loop applies to every engine alike."""

    @pytest.mark.parametrize(
        "engine", [SequentialBO, BatchBO, RemboBO], ids=lambda e: e.__name__
    )
    @pytest.mark.parametrize(
        "budgets, name",
        [((0, 150), "global_budget"), ((400, 1), "local_budget")],
        ids=["global", "local"],
    )
    def test_bad_search_budget_rejected_at_construction(self, engine, budgets, name):
        args = () if engine is SequentialBO else (2,)
        with pytest.raises(ValueError, match=name):
            engine(*args, global_budget=budgets[0], local_budget=budgets[1])

    @pytest.mark.parametrize(
        "engine, spec, field",
        [
            (SequentialBO(seed=0), RunSpec(n_init=4, n_batches=2), "budget"),
            (BatchBO(2, seed=0), RunSpec(n_init=4, budget=6), "n_batches"),
            (
                RemboBO(2, embedding_dim=2, seed=0),
                RunSpec(n_init=4, budget=6),
                "n_batches",
            ),
            (MonteCarloSampler(5, seed=0), RunSpec(budget=6), "budget"),
            (ScaledSigmaSampler(2, seed=0), RunSpec(n_batches=2), "n_batches"),
            (
                MonteCarloSampler(5, seed=0),
                RunSpec(initial_data=(np.zeros((2, 4)), np.ones(2))),
                "initial_data",
            ),
        ],
        ids=[
            "SequentialBO",
            "BatchBO",
            "RemboBO",
            "MC-budget",
            "SSS-n_batches",
            "MC-initial_data",
        ],
    )
    def test_rejects_spec_field_it_does_not_read(self, engine, spec, field):
        calls = []

        def counted_bowl(x):
            calls.append(1)
            return bowl(x)

        objective = FunctionObjective(
            counted_bowl, dim=4, bounds=unit_cube_bounds(4), cache_key="bowl4"
        )
        # the error names the field a BO engine reads, or the one a
        # sampler does not
        with pytest.raises(ValueError, match=f"RunSpec.{field}"):
            engine.solve(objective=objective, spec=spec)
        assert not calls  # rejected before the initial design
