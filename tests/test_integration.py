"""Cross-module integration tests: the full pipeline end to end."""

import numpy as np
import pytest

from repro.bo import RemboBO, RunSpec, Specification, uniform_initial_design
from repro.circuits.behavioral import UVLOTestbench
from repro.embedding import select_embedding_dimension
from repro.experiments import (
    acquisition_weight_ablation,
    embedding_dimension_sweep,
    kernel_ablation,
    projection_ablation,
    run_method,
    uvlo_config,
)
from repro.runtime import FunctionObjective
from repro.sampling import MonteCarloSampler
from repro.synthetic import RareFailureFunction
from repro.utils.validation import unit_cube_bounds


class TestSyntheticPipeline:
    """Algorithm 2 then Algorithm 1 on a function with known structure."""

    def test_dimension_selection_feeds_rembo(self):
        fun = RareFailureFunction(14, 2, threshold=-1.0, depth=3.0,
                                  radius=0.35, seed=3)
        bounds = unit_cube_bounds(14)
        X0 = uniform_initial_design(bounds, 15, seed=4)
        y0 = np.array([fun(x) for x in X0])

        selection = select_embedding_dimension(
            X0, y0, dims=[1, 2, 3, 5], n_trials=3, seed=5
        )
        d = max(selection.selected_dim, 3)
        engine = RemboBO(batch_size=5, embedding_dim=d, seed=6)
        result = engine.solve(
            objective=FunctionObjective(fun, dim=14, bounds=bounds),
            spec=RunSpec(
                bounds=bounds, n_batches=6, threshold=fun.threshold,
                initial_data=(X0, y0),
            ),
        )
        summary = result.summarize(fun.threshold)
        assert summary.detected
        # failure log points actually fail when re-evaluated
        for idx in summary.failure_indices[:3]:
            assert fun(result.X[idx]) < fun.threshold

    def test_rembo_beats_mc_at_equal_budget(self):
        fun = RareFailureFunction(16, 3, threshold=-1.2, depth=3.0,
                                  radius=0.28, center_fraction=0.55, seed=9)
        bounds = unit_cube_bounds(16)
        objective = FunctionObjective(fun, dim=16, bounds=bounds)
        engine = RemboBO(batch_size=6, embedding_dim=4, seed=12)
        rembo = engine.solve(
            objective=objective,
            spec=RunSpec(n_init=10, n_batches=8, threshold=fun.threshold),
        )
        mc = MonteCarloSampler(rembo.n_evaluations, seed=12).solve(
            objective=objective, spec=RunSpec(threshold=fun.threshold)
        )
        assert rembo.best_y <= mc.best_y
        assert rembo.summarize(fun.threshold).detected
        assert not mc.summarize(fun.threshold).detected


class TestSpecObjectiveConsistency:
    def test_testbench_objective_round_trip(self):
        """Failures flagged on the objective match the raw performance."""
        tb = UVLOTestbench()
        spec = tb.specs["delta_vthl"]
        objective = tb.objective("delta_vthl")
        threshold = tb.threshold("delta_vthl")
        X = np.random.default_rng(0).uniform(-1, 1, (50, 19))
        perf = tb.performance_batch("delta_vthl", X)
        np.testing.assert_array_equal(
            objective.evaluate(X) < threshold, spec.is_failure(perf)
        )

    def test_custom_spec_on_arbitrary_function(self):
        spec = Specification("area", threshold=2.0, failure_when="below")
        objective = FunctionObjective(
            lambda X: spec.to_minimization(np.sum(np.abs(X), axis=1)),
            dim=2,
            vectorized=True,
        )
        failing, passing = objective.evaluate(np.array([[0.5, 0.5], [2.0, 2.0]]))
        assert failing < spec.minimization_threshold
        assert passing > spec.minimization_threshold


class TestAblationsRunSmall:
    @pytest.fixture(scope="class")
    def cfg(self):
        return uvlo_config(
            n_init=5,
            batch_size=3,
            n_batches=2,
            global_budget=60,
            local_budget=30,
            embedding_dim=4,
            seed=9,
        )

    @pytest.fixture(scope="class")
    def tb(self):
        return UVLOTestbench()

    def test_dimension_sweep(self, tb, cfg):
        rows = embedding_dimension_sweep(tb, "delta_vthl", cfg, dims=[2, 4])
        assert [r.variant for r in rows] == ["d=2", "d=4"]

    def test_weight_ablation(self, tb, cfg):
        rows = acquisition_weight_ablation(tb, "delta_vthl", cfg)
        assert len(rows) == 2

    def test_kernel_ablation(self, tb, cfg):
        rows = kernel_ablation(tb, "delta_vthl", cfg)
        assert len(rows) == 2

    def test_projection_ablation_restores_method(self, tb, cfg):
        from repro.embedding.random_embedding import RandomEmbedding

        original = RandomEmbedding.project
        rows = projection_ablation(tb, "delta_vthl", cfg)
        assert len(rows) == 2
        assert RandomEmbedding.project is original  # monkey-patch undone

    def test_projection_variants_simulate_different_designs(
        self, tb, cfg, monkeypatch
    ):
        import repro.experiments.ablation as ablation

        runs = []

        def recording_run_method(*args, **kwargs):
            runs.append(run_method(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(ablation, "run_method", recording_run_method)
        projection_ablation(tb, "delta_vthl", cfg)
        clip, ray = (run.X[cfg.n_init:] for run in runs)
        assert clip.shape == ray.shape == (cfg.batch_size * cfg.n_batches, tb.dim)
        assert not np.array_equal(clip, ray)
        # clipping saturates every coordinate of A z outside the box; ray
        # rescaling only the largest one
        assert np.sum(np.abs(clip) >= 1.0, axis=1).max() > 1
        assert np.sum(np.abs(ray) >= 1.0, axis=1).max() <= 1
