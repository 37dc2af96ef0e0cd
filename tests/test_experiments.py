"""Tests for the experiment harness: configs, methods, tables, figures."""

import numpy as np
import pytest

from repro.circuits.behavioral import UVLOTestbench
from repro.experiments import (
    METHOD_ORDER,
    dimension_selection_curve,
    embedding_illustration,
    format_table,
    ldo_config,
    optimizer_scaling,
    run_method,
    run_table,
    shared_initial_data,
    uvlo_config,
)
from repro.experiments.methods import build_engine
from repro.gp.surrogate import make_surrogate


@pytest.fixture(scope="module")
def tb():
    return UVLOTestbench()


def tiny_cfg(**overrides):
    defaults = dict(
        n_sequential=4,
        batch_size=2,
        n_batches=2,
        mc_samples=30,
        sss_samples_per_scale=10,
        global_budget=60,
        local_budget=30,
        dimension_trials=2,
        seed=5,
    )
    defaults.update(overrides)
    return uvlo_config(**defaults)


class TestConfigs:
    def test_uvlo_defaults_match_paper(self):
        cfg = uvlo_config()
        assert cfg.n_init == 5
        assert cfg.n_sequential == 95
        assert cfg.batch_size == 19
        assert cfg.n_batches == 5
        assert cfg.mc_samples == 20_000
        assert cfg.embedding_dim == 8
        assert cfg.bo_budget == 100

    def test_ldo_defaults_match_paper(self):
        cfg = ldo_config()
        assert cfg.n_init == 50
        assert cfg.batch_size == 70
        assert cfg.n_batches == 5
        assert cfg.embedding_dim == 30
        assert cfg.bo_budget == 400

    def test_scaled_preserves_bo_budgets(self):
        cfg = uvlo_config().scaled(0.1)
        assert cfg.mc_samples == 2000
        assert cfg.n_sequential == 95  # BO budgets stay paper-exact

    def test_scaled_validation(self):
        with pytest.raises(ValueError):
            uvlo_config().scaled(0.0)

    def test_kernel_factory(self):
        # the paper's isotropic kernel unless an override asks for ARD
        cfg = uvlo_config()
        cases = (({}, 1), ({"ard": False}, 1), ({"ard": True}, 4))
        for overrides, n_lengthscales in cases:
            for name in ("EI", "pBO", "This work"):
                engine = build_engine(name, cfg, **overrides)
                assert engine.ard is overrides.get("ard", False)
            surrogate = make_surrogate(None, 4, ard=engine.ard)
            assert surrogate.kernel.lengthscales.shape == (n_lengthscales,)
        # the kernel is an engine argument, not an experiment setting
        with pytest.raises(TypeError, match="kernel"):
            uvlo_config(kernel="ard")

    def test_build_engine_overrides_checked_against_the_constructor(self):
        cfg = uvlo_config(seed=4)
        engine = build_engine("This work", cfg, embedding_dim=3, ard=True)
        assert (engine.embedding_dim, engine.ard) == (3, True)
        assert engine.batch_size == cfg.batch_size  # the rest from cfg
        with pytest.raises(
            ValueError,
            match=r"unknown engine keys for 'EI': \['batch_size'\]; "
            r"allowed: \['acquisition', 'ard', .*'xi'\]",
        ):
            build_engine("EI", cfg, batch_size=4)
        for key in ("seed", "cfg"):  # the seed comes from cfg alone
            with pytest.raises(
                ValueError, match=rf"unknown engine keys for 'MC': \['{key}'\]"
            ):
                build_engine("MC", cfg, **{key: 3})

    def test_search_budgets_rejected_at_construction(self):
        with pytest.raises(ValueError, match="global_budget"):
            uvlo_config(global_budget=0)
        with pytest.raises(ValueError, match="local_budget"):
            uvlo_config(local_budget=1, n_batches=1)
        cfg = uvlo_config(global_budget=7, local_budget=3)
        engine = build_engine("pBO", cfg)
        assert (engine.global_budget, engine.local_budget) == (7, 3)


class TestRunMethod:
    def test_shared_initial_data_deterministic(self, tb):
        cfg = tiny_cfg()
        a = shared_initial_data(tb, "delta_vthl", cfg)
        b = shared_initial_data(tb, "delta_vthl", cfg)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    @pytest.mark.parametrize("method", METHOD_ORDER)
    def test_every_method_runs(self, tb, method):
        cfg = tiny_cfg()
        result = run_method(method, tb, "delta_vthl", cfg)
        assert result.n_evaluations > 0
        assert np.all(np.abs(result.X) <= 1.0 + 1e-9)

    def test_budget_accounting(self, tb):
        cfg = tiny_cfg()
        ei = run_method("EI", tb, "delta_vthl", cfg)
        assert ei.n_evaluations == cfg.bo_budget
        pbo = run_method("pBO", tb, "delta_vthl", cfg)
        assert pbo.n_evaluations == cfg.n_init + cfg.batch_size * cfg.n_batches
        mc = run_method("MC", tb, "delta_vthl", cfg)
        assert mc.n_evaluations == cfg.mc_samples

    def test_unknown_method(self, tb):
        with pytest.raises(ValueError):
            run_method("BFGS", tb, "delta_vthl", tiny_cfg())


class TestRunTable:
    def test_table_rows_and_formatting(self, tb):
        cfg = tiny_cfg()
        table = run_table(tb, cfg, methods=("MC", "LCB", "This work"))
        assert len(table.rows) == 3
        row = table.row("delta_vthl", "MC")
        assert row.sim_budget == "30"
        text = format_table(table)
        assert "Worst Case" in text and "This work" in text

    def test_missing_row_raises(self, tb):
        cfg = tiny_cfg()
        table = run_table(tb, cfg, methods=("MC",))
        with pytest.raises(KeyError):
            table.row("delta_vthl", "EI")

    def test_budget_labels(self, tb):
        cfg = tiny_cfg()
        table = run_table(tb, cfg, methods=("LCB", "pBO"))
        assert table.row("delta_vthl", "LCB").sim_budget == "5init + 4seq"
        assert table.row("delta_vthl", "pBO").sim_budget == "5init + 2x2batch"


class TestFigures:
    def test_optimizer_scaling_superlinear(self):
        result = optimizer_scaling(
            dims=(2, 8), n_repeats=2, f_target=0.2, max_evaluations=50_000, seed=0
        )
        for name, counts in result.evaluations.items():
            # 4x the dimension costs more than 4x the evaluations would
            # be linear; super-linear growth at least doubles the ratio
            assert counts[1] > counts[0], name

    def test_optimizer_scaling_counts_are_pinned(self):
        """Fig. 2's counts at the bench's settings without D = 40 and 60:
        a rewrite of the driver or the engines must not move them."""
        result = optimizer_scaling(
            dims=(2, 5, 10, 20),
            n_repeats=3,
            f_target=0.1,
            max_evaluations=300_000,
            seed=42,
        )
        # three times the mean: each draw's count summed over the repeats
        totals = {k: (3 * v).round().tolist() for k, v in result.evaluations.items()}
        assert totals == {
            "DIRECT-L": [45, 141, 279, 511],
            "COBYLA": [38, 53, 113, 217],
        }

    def test_embedding_illustration_recovers_optimum(self):
        result = embedding_illustration(seed=1)
        assert result.y_optimum_embedded == pytest.approx(
            result.y_optimum_2d, abs=0.01
        )

    def test_dimension_selection_curve(self, tb):
        cfg = tiny_cfg(n_init=6)
        curve = dimension_selection_curve(
            tb, "delta_vthl", cfg, dims=[1, 4, 8], seed=3
        )
        assert curve.dims.shape == (3,)
        assert curve.normalized_mse.min() == pytest.approx(0.0)
        assert curve.selected_dim in (1, 4, 8)

    def test_dimension_selection_curve_is_pinned(self, tb):
        """Fig. 6's UVLO curve at the bench's call: a rewrite of the
        driver or of the objective's evaluation path must not move it."""
        curve = dimension_selection_curve(
            tb, "delta_vthl", uvlo_config(), dims=[1, 2, 4, 6, 8, 12, 16, 19], seed=7
        )
        assert curve.selected_dim == 4
        np.testing.assert_allclose(
            curve.normalized_mse,
            [
                1.0,
                0.31779176372344764,
                0.07496710049033112,
                0.0020660570818101607,
                0.6641950965132045,
                0.0,
                0.3164107138976662,
                0.019256236225939773,
            ],
            rtol=0,
            atol=1e-9,
        )
