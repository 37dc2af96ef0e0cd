"""Tests for the behavioral UVLO and LDO testbenches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.behavioral import LDOTestbench, UVLOTestbench
from repro.circuits.behavioral.base import local_halo, soft_step


def failures(tb, name, X):
    """Pass/fail of each row of ``X`` against the named spec."""
    return tb.specs[name].is_failure(tb.performance_batch(name, X))


class TestSoftStep:
    def test_limits(self):
        assert soft_step(10.0, 0.1) == pytest.approx(0.0, abs=1e-10)
        assert soft_step(-10.0, 0.1) == pytest.approx(1.0, abs=1e-10)
        assert soft_step(0.0, 0.1) == pytest.approx(0.5)

    def test_monotone_decreasing_in_margin(self):
        margins = np.linspace(-1, 1, 21)
        values = soft_step(margins, 0.2)
        assert np.all(np.diff(values) < 0)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            soft_step(0.0, 0.0)


class TestLocalHalo:
    def test_one_inside(self):
        assert local_halo(-0.5, 0.3) == 1.0
        assert local_halo(0.0, 0.3) == 1.0

    def test_gaussian_tail_dies_fast(self):
        """The defining property versus soft_step: numerically dead far out."""
        far = local_halo(1.5, 0.3)
        assert far < 1e-5
        assert far < soft_step(1.5, 0.3)

    def test_monotone(self):
        margins = np.linspace(0.0, 2.0, 50)
        values = local_halo(margins, 0.3)
        assert np.all(np.diff(values) <= 0)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            local_halo(0.0, -1.0)


class TestUVLO:
    @pytest.fixture
    def tb(self):
        return UVLOTestbench()

    def test_dimensions(self, tb):
        assert tb.dim == 19
        assert len(tb.parameter_names) == 19
        assert tb.parameter_names[0] == "R1"
        assert tb.parameter_names[3] == "L1"

    def test_nominal_is_nearly_zero_offset(self, tb):
        assert tb.performance_batch("delta_vthl", np.zeros((1, 19)))[0] < 0.01

    def test_performance_nonnegative(self, tb, rng):
        X = rng.uniform(-1, 1, (20, 19))
        assert np.all(tb.performance_batch("delta_vthl", X) >= 0.0)

    def test_typical_variations_pass_spec(self, tb, rng):
        """Points inside ±1σ (|x| <= 0.25) never come close to failing."""
        X = rng.uniform(-0.25, 0.25, (200, 19))
        values = tb.performance_batch("delta_vthl", X)
        assert values.max() < 0.5 * tb.specs["delta_vthl"].threshold

    def test_failures_are_rare_under_uniform(self, tb, rng):
        X = rng.uniform(-1, 1, (3000, 19))
        assert not np.any(failures(tb, "delta_vthl", X))

    def test_failure_region_exists(self, tb):
        """Driving the bias-collapse direction produces a spec failure."""
        from repro.circuits.behavioral.uvlo import _BIAS_WEIGHTS

        x = np.sign(_BIAS_WEIGHTS)
        assert failures(tb, "delta_vthl", x[None, :])[0]

    def test_collapse_direction_is_dense(self):
        from repro.circuits.behavioral.uvlo import _BIAS_WEIGHTS

        assert _BIAS_WEIGHTS.shape == (19,)
        assert np.all(np.abs(_BIAS_WEIGHTS) > 0.0)
        # no coordinate dominates: max weight well below the total
        assert np.abs(_BIAS_WEIGHTS).max() < 0.2 * np.abs(_BIAS_WEIGHTS).sum()

    def test_resistor_ratiometric_cancellation(self, tb):
        """Common resistor variation largely cancels in the divider ratio."""
        x_common = np.zeros(19)
        x_common[:3] = 0.5  # all resistors drift together
        x_single = np.zeros(19)
        x_single[0] = 0.5  # only R1 drifts
        common, single = tb.performance_batch(
            "delta_vthl", np.stack([x_common, x_single])
        )
        assert common < single

    def test_objective_threshold_orientation(self, tb):
        obj = tb.objective("delta_vthl")
        T = tb.threshold("delta_vthl")
        from repro.circuits.behavioral.uvlo import _BIAS_WEIGHTS

        failing, nominal = obj.evaluate(
            np.stack([np.sign(_BIAS_WEIGHTS), np.zeros(19)])
        )
        assert failing < T  # failure maps below T
        assert nominal > T

    def test_unknown_performance(self, tb):
        with pytest.raises(KeyError):
            tb.performance_batch("gain", np.zeros((1, 19)))
        with pytest.raises(KeyError, match="unknown spec"):
            tb.objective("gain")

    def test_out_of_cube_rejected(self, tb):
        with pytest.raises(ValueError):
            tb.performance_batch("delta_vthl", np.full((1, 19), 1.5))

    def test_wrong_shape_rejected(self, tb):
        with pytest.raises(ValueError):
            tb.performance_batch("delta_vthl", np.zeros((1, 18)))


class TestLDO:
    @pytest.fixture
    def tb(self):
        return LDOTestbench()

    def test_dimensions(self, tb):
        assert tb.dim == 60
        assert tb.parameter_names[0] == "M1.L"
        assert tb.parameter_names[1] == "M1.Vth"
        assert tb.parameter_names[59] == "M20.tox"

    def test_nominal_values(self, tb):
        x = np.zeros((1, 60))
        iq = tb.performance_batch("quiescent_current", x)[0]
        us = tb.performance_batch("undershoot", x)[0]
        lr = tb.performance_batch("load_regulation", x)[0]
        assert iq == pytest.approx(5.0, abs=1.0)
        assert us == pytest.approx(0.15, abs=0.03)
        assert lr == pytest.approx(18.0, abs=3.0)

    @pytest.mark.parametrize(
        "spec", ["quiescent_current", "undershoot", "load_regulation"]
    )
    def test_failures_rare_under_uniform(self, tb, spec, rng):
        X = rng.uniform(-1, 1, (2000, 60))
        assert not np.any(failures(tb, spec, X))

    @pytest.mark.parametrize(
        "spec, direction_name",
        [
            ("quiescent_current", "_IQ_DIRECTION"),
            ("undershoot", "_US_DIRECTION"),
            ("load_regulation", "_LR_DIRECTION"),
        ],
    )
    def test_failure_region_exists_per_spec(self, tb, spec, direction_name):
        import repro.circuits.behavioral.ldo as ldo_module

        direction = getattr(ldo_module, direction_name)
        x = np.sign(direction)
        assert failures(tb, spec, x[None, :])[0], f"{spec} corner does not fail"

    def test_margins_are_dense_directions(self):
        import repro.circuits.behavioral.ldo as ldo_module

        for name in ("_IQ_DIRECTION", "_US_DIRECTION", "_LR_DIRECTION"):
            w = getattr(ldo_module, name)
            assert w.shape == (60,)
            assert np.count_nonzero(w) == 60
            assert np.abs(w).max() < 0.15 * np.abs(w).sum()

    def test_specs_fail_in_different_corners(self, tb):
        """The three margin directions are genuinely distinct."""
        import repro.circuits.behavioral.ldo as ldo_module

        iq = ldo_module._IQ_DIRECTION / np.linalg.norm(ldo_module._IQ_DIRECTION)
        us = ldo_module._US_DIRECTION / np.linalg.norm(ldo_module._US_DIRECTION)
        lr = ldo_module._LR_DIRECTION / np.linalg.norm(ldo_module._LR_DIRECTION)
        assert abs(iq @ us) < 0.8
        assert abs(iq @ lr) < 0.8
        assert abs(us @ lr) < 0.8

    def test_unknown_performance(self, tb):
        with pytest.raises(KeyError):
            tb.performance_batch("psrr", np.zeros((1, 60)))

    @pytest.mark.parametrize("spec", LDOTestbench.PERFORMANCES)
    def test_each_block_is_checked_once(self, tb, spec, monkeypatch, rng):
        checked = []
        check = LDOTestbench._check_batch

        def counted(self, X):
            checked.append(X.shape)
            return check(self, X)

        monkeypatch.setattr(LDOTestbench, "_check_batch", counted)
        tb.performance_batch(spec, rng.uniform(-1, 1, (7, 60)))
        assert checked == [(7, 60)]

    def test_spec_thresholds_match_paper(self, tb):
        assert tb.specs["quiescent_current"].threshold == 12.0
        assert tb.specs["undershoot"].threshold == 0.40
        assert tb.specs["load_regulation"].threshold == 50.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_property_uvlo_deterministic_and_finite(seed):
    """The testbench is a pure function of the variation vector."""
    tb = UVLOTestbench()
    X = np.random.default_rng(seed).uniform(-1, 1, (1, 19))
    a = tb.performance_batch("delta_vthl", X)[0]
    b = tb.performance_batch("delta_vthl", X)[0]
    assert a == b
    assert np.isfinite(a) and a >= 0.0


class TestVectorizedObjectives:
    """Batched testbench evaluation must be bitwise batch-size invariant."""

    @pytest.mark.parametrize(
        "tb_cls, name",
        [
            (UVLOTestbench, "delta_vthl"),
            (LDOTestbench, "load_regulation"),
            (LDOTestbench, "quiescent_current"),
            (LDOTestbench, "undershoot"),
        ],
    )
    def test_batch_matches_per_row_bitwise(self, tb_cls, name):
        tb = tb_cls()
        rng = np.random.default_rng(17)
        X = rng.uniform(-1.0, 1.0, (31, tb.dim))
        objective = tb.objective(name)
        batched = objective.evaluate(X)
        rowwise = np.concatenate(
            [objective.evaluate(x[None, :]) for x in X]
        )
        # the margin contractions are einsum-based, so a whole block and a
        # single row produce the same floats bit for bit — this is what
        # makes chunked broker dispatch and resume bitwise-compatible
        np.testing.assert_array_equal(batched, rowwise)

    def test_objectives_prefer_batch_dispatch(self):
        assert UVLOTestbench().objective("delta_vthl").prefers_batch
        assert LDOTestbench().objective("load_regulation").prefers_batch
