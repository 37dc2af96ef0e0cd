"""Tests for the transistor-level MNA demo testbenches."""

import numpy as np
import pytest

from repro.circuits.mna.ldo_demo import LDO_DEMO_DIM, LDODemo
from repro.circuits.mna.uvlo_demo import UVLO_DEMO_DIM, UVLODemo


class TestUVLODemo:
    def test_nominal_threshold_in_supply_range(self):
        demo = UVLODemo()
        vthl = demo.turn_off_threshold()
        assert 0.8 < vthl < UVLODemo.VDD_MAX

    def test_output_switches_along_sweep(self):
        demo = UVLODemo()
        vdd = np.linspace(UVLODemo.VDD_MAX, 0.8, 61)
        ok = demo.output_vs_vdd(vdd)
        # output is near VDD at full supply and collapses at low supply
        assert ok.max() - ok.min() > 1.0

    def test_asymmetric_variations_shift_threshold(self):
        nominal = UVLODemo().turn_off_threshold()
        x = np.zeros(UVLO_DEMO_DIM)
        x[0] = 0.9  # R1 up: divider ratio shifts, threshold must move
        shifted = UVLODemo(x).turn_off_threshold()
        assert shifted != pytest.approx(nominal, abs=1e-3)

    def test_symmetric_variations_cancel_ratiometrically(self):
        """Common drift of all resistors/thresholds cancels in the ratio."""
        nominal = UVLODemo().turn_off_threshold()
        shifted = UVLODemo(np.full(UVLO_DEMO_DIM, 0.5)).turn_off_threshold()
        assert shifted == pytest.approx(nominal, abs=0.05)

    def test_hysteresis_positive(self):
        demo = UVLODemo()
        assert demo.hysteresis() > 0.0

    def test_variation_shape_validated(self):
        with pytest.raises(ValueError):
            UVLODemo(np.zeros(3))


class TestLDODemo:
    def test_nominal_regulation_point(self):
        demo = LDODemo()
        vout = demo.output_voltage()
        # divider 1:1 regulates vout to ~2 * VREF
        assert vout == pytest.approx(2.0 * LDODemo.VREF, abs=0.15)

    def test_quiescent_current_positive_and_small(self):
        iq = LDODemo().quiescent_current()
        assert 0.0 < iq < 5e-3

    def test_load_regulation_positive(self):
        lr = LDODemo().load_regulation()
        assert 0.0 <= lr < 20.0

    def test_heavier_load_droops_more(self):
        demo = LDODemo()
        v_light = demo.output_voltage(1e-4)
        v_heavy = demo.output_voltage(20e-3)
        assert v_heavy <= v_light

    def test_undershoot_nonnegative(self):
        us = LDODemo().undershoot(t_stop=1e-6, dt=2e-8)
        assert us >= 0.0

    def test_variations_move_performance(self):
        base = LDODemo().load_regulation()
        varied = LDODemo(np.full(LDO_DEMO_DIM, 0.9)).load_regulation()
        assert varied != pytest.approx(base, abs=1e-9)

    def test_variation_shape_validated(self):
        with pytest.raises(ValueError):
            LDODemo(np.zeros(2))


class TestMNAObjectives:
    def test_ldo_objective_identity_and_rows(self):
        from repro.circuits.mna import ldo_demo_objective

        objective = ldo_demo_objective("load_regulation")
        assert objective.dim == LDO_DEMO_DIM
        assert objective.prefers_batch  # chunks solve as one stack
        assert objective.threshold is None
        assert objective.cache_key == "LDODemo:load_regulation"
        rng = np.random.default_rng(3)
        X = rng.uniform(-1.0, 1.0, (4, LDO_DEMO_DIM))
        batched = objective.evaluate(X)
        rowwise = np.array(
            [LDODemo(x).load_regulation() for x in X]
        )
        np.testing.assert_array_equal(batched, rowwise)

    def test_ldo_objective_spec_orientation(self):
        from repro.bo.spec import Specification
        from repro.circuits.mna import ldo_demo_objective

        spec = Specification(
            "load regulation", threshold=0.22, failure_when="above", units="%"
        )
        objective = ldo_demo_objective("load_regulation", spec=spec)
        assert objective.threshold == spec.minimization_threshold
        x = np.zeros(LDO_DEMO_DIM)
        value = float(objective.evaluate(x[None, :])[0])
        raw = LDODemo(x).load_regulation()
        assert value == pytest.approx(
            float(spec.to_minimization(np.array([raw]))[0])
        )

    def test_ldo_unknown_measure_rejected(self):
        from repro.circuits.mna import ldo_demo_objective

        with pytest.raises(KeyError, match="no measure"):
            ldo_demo_objective("gain_margin")

    def test_uvlo_objective(self):
        from repro.circuits.mna import uvlo_demo_objective

        objective = uvlo_demo_objective()
        assert objective.dim == UVLO_DEMO_DIM
        value = float(
            objective.evaluate(np.zeros(UVLO_DEMO_DIM)[None, :])[0]
        )
        assert np.isfinite(value) and value >= 0.0
