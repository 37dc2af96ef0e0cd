"""An MNA-simulated under-voltage-lockout circuit (engine demonstration).

A transistor-level UVLO in the spirit of the paper's testbench [4],
simulated with the from-scratch MNA engine: supply divider with a
hysteresis leg, five-transistor comparator against a reference, inverting
second stage, and a hysteresis switch closing the loop.  The turn-off
threshold is measured exactly the way a SPICE bench would — sweep the
supply down with operating-point continuation and find where the output
flips.

This demo exists to exercise the netlist → solve → measure code path end
to end (the headline tables use the calibrated behavioral testbenches; see
DESIGN.md §2).  A small normalized variation vector maps onto resistor
values and threshold voltages so the bench plugs into the same failure-
detection drivers.  A chunk of variation vectors is measured with one
stacked supply sweep (:func:`turn_off_thresholds`).
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from repro.circuits.mna.elements import Resistor, VoltageSource
from repro.circuits.mna.measure import threshold_crossings
from repro.circuits.mna.mosfet import MOSFET, MOSParams
from repro.circuits.mna.netlist import Circuit
from repro.circuits.mna.sweep import sweep_source, sweep_source_stack
from repro.utils.validation import as_float_array, as_matrix

#: Normalized-variation dimensionality of the demo bench.
UVLO_DEMO_DIM = 8


class UVLODemo:
    """Build and measure the MNA UVLO for one variation vector.

    Variation layout (each coordinate spans ±4σ over ``[-1, 1]``):
    ``[r1, r2, r3, vth_M1, vth_M2, vth_mirror, vth_stage2, vth_hyst]``.
    """

    VDD_MAX = 3.3
    VREF = 1.20

    def __init__(self, x=None) -> None:
        if x is None:
            x = np.zeros(UVLO_DEMO_DIM)
        x = as_float_array(x, "x")
        if x.shape != (UVLO_DEMO_DIM,):
            raise ValueError(f"x must have shape ({UVLO_DEMO_DIM},), got {x.shape}")
        self.x = np.clip(x, -1.0, 1.0)
        self.circuit, self.vdd_source = self._build()

    def _build(self) -> tuple[Circuit, VoltageSource]:
        x = self.x
        r = 0.06 * x[:3]  # ±6 % resistors
        dvth = 0.06 * x[3:]  # ±60 mV thresholds

        c = Circuit("uvlo-demo")
        vdd = c.add(VoltageSource("VDD", "vdd", "0", self.VDD_MAX))
        c.add(VoltageSource("VREF", "ref", "0", self.VREF))

        # supply divider: vdd - R1 - div - R2 - tap - R3 - gnd
        c.add(Resistor("R1", "vdd", "div", 100e3 * (1 + r[0])))
        c.add(Resistor("R2", "div", "tap", 80e3 * (1 + r[1])))
        c.add(Resistor("R3", "tap", "0", 70e3 * (1 + r[2])))

        nmos = lambda dv: MOSParams(vth=0.5 + dv, kp=2e-4, w=20e-6, l=1e-6, lambda_=0.02)
        pmos = lambda dv: MOSParams(vth=0.5 + dv, kp=1e-4, w=40e-6, l=1e-6, lambda_=0.02)

        # comparator: NMOS pair (M1 at the reference, M2 at the divider),
        # PMOS mirror load diode-connected on M1's side, resistor tail.
        # With the divider above the reference, M2 pulls "cmp" low.
        c.add(MOSFET("M1", "d1", "ref", "tail", nmos(dvth[0])))
        c.add(MOSFET("M2", "cmp", "div", "tail", nmos(dvth[1])))
        c.add(Resistor("Rtail", "tail", "0", 40e3))
        c.add(MOSFET("M4", "d1", "d1", "vdd", pmos(dvth[2]), polarity="pmos"))
        c.add(MOSFET("M5", "cmp", "d1", "vdd", pmos(dvth[2]), polarity="pmos"))

        # second stage: PMOS common source -> "ok" output (high when the
        # supply is above threshold, low in lockout)
        c.add(MOSFET("M6", "ok", "cmp", "vdd", pmos(dvth[3]), polarity="pmos"))
        c.add(Resistor("Rout", "ok", "0", 200e3))

        # inverter producing the active-low lockout flag "okb"
        c.add(MOSFET("M9", "okb", "ok", "vdd", pmos(dvth[3]), polarity="pmos"))
        c.add(MOSFET("M10", "okb", "ok", "0", nmos(dvth[4])))

        # hysteresis: in lockout ("okb" high) the NMOS switch shorts R3,
        # lowering the divider tap so the supply must climb further to turn
        # back on — the turn-on threshold sits above the turn-off threshold
        c.add(MOSFET("M8", "tap", "okb", "0", nmos(dvth[4])))
        return c, vdd

    # -- measurements ----------------------------------------------------------

    def output_vs_vdd(self, vdd_values) -> np.ndarray:
        """The "ok" output along a supply sweep (continuation-tracked)."""
        sweep = sweep_source(self.circuit, self.vdd_source, vdd_values)
        return sweep.voltage("ok")

    def turn_off_threshold(self, n_points: int = 111) -> float:
        """``V_THL``: the supply at which "ok" collapses on a downward sweep."""
        return float(turn_off_thresholds([self], n_points)[0])

    def turn_on_threshold(self, n_points: int = 111) -> float:
        """``V_THH``: the supply at which "ok" rises on an upward sweep."""
        vdd = np.linspace(0.8, self.VDD_MAX, n_points)
        return float(_thresholds([self], vdd)[0])

    def hysteresis(self) -> float:
        """``V_THH − V_THL`` (positive for a healthy Schmitt loop)."""
        return self.turn_on_threshold() - self.turn_off_threshold()


def _thresholds(demos: Sequence[UVLODemo], vdd: np.ndarray) -> np.ndarray:
    """Where each demo's "ok" first crosses ``VDD_MAX / 2`` along the supply
    sweep ``vdd`` (its last value when it never does), one stacked sweep."""
    sweeps = sweep_source_stack(
        [demo.circuit for demo in demos], [demo.vdd_source for demo in demos], vdd
    )
    level = 0.5 * UVLODemo.VDD_MAX
    out = np.empty(len(demos))
    for k, sweep in enumerate(sweeps):
        crossings = threshold_crossings(
            vdd, sweep.voltage("ok"), level, direction="both"
        )
        out[k] = crossings[0] if crossings.size else vdd[-1]
    return out


def turn_off_thresholds(demos: Sequence[UVLODemo], n_points: int = 111) -> np.ndarray:
    """``V_THL`` of every demo, from one stacked downward supply sweep."""
    return _thresholds(demos, np.linspace(UVLODemo.VDD_MAX, 0.8, n_points))


@functools.cache
def nominal_turn_off_threshold() -> float:
    """``V_THL`` of the nominal circuit, computed once on first use."""
    return UVLODemo().turn_off_threshold()


def uvlo_demo_threshold_offset(X) -> np.ndarray:
    """``|ΔV_THL|`` of the demo bench versus the nominal circuit (volts),
    for each row of ``X`` ``(n, UVLO_DEMO_DIM)``.

    This is the demo counterpart of the behavioral UVLO objective.  The
    rows share one stacked supply sweep; the nominal threshold is computed
    once per process, on the first call.
    """
    X = as_matrix(X, UVLO_DEMO_DIM)
    thresholds = turn_off_thresholds([UVLODemo(x) for x in X])
    return np.abs(thresholds - nominal_turn_off_threshold())
