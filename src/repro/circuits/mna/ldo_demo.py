"""An MNA-simulated low-dropout regulator (engine demonstration).

A transistor-level LDO in the spirit of the paper's testbench [8]: a
five-transistor error amplifier, a PMOS pass device, a feedback divider,
output capacitor and a steppable load.  The three paper specs are measured
the way a SPICE bench would: quiescent current from the supply branch at
light load, load regulation from a DC load sweep, and undershoot from a
backward-Euler transient of a load-current step.

Like :mod:`repro.circuits.mna.uvlo_demo`, this exists to exercise the full
netlist → solve → measure path; the headline tables use the calibrated
behavioral testbench (DESIGN.md §2).  :func:`ldo_demo_measure` measures a
chunk of variation vectors: the DC measures solve its netlists as one
stack, the undershoot runs one transient per row.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.circuits.mna.dc import DCSolution, solve_dc, solve_dc_stack
from repro.circuits.mna.elements import (
    Capacitor,
    CurrentSource,
    Resistor,
    VoltageSource,
)
from repro.circuits.mna.measure import undershoot as undershoot_of
from repro.circuits.mna.mosfet import MOSFET, MOSParams
from repro.circuits.mna.netlist import Circuit
from repro.utils.validation import as_float_array, as_matrix

#: Normalized-variation dimensionality of the demo bench.
LDO_DEMO_DIM = 9


class LDODemo:
    """Build and measure the MNA LDO for one variation vector.

    Variation layout (±4σ over ``[-1, 1]``):
    ``[vth_M1, vth_M2, vth_mirror, vth_pass, l_pass, r_f1, r_f2, r_tail,
    vth_tail]``.
    """

    VDD = 3.3
    VREF = 1.2

    def __init__(self, x=None) -> None:
        if x is None:
            x = np.zeros(LDO_DEMO_DIM)
        x = as_float_array(x, "x")
        if x.shape != (LDO_DEMO_DIM,):
            raise ValueError(f"x must have shape ({LDO_DEMO_DIM},), got {x.shape}")
        self.x = np.clip(x, -1.0, 1.0)
        self.circuit, self.vdd_source, self.load_source = self._build()

    def _build(self) -> tuple[Circuit, VoltageSource, CurrentSource]:
        x = self.x
        dvth = 0.06 * x[:4]  # ±60 mV
        dl_pass = 0.10 * x[4]
        dr = 0.06 * x[5:8]
        dvth_tail = 0.06 * x[8]

        c = Circuit("ldo-demo")
        vdd = c.add(VoltageSource("VDD", "vdd", "0", self.VDD))
        c.add(VoltageSource("VREF", "ref", "0", self.VREF))

        def nmos(dv, w=20e-6):
            return MOSParams(vth=0.5 + dv, kp=2e-4, w=w, l=1e-6, lambda_=0.02)

        def pmos(dv, w=40e-6, length=1e-6):
            return MOSParams(vth=0.5 + dv, kp=1e-4, w=w, l=length, lambda_=0.02)

        # error amplifier: M1 senses the feedback tap, M2 the reference;
        # PMOS mirror diode-connected on M1's side; NMOS tail current leg
        c.add(MOSFET("M1", "d1", "fb", "tail", nmos(dvth[0])))
        c.add(MOSFET("M2", "ea", "ref", "tail", nmos(dvth[1])))
        c.add(MOSFET("M3", "d1", "d1", "vdd", pmos(dvth[2]), polarity="pmos"))
        c.add(MOSFET("M4", "ea", "d1", "vdd", pmos(dvth[2]), polarity="pmos"))
        c.add(MOSFET("M5", "tail", "bias", "0", nmos(dvth_tail, w=10e-6)))
        c.add(Resistor("Rb1", "vdd", "bias", 200e3 * (1 + dr[2])))
        c.add(Resistor("Rb2", "bias", "0", 100e3))

        # pass device and feedback divider (vout nominal = 2 * VREF)
        c.add(
            MOSFET(
                "MP",
                "vout",
                "ea",
                "vdd",
                pmos(dvth[3], w=2000e-6, length=1e-6 * (1 + dl_pass)),
                polarity="pmos",
            )
        )
        c.add(Resistor("Rf1", "vout", "fb", 100e3 * (1 + dr[0])))
        c.add(Resistor("Rf2", "fb", "0", 100e3 * (1 + dr[1])))

        # output network: capacitor plus a steppable load current
        c.add(Capacitor("Cout", "vout", "0", 1e-9))
        load = c.add(CurrentSource("ILOAD", "vout", "0", 1e-3))
        return c, vdd, load

    # -- measurements -----------------------------------------------------------

    def output_voltage(self, load_current: float = 1e-3) -> float:
        return float(output_voltages([self], load_current)[0])

    def quiescent_current(self, load_current: float = 1e-4) -> float:
        """Supply current minus the delivered load current (amps)."""
        return float(quiescent_currents([self], load_current)[0])

    def load_regulation(
        self, i_light: float = 1e-4, i_heavy: float = 20e-3
    ) -> float:
        """Percent output droop from light to heavy load."""
        return float(load_regulations([self], i_light, i_heavy)[0])

    def undershoot(
        self,
        i_light: float = 1e-4,
        i_heavy: float = 20e-3,
        t_stop: float = 2e-6,
        dt: float = 2e-8,
    ) -> float:
        """Output droop (volts) for a light→heavy load-current step."""
        from repro.circuits.mna.transient import solve_transient

        self.load_source.value = i_light
        x0 = solve_dc(self.circuit).x
        v_nom = self.circuit.voltage(x0, "vout")
        self.load_source.value = lambda t: i_heavy if t > 2e-7 else i_light
        try:
            result = solve_transient(self.circuit, t_stop=t_stop, dt=dt, x0=x0)
            return undershoot_of(result.voltage("vout"), v_nom)
        finally:
            self.load_source.value = i_light


def _solve_loaded(
    demos: Sequence[LDODemo], load_current: float
) -> list[DCSolution]:
    """Every demo's operating point at one load current, as one stack."""
    for demo in demos:
        demo.load_source.value = load_current
    return solve_dc_stack([demo.circuit for demo in demos])


def output_voltages(
    demos: Sequence[LDODemo], load_current: float = 1e-3
) -> np.ndarray:
    """``vout`` of every demo at ``load_current``."""
    return np.array(
        [solution.voltage("vout") for solution in _solve_loaded(demos, load_current)]
    )


def quiescent_currents(
    demos: Sequence[LDODemo], load_current: float = 1e-4
) -> np.ndarray:
    """Supply current minus the delivered load current (amps), per demo."""
    supply = np.array(
        [
            -solution.branch_current(demo.vdd_source)
            for demo, solution in zip(demos, _solve_loaded(demos, load_current))
        ]
    )
    return supply - load_current


def load_regulations(
    demos: Sequence[LDODemo], i_light: float = 1e-4, i_heavy: float = 20e-3
) -> np.ndarray:
    """Percent output droop from light to heavy load, per demo."""
    v_light = output_voltages(demos, i_light)
    v_heavy = output_voltages(demos, i_heavy)
    return 100.0 * (v_light - v_heavy) / np.maximum(v_light, 1e-9)


#: The measures :func:`ldo_demo_measure` knows, by name.
LDO_MEASURES = {
    "output_voltage": output_voltages,
    "quiescent_current": quiescent_currents,
    "load_regulation": load_regulations,
    # a failed transient step halves only its own row's time step, so the
    # rows run one at a time
    "undershoot": lambda demos: np.array([demo.undershoot() for demo in demos]),
}


def ldo_demo_measure(X, measure: str = "load_regulation") -> np.ndarray:
    """One named LDO-demo measure (a key of :data:`LDO_MEASURES`) for each
    row of ``X`` ``(n, LDO_DEMO_DIM)``."""
    X = as_matrix(X, LDO_DEMO_DIM)
    return LDO_MEASURES[measure]([LDODemo(x) for x in X])
