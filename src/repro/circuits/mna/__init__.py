"""A from-scratch MNA circuit simulator (netlist → DC / sweep / transient).

Substitutes for the paper's proprietary SPICE flow so the library's
circuit-facing code path (netlist in, measured performance out) is real;
see DESIGN.md §2.  Same-topology netlists solve together as a
:class:`CircuitStack`; a single circuit is a stack of one.
"""

from repro.circuits.mna.dc import (
    ConvergenceError,
    DCSolution,
    solve_dc,
    solve_dc_stack,
)
from repro.circuits.mna.elements import (
    Capacitor,
    CurrentSource,
    Diode,
    Element,
    Resistor,
    VCCS,
    VCVS,
    VoltageSource,
)
from repro.circuits.mna.measure import (
    overshoot,
    settles_within,
    threshold_crossings,
    undershoot,
)
from repro.circuits.mna.mosfet import MOSFET, MOSParams, level1_current
from repro.circuits.mna.netlist import GROUND, Circuit
from repro.circuits.mna.objective import ldo_demo_objective, uvlo_demo_objective
from repro.circuits.mna.stack import CircuitStack
from repro.circuits.mna.sweep import SweepResult, sweep_source, sweep_source_stack
from repro.circuits.mna.transient import TransientResult, solve_transient

__all__ = [
    "Circuit",
    "CircuitStack",
    "GROUND",
    "Element",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "VCVS",
    "VCCS",
    "Diode",
    "MOSFET",
    "MOSParams",
    "level1_current",
    "solve_dc",
    "solve_dc_stack",
    "DCSolution",
    "ConvergenceError",
    "solve_transient",
    "TransientResult",
    "sweep_source",
    "sweep_source_stack",
    "SweepResult",
    "ldo_demo_objective",
    "uvlo_demo_objective",
    "threshold_crossings",
    "undershoot",
    "overshoot",
    "settles_within",
]
