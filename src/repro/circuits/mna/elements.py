"""Linear and weakly-nonlinear circuit elements.

Every element subclasses :class:`Element`, names its terminals at
construction and gets node indices resolved by :meth:`Circuit.add`.  An
element only holds its parameters: :class:`~repro.circuits.mna.stack.
CircuitStack` knows each type's MNA contributions and builds them for a
whole stack of same-topology circuits at once.  Time-varying sources take
a callable ``value(t)``; source-stepping continuation scales all
independent sources.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from repro.circuits.mna.netlist import Circuit

Waveform = Union[float, Callable[[float], float]]


def evaluate_waveform(value: Waveform, t: float) -> float:
    """A source's value at time ``t`` (constants ignore ``t``)."""
    return float(value(t)) if callable(value) else float(value)


class Element:
    """Base class: terminal bookkeeping."""

    #: Number of MNA branch-current unknowns the element contributes.
    N_BRANCHES = 0

    def __init__(self, name: str, *node_names: str) -> None:
        self.name = name
        self.node_names = node_names
        self.nodes: tuple[int, ...] = ()
        self.branch: int | None = None

    def bind(self, circuit: Circuit) -> None:
        self.nodes = tuple(circuit.intern_node(n) for n in self.node_names)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {', '.join(self.node_names)})"


class Resistor(Element):
    """Two-terminal linear resistor."""

    def __init__(self, name: str, n1: str, n2: str, resistance: float) -> None:
        if resistance <= 0:
            raise ValueError(f"{name}: resistance must be positive, got {resistance}")
        super().__init__(name, n1, n2)
        self.resistance = float(resistance)


class Capacitor(Element):
    """Linear capacitor; open in DC, backward-Euler companion in transient."""

    def __init__(self, name: str, n1: str, n2: str, capacitance: float) -> None:
        if capacitance <= 0:
            raise ValueError(
                f"{name}: capacitance must be positive, got {capacitance}"
            )
        super().__init__(name, n1, n2)
        self.capacitance = float(capacitance)


class CurrentSource(Element):
    """Independent current source: ``value`` amps flow from n+ through the
    external circuit into n- (SPICE convention: the source *pulls* from n+)."""

    def __init__(self, name: str, n_plus: str, n_minus: str, value: Waveform) -> None:
        super().__init__(name, n_plus, n_minus)
        self.value = value


class VoltageSource(Element):
    """Independent voltage source with an MNA branch current."""

    N_BRANCHES = 1

    def __init__(self, name: str, n_plus: str, n_minus: str, value: Waveform) -> None:
        super().__init__(name, n_plus, n_minus)
        self.value = value


class VCVS(Element):
    """Voltage-controlled voltage source (ideal): ``v_out = gain · v_ctrl``."""

    N_BRANCHES = 1

    def __init__(
        self,
        name: str,
        out_plus: str,
        out_minus: str,
        ctrl_plus: str,
        ctrl_minus: str,
        gain: float,
    ) -> None:
        super().__init__(name, out_plus, out_minus, ctrl_plus, ctrl_minus)
        self.gain = float(gain)


class VCCS(Element):
    """Voltage-controlled current source (SPICE G element convention):
    a current ``gm · v_ctrl`` flows from out+ *through the source* to out-,
    i.e. it leaves the external circuit at out+ and re-enters at out-."""

    def __init__(
        self,
        name: str,
        out_plus: str,
        out_minus: str,
        ctrl_plus: str,
        ctrl_minus: str,
        gm: float,
    ) -> None:
        super().__init__(name, out_plus, out_minus, ctrl_plus, ctrl_minus)
        self.gm = float(gm)


class Diode(Element):
    """Shockley diode; Newton companion model with junction limiting."""

    def __init__(
        self,
        name: str,
        anode: str,
        cathode: str,
        saturation_current: float = 1e-14,
        emission: float = 1.0,
        temperature_voltage: float = 0.02585,
    ) -> None:
        if saturation_current <= 0 or emission <= 0:
            raise ValueError(f"{name}: diode parameters must be positive")
        super().__init__(name, anode, cathode)
        self.i_s = float(saturation_current)
        self.n_vt = float(emission) * float(temperature_voltage)
        #: critical voltage for junction limiting: the linearization point
        #: is clamped to ``v_crit + n_vt``, the way SPICE limits junctions
        self.v_crit = self.n_vt * np.log(self.n_vt / (np.sqrt(2.0) * self.i_s))
