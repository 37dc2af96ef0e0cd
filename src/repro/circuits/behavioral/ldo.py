"""Behavioral model of the low-dropout regulator (60 params, 3 specs).

The paper's second testbench [8]: a fully on-chip LDO with an error
amplifier (M1-M5), a buffer / fast transient loop (M6-M8, M10-M12), a
large PMOS pass device (M9), and a bias / reference network (M13-M20).
Twenty transistors, each with three varying parameters — channel length,
threshold voltage and gate-oxide thickness — give the paper's
60-dimensional verification problem.

Variation layout: ``x[3i] = ΔL``, ``x[3i+1] = ΔVth``, ``x[3i+2] = Δtox``
for device ``i ∈ 0..19`` (M1..M20), each normalized so ``[-1, 1]`` spans
``±4σ`` (4σ: 10 % of L, 60 mV of Vth, 6 % of tox).

Three verified specs with the paper's thresholds (Table 2):

* **quiescent current** — fails above 12 mA (nominal ≈ 5 mA),
* **undershoot** — fails above 0.40 V (nominal ≈ 0.15 V),
* **load regulation** — fails above 50 % (nominal ≈ 18 %).

Each spec follows the same physics template validated on the UVLO model:

* a *smooth* part from first-order sensitivities (mismatch, mobility and
  loop-gain shifts) whose worst case stays well below the spec limit,
* a *collapse margin* — the saturation/headroom margin of the relevant
  internal node, a **dense** weighted combination of the *corner-stress*
  response of all 60 normalized coordinates (only deviations beyond ~2σ
  contribute; see :func:`repro.circuits.behavioral.base.corner_stress`).
  No sparse subset of parameters moves it appreciably; eroding it needs a
  coherent deep-corner excursion, which boundary-clipped embedded
  proposals produce by construction and centre-out full-dimensional
  search essentially never does,
* a *strictly local degradation halo* (Gaussian roll-off) plus a sharp
  collapse ``soft_step`` that carries the performance across the spec
  limit only when the margin goes negative — the rare failure.

The three margins share the bias-network coordinates (one physical bias
generator feeds everything) but with different weight profiles, so the
three specs fail in different corners of the same low-dimensional
effective subspace — consistent with the paper selecting one embedding
dimension (d̃ = 30) for all three specs.
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
from repro.utils.contracts import shape_contract

#: 4σ spreads: fractional channel length, threshold voltage (V), fractional tox.
_L_SPREAD = 0.10
_VTH_SPREAD = 0.060
_TOX_SPREAD = 0.06

_N_DEVICES = 20
_DIM = 3 * _N_DEVICES

# Device-group indices (0-based; device i is "M{i+1}").
_ERROR_AMP = (0, 1, 2, 3, 4)  # M1-M5: diff pair, mirror load, tail
_BUFFER = (5, 6, 7, 9, 10, 11)  # M6-M8, M10-M12: buffer / fast loop
_PASS = 8  # M9: pass PMOS
_BIAS = (12, 13, 14, 15)  # M13-M16: bias generator
_REFERENCE = (16, 17, 18, 19)  # M17-M20: reference / startup


@shape_contract("-> (60,)")
def _dense_direction(
    group_weights: dict[str, tuple[float, float, float]],
    signs_seed: int,
) -> np.ndarray:
    """Build a dense 60-coordinate margin direction from per-group weights.

    ``group_weights`` maps group name → (w_L, w_Vth, w_tox) magnitudes for
    every device in that group.  Signs alternate deterministically (seeded)
    so the direction is not axis- or orthant-aligned in any obvious way —
    the "hidden" transformed-space structure of the paper's Section 4.
    """
    groups = {
        "error_amp": _ERROR_AMP,
        "buffer": _BUFFER,
        "pass": (_PASS,),
        "bias": _BIAS,
        "reference": _REFERENCE,
    }
    rng = np.random.default_rng(signs_seed)
    w = np.zeros(_DIM)
    for name, devices in groups.items():
        w_l, w_v, w_t = group_weights[name]
        for device in devices:
            sign_l, sign_v, sign_t = rng.choice([-1.0, 1.0], size=3)
            w[3 * device + 0] = sign_l * w_l
            w[3 * device + 1] = sign_v * w_v
            w[3 * device + 2] = sign_t * w_t
    return w


# -- margin directions (fixed at import; deterministic) ----------------------

#: Quiescent current: dominated by the bias generator and pass leakage.
_IQ_DIRECTION = _dense_direction(
    {
        "error_amp": (0.02, 0.04, 0.02),
        "buffer": (0.02, 0.04, 0.02),
        "pass": (0.06, 0.10, 0.05),
        "bias": (0.07, 0.12, 0.05),
        "reference": (0.03, 0.06, 0.03),
    },
    signs_seed=101,
)
_IQ_MARGIN_NOM = 1.02

#: Undershoot: dominated by the buffer / fast-loop bias headroom.
_US_DIRECTION = _dense_direction(
    {
        "error_amp": (0.03, 0.06, 0.03),
        "buffer": (0.06, 0.11, 0.05),
        "pass": (0.05, 0.08, 0.04),
        "bias": (0.04, 0.07, 0.03),
        "reference": (0.02, 0.04, 0.02),
    },
    signs_seed=202,
)
_US_MARGIN_NOM = 1.05

#: Load regulation: dominated by pass-device gate drive and loop gain.
_LR_DIRECTION = _dense_direction(
    {
        "error_amp": (0.05, 0.09, 0.04),
        "buffer": (0.02, 0.04, 0.02),
        "pass": (0.08, 0.12, 0.06),
        "bias": (0.04, 0.06, 0.03),
        "reference": (0.03, 0.05, 0.02),
    },
    signs_seed=303,
)
_LR_MARGIN_NOM = 1.00

#: Degradation shapes per spec: (ramp amplitude, ramp width, jump, jump width).
_IQ_SHAPE = (3.2, 0.40, 7.5, 0.06)  # mA
_US_SHAPE = (0.13, 0.40, 0.30, 0.06)  # V
_LR_SHAPE = (13.0, 0.40, 30.0, 0.06)  # %


def _margin(X: np.ndarray, nominal: float, direction: np.ndarray) -> np.ndarray:
    """Saturation / headroom margin of the relevant internal node, for a
    ``(n, 60)`` block the calling measure has already checked."""
    # einsum, not matmul: BLAS gemv is not bitwise batch-size-invariant,
    # and row-vs-chunk broker dispatch must produce identical floats for
    # the same variation row
    return nominal - np.einsum("nd,d->n", corner_stress(X), direction)


def _degradation(margin, shape: tuple[float, float, float, float]):
    """Strictly-local degradation halo plus collapse jump (UVLO recipe).

    Elementwise — accepts a scalar margin or a ``(n,)`` block of margins.
    """
    ramp_amp, ramp_width, jump_amp, jump_width = shape
    return ramp_amp * local_halo(margin, ramp_width) + jump_amp * soft_step(
        margin, jump_width
    )


class LDOTestbench(CircuitTestbench):
    """The 60-dimensional LDO verification problem (paper Table 2)."""

    PERFORMANCES = ("quiescent_current", "undershoot", "load_regulation")

    def __init__(self) -> None:
        params: list[VariationParameter] = []
        for i in range(1, _N_DEVICES + 1):
            params.append(
                VariationParameter(f"M{i}.L", sigma=_L_SPREAD / 4.0, units="frac")
            )
            params.append(
                VariationParameter(f"M{i}.Vth", sigma=_VTH_SPREAD / 4.0, units="V")
            )
            params.append(
                VariationParameter(f"M{i}.tox", sigma=_TOX_SPREAD / 4.0, units="frac")
            )
        self.parameters = tuple(params)
        self.specs = {
            "quiescent_current": Specification(
                name="Quiescent current",
                threshold=12.0,
                failure_when="above",
                units="mA",
            ),
            "undershoot": Specification(
                name="Undershoot",
                threshold=0.40,
                failure_when="above",
                units="V",
            ),
            "load_regulation": Specification(
                name="Load regulation",
                threshold=50.0,
                failure_when="above",
                units="%",
            ),
        }

    # -- variation views (columns of a checked (n, 60) block) -----------------

    @staticmethod
    def _dl(X: np.ndarray) -> np.ndarray:
        return _L_SPREAD * X[:, 0::3]

    @staticmethod
    def _dvth(X: np.ndarray) -> np.ndarray:
        return _VTH_SPREAD * X[:, 1::3]

    @staticmethod
    def _dtox(X: np.ndarray) -> np.ndarray:
        return _TOX_SPREAD * X[:, 2::3]

    def _as_batch(self, x) -> np.ndarray:
        return self._check_batch(np.atleast_2d(np.asarray(x, dtype=float)))

    # -- performances -----------------------------------------------------------

    def quiescent_current_batch(self, X) -> np.ndarray:
        """Quiescent current in mA for a ``(n, 60)`` block."""
        X = self._as_batch(X)
        dl, dvth, dtox = self._dl(X), self._dvth(X), self._dtox(X)
        # weak-inversion bias generator: first-order smooth sensitivities
        v_drive = -(
            0.45 * dvth[:, 12] + 0.40 * dvth[:, 13]
            + 0.30 * dvth[:, 14] + 0.25 * dvth[:, 15]
        )
        geometry = 1.0 - 0.5 * dl[:, 12] + 0.4 * dl[:, 13] - 0.3 * dl[:, 14]
        mirror = 3.0 * geometry * np.exp(v_drive / 0.11)
        fixed = 2.0 * (1.0 + 0.6 * np.mean(dtox[:, :8], axis=1))
        smooth = fixed + mirror  # ≈ 5 mA nominal, ≤ ~9.5 mA at corners
        # cascode headroom erosion multiplies the mirror leg
        return smooth + _degradation(
            _margin(X, _IQ_MARGIN_NOM, _IQ_DIRECTION), _IQ_SHAPE
        )

    def undershoot_batch(self, X) -> np.ndarray:
        """Load-step undershoot in volts for a ``(n, 60)`` block."""
        X = self._as_batch(X)
        dl, dvth, dtox = self._dl(X), self._dvth(X), self._dtox(X)
        slew_loss = (
            0.25 * (dvth[:, 5] + dvth[:, 6]) / _VTH_SPREAD * 0.012
            + 0.30 * (dl[:, 5] + dl[:, 8]) / _L_SPREAD * 0.010
            + 0.25 * (dtox[:, 5] + dtox[:, 8]) / _TOX_SPREAD * 0.008
        )
        smooth = 0.15 + slew_loss  # ≈ 0.15 ± 0.05 V
        return smooth + _degradation(
            _margin(X, _US_MARGIN_NOM, _US_DIRECTION), _US_SHAPE
        )

    def load_regulation_batch(self, X) -> np.ndarray:
        """Load regulation in percent for a ``(n, 60)`` block."""
        X = self._as_batch(X)
        dl, dvth = self._dl(X), self._dvth(X)
        log_gain_loss = (
            0.10 * (dvth[:, 0] + dvth[:, 1]) / _VTH_SPREAD * 0.5
            + 0.12 * dvth[:, 8] / _VTH_SPREAD * 0.5
            + 0.10 * (dl[:, 0] + dl[:, 8]) / _L_SPREAD * 0.5
        )
        smooth = 18.0 * np.exp(np.clip(log_gain_loss, -1.0, 1.0) * 0.35)
        return smooth + _degradation(
            _margin(X, _LR_MARGIN_NOM, _LR_DIRECTION), _LR_SHAPE
        )

    # -- testbench API ------------------------------------------------------------

    _BATCH_PERFORMANCES = {
        "quiescent_current": "quiescent_current_batch",
        "undershoot": "undershoot_batch",
        "load_regulation": "load_regulation_batch",
    }

    def performance_batch(self, name: str, X) -> np.ndarray:
        method = self._BATCH_PERFORMANCES.get(name)
        if method is None:
            raise KeyError(
                f"unknown performance {name!r}; options: {self.PERFORMANCES}"
            )
        return getattr(self, method)(X)
