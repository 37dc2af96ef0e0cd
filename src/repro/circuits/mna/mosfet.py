"""Level-1 (square-law) MOSFET model.

The classic SPICE level-1 equations with channel-length modulation:

* cutoff   (``v_gs ≤ V_th``):  ``I_D = 0``
* triode   (``v_ds < v_gs − V_th``):
  ``I_D = k (W/L) ((v_gs − V_th) v_ds − v_ds²/2)(1 + λ v_ds)``
* saturation:
  ``I_D = (k/2)(W/L)(v_gs − V_th)²(1 + λ v_ds)``

Polarity handling covers PMOS through sign folding, and the device is
treated as symmetric: when the model-polarity ``v_ds`` goes negative the
drain and source roles swap.  A small off-conductance keeps the Jacobian
nonsingular in cutoff.  :func:`level1_current` is the one evaluation of
these equations; the stacked assembly calls it on arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.mna.elements import Element

#: Conductance floor (cutoff leakage) to keep the Newton Jacobian regular.
_G_OFF = 1e-9


@dataclass(frozen=True)
class MOSParams:
    """Level-1 parameter set (SI units; ``kp`` is μ·Cox in A/V²)."""

    vth: float = 0.5
    kp: float = 2e-4
    w: float = 10e-6
    l: float = 1e-6  # noqa: E741 — the channel length's textbook name
    lambda_: float = 0.05

    def __post_init__(self) -> None:
        if self.kp <= 0 or self.w <= 0 or self.l <= 0:
            raise ValueError("kp, w and l must be positive")
        if self.lambda_ < 0:
            raise ValueError("lambda_ must be non-negative")

    @property
    def beta(self) -> float:
        """The gain factor ``kp · W / L``."""
        return self.kp * self.w / self.l

    def scaled(self, dl: float = 0.0, dvth: float = 0.0, dkp: float = 0.0) -> "MOSParams":
        """A process-varied copy: fractional ΔL, absolute ΔVth, fractional Δkp."""
        return MOSParams(
            vth=self.vth + dvth,
            kp=self.kp * (1.0 + dkp),
            w=self.w,
            l=self.l * (1.0 + dl),
            lambda_=self.lambda_ / max(1.0 + dl, 1e-6),
        )


def level1_current(params, vgs, vds):
    """``(I_D, gm, gds)`` of the NMOS-polarity level-1 model at ``vgs, vds ≥ 0``.

    ``params`` is a :class:`MOSParams` or any object whose ``vth``,
    ``beta`` and ``lambda_`` broadcast against ``vgs`` and ``vds``; scalar
    inputs give scalar results.  Squares are written as products: CPython's
    float ``**`` calls libm ``pow``, which is not always ``v * v`` in the
    last bit, so only products keep scalar and array evaluation equal.
    """
    vgs = np.asarray(vgs, dtype=float)
    vds = np.asarray(vds, dtype=float)
    beta = params.beta
    vov = vgs - params.vth
    clm = 1.0 + params.lambda_ * vds
    cutoff = vov <= 0.0
    triode = vds < vov
    # the triode and saturation forms share their outer factors; with
    # i_0 = I_D / clm (the current before channel-length modulation):
    #   I_D = i_0 · clm,  gm = β · (v_ds | v_ov) · clm,
    #   gds = [β (v_ov − v_ds) clm]_triode + i_0 · λ
    # (in saturation the bracket is 0.0: 0.0 + y is y, or +0.0 for y = -0.0,
    # which the G_OFF floor below replaces either way)
    i_0 = np.where(
        triode,
        beta * (vov * vds - 0.5 * (vds * vds)),
        0.5 * beta * (vov * vov),
    )
    i_d = i_0 * clm
    gm = beta * np.where(triode, vds, vov) * clm
    gds = np.where(triode, beta * (vov - vds) * clm, 0.0) + i_0 * params.lambda_
    i_d = np.where(cutoff, 0.0, i_d)
    gm = np.where(cutoff, 0.0, gm)
    gds = np.where(cutoff, _G_OFF, np.maximum(gds, _G_OFF))
    return i_d[()], gm[()], gds[()]


class MOSFET(Element):
    """Three-terminal (D, G, S) level-1 MOSFET, NMOS or PMOS."""

    def __init__(
        self,
        name: str,
        drain: str,
        gate: str,
        source: str,
        params: MOSParams | None = None,
        polarity: str = "nmos",
    ) -> None:
        if polarity not in ("nmos", "pmos"):
            raise ValueError(f"{name}: polarity must be 'nmos' or 'pmos'")
        super().__init__(name, drain, gate, source)
        self.params = params if params is not None else MOSParams()
        self.sign = 1.0 if polarity == "nmos" else -1.0
        self.polarity = polarity

    def operating_point(self, x: np.ndarray) -> dict[str, float]:
        """Model-polarity ``vgs``, ``vds``, drain current and small-signal gains."""
        vd, vg, vs = (0.0 if n < 0 else float(x[n]) for n in self.nodes)
        vgs = self.sign * (vg - vs)
        vds = self.sign * (vd - vs)
        swapped = vds < 0.0
        if swapped:  # symmetric device: exchange drain and source roles
            vgs = vgs - vds
            vds = -vds
        i_d, gm, gds = level1_current(self.params, vgs, vds)
        return {
            "vgs": vgs,
            "vds": vds,
            "id": float(i_d),
            "gm": float(gm),
            "gds": float(gds),
            "swapped": float(swapped),
            "saturated": float(vds >= max(vgs - self.params.vth, 0.0)),
        }
