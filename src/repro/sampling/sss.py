"""Scaled-Sigma Sampling (Sun et al. 2013/2015), the paper's "SSS" baseline.

SSS accelerates rare-event estimation by sampling the process parameters at
*inflated* standard deviations ``s·σ`` (``s > 1``), where failures are no
longer rare, and extrapolating the failure rate back to the nominal scale
through the analytic model

    ``log P(s) ≈ α + β · log s − γ / s²``

fit by least squares over the scales that produced at least one failure.
For the paper's failure-*detection* comparison the relevant outputs are the
evaluation log itself (worst case observed, first failure within the
bounded variation cube Ω) — SSS spends its budget in the distribution tails
but still misses failure regions that are not aligned with radial
directions, which is why it finds nothing in Tables 1-2.

The normalized variation space maps ``±4σ`` onto ``[-1, 1]`` (Section 5.1),
so the nominal per-coordinate sigma is 1/4; samples falling outside Ω are
clipped onto the cube boundary before simulation, keeping every simulated
point inside the verification region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bo.engine import RunSpec
from repro.bo.records import RunResult
from repro.runtime.broker import RuntimePolicy, make_broker
from repro.runtime.objective import Objective, require_objective, resolve_bounds
from repro.telemetry.config import Telemetry, resolve_telemetry
from repro.utils.rng import SeedLike, as_generator
from repro.utils.timing import Timer

#: ±4σ spans the normalized cube (paper Section 5.1).
NOMINAL_SIGMA_FRACTION = 1.0 / 4.0


@dataclass
class SSSModelFit:
    """The fitted ``log P(s) = α + β log s − γ/s²`` extrapolation model."""

    alpha: float
    beta: float
    gamma: float
    scales: np.ndarray
    failure_fractions: np.ndarray

    def log_failure_rate(self, scale: float = 1.0) -> float:
        """Model prediction of ``log P`` at a given sigma scale."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        return self.alpha + self.beta * np.log(scale) - self.gamma / scale**2

    def failure_rate(self, scale: float = 1.0) -> float:
        return float(np.exp(self.log_failure_rate(scale)))


class ScaledSigmaSampler:
    """The SSS baseline: tail-inflated Gaussian sampling plus extrapolation.

    Parameters
    ----------
    samples_per_scale:
        Simulations spent at each sigma scale.
    scales:
        Sigma inflation factors; defaults to the customary ladder 1-4.
    sigma_fraction:
        Nominal per-coordinate sigma as a fraction of the half box side.
    """

    def __init__(
        self,
        samples_per_scale: int,
        scales: Sequence[float] = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0),
        sigma_fraction: float = NOMINAL_SIGMA_FRACTION,
        seed: SeedLike = None,
    ) -> None:
        if samples_per_scale < 1:
            raise ValueError(
                f"samples_per_scale must be >= 1, got {samples_per_scale}"
            )
        scales = np.asarray(list(scales), dtype=float)
        if scales.size == 0 or np.any(scales <= 0):
            raise ValueError("scales must be positive and non-empty")
        if sigma_fraction <= 0:
            raise ValueError(f"sigma_fraction must be positive, got {sigma_fraction}")
        self.samples_per_scale = int(samples_per_scale)
        self.scales = np.sort(scales)
        self.sigma_fraction = float(sigma_fraction)
        self._rng = as_generator(seed)

    @property
    def n_samples(self) -> int:
        return self.samples_per_scale * self.scales.size

    def solve(
        self,
        *,
        objective: Objective,
        spec: RunSpec | None = None,
        policy: RuntimePolicy | None = None,
        telemetry: Telemetry | None = None,
        rng: SeedLike = None,
    ) -> RunResult:
        """Sample every scale, simulate, and fit the extrapolation model.

        Each scale's ``samples_per_scale`` points are one broker batch;
        every row counts as initial (non-adaptive).  The returned
        :class:`RunResult` carries the :class:`SSSModelFit` (when enough
        scales failed to fit one) in ``extra["sss_fit"]`` and the
        per-scale failure fractions in ``extra["failure_fractions"]``.
        """
        objective = require_objective(objective, type(self).__name__)
        spec = spec if spec is not None else RunSpec()
        tele = resolve_telemetry(telemetry)
        sample_rng = as_generator(rng) if rng is not None else self._rng
        lower, upper, _ = resolve_bounds(objective, spec.bounds)
        threshold = spec.threshold
        dim = lower.shape[0]
        center = 0.5 * (lower + upper)
        half_span = 0.5 * (upper - lower)
        broker = make_broker(objective, policy, method="SSS", telemetry=tele)

        timer = Timer().start()
        fractions = np.zeros(self.scales.size)
        Xs, ys = [], []
        for i, scale in enumerate(self.scales):
            with tele.tracer.span(
                "sampling", scale=float(scale), n_samples=self.samples_per_scale
            ) as span:
                sigma = scale * self.sigma_fraction * half_span
                X = center + sample_rng.standard_normal(
                    (self.samples_per_scale, dim)
                ) * sigma
                X = np.clip(X, lower, upper)
                y = broker.evaluate_batch(X)
                n_fail = 0
                if threshold is not None:
                    n_fail = int(np.sum(y < threshold))
                fractions[i] = n_fail / self.samples_per_scale
                span.set("n_failures", n_fail)
            Xs.append(X)
            ys.append(y)
        timer.stop()

        extra: dict = {"failure_fractions": fractions, "scales": self.scales}
        fit = self._fit_model(fractions)
        if fit is not None:
            extra["sss_fit"] = fit
        y = np.concatenate(ys)
        eval_seconds = broker.stats.eval_seconds
        return RunResult(
            X=np.vstack(Xs),
            y=y,
            n_init=y.size,
            method="SSS",
            eval_seconds=eval_seconds,
            overhead_seconds=max(0.0, timer.elapsed - eval_seconds),
            extra=extra,
        )

    def _fit_model(self, fractions: np.ndarray) -> SSSModelFit | None:
        """Least-squares fit of the three-parameter SSS model.

        Needs at least three scales with non-zero failure fraction; returns
        None otherwise (the extrapolation is then undefined, which is
        itself an informative outcome for extremely rare failures).
        """
        mask = fractions > 0
        if int(np.sum(mask)) < 3:
            return None
        s = self.scales[mask]
        log_p = np.log(fractions[mask])
        design = np.column_stack([np.ones_like(s), np.log(s), -1.0 / s**2])
        coeffs, *_ = np.linalg.lstsq(design, log_p, rcond=None)
        return SSSModelFit(
            alpha=float(coeffs[0]),
            beta=float(coeffs[1]),
            gamma=float(coeffs[2]),
            scales=self.scales.copy(),
            failure_fractions=fractions.copy(),
        )
