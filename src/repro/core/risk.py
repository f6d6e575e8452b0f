"""Chance-constrained deadline support: buffered latencies ``μ + κ(ε)·σ``.

The rest of :mod:`repro.core` scores plans against *expected* latency, so a
plan that "meets" its deadline in expectation can miss it a third of the
time under realistic service-time jitter.  This module adds the stochastic
half: a :class:`RiskConfig` describing the certification target
``P[latency ≤ deadline] ≥ 1 − ε`` and the per-request jitter model, the
buffer multiplier ``κ(ε)``, and the variance algebra the latency model
(:mod:`repro.core.latency`) uses to turn the second-moment columns it
already carries into a per-plan latency ``σ``.

**Buffer math.**  With ``T`` the per-request latency, ``μ = E[T]`` and
``σ̂ ≥ sqrt(Var T)`` any upper bound on its standard deviation, Cantelli's
(one-sided Chebyshev) inequality gives, for every distribution of ``T``,

    P[T > μ + κ·σ̂]  ≤  σ²/(σ² + κ²σ̂²)  ≤  1/(1 + κ²)   for σ ≤ σ̂,

so ``κ = sqrt((1−ε)/ε)`` certifies ``P[T ≤ μ + κσ̂] ≥ 1−ε`` — the buffer
rule `marcocaserta__surgery_schedule` uses for stochastic surgery
durations.  The bound is distribution-free and therefore loose (κ ≈ 4.36
at ε = 0.05 where a Gaussian needs 1.64); the ``"gaussian"`` buffer offers
the tighter ``κ = Φ⁻¹(1−ε)`` for users willing to assume near-normal
latency sums.  Crucially the Cantelli guarantee is *monotone in σ̂*: any
conservative (over-)estimate of σ preserves it, which is why the sum rule
below is safe.

**Variance model.**  Per-request latency is a sum of stage times (device
compute, uplink, server compute, downlink, RTT) plus queueing delays.  Two
variance sources are propagated:

1. *Exit mix* — which early exit a request takes decides how much work each
   stage sees; the enumerated second moments (``dev_flops_sq``,
   ``srv_flops_sq``, ``wire_bytes_sq``) give the exact per-stage variance
   of that mixture.
2. *Service jitter* — each stage's work is additionally scaled by an
   independent mean-one log-normal factor with log-σ ``service_noise``
   (relative variance ``e^{σ²} − 1``), mirroring the simulator's
   per-request draws and the profiler's ``noise`` machinery.

Stage stds combine by the triangle inequality ``σ(ΣX) ≤ Σσ(X)`` — an upper
bound whatever the cross-stage correlations, hence Cantelli-safe.
Queueing-delay variance has no closed form under the M/G/1 model; the
latency model uses the M/M/1-exact surrogate ``E[W²] = 2·W̄·(m̄ + W̄)``
(:func:`wait_std`), and experiment E18 validates the end-to-end calibration
empirically: realized violation rates stay below the requested ε across
load and jitter levels, with the (large) conservatism gap reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.profiling.tables import ProfileTable

__all__ = ["RiskConfig", "kappa", "stage_std", "wait_std", "profile_service_noise"]

#: accepted buffer rules
BUFFERS = ("cantelli", "gaussian", "none")


def kappa(epsilon: float, buffer: str = "cantelli") -> float:
    """Buffer multiplier κ(ε) such that ``μ + κσ`` certifies ``1 − ε``.

    ``"cantelli"`` is distribution-free (``sqrt((1−ε)/ε)``); ``"gaussian"``
    assumes near-normal latency sums (``Φ⁻¹(1−ε)``, clamped at 0 for
    ε ≥ 0.5); ``"none"`` disables buffering (κ = 0).
    """
    if buffer == "none":
        return 0.0
    if not (0.0 < epsilon < 1.0):
        raise ConfigError(f"epsilon must lie in (0, 1), got {epsilon}")
    if buffer == "cantelli":
        return math.sqrt((1.0 - epsilon) / epsilon)
    if buffer == "gaussian":
        from scipy.special import ndtri

        return max(float(ndtri(1.0 - epsilon)), 0.0)
    raise ConfigError(f"buffer must be one of {BUFFERS}, got {buffer!r}")


@dataclass(frozen=True)
class RiskConfig:
    """Chance-constraint settings for the joint solver.

    ``epsilon`` is the allowed deadline-violation probability; ``buffer``
    picks the κ(ε) rule; ``service_noise`` is the per-stage multiplicative
    jitter's log-normal σ (the same parameter
    :class:`~repro.sim.runner.SimulationConfig` uses to realize it, and
    :func:`repro.profiling.profiler.profile_model` uses to measure it).
    With ``buffer="none"`` the solver's behavior is bit-identical to a
    risk-free config — the buffered code paths are never entered.
    """

    epsilon: float = 0.05
    buffer: str = "cantelli"
    service_noise: float = 0.0
    #: derived: the buffer multiplier κ(ε) (0.0 when ``buffer="none"``)
    kappa: float = field(init=False, repr=False)
    #: derived: relative service-time variance ``e^{σ²} − 1`` of the jitter
    rel_var: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.buffer not in BUFFERS:
            raise ConfigError(f"buffer must be one of {BUFFERS}, got {self.buffer!r}")
        if self.service_noise < 0:
            raise ConfigError(f"service_noise must be >= 0, got {self.service_noise}")
        if self.buffer != "none" and not (0.0 < self.epsilon < 1.0):
            raise ConfigError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        object.__setattr__(self, "kappa", kappa(self.epsilon, self.buffer))
        object.__setattr__(
            self, "rel_var", float(math.expm1(self.service_noise**2))
        )

    @property
    def active(self) -> bool:
        """True when latencies should be buffered (``buffer != "none"``)."""
        return self.buffer != "none"


ArrayLike = Union[float, np.ndarray]


def stage_std(
    work_mean: ArrayLike,
    work_sq: ArrayLike,
    overhead: ArrayLike,
    p_visit: ArrayLike,
    rel_var: float,
    overhead_sq: Optional[ArrayLike] = None,
) -> ArrayLike:
    """Std of one stage's time ``X = W·(1+J) + overhead·B``.

    ``W`` is the (exit-mix-dependent) work time with mean ``work_mean`` and
    second moment ``work_sq``; ``J`` is the mean-zero jitter with relative
    variance ``rel_var`` (jitter scales work, not the fixed invocation
    overhead — matching the simulator); ``B`` is the Bernoulli(``p_visit``)
    visit indicator (1 for the device stage, ``p_offload`` for server/link
    stages; ``W > 0`` implies ``B = 1``, so ``E[W·B] = E[W]``).  Also covers
    the RTT term as ``stage_std(0, 0, rtt, p, 0)``.  ``overhead_sq`` is
    ``overhead**2`` when the caller has it squared already.
    """
    if overhead_sq is None:
        overhead_sq = overhead**2
    m1 = work_mean + p_visit * overhead
    m2 = work_sq * (1.0 + rel_var) + 2.0 * overhead * work_mean + p_visit * overhead_sq
    return np.sqrt(np.maximum(m2 - m1 * m1, 0.0))


def wait_std(
    wait_mean: ArrayLike, service_mean: ArrayLike, p_visit: ArrayLike = 1.0
) -> ArrayLike:
    """Surrogate std of a stage's queueing delay, visited w.p. ``p_visit``.

    For the M/M/1 queue the delay's second moment is exactly
    ``E[W²] = 2·W̄·(m̄ + W̄)`` (``W̄`` mean wait, ``m̄`` mean service), so
    ``σ(B·W) ≤ sqrt(p·E[W²]) = sqrt(2·p·W̄·(m̄ + W̄))`` — correct at both
    the low-ρ limit (rare but service-sized waits, std ≫ mean) and the
    heavy-traffic limit (std → mean).  Heavier-tailed service inflates the
    true value; Cantelli's slack absorbs the difference (validated by E18).
    Non-finite waits yield 0 — the overload penalty already dominates there.
    """
    w = np.where(np.isfinite(wait_mean), np.maximum(wait_mean, 0.0), 0.0)
    return np.sqrt(2.0 * p_visit * w * (np.maximum(service_mean, 0.0) + w))


def profile_service_noise(table: "ProfileTable") -> float:
    """Estimate ``RiskConfig.service_noise`` from a measured profile.

    Aggregates the per-layer variances into a model-level relative std
    ``s = sqrt(Σ var) / Σ mean`` (independent layers), then inverts the
    mean-one log-normal jitter model (``s² = e^{σ²} − 1``) to the log-σ the
    solver and simulator consume.  Returns 0.0 for noise-free profiles.
    """
    total = table.total_latency_s
    if total <= 0:
        return 0.0
    var = float(sum(row.latency_var_s2 for row in table.rows))
    if var <= 0:
        return 0.0
    rel = math.sqrt(var) / total
    return math.sqrt(math.log1p(rel * rel))
