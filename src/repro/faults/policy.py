"""Failure-handling policies and mid-run plan repair directives.

:class:`FailurePolicy` parameterizes the recovery ladder the failure-aware
runtime walks when an offload attempt fails (timeout, loss, crash-interrupt,
down-at-submit):

1. **retry** — re-drive the whole offload after exponential backoff, up to
   ``max_retries`` extra attempts;
2. **failover** — a retry targets the task's standby server slice whenever
   the primary route is down at retry time (and ``failover`` is enabled);
3. **degrade** — once retries are exhausted, complete locally at the
   deepest on-device exit (``degrade_local``), trading accuracy for a
   guaranteed answer;
4. **lost** — with the ladder disabled (or no local fallback wanted), the
   request is dropped and counted in ``counters.lost``.

``None`` in :attr:`~repro.sim.runner.SimulationConfig.failure_policy` is the
no-policy baseline: any failed offload attempt is immediately lost.

:class:`PlanUpdate` is the controller-to-simulator interface for failure-
triggered plan repair: a re-solved :class:`~repro.core.plan.JointPlan`
(plus tasks to shed) taking effect for arrivals at ``time_s`` onward.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.core.plan import JointPlan
from repro.errors import ConfigError, require_finite, require_int

__all__ = ["FailurePolicy", "PlanUpdate"]


@dataclass(frozen=True)
class FailurePolicy:
    """Knobs of the timeout/retry/failover/degradation ladder."""

    #: give up on an offload stage whose completion lies further than this
    #: beyond its submission (queueing included)
    stage_timeout_s: float = 0.25
    #: extra attempts after the first failed one
    max_retries: int = 2
    #: backoff before retry ``i`` is ``backoff_base_s * backoff_factor**i``
    backoff_base_s: float = 0.01
    backoff_factor: float = 2.0
    #: retries may target the standby server slice when the primary is down
    failover: bool = True
    #: exhausted requests complete locally at the best on-device exit
    degrade_local: bool = True
    #: lag between a fault manifesting and the runtime acting on it
    detection_delay_s: float = 0.005

    def __post_init__(self) -> None:
        # a NaN timeout never fires; an infinite backoff never retries
        require_finite(
            self, "stage_timeout_s", "backoff_base_s", "backoff_factor",
            "detection_delay_s",
        )
        require_int(self, "max_retries")
        if self.stage_timeout_s <= 0:
            raise ConfigError("stage_timeout_s must be positive")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.backoff_base_s < 0:
            raise ConfigError("backoff_base_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1")
        if self.detection_delay_s < 0:
            raise ConfigError("detection_delay_s must be >= 0")

    def backoff_s(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        return self.backoff_base_s * self.backoff_factor**attempt


@dataclass(frozen=True)
class PlanUpdate:
    """A repaired plan taking effect for arrivals at ``time_s`` onward.

    In-flight requests keep the resources they launched with; ``shed_tasks``
    arrivals after ``time_s`` are dropped at admission (counted in
    ``counters.shed``) instead of launched.
    """

    time_s: float
    plan: JointPlan
    shed_tasks: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        require_finite(self, "time_s")
        if self.time_s < 0:
            raise ConfigError("plan update time must be >= 0")
        for t in self.shed_tasks:
            if t not in self.plan.assignment:
                raise ConfigError(f"shed task {t!r} unknown to the repaired plan")
