"""SLO monitors: deadline-satisfaction targets + multi-window burn-rate alerts.

The paper's headline metric is deadline satisfaction, so the service-level
objective is expressed directly on it: a target fraction of requests per task
class that must complete within their deadline.  Monitoring follows the SRE
multi-window multi-burn-rate recipe — an alert fires only when **both** a
fast trailing window (catches sudden cliffs quickly) and a slow trailing
window (suppresses blips) burn error budget faster than their thresholds.

Everything here is a pure function of :class:`~repro.telemetry.windows.
WindowedMetrics` *integer* state (counts, met, lost, shed) — divisions of
identical integers yield identical doubles, so the event loop and the
vectorized fast path produce **bit-identical** reports on the same seeded
workload.  The gate asserts this via :meth:`SLOReport.fingerprint`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.telemetry.windows import WindowedMetrics


@dataclass(frozen=True)
class SLOTarget:
    """Deadline-satisfaction objective for a task class.

    ``task`` is an ``fnmatch``-style pattern over task names (``"cam*"``,
    ``"*"``); the first matching target in the policy wins, so list specific
    classes before catch-alls.
    """

    task: str = "*"
    target: float = 0.99

    def __post_init__(self) -> None:
        if not self.task:
            raise ConfigError("SLO target needs a non-empty task pattern")
        if not (0.0 < self.target < 1.0):
            raise ConfigError(
                f"SLO target must be in (0, 1), got {self.target} for {self.task!r}"
            )


@dataclass(frozen=True)
class SLOPolicy:
    """Targets plus the multi-window burn-rate alerting parameters.

    ``fast_windows``/``slow_windows`` are trailing-window lengths in units of
    the metric window; the default thresholds (14.4× / 6×) are the classic
    page-severity pair: burning a 30-day budget in 2 days resp. 5 days.
    """

    targets: Tuple[SLOTarget, ...] = (SLOTarget(),)
    fast_windows: int = 3
    slow_windows: int = 30
    fast_burn: float = 14.4
    slow_burn: float = 6.0

    def __post_init__(self) -> None:
        if not self.targets:
            raise ConfigError("SLO policy needs at least one target")
        if self.fast_windows < 1 or self.slow_windows < self.fast_windows:
            raise ConfigError(
                "want 1 <= fast_windows <= slow_windows, got "
                f"{self.fast_windows}/{self.slow_windows}"
            )
        if self.fast_burn <= 0 or self.slow_burn <= 0:
            raise ConfigError("burn-rate thresholds must be > 0")

    def resolve(self, task: str) -> Optional[float]:
        """Target for ``task``: first pattern match wins, None if unmatched."""
        for t in self.targets:
            if fnmatchcase(task, t.task):
                return t.target
        return None


@dataclass(frozen=True)
class SLOAlert:
    """One window where both burn rates exceeded their thresholds."""

    task: str
    window: int
    t_start_s: float
    fast_burn: float
    slow_burn: float


@dataclass
class TaskSLO:
    """Evaluated SLO state of one task."""

    task: str
    target: float
    eligible: int        #: completions + lost + shed over the run
    errors: int          #: deadline misses + lost + shed
    achieved: float      #: realized deadline-satisfaction fraction
    budget_spent: float  #: fraction of the error budget consumed (can be > 1)
    fast_burn: np.ndarray = field(repr=False)
    slow_burn: np.ndarray = field(repr=False)
    alerts: List[SLOAlert] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.achieved >= self.target

    @property
    def status(self) -> str:
        if self.alerts:
            return "PAGE"
        return "OK" if self.ok else "BURN"


@dataclass
class SLOReport:
    """Per-task SLO evaluation over one run's windowed metrics."""

    window_s: float
    horizon_s: float
    policy: SLOPolicy
    per_task: Dict[str, TaskSLO]

    def alerts(self) -> List[SLOAlert]:
        out: List[SLOAlert] = []
        for task in sorted(self.per_task):
            out.extend(self.per_task[task].alerts)
        return out

    @property
    def ok(self) -> bool:
        return all(t.ok for t in self.per_task.values())

    def fingerprint(self) -> str:
        """SHA-256 over the full evaluated state.

        Burn-rate series are doubles, but each is a quotient of integer
        window sums — identical integers give identical doubles — so the
        fingerprint is bit-stable across the event loop and the
        record-backed and streaming fast path.
        """
        h = hashlib.sha256()
        h.update(f"{self.window_s}:{self.horizon_s}:{self.policy}".encode())
        for task in sorted(self.per_task):
            t = self.per_task[task]
            h.update(f"{task}:{t.target}:{t.eligible}:{t.errors}".encode())
            h.update(np.ascontiguousarray(t.fast_burn).tobytes())
            h.update(np.ascontiguousarray(t.slow_burn).tobytes())
            for a in t.alerts:
                h.update(f"{a.window}:{a.fast_burn}:{a.slow_burn}".encode())
        return h.hexdigest()

    def as_dict(self) -> Dict[str, object]:
        return {
            "window_s": self.window_s,
            "horizon_s": self.horizon_s,
            "ok": self.ok,
            "tasks": {
                task: {
                    "target": t.target,
                    "eligible": t.eligible,
                    "errors": t.errors,
                    "achieved": t.achieved,
                    "budget_spent": t.budget_spent,
                    "status": t.status,
                    "alerts": [
                        {
                            "window": a.window,
                            "t_start_s": a.t_start_s,
                            "fast_burn": a.fast_burn,
                            "slow_burn": a.slow_burn,
                        }
                        for a in t.alerts
                    ],
                }
                for task, t in sorted(self.per_task.items())
            },
        }

    def format(self) -> str:
        """Human-readable status table."""
        lines = [
            f"{'task':>12s} {'target':>7s} {'achieved':>9s} {'budget':>8s} "
            f"{'fastburn':>9s} {'slowburn':>9s} {'alerts':>6s}  status"
        ]
        for task in sorted(self.per_task):
            t = self.per_task[task]
            fb = float(t.fast_burn.max()) if t.fast_burn.size else 0.0
            sb = float(t.slow_burn.max()) if t.slow_burn.size else 0.0
            lines.append(
                f"{task:>12s} {t.target * 100:6.2f}% {t.achieved * 100:8.3f}% "
                f"{t.budget_spent * 100:7.1f}% {fb:9.2f} {sb:9.2f} "
                f"{len(t.alerts):6d}  {t.status}"
            )
        return "\n".join(lines)


def _trailing_ratio(
    errors: np.ndarray, eligible: np.ndarray, k: int
) -> np.ndarray:
    """Error rate over the trailing ``k`` windows ending at each window.

    Windows whose trailing span saw no eligible requests report 0.0 (no
    traffic burns no budget).  Pure integer sums → deterministic doubles.
    """
    ce = np.concatenate(([0], np.cumsum(errors)))
    cn = np.concatenate(([0], np.cumsum(eligible)))
    n = errors.size
    lo = np.maximum(0, np.arange(n) - k + 1)
    err_k = ce[1:] - ce[lo]
    n_k = cn[1:] - cn[lo]
    with np.errstate(invalid="ignore", divide="ignore"):
        rate = np.where(n_k > 0, err_k / n_k, 0.0)
    return rate


def evaluate_slos(
    windowed: WindowedMetrics, policy: Optional[SLOPolicy] = None
) -> SLOReport:
    """Evaluate deadline-satisfaction SLOs over a run's windowed metrics.

    Tasks no policy target matches are skipped.  For each matched task the
    per-window error budget burn is ``error_rate / (1 - target)`` over the
    fast and slow trailing windows; an alert is recorded for every window
    where **both** exceed their thresholds.
    """
    policy = policy or SLOPolicy()
    per_task: Dict[str, TaskSLO] = {}
    for task in windowed.tasks():
        target = policy.resolve(task)
        if target is None:
            continue
        errors = windowed.window_errors(task)
        eligible = windowed.window_eligible(task)
        budget = 1.0 - target
        fast = _trailing_ratio(errors, eligible, policy.fast_windows) / budget
        slow = _trailing_ratio(errors, eligible, policy.slow_windows) / budget
        total_elig = int(eligible.sum())
        total_err = int(errors.sum())
        achieved = 1.0 - total_err / total_elig if total_elig else 1.0
        spent = (total_err / total_elig) / budget if total_elig else 0.0
        firing = np.flatnonzero(
            (fast > policy.fast_burn) & (slow > policy.slow_burn)
        )
        alerts = [
            SLOAlert(
                task=task,
                window=int(w),
                t_start_s=float(w * windowed.config.window_s),
                fast_burn=float(fast[w]),
                slow_burn=float(slow[w]),
            )
            for w in firing.tolist()
        ]
        per_task[task] = TaskSLO(
            task=task,
            target=target,
            eligible=total_elig,
            errors=total_err,
            achieved=achieved,
            budget_spent=spent,
            fast_burn=fast,
            slow_burn=slow,
            alerts=alerts,
        )
    return SLOReport(
        window_s=windowed.config.window_s,
        horizon_s=windowed.horizon_s,
        policy=policy,
        per_task=per_task,
    )
