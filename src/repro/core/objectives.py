"""Optimization objectives over per-task expected latencies.

All objectives are *minimized*.  Deadline satisfaction is reported as a miss
fraction so that lower is uniformly better; analysis code converts back to
satisfaction ratios for tables.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Sequence

import numpy as np

from repro.core.plan import TaskSpec
from repro.errors import ConfigError


class Objective(str, Enum):
    """Supported joint-optimization objectives."""

    #: weight-and-rate-weighted mean expected latency
    AVG_LATENCY = "avg_latency"
    #: worst task latency (min-max fairness)
    MAX_LATENCY = "max_latency"
    #: fraction of tasks whose expected latency exceeds their deadline,
    #: tie-broken by normalized latency so gradients exist below 100%
    DEADLINE_MISS = "deadline_miss"

    def evaluate(self, latencies: np.ndarray, tasks: Sequence[TaskSpec]) -> float:
        """Scalar objective value; ``inf`` propagates from infeasible tasks."""
        lat = np.asarray(latencies, dtype=float)
        if len(tasks) != 0 and lat.shape != (len(tasks),):
            raise ConfigError(
                f"latencies shape {lat.shape} != number of tasks {len(tasks)}"
            )
        return self.evaluator(tasks)(lat)

    def evaluator(self, tasks: Sequence[TaskSpec]) -> Callable[[np.ndarray], float]:
        """:meth:`evaluate` over ``tasks`` with its per-task arrays built once.

        The returned function maps a float latency vector (one entry per task,
        unchecked) to the same float :meth:`evaluate` returns; searches that
        score many trial vectors over one task list call it in their loops.
        """
        if len(tasks) == 0:
            raise ConfigError("cannot evaluate an objective over zero tasks")
        if self is Objective.AVG_LATENCY:
            w = np.array([t.weight for t in tasks])
            w_sum = w.sum()

            def value(lat: np.ndarray) -> float:
                return float(np.dot(w, lat) / w_sum)

        elif self is Objective.MAX_LATENCY:

            def value(lat: np.ndarray) -> float:
                return float(lat.max())

        elif self is Objective.DEADLINE_MISS:
            deadlines = np.array([t.deadline_s for t in tasks])

            def value(lat: np.ndarray) -> float:
                norm = lat / deadlines
                miss = float(np.mean(norm > 1.0))
                # secondary term keeps the objective informative when all/none
                # miss; scaled << 1 so it never outweighs one missed deadline
                return miss + 1e-3 * float(np.mean(np.minimum(norm, 10.0)))

        else:  # pragma: no cover
            raise ConfigError(f"unhandled objective {self}")

        def evaluate(lat: np.ndarray) -> float:
            if np.any(np.isinf(lat)):
                return float("inf")
            return value(lat)

        return evaluate

    def task_weight(self, task: TaskSpec) -> float:
        """Per-task weight used by the closed-form share allocation.

        For deadline objectives, urgency (1/deadline) multiplies the task's
        own weight so tight-deadline tasks receive larger shares.
        """
        if self is Objective.DEADLINE_MISS:
            return task.weight / task.deadline_s
        return task.weight
