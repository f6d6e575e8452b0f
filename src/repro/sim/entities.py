"""Simulation entities: the per-request completion record."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RequestRecord:
    """Completion record written by the simulator for one request."""

    task_name: str
    req_id: int
    arrival_s: float
    completion_s: float
    deadline_s: float
    exit_position: int
    offloaded: bool
    correct: bool
    dev_busy_s: float
    srv_busy_s: float
    net_busy_s: float
    #: completed via graceful degradation (local early exit after the edge
    #: became unreachable) rather than along the planned path
    degraded: bool = False

    @property
    def latency_s(self) -> float:
        return self.completion_s - self.arrival_s

    @property
    def met_deadline(self) -> bool:
        return self.completion_s <= self.deadline_s + 1e-12

    @property
    def queueing_s(self) -> float:
        """Time spent waiting (latency minus busy time on all resources)."""
        busy = self.dev_busy_s + self.srv_busy_s + self.net_busy_s
        return max(0.0, self.latency_s - busy)
