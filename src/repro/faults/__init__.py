"""Failure-aware edge runtime: fault windows and recovery policies.

Deterministic, seed-derived fault schedules (:mod:`repro.faults.schedule`)
become per-resource windows that the simulator's resources apply
themselves; the failure-aware runtime (:mod:`repro.faults.runtime`), the
simulator's one event loop, detects failed offload stages and walks the
:class:`FailurePolicy` recovery ladder — timeout, backoff retry, failover
to a standby server slice, graceful degradation to the best on-device exit.
Entirely opt-in: with ``SimulationConfig.faults`` unset the schedule is
empty, and fixed-seed outputs are bit-identical to the vectorized sweep.
"""

from repro.faults.policy import FailurePolicy, PlanUpdate
from repro.faults.runtime import simulate_with_faults
from repro.faults.schedule import (
    FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
    resource_windows,
    sample_fault_schedule,
)

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "FailurePolicy",
    "PlanUpdate",
    "resource_windows",
    "sample_fault_schedule",
    "simulate_with_faults",
]
