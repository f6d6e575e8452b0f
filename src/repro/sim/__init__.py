"""Discrete-event simulation substrate (the stand-in for the paper's testbed).

The optimizer predicts *expected* latencies analytically; the simulator
replays a solved :class:`~repro.core.plan.JointPlan` against Poisson
arrivals, per-request input difficulties, FIFO compute resources and
fixed-rate links (optionally under a fault schedule), producing measured
latency distributions, deadline-miss rates, and accuracy estimates.  Experiments E4/E5/E11/E14 are
simulator-driven; E14 validates the analytic queueing terms against it.
"""

from repro.sim.engine import Simulator
from repro.sim.entities import RequestRecord
from repro.sim.execution import RealizationTable, TaskRealizer
from repro.sim.metrics import (
    LatencyHistogram,
    SimCounters,
    SimulationReport,
    StreamingStats,
    merge_reports,
)
from repro.sim.queues import FifoResource, LinkResource
from repro.sim.runner import (
    SimulationConfig,
    run_cells,
    run_replications,
    simulate_plan,
)
from repro.sim.sources import PoissonStream, arrival_stream, arrival_times

__all__ = [
    "FifoResource",
    "LatencyHistogram",
    "LinkResource",
    "PoissonStream",
    "RealizationTable",
    "RequestRecord",
    "SimCounters",
    "SimulationConfig",
    "SimulationReport",
    "Simulator",
    "StreamingStats",
    "TaskRealizer",
    "arrival_stream",
    "arrival_times",
    "merge_reports",
    "run_cells",
    "run_replications",
    "simulate_plan",
]
