"""Plan sensitivity analysis: what is each task's latency bound by?

Operators of a solved deployment need to know where the next dollar goes:
which tasks speed up if the link is upgraded, which need a faster server,
and which are device-bound and only improve with better surgery.
:func:`plan_sensitivity` answers this by finite-difference elasticities of
each task's *predicted* latency with respect to access bandwidth and
assigned-server speed, holding the plan and shares fixed (the question is
about the current operating point, not about re-optimization — the online
controller handles that).

Elasticity is ``(%Δ latency) / (%Δ resource)``; for a task whose latency is
pure serialization time it approaches −1 for bandwidth, for a pure
server-compute task −1 for server speed, and 0 for resources it doesn't use.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.allocation import Allocation, solution_latencies
from repro.core.candidates import CandidateSet
from repro.core.plan import JointPlan, TaskSpec
from repro.devices.cluster import EdgeCluster
from repro.errors import ConfigError
from repro.network.link import Link
from repro.network.topology import StarTopology


@dataclass(frozen=True)
class TaskSensitivity:
    """Elasticities of one task's predicted latency at the operating point."""

    task_name: str
    latency_s: float
    bandwidth_elasticity: float  # d%lat / d%bw (<= 0)
    server_elasticity: float  # d%lat / d%server-speed (<= 0)

    @property
    def dominant_resource(self) -> str:
        """Which upgrade helps most: 'bandwidth', 'server', or 'device'."""
        b, s = abs(self.bandwidth_elasticity), abs(self.server_elasticity)
        if max(b, s) < 0.05:
            return "device"
        return "bandwidth" if b >= s else "server"


def _plan_state(tasks: Sequence[TaskSpec], plan: JointPlan):
    """Freeze a JointPlan into (candsets, idx, allocation) for evaluation."""
    candsets = [CandidateSet(t, [plan.features[t.name]]) for t in tasks]
    idx = [0] * len(tasks)
    alloc = Allocation(
        [plan.assignment[t.name] for t in tasks],
        np.array([plan.compute_shares[t.name] for t in tasks]),
        np.array([plan.bandwidth_shares[t.name] for t in tasks]),
    )
    return candsets, idx, alloc


def _scaled_cluster(
    cluster: EdgeCluster, bw_factor: float = 1.0, server_factor: float = 1.0
) -> EdgeCluster:
    servers = [
        dataclasses.replace(s, peak_flops=s.peak_flops * server_factor)
        for s in cluster.servers
    ]
    topo = cluster.topology
    links = {
        k: Link(l.bandwidth_bps * bw_factor, rtt_s=l.rtt_s, name=l.name)
        for k, l in topo.links.items()
    }
    return EdgeCluster(
        list(cluster.end_devices),
        servers,
        StarTopology(list(topo.device_names), list(topo.server_names), links),
    )


def plan_sensitivity(
    tasks: Sequence[TaskSpec],
    plan: JointPlan,
    cluster: EdgeCluster,
    perturbation: float = 0.05,
    include_queueing: bool = True,
) -> List[TaskSensitivity]:
    """Finite-difference elasticities of every task's predicted latency.

    ``perturbation`` is the relative resource change used for the central
    difference (default ±5%).
    """
    if not (0.0 < perturbation < 0.5):
        raise ConfigError(f"perturbation must be in (0, 0.5), got {perturbation}")
    for t in tasks:
        if t.name not in plan.features:
            raise ConfigError(f"plan has no entry for task {t.name!r}")
    candsets, idx, alloc = _plan_state(tasks, plan)

    def latencies(bw_factor: float = 1.0, server_factor: float = 1.0) -> np.ndarray:
        scaled = _scaled_cluster(cluster, bw_factor, server_factor)
        return solution_latencies(
            tasks, candsets, idx, alloc, scaled,
            include_queueing=include_queueing, overload="penalty",
        )

    base = latencies()
    eps = perturbation
    d_bw = (latencies(bw_factor=1 + eps) - latencies(bw_factor=1 - eps)) / (2 * eps)
    d_srv = (latencies(server_factor=1 + eps) - latencies(server_factor=1 - eps)) / (
        2 * eps
    )
    out: List[TaskSensitivity] = []
    for i, t in enumerate(tasks):
        lat = float(base[i])
        out.append(
            TaskSensitivity(
                task_name=t.name,
                latency_s=lat,
                bandwidth_elasticity=float(d_bw[i] / lat) if lat > 0 else 0.0,
                server_elasticity=float(d_srv[i] / lat) if lat > 0 else 0.0,
            )
        )
    return out


def sensitivity_table(sensitivities: Sequence[TaskSensitivity]) -> str:
    """Render sensitivities as the ASCII table operators read."""
    from repro.analysis.tables import format_table

    return format_table(
        ["task", "latency_ms", "bw_elasticity", "srv_elasticity", "bound_by"],
        [
            (
                s.task_name,
                s.latency_s * 1e3,
                s.bandwidth_elasticity,
                s.server_elasticity,
                s.dominant_resource,
            )
            for s in sensitivities
        ],
        title="latency sensitivity at the current operating point",
    )
