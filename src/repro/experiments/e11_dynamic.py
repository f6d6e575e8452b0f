"""E11 (figure): behaviour under time-varying bandwidth, with and without
re-optimization.

The access bandwidth follows a fade profile — nominal, degraded, deep-fade,
recovering — scaled from the scenario's nominal rate.  Each window is
simulated over its own cluster at that window's fixed bandwidth (a
deterministic profile keeps the figure reproducible).  Two policies are
compared window by window:

- **static** — the plan solved once for the nominal bandwidth;
- **adaptive** — re-solved at the start of every window for that window's
  bandwidth (candidate sets are reused; only the solve repeats, which E9
  shows is sub-second).

Expected shape: indistinguishable in good windows; in the deep fade the
static plan's offloading stalls on the thin uplink while the adaptive plan
retreats to earlier exits / local execution, cutting both the latency spike
and the miss rate.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.candidates import build_candidates
from repro.core.joint import JointOptimizer
from repro.devices.cluster import EdgeCluster
from repro.experiments.common import ExperimentResult, simulate_measured
from repro.network.link import Link
from repro.network.topology import StarTopology
from repro.sim import SimulationConfig
from repro.units import mbps, to_mbps
from repro.workloads.scenarios import build_scenario

#: Fade profile: per-window multiplier on the nominal bandwidth.
DEFAULT_PROFILE = (1.0, 0.5, 0.08, 0.04, 0.5, 1.0)


def _with_bandwidth(cluster: EdgeCluster, bw_bps: float) -> EdgeCluster:
    topo = cluster.topology
    links = {
        k: Link(bw_bps, rtt_s=l.rtt_s, name=l.name) for k, l in topo.links.items()
    }
    return cluster.with_topology(
        StarTopology(list(topo.device_names), list(topo.server_names), links)
    )


def run(
    scenario: str = "smart_city",
    num_tasks: int = 6,
    profile: Sequence[float] = DEFAULT_PROFILE,
    window_s: float = 10.0,
    nominal_mbps: float = 40.0,
    seed: int = 0,
    replications: int = 1,
    sim_workers: int = 1,
) -> ExperimentResult:
    """Window-by-window static vs adaptive comparison under a fade profile."""
    cluster, tasks = build_scenario(scenario, num_tasks=num_tasks, seed=seed)
    cands = [build_candidates(t) for t in tasks]

    static_cluster = _with_bandwidth(cluster, mbps(nominal_mbps))
    static_plan = (
        JointOptimizer(static_cluster).solve(tasks, candidates=cands, seed=seed).plan
    )

    rows: List[tuple] = []
    series: Dict[str, List[float]] = {"static": [], "adaptive": [], "bw": []}
    for w, factor in enumerate(profile):
        bw = mbps(nominal_mbps * factor)
        series["bw"].append(to_mbps(bw))
        win_cluster = _with_bandwidth(cluster, bw)
        adaptive_plan = (
            JointOptimizer(win_cluster).solve(tasks, candidates=cands, seed=seed).plan
        )
        cfg = SimulationConfig(
            horizon_s=window_s, warmup_s=0.0, seed=seed + w,
            replications=replications, sim_workers=sim_workers,
        )
        rep_static = simulate_measured(tasks, static_plan, win_cluster, cfg)
        rep_adapt = simulate_measured(tasks, adaptive_plan, win_cluster, cfg)
        series["static"].append(rep_static.mean_latency_s)
        series["adaptive"].append(rep_adapt.mean_latency_s)
        rows.append(
            (
                w,
                to_mbps(bw),
                rep_static.mean_latency_s * 1e3,
                rep_static.miss_rate * 100,
                rep_adapt.mean_latency_s * 1e3,
                rep_adapt.miss_rate * 100,
            )
        )
    imp = np.array(series["static"]) / np.array(series["adaptive"])
    return ExperimentResult(
        exp_id="E11",
        title="dynamic bandwidth: static plan vs per-window re-optimization",
        headers=[
            "window",
            "bw_mbps",
            "static_ms",
            "static_miss_%",
            "adaptive_ms",
            "adaptive_miss_%",
        ],
        rows=rows,
        notes=[
            f"re-optimization improves mean latency by up to {imp.max():.2f}x in "
            f"the deep-fade window (median window: {np.median(imp):.2f}x)"
        ],
        extras={"series": series},
    )
