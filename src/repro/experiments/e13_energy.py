"""E13 (figure): device energy per inference vs latency across strategies.

Energy is the end device's battery cost per request, decomposed into local
compute, radio transmission, and idle waiting (see
:class:`~repro.devices.energy.EnergyModel`).  Both axes are *per-request*
quantities (no queueing): the figure isolates the energy/latency tradeoff of
the plans themselves, so strategies whose queues would be unstable at the
offered load still appear (their latency axis is the per-request service
time a single inference would see).

Expected shape: device-only burns the most energy (all compute local); full
offload trades compute joules for radio + waiting joules; joint plans sit on
the knee — less energy *and* less latency than either extreme in
bandwidth-reasonable regimes.  The default scenario uses capable end devices
(``mobile_ar``) where local execution is a live option and the knee is
visible.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.allocation import Allocation, solution_latencies
from repro.core.candidates import build_candidates
from repro.devices.energy import EnergyModel
from repro.experiments.common import ExperimentResult, default_strategies, run_strategies
from repro.workloads.scenarios import build_scenario


def run(
    scenario: str = "mobile_ar",
    num_tasks: int = 6,
    seed: int = 0,
) -> ExperimentResult:
    """Analytic per-request device energy for every strategy's plan."""
    cluster, tasks = build_scenario(scenario, num_tasks=num_tasks, seed=seed)
    cands = [build_candidates(t) for t in tasks]
    plans = run_strategies(tasks, cluster, default_strategies(), candidates=cands, seed=seed)

    em = EnergyModel()
    rows = []
    extras: Dict[str, Dict[str, float]] = {}
    for name, plan in sorted(plans.items()):
        dev_j, tx_j, idle_j, lat_sum = 0.0, 0.0, 0.0, 0.0
        for i, t in enumerate(tasks):
            f = plan.features[t.name]
            device = cluster.by_name(t.device_name)
            compute_s = f.dev_flops / device.blended_flops
            s = plan.assignment[t.name]
            if s is None:
                tx_s, wait_s = 0.0, 0.0
            else:
                server = cluster.servers[s]
                link = cluster.link(t.device_name, server.name)
                y = plan.bandwidth_shares[t.name]
                x = plan.compute_shares[t.name]
                tx_s = f.wire_bytes / (link.bandwidth_bps * y)
                wait_s = f.srv_flops / (server.blended_flops * x) + f.p_offload * link.rtt_s
            e = em.device_energy(device, compute_s, tx_s, wait_s)
            dev_j += e.compute_j
            tx_j += e.tx_j
            idle_j += e.idle_wait_j
            lat_sum += compute_s + tx_s + wait_s
        n = len(tasks)
        total_mj = (dev_j + tx_j + idle_j) / n * 1e3
        extras[name] = {
            "compute_mj": dev_j / n * 1e3,
            "tx_mj": tx_j / n * 1e3,
            "idle_mj": idle_j / n * 1e3,
            "latency": lat_sum / n,
        }
        rows.append(
            (
                name,
                lat_sum / n * 1e3,
                dev_j / n * 1e3,
                tx_j / n * 1e3,
                idle_j / n * 1e3,
                total_mj,
            )
        )
    return ExperimentResult(
        exp_id="E13",
        title=f"device energy per inference vs per-request latency ({scenario})",
        headers=["strategy", "latency_ms", "compute_mJ", "radio_mJ", "idle_mJ", "total_mJ"],
        rows=rows,
        notes=[
            "joint plans cut both axes vs device-only (less local compute) and "
            "vs full offload (less airtime + waiting)"
        ],
        extras={"energy": extras},
    )
