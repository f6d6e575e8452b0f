"""The four pipeline workloads.

A workload is a ``setup(seed, size)`` that derives every input from the
seed (cluster, tasks, fault schedule, drift trace) and a ``run(inputs,
rec)`` that drives the public pipeline once::

    build_scenario -> build_candidates -> JointOptimizer.solve
        / OnlineController.observe -> simulate_plan -> evaluate_slos

``rec.phase(name)`` times each public call from outside and
``rec.check(name, ok)`` counts each output check.  The library receives
only the generated inputs; nothing here reaches into its internals.

All workloads use the ``smart_city`` scenario on heterogeneous servers
(``server_spread=8``, 100 Mbps access) at four tasks per server, a regime
where ~99% of deadlines are met.  Why each workload exists is recorded in
``README.md``.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import (
    JointOptimizer,
    JointSolverConfig,
    OnlineController,
    SimulationConfig,
    build_candidates,
    build_scenario,
    simulate_plan,
)
from repro.core.candidates import candidate_cache_stats
from repro.core.online import EnvironmentSample
from repro.core.sharding import AffinityIndex, make_shard_plan
from repro.faults.policy import FailurePolicy
from repro.faults.schedule import sample_fault_schedule
from repro.network.link import Link
from repro.network.topology import StarTopology
from repro.rng import derive, derive_seed
from repro.telemetry.drift import DriftConfig, ShardDriftMonitor
from repro.telemetry.slo import evaluate_slos
from repro.telemetry.windows import WindowConfig
from repro.units import mbps

#: width of the solver's thread pool: the multi-core path is what is measured
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)

#: per-workload input sizes; "smoke" keeps every code path at toy size
SIZES: Dict[str, Dict[str, Dict[str, float]]] = {
    "full": {
        "stream_city": {"tasks": 32, "servers": 8, "requests": 1_000_000},
        "plan_fleet": {"tasks": 1024, "servers": 256, "shards": 32, "horizon_s": 5.0},
        "online_fleet": {"tasks": 128, "servers": 32, "shards": 8, "cycles": 20, "horizon_s": 60.0},
        "chaos_city": {"tasks": 32, "servers": 8, "horizon_s": 120.0},
    },
    "smoke": {
        "stream_city": {"tasks": 8, "servers": 2, "requests": 3_000},
        "plan_fleet": {"tasks": 32, "servers": 8, "shards": 2, "horizon_s": 3.0},
        "online_fleet": {"tasks": 16, "servers": 4, "shards": 2, "cycles": 8, "horizon_s": 10.0},
        "chaos_city": {"tasks": 8, "servers": 2, "horizon_s": 10.0},
    },
}

#: per-task SLO windows of the streaming runs: 10 s windows, 20 ms bins to 2 s
STREAM_WINDOWS = WindowConfig(window_s=10.0, bin_s=0.02, max_s=2.0)

# online_fleet drift trace: 16-tick cycles.  One shard's service times step
# at SHIFT_AT; its arrival rates step `window - 1` ticks later, the first
# tick at which the drift monitor's recent window holds only shifted
# samples (so the shard is flagged whatever the seed) and the re-plan
# trigger fires.  A cycle of 16 ticks leaves the monitor the two full
# windows it needs after each re-solve resets the shard's streams.
CYCLE = 16
SHIFT_AT = 8
FADE_AT = 2  # global bandwidth fade / restore, when no shard is flagged

# chaos_city replays one fixed fault schedule whatever the seed: which
# servers crash, and for how long, sets its outcome.  Drawn per seed, the
# schedule alone moved deadline_met between 0.78 and 0.99 and p99 between
# 0.24 s and 66 s over seeds 0-9, wider than any regression bound.
FAULT_SEED = derive_seed(0, "faults")


def _city(tasks: int, servers: int, seed: int):
    return build_scenario(
        "smart_city",
        num_tasks=int(tasks),
        num_servers=int(servers),
        server_spread=8.0,
        access_mbps=100.0,
        seed=derive_seed(seed, "scenario"),
    )


@dataclass
class Outcome:
    """What one pass produced, for the metrics and the output checks."""

    plan_phases: Tuple[str, ...]  # phases summed into core.plan_s
    sim_phase: str  # the headline simulation's phase
    plan: object  # the final JointPlan
    sim: object  # the headline SimulationReport (windowed)
    slo: object  # SLOReport over the headline run
    solve: object = None  # the JointResult, where the harness holds one
    #: per-layer probe run after the timed section of a traced pass
    probe: Optional[Callable[[], Dict[str, float]]] = None
    layers: Dict[str, float] = field(default_factory=dict)
    fingerprint: Dict[str, object] = field(default_factory=dict)


def plan_digest(plan) -> str:
    """Hash of a plan's assignment, surgery and shares."""
    h = hashlib.sha256()
    for name in sorted(plan.assignment):
        f = plan.features[name]
        h.update(
            f"{name}:{plan.assignment[name]}:{f.plan}:"
            f"{plan.compute_shares[name]!r}:{plan.bandwidth_shares[name]!r}".encode()
        )
    return h.hexdigest()


def _candidates(tasks, rec) -> list:
    before = candidate_cache_stats()
    with rec.phase("candidates"):
        cands = [build_candidates(t) for t in tasks]
    after = candidate_cache_stats()
    hits, misses = after.hits - before.hits, after.misses - before.misses
    rec.layers["core.candidates.count"] = float(sum(len(c) for c in cands))
    rec.layers["core.candidates.cache_hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    return cands


def _sim_checks(name: str, report, rec) -> None:
    c = report.counters
    rec.check(f"{name}.conserved", c.conserved())
    rec.check(f"{name}.nonempty", c.records > 0)


def _slo(report, rec):
    with rec.phase("slo"):
        return evaluate_slos(report.windowed)


# -- stream_city --------------------------------------------------------------


def setup_stream_city(seed: int, size: Dict[str, float]) -> dict:
    cluster, tasks = _city(size["tasks"], size["servers"], seed)
    warmup = 2.0
    horizon = warmup + size["requests"] / sum(t.arrival_rate for t in tasks)
    return {
        "cluster": cluster,
        "tasks": tasks,
        "solver_seed": derive_seed(seed, "solver"),
        "sim": SimulationConfig(
            horizon_s=horizon,
            warmup_s=warmup,
            seed=derive_seed(seed, "sim"),
            streaming=True,
            windows=STREAM_WINDOWS,
        ),
    }


def _solve(inp, cands, config, rec):
    with rec.phase("solve"):
        return JointOptimizer(inp["cluster"], config=config).solve(
            inp["tasks"], candidates=cands, seed=inp["solver_seed"]
        )


def run_stream_city(inp: dict, rec) -> Outcome:
    cands = _candidates(inp["tasks"], rec)
    result = _solve(inp, cands, JointSolverConfig(restart_workers=NPROC), rec)
    with rec.phase("simulate"):
        report = simulate_plan(inp["tasks"], result.plan, inp["cluster"], inp["sim"])
    _sim_checks("sim", report, rec)
    slo = _slo(report, rec)
    return Outcome(("candidates", "solve"), "simulate", result.plan, report, slo, result)


# -- plan_fleet ---------------------------------------------------------------


def setup_plan_fleet(seed: int, size: Dict[str, float]) -> dict:
    cluster, tasks = _city(size["tasks"], size["servers"], seed)
    return {
        "cluster": cluster,
        "tasks": tasks,
        "shards": int(size["shards"]),
        "solver_seed": derive_seed(seed, "solver"),
        # default histograms and windows: the per-task memory cost is part
        # of what this workload measures
        "sim": SimulationConfig(
            horizon_s=size["horizon_s"],
            warmup_s=size["horizon_s"] / 5,
            seed=derive_seed(seed, "sim"),
            streaming=True,
            windows=WindowConfig(),
        ),
    }


def run_plan_fleet(inp: dict, rec) -> Outcome:
    cands = _candidates(inp["tasks"], rec)
    config = JointSolverConfig(
        shards=inp["shards"],
        shard_by="interleave",
        migration_rounds=3,
        local_search=False,
        refine_thresholds=False,
        restart_workers=NPROC,
    )
    result = _solve(inp, cands, config, rec)
    rec.check("solve.shards", len(result.shard_stats) == inp["shards"])
    with rec.phase("simulate"):
        report = simulate_plan(inp["tasks"], result.plan, inp["cluster"], inp["sim"])
    _sim_checks("sim", report, rec)
    slo = _slo(report, rec)
    out = Outcome(("candidates", "solve"), "simulate", result.plan, report, slo, result)
    out.fingerprint["migrations"] = list(result.migration_history)
    # the solve builds its own index; count templates on a second one, off
    # the clock
    out.probe = lambda: {
        "core.sharding.templates": float(
            AffinityIndex(inp["tasks"], cands, inp["cluster"], mode="sparse").bounds.shape[0]
        )
    }
    return out


# -- online_fleet -------------------------------------------------------------


def _drift_events(cycles: int, shards: int) -> List[Tuple[int, str, Optional[int], float]]:
    """``(tick, kind, shard, value)`` steps of the online_fleet trace.

    Cycle ``c`` drifts shard ``(c // 2) % shards``: up (service x1.6, rates
    x1.5) on even cycles, back down on odd ones.  One global bandwidth fade
    to 0.6x and its restore (``value`` is the level) force two full
    re-plans.
    """
    rate_at = SHIFT_AT + DriftConfig().window - 1
    events: List[Tuple[int, str, Optional[int], float]] = []
    for c in range(cycles):
        shard = (c // 2) % shards
        up = c % 2 == 0
        events.append((c * CYCLE + SHIFT_AT, "service", shard, 1.6 if up else 1 / 1.6))
        events.append((c * CYCLE + rate_at, "rate", shard, 1.5 if up else 1 / 1.5))
    events.append(((cycles // 4) * CYCLE + FADE_AT, "bandwidth", None, 0.6))
    events.append(((3 * cycles // 4) * CYCLE + FADE_AT, "bandwidth", None, 1.0))
    return sorted(events, key=lambda e: e[0])


def setup_online_fleet(seed: int, size: Dict[str, float]) -> dict:
    cluster, tasks = _city(size["tasks"], size["servers"], seed)
    n = len(tasks)
    # one access link per device, a quarter of them at each of four speeds
    # (no plan meets a 200 ms deadline over 25 Mbps): every task is its own
    # affinity template, defeating template compression
    speeds = derive(seed, "links").permutation(np.resize([75.0, 100.0, 150.0, 200.0], n))
    topo = cluster.topology
    rtt = topo.link(topo.device_names[0], topo.server_names[0]).rtt_s
    links = {}
    for d, bw in zip(topo.device_names, speeds):
        link = Link(mbps(float(bw)), rtt_s=rtt)
        for s in topo.server_names:
            links[(d, s)] = link
    cluster = cluster.with_topology(
        StarTopology(list(topo.device_names), list(topo.server_names), links)
    )
    cycles = int(size["cycles"])
    ticks = cycles * CYCLE
    rng = derive(seed, "trace")
    return {
        "cluster": cluster,
        "tasks": tasks,
        "shards": int(size["shards"]),
        "cycles": cycles,
        "solver_seed": derive_seed(seed, "solver"),
        "events": _drift_events(cycles, int(size["shards"])),
        "svc_base": np.array([t.deadline_s for t in tasks]) * rng.uniform(0.3, 0.6, n),
        "svc_noise": np.exp(rng.normal(0.0, 0.02, (ticks, n))),
        "rate_noise": np.exp(rng.normal(0.0, 0.01, (ticks, n))),
        "sim": SimulationConfig(
            horizon_s=size["horizon_s"],
            warmup_s=2.0,
            seed=derive_seed(seed, "sim"),
            streaming=True,
            windows=STREAM_WINDOWS,
        ),
    }


def drift_samples(inp: dict, task_shard: Sequence[int]) -> List[EnvironmentSample]:
    """Materialize the trace against the solver's task -> shard homing."""
    tasks = inp["tasks"]
    n = len(tasks)
    members: Dict[int, List[int]] = {}
    for i, s in enumerate(task_shard):
        members.setdefault(s, []).append(i)
    base_bw = {k: l.bandwidth_bps for k, l in inp["cluster"].topology.links.items()}
    svc, rate = np.ones(n), np.ones(n)
    steps: Dict[int, list] = {}
    for tick, kind, shard, value in inp["events"]:
        steps.setdefault(tick, []).append((kind, shard, value))
    samples = []
    for tick in range(inp["svc_noise"].shape[0]):
        bandwidth = {}
        for kind, shard, value in steps.get(tick, ()):
            if kind == "service":
                svc[members.get(shard, [])] *= value
            elif kind == "rate":
                rate[members.get(shard, [])] *= value
            else:
                bandwidth = {k: bw * value for k, bw in base_bw.items()}
        svc_t = inp["svc_base"] * svc * inp["svc_noise"][tick]
        rate_t = rate * inp["rate_noise"][tick]
        samples.append(
            EnvironmentSample(
                time_s=float(tick),
                bandwidth_bps=bandwidth,
                arrival_rates={t.name: t.arrival_rate * float(rate_t[i]) for i, t in enumerate(tasks)},
                service_times_s={t.name: float(svc_t[i]) for i, t in enumerate(tasks)},
            )
        )
    return samples


def run_online_fleet(inp: dict, rec) -> Outcome:
    tasks, cluster, k = inp["tasks"], inp["cluster"], inp["shards"]
    cands = _candidates(tasks, rec)
    config = JointSolverConfig(
        shards=k,
        shard_by="interleave",
        local_search=False,
        refine_thresholds=False,
        restart_workers=NPROC,
    )
    with rec.phase("homing"):
        index = AffinityIndex(tasks, cands, cluster, mode="sparse")
        shard_plan = make_shard_plan(tasks, cands, cluster, k, "interleave", affinity=index)
    with rec.phase("online_init"):
        ctl = OnlineController(
            cluster,
            tasks,
            solver_config=config,
            candidates=cands,
            seed=inp["solver_seed"],
            drift=DriftConfig(),
            shard_plan=shard_plan,
        )
    with rec.phase("samples"):
        samples = drift_samples(inp, shard_plan.task_shard)
    kinds = []
    replan_ms: Dict[str, List[float]] = {"incremental": [], "full": []}
    tick_ms: List[float] = []
    for sample in samples:
        with rec.phase("observe") as timer:
            fired = ctl.observe(sample)
        if fired:
            kind = "incremental" if ctl.events[-1].reason.startswith("incremental") else "full"
            kinds.append(kind)
            replan_ms[kind].append(timer.elapsed_s * 1e3)
        else:
            tick_ms.append(timer.elapsed_s * 1e3)
    replans = len(kinds)
    rec.check("online.replans", replans >= inp["cycles"])
    rec.check("online.incremental_share", 4 * len(replan_ms["incremental"]) >= 3 * replans)
    with rec.phase("simulate"):
        report = simulate_plan(ctl.current_tasks(), ctl.plan, ctl.current_cluster(), inp["sim"])
    _sim_checks("sim", report, rec)
    slo = _slo(report, rec)
    out = Outcome(("candidates", "homing", "online_init"), "simulate", ctl.plan, report, slo)
    all_replans = replan_ms["incremental"] + replan_ms["full"]
    out.layers.update(
        {
            "core.online.init_s": rec.phases["online_init"],
            "core.online.observe_s": rec.phases["observe"],
            "core.online.incremental_replans": float(len(replan_ms["incremental"])),
            "core.online.full_replans": float(len(replan_ms["full"])),
            "core.online.replan_ms_p50": _p50(all_replans),
            "core.online.incremental_ms_p50": _p50(replan_ms["incremental"]),
            "core.online.full_ms_p50": _p50(replan_ms["full"]),
            "core.online.tick_ms_p50": _p50(tick_ms),
            "core.online.tick_ms_p95": float(np.percentile(tick_ms, 95)) if tick_ms else 0.0,
            "core.sharding.templates": float(index.bounds.shape[0]),
        }
    )
    out.fingerprint["replan_kinds"] = "".join(k[0] for k in kinds)
    out.fingerprint["shard_plan"] = list(shard_plan.task_shard)
    out.probe = lambda: drift_replay(samples, shard_plan.task_shard, inp)
    return out


def _p50(values: Sequence[float]) -> float:
    return float(np.median(values)) if len(values) else 0.0


def drift_replay(samples, task_shard, inp: dict) -> Dict[str, float]:
    """Standalone drift-monitor replay of the trace, timed per tick.

    The same samples the controller saw, fed to a fresh
    :class:`ShardDriftMonitor` on the same homing, without re-plans or
    stream resets.
    """
    names = [t.name for t in inp["tasks"]]
    monitor = ShardDriftMonitor(dict(zip(names, task_shard)), DriftConfig(), seed=inp["solver_seed"])
    per_tick = []
    for sample in samples:
        t0 = time.perf_counter()
        for name, rate in sample.arrival_rates.items():
            monitor.observe(name, arrival_rate=rate)
        for name, svc in sample.service_times_s.items():
            monitor.observe(name, service_time_s=svc)
        monitor.drifted_shards()
        per_tick.append((time.perf_counter() - t0) * 1e3)
    return {
        "telemetry.drift.replay_ms_p50": _p50(per_tick),
        "telemetry.drift.replay_ms_p95": float(np.percentile(per_tick, 95)),
    }


# -- chaos_city ---------------------------------------------------------------


def setup_chaos_city(seed: int, size: Dict[str, float]) -> dict:
    cluster, tasks = _city(size["tasks"], size["servers"], seed)
    horizon = size["horizon_s"]
    sim_seed = derive_seed(seed, "sim")
    schedule = sample_fault_schedule(
        FAULT_SEED,
        horizon,
        [s.name for s in cluster.servers],
        [t.name for t in tasks],
        crash_rate_per_min=1.0,
        mean_down_s=5.0,
        loss_prob=0.01,
    )
    return {
        "cluster": cluster,
        "tasks": tasks,
        "solver_seed": derive_seed(seed, "solver"),
        "oneshot": SimulationConfig(horizon_s=horizon, seed=sim_seed),
        "faults": SimulationConfig(
            horizon_s=horizon,
            seed=sim_seed,
            faults=schedule,
            failure_policy=FailurePolicy(stage_timeout_s=0.5, max_retries=2),
            windows=WindowConfig(),
        ),
    }


def run_chaos_city(inp: dict, rec) -> Outcome:
    tasks, cluster = inp["tasks"], inp["cluster"]
    cands = _candidates(tasks, rec)
    result = _solve(inp, cands, JointSolverConfig(restart_workers=NPROC), rec)
    with rec.phase("oneshot"):
        oneshot = simulate_plan(tasks, result.plan, cluster, inp["oneshot"])
    _sim_checks("oneshot", oneshot, rec)
    with rec.phase("faults"):
        report = simulate_plan(tasks, result.plan, cluster, inp["faults"])
    _sim_checks("faults", report, rec)
    c = report.counters
    rec.check("faults.injected", c.faults_injected == len(inp["faults"].faults))
    slo = _slo(report, rec)
    out = Outcome(("candidates", "solve"), "faults", result.plan, report, slo, result)
    out.layers.update(
        {
            "sim.oneshot_s": rec.phases["oneshot"],
            "faults.simulate_s": rec.phases["faults"],
            "faults.events": float(c.events),
            "faults.failovers": float(c.failovers),
            "faults.retries": float(c.retries),
            "faults.lost_frac": c.lost / c.requests,
        }
    )
    out.fingerprint["oneshot_counters"] = oneshot.counters.as_dict()
    out.fingerprint["oneshot_p99"] = repr(oneshot.percentile_latency_s(99))
    return out


WORKLOADS: Dict[str, Tuple[Callable, Callable]] = {
    "stream_city": (setup_stream_city, run_stream_city),
    "plan_fleet": (setup_plan_fleet, run_plan_fleet),
    "online_fleet": (setup_online_fleet, run_online_fleet),
    "chaos_city": (setup_chaos_city, run_chaos_city),
}
