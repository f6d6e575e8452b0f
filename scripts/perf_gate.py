#!/usr/bin/env python
"""Perf and contract gate for the solver, the simulator and the control plane.

Each suite is one entry of :data:`SUITES`: a checked-in baseline under
``benchmarks/baselines/``, a measure function and its contract rows (the
``*_rows`` functions; every run prints each row's label, value and bound).
A missing baseline key fails its row.  ``--update`` rewrites the baseline
and refuses while an identity (``holds``) row fails; ``--check-overhead``
gates only the suite's overhead key within ``--overhead`` of a baseline
refreshed on the same machine; ``--artifacts-dir`` writes
``{suite}_measure.json`` headed by ``nproc``, git sha and Python version.
A check run writes nothing under ``benchmarks/``.  Usage:

    PYTHONPATH=src python scripts/perf_gate.py [--suite solver|sim|stream|shard|obs|risk]
    PYTHONPATH=src python scripts/perf_gate.py --suite sim --update
    PYTHONPATH=src python scripts/perf_gate.py --suite sim --check-overhead --overhead 0.02

Exit code 0 = every contract holds, 1 = a contract failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import numbers
import os
import platform
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from repro.analysis.tables import format_table
from repro.core.candidates import build_candidates
from repro.core.coordinator import resolve_dirty, solve_sharded
from repro.core.joint import JointOptimizer, JointSolverConfig
from repro.core.risk import RiskConfig
from repro.experiments import e09_scalability, e18_risk
from repro.faults import FaultSchedule
from repro.sim import SimulationConfig
from repro.sim.runner import run_cells, simulate_plan
from repro.telemetry import (
    MetricsStreamWriter,
    WindowConfig,
    evaluate_slos,
    export_openmetrics,
    openmetrics_text,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import get_tracer, phase_breakdown
from repro.workloads.scenarios import build_scenario

ROOT = Path(__file__).resolve().parent.parent
BASELINES = ROOT / "benchmarks" / "baselines"

#: Deterministic solver counters, gated at ``--factor`` × baseline.
GATED_COUNTERS = ("allocate_calls", "allocate_group_solves", "latency_evals")
#: The other ``solver.*`` metrics gated the same way (the baseline's remaining
#: metrics are zero, and a ratio against zero bounds nothing).
GATED_METRICS = ("candidate_evals", "restarts")
#: Deterministic simulator counters, gated by **exact** equality: every sim
#: workload is fully seeded, so any drift means the simulation changed.
SIM_GATED_COUNTERS = ("requests", "records", "discarded_warmup", "events")

#: Ceiling on the candidate pipeline's retained ``tracemalloc`` bytes over
#: smart_city's three templates, as a multiple of the baseline.  The bytes
#: repeat within 0.1% run to run; a pipeline that keeps one object per raw
#: candidate reads ~2.6× the columnar one.
CANDIDATE_MEMORY_FACTOR = 1.25

#: Ceiling on the sim suite's fault-free event-loop run's ``tracemalloc``
#: peak bytes, as a multiple of the baseline.  The peak repeats run to run
#: once the workload is warm; a loop that pre-schedules one heap event per
#: arrival reads ~1.5× the fed one.
EVENT_MEMORY_FACTOR = 1.25

#: Ceiling on the stream suite's multi-window streaming run's ``tracemalloc``
#: peak bytes, as a multiple of the baseline.  The peak repeats run to run;
#: arrival refills of 8192 gaps pinned behind each stream's leftover read
#: ~1.9× the window-sized, owned ones.
WINDOW_MEMORY_FACTOR = 1.25
#: The multi-window streaming run: the sim workload over 1000 s in
#: 4096-request realization windows (~256 arrivals per task each), with
#: 10 s SLO windows.
WINDOW_RUN = dict(horizon_s=1000.0, chunk_size=4096)
WINDOW_LAYOUT = WindowConfig(window_s=10.0, bin_s=2e-2)

#: Offered load of the 1M-request probes (the horizon is derived from it).
STREAM_TARGET_REQUESTS = 1_000_000
#: Traffic cells of the stream suite's sharded fan-out.
STREAM_CELLS = 4
#: Peak-RSS ceiling of the 1M-request probes — the bounded-memory contract
#: (a record-backed run of the same traffic needs ~6× more).
RSS_CEILING_KB = 512 * 1024
#: Floor on record-backed ÷ streaming 1M peak RSS: what streaming still buys
#: once records are columns.  Ten probe pairs of one tree on a 2-vCPU VM read
#: 5.97–6.07× (record-backed 319–323 MiB, streaming 53.2–53.6 MiB); a
#: streaming sink that keeps every chunk reads 1.75×.
MIN_RSS_RATIO = 4.0
#: Ceiling on the monitored / plain 1M-request wall ratio.
MAX_MONITOR_OVERHEAD = 1.15
#: Ceiling on the sharded solve's objective regression vs centralized, in %.
MAX_REGRESSION_PCT = 5.0
#: Floor on the 16k full sharded solve / one-shard ``resolve_dirty`` wall (≈20× measured).
MIN_RESOLVE_SPEEDUP = 10.0

#: Fixed-seed (scenario, tasks, servers, seed) instances of the 1-shard ≡
#: centralized identity sweep.  Small on purpose: identity is a structural
#: property, not a scale one.
SHARD_REFERENCE_INSTANCES = (
    ("smart_city", 6, 2, 0), ("smart_city", 10, 3, 1), ("smart_city", 16, 4, 2),
    ("industrial", 8, 2, 3), ("industrial", 12, 4, 4),
    ("mobile_ar", 8, 3, 5), ("mobile_ar", 14, 4, 6),
)
#: Instances of the risk-off (``buffer="none"``) identity sweep.
RISK_REFERENCE_INSTANCES = (
    ("smart_city", 6, 2, 0), ("industrial", 8, 2, 3), ("mobile_ar", 8, 3, 5),
)
#: Jitter sigma of the cross-engine equivalence check (mean-one log-normal).
RISK_JITTER_SIGMA = 0.2

#: The shard suite's 4k scale instance.  Arrival rates are scaled down so it
#: is queue-stable (finite objectives in both arms); the O(n·m) local search
#: is off at this size in both arms per the E9 precedent, so the comparison
#: isolates the control-plane structure.
SHARD_SCALE_INSTANCE = dict(
    scenario="smart_city", tasks=4096, servers=128, server_spread=4.0, shards=64,
    shard_by="interleave", migration_rounds=3, rate_scale=0.1, seed=0,
)
#: The 16k × 256 control-plane instance: 256 single-server shards maximize
#: the cross-shard candidates the affinity index must screen, so the
#: coordinator's own overhead (index, homing, stitch, migration) is visible.
SHARD_SCALE_16K = dict(SHARD_SCALE_INSTANCE, tasks=16384, servers=256, shards=256)


def clock(fn: Callable, collect: bool = False) -> Callable:
    """An arm for :func:`rounds`: one call of ``fn`` as ``(wall seconds, result)``;
    ``collect`` first clears garbage that earlier gate stages left behind."""
    def arm():
        if collect:
            gc.collect()
        t0 = perf_counter()
        result = fn()
        return perf_counter() - t0, result

    return arm


def rounds(n: int, *arms: Callable) -> list:
    """Run ``arms`` round-robin ``n`` times: one row of ``(seconds, result)``
    per round, whose arms share machine state (clock scaling, page cache)."""
    return [[arm() for arm in arms] for _ in range(n)]


def best(runs: list, arm: int = 0) -> tuple:
    """Best-of-N: ``(seconds, result)`` of one arm's fastest round.  Scheduler
    noise and cold per-process caches only ever slow a round down."""
    return min((row[arm] for row in runs), key=lambda run: run[0])


def best_pair(runs: list) -> list:
    """The round with the lowest second-arm / first-arm wall ratio: pairing
    cancels the drift that would bias two minima drawn at different moments."""
    return min(runs, key=lambda row: row[1][0] / max(row[0][0], 1e-9))


@dataclass(frozen=True)
class Contract:
    """One gate row over the measurement's ``key`` (a ``/``-separated path).

    ``kind`` is ``"holds"`` (the value is true), ``"exact"`` (it equals the
    baseline's ``base`` key, by default ``key``), ``"max"`` or ``"min"`` (the
    value — divided by the baseline's ``base`` key when one is named — is at
    most / at least ``bound``).
    """
    kind: str
    key: str
    label: str
    bound: Optional[float] = None
    base: Optional[str] = None

    @property
    def baseline_key(self) -> Optional[str]:
        return self.base or (self.key if self.kind == "exact" else None)


def lookup(data: dict, path: str):
    """``data[a][b]`` for ``path == "a/b"``; raises KeyError when absent."""
    for part in path.split("/"):
        data = data[part]
    return data


def verdict(contract: Contract, current: dict, baseline: dict) -> tuple:
    """``(ok, detail)`` of one contract against a measurement and a baseline."""
    try:
        cur = lookup(current, contract.key)
    except KeyError:
        return False, f"measurement has no key {contract.key!r}"
    ref = None
    if contract.baseline_key is not None:
        try:
            ref = lookup(baseline, contract.baseline_key)
        except KeyError:
            return False, f"baseline has no key {contract.baseline_key!r}"
    if contract.kind == "holds":
        return bool(cur), ""
    if contract.kind == "exact":
        show = [v[:16] + "…" if isinstance(v, str) and len(v) > 16 else v for v in (cur, ref)]
        return cur == ref, f"{show[0]} vs baseline {show[1]} (exact)"
    value = cur if ref is None else cur / max(ref, 1e-9)
    ok = value <= contract.bound if contract.kind == "max" else value >= contract.bound
    limit = "ceiling" if contract.kind == "max" else "floor"
    if ref is None:
        return ok, f"{cur:.6g} ({limit} {contract.bound:g})"
    return ok, f"{cur:.6g} vs baseline {ref:.6g} ({value:.3f}x, {limit} {contract.bound:.3g}x)"


def check(contracts: list, current: dict, baseline: dict) -> list:
    """Print one ``OK``/``FAIL`` line per contract; return the failed keys."""
    failures = []
    for contract in contracts:
        ok, detail = verdict(contract, current, baseline)
        print(f"{'OK' if ok else 'FAIL'} {contract.label}" + (f": {detail}" if detail else ""))
        if not ok:
            failures.append(contract.key)
    return failures


def _sim_workload():
    """The fixed simulator workload: smart_city × 16 tasks, 20 s horizon.
    Built fresh each call; everything downstream is seeded."""
    cluster, tasks = build_scenario("smart_city", num_tasks=16, seed=0)
    cands = [build_candidates(t) for t in tasks]
    plan = JointOptimizer(cluster).solve(tasks, candidates=cands, seed=0).plan
    return tasks, plan, cluster, SimulationConfig(horizon_s=20.0, warmup_s=2.0, seed=0)


def _stream_workload():
    """The sim workload stretched to 1M requests."""
    tasks, plan, cluster, cfg = _sim_workload()
    rate = sum(t.arrival_rate for t in tasks)
    return tasks, plan, cluster, replace(cfg, horizon_s=STREAM_TARGET_REQUESTS / rate)


REPORT_FIELDS = ("records", "utilizations", "discarded_warmup", "counters")
PLAN_FIELDS = ("assignment", "features", "latencies", "compute_shares", "bandwidth_shares")


def _equal(a, b, fields) -> bool:
    """Bit-identity of two reports or plans over ``fields``."""
    return all(getattr(a, f) == getattr(b, f) for f in fields)


def _plans_equal(a, b) -> bool:
    return _equal(a, b, PLAN_FIELDS) and a.objective_value == b.objective_value


def _registry_snapshot(counters) -> dict:
    """Publish counters as ``sim.*`` and snapshot — the telemetry export path."""
    registry = MetricsRegistry()
    counters.publish(registry)
    return {name: m["value"] for name, m in registry.snapshot().items()}


def _sim_counters(counters) -> dict:
    snapshot = _registry_snapshot(counters)
    return {name: snapshot[f"sim.{name}"] for name in SIM_GATED_COUNTERS}


def _canon(x):
    """Plain-Python form of plan values (NumPy scalars -> int/float), so a
    digest does not depend on the NumPy scalar ``repr``."""
    if isinstance(x, (bool, str, type(None))):
        return x
    if dataclasses.is_dataclass(x):
        return tuple((f.name, _canon(getattr(x, f.name))) for f in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return tuple(_canon(v) for v in x)
    if isinstance(x, numbers.Integral):
        return int(x)
    if isinstance(x, numbers.Real):
        return float(x)
    return x


def solve_digest(result) -> str:
    """sha256 over a sharded result's plan and migration history."""
    plan = result.plan
    rows = [
        (name, *(_canon(getattr(plan, f)[name]) for f in PLAN_FIELDS))
        for name in sorted(plan.assignment)
    ]
    body = repr((rows, _canon(plan.objective_value), _canon(result.migration_history)))
    return hashlib.sha256(body.encode()).hexdigest()


def _instance_ids(instances) -> list:
    return ["{}:{}x{}@{}".format(*inst) for inst in instances]


def _identity_sweep(instances, solve: Callable) -> dict:
    """``{instance id: plan + history of solve(tasks, cluster, candidates, seed)
    ≡ the default centralized solve}`` over fixed-seed instances."""
    identity = {}
    for key, (scenario, n, m, seed) in zip(_instance_ids(instances), instances):
        cluster, tasks = build_scenario(scenario, num_tasks=n, num_servers=m, seed=seed)
        cands = [build_candidates(t) for t in tasks]
        a = JointOptimizer(cluster).solve(tasks, candidates=cands, seed=seed)
        b = solve(tasks, cluster, cands, seed)
        identity[key] = _plans_equal(a.plan, b.plan) and a.history == b.history
    return identity


def _two_shard_pair(config_a, config_b) -> tuple:
    """Solve the 24-task × 4-server 2-shard instance under two configs;
    returns both results and whether plans + migration histories match."""
    cluster, tasks = build_scenario("smart_city", num_tasks=24, num_servers=4, seed=3)
    cands = [build_candidates(t) for t in tasks]
    a, b = (
        solve_sharded(tasks, cluster, config=cfg, candidates=cands, seed=3)
        for cfg in (config_a, config_b)
    )
    return a, b, _plans_equal(a.plan, b.plan) and a.migration_history == b.migration_history


def _scale_instance(sc: dict) -> tuple:
    """A shard-suite scale instance: description, cluster, rate-scaled tasks, candidates."""
    cluster, tasks = build_scenario(
        sc["scenario"], num_tasks=sc["tasks"], num_servers=sc["servers"],
        server_spread=sc["server_spread"], seed=sc["seed"],
    )
    tasks = [replace(t, arrival_rate=t.arrival_rate * sc["rate_scale"]) for t in tasks]
    description = (
        f"{sc['scenario']} x{sc['tasks']} tasks / {sc['servers']} servers, "
        f"{sc['shards']} shards ({sc['shard_by']}), rate x{sc['rate_scale']}, seed {sc['seed']}"
    )
    return description, cluster, tasks, [build_candidates(t) for t in tasks]


def probe_candidates() -> dict:
    """What :func:`build_candidates` keeps for smart_city's three templates:
    ``tracemalloc`` bytes still held after the builds (caches included) and
    the number of live :class:`PlanFeatures`.  Run in a fresh interpreter
    (``--probe candidates``) so no earlier build is cached."""
    import tracemalloc

    from repro.core.plan import PlanFeatures

    _, tasks = build_scenario("smart_city", num_tasks=3, seed=0)

    def live_features() -> int:
        gc.collect()
        return sum(type(o) is PlanFeatures for o in gc.get_objects())

    before = live_features()
    tracemalloc.start()
    t0 = perf_counter()
    cands = [build_candidates(t) for t in tasks]
    wall = perf_counter() - t0
    gc.collect()
    retained = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return {
        "wall_s": wall,
        "retained_bytes": retained,
        "plan_features": live_features() - before,
        "candidates": sum(len(cs) for cs in cands),
    }


def probe(mode: str) -> dict:
    """The 1M-request run: streaming ``"plain"`` or ``"monitored"`` (5 s
    windows, reporting the windowed and SLO fingerprints), or record-backed
    ``"records"``.  Run in a fresh interpreter (``--probe MODE``) so
    ``ru_maxrss`` measures exactly this run.  ``"candidates"`` is
    :func:`probe_candidates`."""
    import resource

    if mode == "candidates":
        return probe_candidates()

    tasks, plan, cluster, cfg = _stream_workload()
    cfg = replace(cfg, streaming=mode != "records")
    if mode == "monitored":
        # the ~17,000 s horizon needs a coarser layout than the interactive
        # default to stay inside the per-task histogram-cell guard: 5 s
        # windows x 20 ms bins ≈ 0.34M cells/task (~45 MiB over 16 tasks)
        cfg = replace(cfg, windows=WindowConfig(window_s=5.0, bin_s=2e-2, max_s=2.0))
    t0 = perf_counter()
    report = simulate_plan(tasks, plan, cluster, cfg)
    wall = perf_counter() - t0
    out = {
        "mode": mode,
        "wall_s": wall,
        "requests": report.counters.requests,
        "req_per_s": report.counters.requests / wall,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,  # linux: KiB
        "counters": report.counters.as_dict(),
        "mean_latency_s": report.mean_latency_s,
        "miss_rate": report.miss_rate,
        "accuracy": report.accuracy,
        "goodput": report.goodput(),
    }
    if mode == "monitored":
        out["windowed_fingerprint"] = report.windowed.fingerprint()
        out["slo_fingerprint"] = evaluate_slos(report.windowed).fingerprint()
    return out


def probe_arm(mode: str) -> Callable:
    """An arm for :func:`rounds`: one :func:`probe` in a subprocess, timed by its own wall."""
    def arm():
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe", mode],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout)
        return result["wall_s"], result

    return arm


def measure_solver() -> dict:
    """E9, best of 3 on the largest instance's solve time; the deterministic
    work counters go through a metrics-registry snapshot (the ``solver.*``
    names ``repro trace`` exports)."""
    def e9():
        result = e09_scalability.run()
        largest = sorted(result.extras["solve_s"], key=lambda nm: nm[0] * nm[1])[-1]
        return result.extras["solve_s"][largest], (largest, result)

    solve_s, (largest, result) = best(rounds(3, e9))
    key = f"{largest[0]}x{largest[1]}"
    registry = MetricsRegistry()
    for name, value in result.extras["perf"][key].items():
        if name != "solve_s":
            registry.counter(f"solver.{name}").inc(int(value))
    snapshot = registry.snapshot()
    _, candidates = probe_arm("candidates")()
    return {
        "experiment": "E9",
        "largest_instance": key,
        "solve_s": solve_s,
        "counters": {name: snapshot[f"solver.{name}"]["value"] for name in GATED_COUNTERS},
        "metrics": {name: m["value"] for name, m in sorted(snapshot.items())},
        "candidates": {k: candidates[k] for k in ("retained_bytes", "plan_features")},
    }


def _peak_bytes(fn: Callable) -> int:
    """``tracemalloc`` peak bytes of one call of ``fn`` (warm caches: the
    peak counts only what the call itself holds at once)."""
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure_sim() -> dict:
    """Both engines on the fixed workload, interleaved best of 3, the
    fast-path ≡ event-loop report identity, and the event loop's
    ``tracemalloc`` peak."""
    tasks, plan, cluster, cfg = _sim_workload()
    event_cfg = replace(cfg, faults=FaultSchedule())
    runs = rounds(
        3,
        clock(lambda: simulate_plan(tasks, plan, cluster, cfg)),
        clock(lambda: simulate_plan(tasks, plan, cluster, event_cfg)),
    )
    (sim_s, fast), (event_s, event) = best(runs, 0), best(runs, 1)
    return {
        "suite": "sim",
        "workload": "smart_city x16 tasks, 20s horizon, seed 0",
        "sim_s": sim_s,
        "event_s": event_s,
        "event_peak_bytes": _peak_bytes(lambda: simulate_plan(tasks, plan, cluster, event_cfg)),
        "paths_equal": _equal(fast, event, REPORT_FIELDS),
        "counters": _sim_counters(fast.counters),
    }


def measure_stream() -> dict:
    """The 1M-request streaming and record-backed probes (2 alternating
    subprocess rounds: best wall, max streaming and min record-backed RSS),
    then in-process the serial vs pooled 4-cell fan-out."""
    runs = rounds(2, probe_arm("plain"), probe_arm("records"))
    (_, top), (record_backed_s, records) = best(runs, 0), best(runs, 1)
    peak_kb = max(row[0][1]["peak_rss_kb"] for row in runs)
    records_kb = min(row[1][1]["peak_rss_kb"] for row in runs)
    mean_rel = abs(top["mean_latency_s"] - records["mean_latency_s"]) / max(
        abs(records["mean_latency_s"]), 1e-30
    )

    # sharded fan-out: serial and pooled cells must merge identically
    tasks, plan, cluster, cfg = _stream_workload()
    stream_cfg = replace(cfg, streaming=True)
    cpus = len(os.sched_getaffinity(0))

    def cells(workers):
        cfg = replace(stream_cfg, sim_workers=workers)
        return clock(lambda: run_cells(tasks, plan, cluster, cfg, STREAM_CELLS))()

    serial_s, serial = cells(1)
    pooled_s, pooled = cells(min(STREAM_CELLS, max(cpus, 2)))

    # what a long streaming run holds at once: the windows in flight
    tasks, plan, cluster, cfg = _sim_workload()
    window_cfg = replace(cfg, streaming=True, windows=WINDOW_LAYOUT, **WINDOW_RUN)
    simulate_plan(tasks, plan, cluster, replace(window_cfg, horizon_s=cfg.horizon_s))  # warm
    window_peak = _peak_bytes(lambda: simulate_plan(tasks, plan, cluster, window_cfg))
    return {
        "suite": "stream",
        "workload": (
            f"smart_city x16 tasks, {STREAM_TARGET_REQUESTS} requests "
            f"({cfg.horizon_s:.0f}s horizon), seed 0"
        ),
        "requests": top["requests"],
        "wall_s": top["wall_s"],
        "req_per_s": top["req_per_s"],
        "peak_rss_kb": peak_kb,
        "counters": top["counters"],
        "stream_matches_records": (
            top["counters"] == records["counters"]
            and top["miss_rate"] == records["miss_rate"]
            and top["accuracy"] == records["accuracy"]
            and top["goodput"] == records["goodput"]
            and mean_rel <= 1e-9
        ),
        "record_backed_s": record_backed_s,
        "record_backed_peak_rss_kb": records_kb,
        "rss_ratio_vs_records": records_kb / peak_kb,
        "shard_counters_equal": (
            serial.counters == pooled.counters
            and _registry_snapshot(serial.counters) == _registry_snapshot(pooled.counters)
            and serial.mean_latency_s == pooled.mean_latency_s
        ),
        "serial_cells_s": serial_s,
        "pooled_cells_s": pooled_s,
        "cell_pool_ratio": serial_s / pooled_s,
        "window_peak_bytes": window_peak,
        "cpus": cpus,
    }


def measure_shard() -> dict:
    """The 1-shard ≡ centralized identity sweep, the serial ≡ parallel
    fan-out (and its digest), the timed centralized-vs-sharded comparison on
    the 4k instance, and the 16k instance (digest, wall, ``resolve_dirty``)."""
    identity = _identity_sweep(SHARD_REFERENCE_INSTANCES, lambda tasks, cluster, cands, seed: (
        solve_sharded(tasks, cluster, config=JointSolverConfig(shards=1), candidates=cands,
                      seed=seed)
    ))
    serial, _, fanout_equal = _two_shard_pair(
        JointSolverConfig(shards=2, migration_rounds=2),
        JointSolverConfig(shards=2, migration_rounds=2, restart_workers=4),
    )

    sc = SHARD_SCALE_INSTANCE
    workload, cluster, tasks, cands = _scale_instance(sc)
    local_search = sc["tasks"] <= 32  # E9 precedent

    def solve(**shards):
        cfg = JointSolverConfig(local_search=local_search, **shards)
        return clock(
            lambda: JointOptimizer(cluster, config=cfg).solve(
                tasks, candidates=cands, seed=sc["seed"]
            ),
            collect=True,
        )

    # the ~25 s centralized arm best of 2, the ~5 s sharded arm best of 3:
    # the speedup floor rides on the ratio of the two minima
    centralized_s, cen = best(rounds(2, solve()))
    sharded_s, sha = best(rounds(3, solve(
        shards=sc["shards"], shard_by=sc["shard_by"], migration_rounds=sc["migration_rounds"]
    )))
    obj_c, obj_s = cen.plan.objective_value, sha.plan.objective_value

    # the 16k instance: one timed solve (its plan digest pinned), then one
    # incremental re-solve of a single drifted shard
    sc16 = SHARD_SCALE_16K
    workload16, cluster16, tasks16, cands16 = _scale_instance(sc16)
    cfg16 = JointSolverConfig(
        shards=sc16["shards"], shard_by=sc16["shard_by"],
        migration_rounds=sc16["migration_rounds"], local_search=False, refine_thresholds=False,
    )
    sharded16_s, sharded16 = clock(lambda: solve_sharded(
        tasks16, cluster16, config=cfg16, candidates=cands16, seed=sc16["seed"]
    ), collect=True)()
    resolve16_s, _ = clock(lambda: resolve_dirty(
        tasks16, cluster16, sharded16, [3], config=cfg16, candidates=cands16, seed=sc16["seed"]
    ), collect=True)()

    return {
        "suite": "shard",
        "workload": workload,
        "identity": identity,
        "fanout_equal": fanout_equal,
        "digest_fanout": solve_digest(serial),
        "centralized_s": centralized_s,
        "sharded_s": sharded_s,
        "speedup": centralized_s / max(sharded_s, 1e-9),
        "objective_centralized": obj_c,
        "objective_sharded": obj_s,
        "regression_pct": (obj_s / obj_c - 1.0) * 100.0 if obj_c > 0 else 0.0,
        "migration_history": list(sha.migration_history),
        "shard_solves": sha.perf.shard_solves,
        "migrations": sha.perf.migrations,
        "workload_16k": workload16,
        "sparse_16k_s": sharded16_s,
        "sparse_floor_16k_s": sum(st.solve_s for st in sharded16.shard_stats),
        "digest_16k": solve_digest(sharded16),
        "index_build_16k_s": sharded16.perf.index_build_s,
        "resolve_dirty_16k_s": resolve16_s,
        "resolve_speedup_16k": sharded16_s / max(resolve16_s, 1e-9),
        "migration_history_16k": list(sharded16.migration_history),
    }


def _obs_identity() -> dict:
    """Event-loop ≡ fast-path ≡ streaming windowed/SLO fingerprints on the
    fixed workload, and the OpenMetrics exposition of a plain run."""
    tasks, plan, cluster, cfg = _sim_workload()
    wcfg = replace(cfg, windows=WindowConfig(window_s=0.5))
    fp = {
        engine: (r.windowed.fingerprint(), evaluate_slos(r.windowed).fingerprint())
        for engine, r in (
            ("fast", simulate_plan(tasks, plan, cluster, wcfg)),
            ("event", simulate_plan(
                tasks, plan, cluster, replace(wcfg, faults=FaultSchedule())
            )),
            ("stream", simulate_plan(
                tasks, plan, cluster, replace(wcfg, streaming=True, chunk_size=4096)
            )),
        )
    }
    registry = MetricsRegistry()
    simulate_plan(tasks, plan, cluster, cfg).counters.publish(registry)
    text = openmetrics_text(registry)
    return {
        "event_equals_fast": fp["event"] == fp["fast"],
        "stream_equals_fast": fp["stream"] == fp["fast"],
        "windowed_fingerprint": fp["fast"][0],
        "slo_fingerprint": fp["fast"][1],
        "openmetrics_ok": (
            text.rstrip().endswith("# EOF")
            and "repro_sim_requests_total" in text
            and "# TYPE repro_sim_requests counter" in text
        ),
    }


def measure_obs() -> dict:
    """Plain and monitored 1M-request probes, 4 interleaved subprocess rounds:
    the overhead is the best pairwise monitored / plain ratio, throughput the
    best monitored round, RSS the max over monitored rounds; then the
    in-process identity and OpenMetrics checks."""
    runs = rounds(4, probe_arm("plain"), probe_arm("monitored"))
    (plain_s, _), (monitored_s, _) = best_pair(runs)
    _, top = best(runs, 1)
    monitored = [row[1][1] for row in runs]
    return {
        "suite": "obs",
        "workload": (
            f"smart_city x16 tasks, {STREAM_TARGET_REQUESTS} requests, "
            "5s windows x 20ms bins, seed 0"
        ),
        "requests": top["requests"],
        "plain_wall_s": plain_s,
        "monitored_wall_s": monitored_s,
        "monitor_ratio": monitored_s / max(plain_s, 1e-9),
        "monitored_req_per_s": top["req_per_s"],
        "monitored_peak_rss_kb": max(p["peak_rss_kb"] for p in monitored),
        "probe_fingerprints_stable": len(
            {(p["windowed_fingerprint"], p["slo_fingerprint"]) for p in monitored}
        ) == 1,
        "windowed_fingerprint_1m": top["windowed_fingerprint"],
        "slo_fingerprint_1m": top["slo_fingerprint"],
        **_obs_identity(),
    }


def measure_risk() -> dict:
    """The ``buffer="none"`` ≡ risk-free identity sweep (centralized and
    2-shard), the noise-free sim counters, the jitter-on cross-engine
    equivalence, the paired overhead timing (best of 5 interleaved pairs) and
    a reduced-horizon E18 calibration run."""
    none_cfg = JointSolverConfig(risk=RiskConfig(buffer="none"))
    identity = _identity_sweep(RISK_REFERENCE_INSTANCES, lambda tasks, cluster, cands, seed: (
        JointOptimizer(cluster, config=none_cfg).solve(tasks, candidates=cands, seed=seed)
    ))
    _, _, sharded_identity = _two_shard_pair(
        JointSolverConfig(shards=2, migration_rounds=2),
        JointSolverConfig(shards=2, migration_rounds=2, risk=RiskConfig(buffer="none")),
    )

    # noise-free counters: the jitter plumbing may not perturb the replay
    tasks, plan, cluster, cfg = _sim_workload()
    sim_counters = _sim_counters(simulate_plan(tasks, plan, cluster, cfg).counters)

    # jitter on: fast path ≡ event loop (records bit-exact), streaming ≡
    # record-backed (counters + scalar summary exact)
    jcfg = replace(cfg, service_noise=RISK_JITTER_SIGMA)
    fast = simulate_plan(tasks, plan, cluster, jcfg)
    event = simulate_plan(tasks, plan, cluster, replace(jcfg, faults=FaultSchedule()))
    stream = simulate_plan(tasks, plan, cluster, replace(jcfg, streaming=True, chunk_size=4096))

    cluster, tasks = build_scenario("smart_city", num_tasks=16, seed=0)
    cands = [build_candidates(t) for t in tasks]
    (plain_s, _), (off_s, _) = best_pair(rounds(
        5,
        clock(lambda: JointOptimizer(cluster).solve(tasks, candidates=cands, seed=0),
              collect=True),
        clock(lambda: JointOptimizer(cluster, config=none_cfg).solve(
            tasks, candidates=cands, seed=0
        )),
    ))

    e18 = e18_risk.run(horizon_s=15.0, warmup_s=2.0)
    return {
        "suite": "risk",
        "workload": (
            f"identity sweep + smart_city x16 sim workload, jitter "
            f"sigma={RISK_JITTER_SIGMA}, seed 0"
        ),
        "identity": identity,
        "sharded_identity": sharded_identity,
        "sim_counters": sim_counters,
        "jitter_paths_equal": _equal(fast, event, REPORT_FIELDS),
        "jitter_stream_equal": (
            stream.counters == fast.counters
            and stream.mean_latency_s == fast.mean_latency_s
            and stream.miss_rate == fast.miss_rate
            and stream.accuracy == fast.accuracy
        ),
        "overhead_ratio": off_s / max(plain_s, 1e-9),
        "calibration_ok": e18.extras["calibration_ok"],
        "beats_deterministic": e18.extras["beats_deterministic"],
        "e18_table": e18.format(),
    }


def _sim_counter_rows(key: str, what: str = "") -> list:
    """Exact pins of the gated ``sim.*`` counters against the baseline's ``counters``."""
    return [Contract("exact", f"{key}/{n}", f"{what}sim.{n}", base=f"counters/{n}")
            for n in SIM_GATED_COUNTERS]


def solver_rows(a) -> list:
    return [
        Contract("exact", "largest_instance", "E9 largest instance"),
        Contract("max", "solve_s", "E9 largest-instance solve_s, best of 3", a.factor, "solve_s"),
        *(Contract("max", f"{group}/{prefix}{n}", f"solver.{n}", a.factor, f"{group}/{prefix}{n}")
          for group, prefix, names in (("counters", "", GATED_COUNTERS),
                                       ("metrics", "solver.", GATED_METRICS))
          for n in names),
        Contract("max", "candidates/retained_bytes",
                 "smart_city candidate pipeline, retained tracemalloc bytes",
                 CANDIDATE_MEMORY_FACTOR, "candidates/retained_bytes"),
        Contract("max", "candidates/plan_features",
                 "smart_city candidate pipeline, PlanFeatures built", 1.0,
                 "candidates/plan_features"),
    ]


def sim_rows(a) -> list:
    return [
        Contract("holds", "paths_equal", "fast-path report == event-loop report (fixed seed)"),
        Contract("max", "sim_s", "fast-path sim_s, best of 3", a.factor, "sim_s"),
        Contract("max", "event_peak_bytes", "fault-free event-loop run, tracemalloc peak bytes",
                 EVENT_MEMORY_FACTOR, "event_peak_bytes"),
        *_sim_counter_rows("counters"),
    ]


def stream_rows(a) -> list:
    return [
        Contract("holds", "stream_matches_records", "streaming summary == record-backed summary"),
        Contract("holds", "shard_counters_equal", "4-cell merge: serial == pooled counters"),
        *_sim_counter_rows("counters", "1M-request "),
        Contract("min", "req_per_s", "1M req/s, best of 2 probes", 1 / a.factor, "req_per_s"),
        Contract("max", "peak_rss_kb", "1M peak RSS (KiB), max of 2 probes", RSS_CEILING_KB),
        Contract("min", "rss_ratio_vs_records",
                 "1M record-backed / streaming peak RSS, min / max of 2 probes each",
                 MIN_RSS_RATIO),
        Contract("max", "window_peak_bytes",
                 "multi-window streaming run, tracemalloc peak bytes",
                 WINDOW_MEMORY_FACTOR, "window_peak_bytes"),
    ]


def shard_rows(a) -> list:
    return [
        *(Contract("holds", f"identity/{k}", f"1-shard == centralized (bit-exact) on {k}")
          for k in _instance_ids(SHARD_REFERENCE_INSTANCES)),
        Contract("holds", "fanout_equal", "serial shard fan-out == parallel shard fan-out"),
        Contract("exact", "digest_fanout", "plan + migration history digest, fan-out instance"),
        Contract("exact", "digest_16k", "plan + migration history digest, 16k instance"),
        Contract("max", "sharded_s", "4k sharded solve wall, best of 3", a.factor, "sharded_s"),
        Contract("min", "speedup", "4k centralized (best of 2) / sharded wall",
                 a.min_shard_speedup),
        Contract("max", "regression_pct", "4k sharded objective regression (%)",
                 MAX_REGRESSION_PCT),
        Contract("exact", "migration_history", "4k migration history"),
        Contract("max", "sparse_16k_s", "16k sharded solve wall, 1 run", a.factor, "sparse_16k_s"),
        Contract("min", "resolve_speedup_16k", "16k full solve / 1-shard resolve_dirty wall",
                 MIN_RESOLVE_SPEEDUP),
        Contract("exact", "migration_history_16k", "16k migration history"),
    ]


def obs_rows(a) -> list:
    return [
        Contract("holds", "event_equals_fast",
                 "event-loop == fast-path windowed/SLO fingerprints"),
        Contract("holds", "stream_equals_fast",
                 "streaming == fast-path windowed/SLO fingerprints"),
        Contract("holds", "probe_fingerprints_stable", "1M monitored fingerprints stable"),
        Contract("holds", "openmetrics_ok", "OpenMetrics exposition well-formed (# EOF, _total)"),
        *(Contract("exact", k, k) for k in ("windowed_fingerprint", "slo_fingerprint",
                                            "windowed_fingerprint_1m", "slo_fingerprint_1m")),
        Contract("max", "monitor_ratio", "monitored / plain 1M wall, best of 4 pairs",
                 MAX_MONITOR_OVERHEAD),
        Contract("max", "monitored_peak_rss_kb", "monitored 1M peak RSS (KiB), max of 4",
                 RSS_CEILING_KB),
        Contract("min", "monitored_req_per_s", "monitored 1M req/s, best of 4", 1 / a.factor,
                 "monitored_req_per_s"),
    ]


def risk_rows(a) -> list:
    off, jitter = 'buffer="none" == risk-free solve', f"jitter sigma={RISK_JITTER_SIGMA}: "
    return [
        *(Contract("holds", f"identity/{k}", f"{off} (bit-exact) on {k}")
          for k in _instance_ids(RISK_REFERENCE_INSTANCES)),
        Contract("holds", "sharded_identity", f"{off} through the 2-shard coordinator"),
        *_sim_counter_rows("sim_counters", "noise-free "),
        Contract("holds", "jitter_paths_equal", jitter + "fast-path report == event-loop report"),
        Contract("holds", "jitter_stream_equal", jitter + "streaming == record-backed summary"),
        Contract("max", "overhead_ratio", 'buffer="none" / risk-free solve wall, best of 5 pairs',
                 a.max_risk_overhead),
        Contract("holds", "calibration_ok", "E18: realized tail violation <= eps in every cell"),
        Contract("holds", "beats_deterministic", "E18: buffering beats deterministic on a cell"),
    ]


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _obs_artifacts(outdir: Path, current: dict) -> None:
    """A replayable ``metrics.jsonl`` stream and an ``openmetrics.txt``
    snapshot of a monitored run of the small workload."""
    tasks, plan, cluster, cfg = _sim_workload()
    report = simulate_plan(
        tasks, plan, cluster, replace(cfg, streaming=True, windows=WindowConfig(window_s=0.5))
    )
    registry = MetricsRegistry()
    report.counters.publish(registry)
    slo = evaluate_slos(report.windowed)
    with MetricsStreamWriter(str(outdir / "metrics.jsonl")) as out:
        out.windowed_snapshot(cfg.horizon_s, report.windowed.snapshot())
        out.slo_report(cfg.horizon_s, slo.as_dict())
        out.registry_snapshot(cfg.horizon_s, registry)
    export_openmetrics(registry, str(outdir / "openmetrics.txt"))


def _risk_artifacts(outdir: Path, current: dict) -> None:
    (outdir / "risk_e18.txt").write_text(current["e18_table"] + "\n")


def write_artifacts(outdir: Optional[Path], name: str, suite: "Suite", current: dict) -> None:
    """The measurement (headed by ``nproc``, git sha and Python version), the
    phase breakdown of a small traced solve — the table ``repro trace``
    prints — and the suite's own extras."""
    if outdir is None:
        return
    outdir.mkdir(parents=True, exist_ok=True)
    header = {"nproc": len(os.sched_getaffinity(0)), "git_sha": _git_sha(),
              "python": platform.python_version()}
    (outdir / f"{name}_measure.json").write_text(
        json.dumps({**header, **current}, indent=2, default=str) + "\n"
    )
    tracer = get_tracer().enable()
    try:
        cluster, tasks = build_scenario("smart_city", num_tasks=16, seed=0)
        JointOptimizer(cluster).solve(tasks, seed=0)
    finally:
        tracer.disable()
    rows = [(phase, count, total * 1e3, frac)
            for phase, count, total, frac in phase_breakdown(tracer.drain(), root="solve")]
    table = format_table(["phase", "count", "total_ms", "fraction"], rows,
                         title="solve phase breakdown", float_fmt="{:.3f}")
    (outdir / f"{name}_phase_breakdown.txt").write_text(table + "\n")
    if suite.artifacts is not None:
        suite.artifacts(outdir, current)
    print(f"artifacts written to {outdir}")


@dataclass(frozen=True)
class Suite:
    """A gate suite.  ``overhead`` is the ``(key, label)`` that
    ``--check-overhead`` gates; ``owner`` names the suite whose baseline
    this one pins and never writes."""
    baseline: Path
    measure: Callable[[], dict]
    rows: Callable[[argparse.Namespace], list]
    overhead: Optional[tuple] = None
    owner: Optional[str] = None
    artifacts: Optional[Callable[[Path, dict], None]] = None


SUITES = {
    "solver": Suite(BASELINES / "e09_solver_baseline.json", measure_solver, solver_rows,
                    overhead=("solve_s", "tracing-disabled E9 solve_s, best of 3")),
    "sim": Suite(BASELINES / "sim_baseline.json", measure_sim, sim_rows,
                 overhead=("event_s", "telemetry-disabled event-loop event_s, best of 3")),
    "stream": Suite(BASELINES / "stream_baseline.json", measure_stream, stream_rows),
    "shard": Suite(BASELINES / "shard_baseline.json", measure_shard, shard_rows),
    "obs": Suite(BASELINES / "obs_baseline.json", measure_obs, obs_rows,
                 artifacts=_obs_artifacts),
    "risk": Suite(BASELINES / "sim_baseline.json", measure_risk, risk_rows,
                  owner="sim", artifacts=_risk_artifacts),
}


def run_suite(name: str, args: argparse.Namespace) -> int:
    """Measure one suite, then rewrite its baseline or check its contracts."""
    suite = SUITES[name]
    if args.check_overhead and suite.overhead is None:
        print(f"--check-overhead is not defined for the {name} suite", file=sys.stderr)
        return 1
    owner = suite.owner or name
    update = args.update and not args.check_overhead
    if update and owner != name:
        print(f"the {name} suite pins the {owner} suite's baseline; nothing to update "
              "— running the gate")
        update = False
    path = args.baseline or suite.baseline

    current = suite.measure()
    write_artifacts(args.artifacts_dir, name, suite, current)
    if args.check_overhead:
        key, label = suite.overhead
        rows = [Contract("max", key, label, 1.0 + args.overhead, key)]
    else:
        rows = suite.rows(args)

    if update:
        broken = [c.key for c in rows if c.kind == "holds" and not verdict(c, current, {})[0]]
        if broken:
            print(f"refusing to write baseline: {', '.join(broken)} broken", file=sys.stderr)
            return 1
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(current, indent=2) + "\n")
        print(f"baseline updated: {path}")
        print(json.dumps(current, indent=2))
        return 0
    if not path.exists():
        print(f"no baseline at {path}; run with --suite {owner} --update first", file=sys.stderr)
        return 1
    failures = check(rows, current, json.loads(path.read_text()))
    if failures:
        print(f"{name} gate FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"{name} gate passed")
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="Perf and contract gate (see the module docstring).")
    ap.add_argument("--suite", choices=tuple(SUITES), default="solver",
                    help="what to gate (default: the E9 joint solver)")
    ap.add_argument("--baseline", type=Path, default=None,
                    help="baseline JSON (default: the suite's file under benchmarks/baselines/)")
    ap.add_argument("--factor", type=float, default=1.5,
                    help="max ratio vs. baseline of wall times, throughputs and solver counters")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from this run instead of checking")
    ap.add_argument("--check-overhead", action="store_true",
                    help="gate only the suite's overhead key within --overhead of baseline")
    ap.add_argument("--overhead", type=float, default=0.02,
                    help="allowed fractional overhead for --check-overhead (default 2%%)")
    ap.add_argument("--min-shard-speedup", type=float, default=4.5,
                    help="shard suite: min 4k sharded speedup over centralized (baseline ~5.6x)")
    ap.add_argument("--max-risk-overhead", type=float, default=1.05,
                    help='risk suite: max paired buffer="none" / risk-free solve wall ratio')
    ap.add_argument("--artifacts-dir", type=Path, default=None,
                    help="write CI-uploadable artifacts here")
    ap.add_argument("--probe", choices=("plain", "monitored", "records", "candidates"),
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        print(json.dumps(probe(args.probe)))
        return 0
    return run_suite(args.suite, args)


if __name__ == "__main__":
    sys.exit(main())
