#!/usr/bin/env python
"""Perf smoke gate for the joint solver (E9) and the simulator hot path.

``--suite solver`` (default) runs the E9 experiment and compares the largest
instance against a checked-in baseline:

- ``solve_s`` may not regress beyond ``--factor`` (default 1.5×) — a coarse
  wall-clock guard, deliberately loose to tolerate machine variance;
- the deterministic work counters (``allocate_calls``, ``latency_evals``,
  ``allocate_group_solves``) may not grow beyond the same factor — these are
  machine-independent, so they catch "same wall time, twice the work"
  regressions that a timing gate on a faster machine would miss.  The
  counters are read from a :class:`~repro.telemetry.metrics.MetricsRegistry`
  snapshot (``solver.*``) published by the solver's perf layer, so the gate
  exercises the same path ``repro trace`` exports.

``--suite sim`` measures the simulator on a fixed 16-task / 20 s workload:

- ``sim_s`` (the vectorized fast path) may not regress beyond ``--factor``;
- the deterministic ``sim.*`` work counters (requests, records,
  discarded_warmup, events) must match the baseline **exactly** — the
  workload is fully seeded, so any drift means the simulation itself
  changed, and the gate prints a per-counter diff;
- the fast-path and event-loop reports must be equal (the bit-identity
  contract), re-checked on every gate run.

``--suite stream`` gates the million-request streaming path:

- a 1,000,000-request single-cell streaming run (measured in a fresh
  subprocess so its peak RSS is attributable) must stay under the
  ``--rss-ceiling-mb`` memory ceiling and within ``--factor`` of the
  baseline requests/sec;
- its ``sim.*`` counters must match the baseline **exactly**, and its
  scalar summary (counters, miss rate, accuracy, goodput exactly; mean
  latency to 1e-9 relative) must match a record-backed run on the
  same seed — the streaming-equivalence contract;
- a 4-cell sharded fan-out must merge to byte-identical counters whether
  cells run serially or on a process pool, and must beat the record-backed
  run by ``--min-speedup`` (default 3×) wall-clock — the capacity
  unlock this suite exists to protect.  The serial/parallel cell ratio is
  also recorded; it only demonstrates scaling when ≥4 CPUs are available,
  so it is reported rather than gated.

``--suite shard`` gates the sharded hierarchical control plane:

- on 7 fixed-seed reference instances, a 1-shard ``solve_sharded`` must be
  **bit-identical** to the centralized solver (assignment, features,
  latencies, shares, objective, history) — the degenerate-path contract;
- serial and parallel shard fan-out must produce identical plans (shard
  seeds are derived upfront, the restart pool is reused, never nested);
- on a queue-stabilized 4k-task × 128-server instance, the sharded solve
  must stay within ``--factor`` of the baseline wall clock, beat the
  centralized solve by ``--min-shard-speedup``, and keep the objective
  within ``--max-regression-pct`` (default 5%) of centralized; its
  migration history must match the baseline exactly (fully seeded).  As in
  the stream suite, the speedup floor (default 4.5×) sits below the
  baseline's recorded ratio (≈5.7×) so run-to-run wall-clock noise on the
  two arms' minima cannot flap the gate;
- the fan-out instance and a 16k-task × 256-server instance must reproduce
  the baseline's sha256 digests of plan + migration history exactly
  (pinned when the dense reference arms were still asserted bit-identical
  to the sparse control plane); the 16k sharded solve must stay within
  ``--factor`` of the baseline wall clock, and an incremental
  ``resolve_dirty`` of one drifted shard must beat the full sharded
  re-solve by ``--min-resolve-speedup`` (default 10×, measured ≈20×).

``--suite obs`` gates the streaming SLO observability plane:

- windowed SLO metrics must be **bit-identical** across the event loop, the
  record-backed fast path, and the streaming fast path on the fixed-seed sim
  workload (``WindowedMetrics.fingerprint()`` and ``SLOReport.fingerprint()``
  equality — the integer-state contract);
- a 1M-request *monitored* streaming run (fresh subprocess, windowed metrics
  on) must stay within ``--max-monitor-overhead`` (default 1.15×) of the
  un-monitored streaming run's wall time and under the same
  ``--rss-ceiling-mb`` memory ceiling — monitoring may not break the
  bounded-memory capacity unlock;
- its windowed and SLO fingerprints must be identical across probe rounds
  and must match the checked-in baseline exactly (fully seeded);
- the OpenMetrics exposition of the run's ``sim.*`` counters must be
  well-formed (``# EOF`` terminator, ``_total`` counter families).

``--suite risk`` gates the chance-constrained (mean+κ·σ) solver path and the
service-jitter simulator path — a pure contract gate (no wall-clock baseline
of its own):

- on fixed-seed reference instances, a solve with ``RiskConfig(buffer="none")``
  must be **bit-identical** to a risk-free solve (plan + history), both
  centralized and sharded — the risk-off degenerate contract;
- the default (noise-free) sim workload's ``sim.*`` counters must still match
  the checked-in sim baseline exactly — the jitter plumbing may not perturb
  the deterministic replay;
- with per-request jitter on (σ=0.2), the fast path, the event loop, and the
  chunked streaming sweep must agree (records bit-exact fast vs event;
  counters + scalar summary exact for streaming) — the engines draw the same
  counter-based per-request factors regardless of evaluation order;
- a paired interleaved timing of risk-free vs ``buffer="none"`` solves must
  stay within ``--max-risk-overhead`` (default 1.05×, measured ≈1.00×) —
  threading the risk hooks through the hot path may not tax the default
  configuration;
- a reduced-horizon E18 run must report ``calibration_ok`` (realized tail
  violation ≤ ε in every (ε, load) cell) and ``beats_deterministic`` (at
  least one over-ε cell where buffering lowers the violation rate) — the
  calibrated-guarantee contract.

``--artifacts-dir DIR`` additionally writes CI-uploadable artifacts for any
suite: the raw measurement JSON, a solver phase-breakdown table, and (obs
suite) a replayable ``metrics.jsonl`` stream + ``openmetrics.txt`` snapshot.

Every stream run (check or update) appends a trajectory entry to
``benchmarks/baselines/BENCH_stream.json`` — requests/sec, peak RSS,
speedups — so future PRs inherit a perf history.  Shard runs do the same to
``benchmarks/baselines/BENCH_solver.json`` (wall clocks, speedup,
regression, migrations).

``--check-overhead`` instead measures a tracing-**disabled** solve (or, for
``--suite sim``, a telemetry-disabled event-loop run) and asserts its wall
time stays within ``--overhead`` (default 2%) of the baseline — guarding
the instrumentation's disabled path against creeping cost.  Refresh the
baseline on the measuring machine first (``--update``): a 2% band is only
meaningful against numbers from the same hardware.

Usage:

    PYTHONPATH=src python scripts/perf_gate.py                   # solver check
    PYTHONPATH=src python scripts/perf_gate.py --update          # rewrite baseline
    PYTHONPATH=src python scripts/perf_gate.py --check-overhead  # telemetry overhead
    PYTHONPATH=src python scripts/perf_gate.py --suite sim       # simulator check
    PYTHONPATH=src python scripts/perf_gate.py --suite stream    # 1M-request gate
    PYTHONPATH=src python scripts/perf_gate.py --suite shard     # control-plane gate
    PYTHONPATH=src python scripts/perf_gate.py --suite risk      # chance-constrained gate

Exit code 0 = within budget, 1 = regression.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import numbers
import sys
from pathlib import Path
from time import perf_counter

from repro.experiments import e09_scalability
from repro.telemetry.metrics import MetricsRegistry

_BASELINE_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"
DEFAULT_BASELINE = _BASELINE_DIR / "e09_solver_baseline.json"
DEFAULT_SIM_BASELINE = _BASELINE_DIR / "sim_baseline.json"
DEFAULT_STREAM_BASELINE = _BASELINE_DIR / "stream_baseline.json"
DEFAULT_SHARD_BASELINE = _BASELINE_DIR / "shard_baseline.json"
DEFAULT_OBS_BASELINE = _BASELINE_DIR / "obs_baseline.json"
STREAM_TRAJECTORY = _BASELINE_DIR / "BENCH_stream.json"
SOLVER_TRAJECTORY = _BASELINE_DIR / "BENCH_solver.json"

#: Deterministic solver counters gated alongside wall time (ratio-gated).
GATED_COUNTERS = ("allocate_calls", "allocate_group_solves", "latency_evals")

#: Deterministic simulator counters — gated by **exact** equality: the sim
#: workload is fully seeded, so any drift means simulation behavior changed.
SIM_GATED_COUNTERS = ("requests", "records", "discarded_warmup", "events")

#: Offered load of the streaming gate, in requests (horizon is derived).
STREAM_TARGET_REQUESTS = 1_000_000
#: Traffic cells of the sharded fan-out check.
STREAM_CELLS = 4

#: Fixed-seed reference instances for the 1-shard ≡ centralized bit-identity
#: check: (scenario, tasks, servers, seed).  Small on purpose — identity is a
#: structural property, not a scale one.
SHARD_REFERENCE_INSTANCES = (
    ("smart_city", 6, 2, 0),
    ("smart_city", 10, 3, 1),
    ("smart_city", 16, 4, 2),
    ("industrial", 8, 2, 3),
    ("industrial", 12, 4, 4),
    ("mobile_ar", 8, 3, 5),
    ("mobile_ar", 14, 4, 6),
)

#: The shard suite's scale instance.  Arrival rates are scaled down so the
#: 4k-task instance is queue-stable (finite objectives in both arms); the
#: O(n·m) local search is off at this size in both arms per the E9
#: precedent, so the comparison isolates the control-plane structure.
SHARD_SCALE_INSTANCE = dict(
    scenario="smart_city",
    tasks=4096,
    servers=128,
    server_spread=4.0,
    shards=64,
    shard_by="interleave",
    migration_rounds=3,
    rate_scale=0.1,
    seed=0,
)

#: The control-plane scale instance: 16k tasks × 256 servers, sized to make
#: the coordinator's own overhead (index build, homing, stitch, migration
#: screen) a visible term — 256 single-server shards maximize the number of
#: cross-shard candidates the affinity index must screen.
SHARD_SCALE_16K = dict(
    scenario="smart_city",
    tasks=16384,
    servers=256,
    server_spread=4.0,
    shards=256,
    shard_by="interleave",
    migration_rounds=3,
    rate_scale=0.1,
    seed=0,
)


def measure(rounds: int = 3) -> dict:
    """E9 runs reduced to the gate's JSON-safe shape.

    Wall time is the best of ``rounds`` runs: the largest instance solves in
    ~0.1 s, where scheduler noise and cold per-process memo caches on the
    first run dwarf any real regression.  The work counters are deterministic,
    so they come from the last run, routed through a metrics-registry
    snapshot (the ``solver.*`` names ``repro trace`` exports).
    """
    best_solve = float("inf")
    for _ in range(rounds):
        result = e09_scalability.run()
        sizes = sorted(result.extras["solve_s"], key=lambda nm: nm[0] * nm[1])
        largest = sizes[-1]
        best_solve = min(best_solve, result.extras["solve_s"][largest])
    key = f"{largest[0]}x{largest[1]}"
    perf = result.extras["perf"][key]
    registry = MetricsRegistry()
    for name, value in perf.items():
        if name != "solve_s":
            registry.counter(f"solver.{name}").inc(int(value))
    snapshot = registry.snapshot()
    return {
        "experiment": "E9",
        "largest_instance": key,
        "solve_s": best_solve,
        "counters": {
            name: snapshot[f"solver.{name}"]["value"] for name in GATED_COUNTERS
        },
        "metrics": {name: m["value"] for name, m in sorted(snapshot.items())},
    }


def _sim_workload():
    """The gate's fixed simulator workload: smart_city × 16 tasks, 20 s horizon.

    Built fresh each call (imports stay lazy so ``--suite solver`` keeps its
    original import footprint); everything downstream is seeded, so repeated
    builds produce the identical plan and identical simulation.
    """
    from repro.core.candidates import build_candidates
    from repro.core.joint import JointOptimizer
    from repro.sim import SimulationConfig
    from repro.workloads.scenarios import build_scenario

    cluster, tasks = build_scenario("smart_city", num_tasks=16, seed=0)
    cands = [build_candidates(t) for t in tasks]
    plan = JointOptimizer(cluster).solve(tasks, candidates=cands, seed=0).plan
    cfg = SimulationConfig(horizon_s=20.0, warmup_s=2.0, seed=0)
    return tasks, plan, cluster, cfg


def _reports_equal(a, b) -> bool:
    """Bit-identity check between two simulation reports (the fast-path contract)."""
    return (
        a.records == b.records
        and a.utilizations == b.utilizations
        and a.discarded_warmup == b.discarded_warmup
        and a.counters == b.counters
    )


def measure_sim(rounds: int = 3) -> dict:
    """Simulator measurement in the gate's JSON-safe shape.

    Times both engines on the fixed workload (best of ``rounds``, same
    rationale as :func:`measure`), re-checks the fast-path ≡ event-loop
    report identity, and routes the deterministic work counters through a
    metrics-registry snapshot — the same ``sim.*`` names telemetry runs
    publish — so the gate exercises the export path.
    """
    from dataclasses import replace

    from repro.sim.runner import simulate_plan

    tasks, plan, cluster, cfg = _sim_workload()
    event_cfg = replace(cfg, fast_path=False)
    best_sim = best_event = float("inf")
    for _ in range(rounds):
        t0 = perf_counter()
        fast_report = simulate_plan(tasks, plan, cluster, cfg)
        best_sim = min(best_sim, perf_counter() - t0)
        t0 = perf_counter()
        event_report = simulate_plan(tasks, plan, cluster, event_cfg)
        best_event = min(best_event, perf_counter() - t0)
    registry = MetricsRegistry()
    fast_report.counters.publish(registry)
    snapshot = registry.snapshot()
    return {
        "suite": "sim",
        "workload": "smart_city x16 tasks, 20s horizon, seed 0",
        "sim_s": best_sim,
        "event_s": best_event,
        "paths_equal": _reports_equal(fast_report, event_report),
        "counters": {
            name: snapshot[f"sim.{name}"]["value"] for name in SIM_GATED_COUNTERS
        },
    }


def check_sim(baseline: dict, current: dict, factor: float) -> int:
    """Gate the simulator: bit-identity, fast-path wall, exact counters."""
    failures = []
    status = "OK" if current["paths_equal"] else "FAIL"
    print(f"{status} fast-path report == event-loop report (fixed seed)")
    if not current["paths_equal"]:
        failures.append("paths_equal")
    ratio = current["sim_s"] / max(baseline["sim_s"], 1e-9)
    status = "OK" if ratio <= factor else "FAIL"
    print(
        f"{status} sim_s {current['sim_s']:.4f}s vs baseline "
        f"{baseline['sim_s']:.4f}s ({ratio:.2f}x, budget {factor:.2f}x)"
    )
    if ratio > factor:
        failures.append("sim_s")
    for name in SIM_GATED_COUNTERS:
        base = baseline["counters"].get(name)
        cur = current["counters"][name]
        if base is None:
            continue
        status = "OK" if cur == base else "FAIL"
        print(f"{status} sim.{name} {cur} vs baseline {base} (exact, drift {cur - base:+d})")
        if cur != base:
            failures.append(f"sim.{name}")
    if failures:
        print(f"sim perf gate FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("sim perf gate passed")
    return 0


def check_sim_overhead(baseline_path: Path, overhead: float) -> int:
    """Assert the telemetry-disabled event loop stays within ``overhead``.

    The event loop is the permanent fallback (telemetry, non-default
    features), so its telemetry-off wall time is gated the same way the
    solver's tracing-disabled path is.
    """
    if not baseline_path.exists():
        print(
            f"no baseline at {baseline_path}; run with --suite sim --update first",
            file=sys.stderr,
        )
        return 1
    baseline = json.loads(baseline_path.read_text())
    current = measure_sim()
    budget = baseline["event_s"] * (1.0 + overhead)
    ratio = current["event_s"] / max(baseline["event_s"], 1e-9)
    status = "OK" if current["event_s"] <= budget else "FAIL"
    print(
        f"{status} telemetry-disabled event_s {current['event_s']:.4f}s vs "
        f"baseline {baseline['event_s']:.4f}s "
        f"({ratio:.3f}x, budget {1.0 + overhead:.2f}x)"
    )
    if current["event_s"] > budget:
        print("sim overhead gate FAILED", file=sys.stderr)
        return 1
    print("sim overhead gate passed")
    return 0


def run_sim_suite(args) -> int:
    """``--suite sim`` flow: overhead check, baseline update, or full gate."""
    if args.check_overhead:
        return check_sim_overhead(args.baseline, args.overhead)
    current = measure_sim()
    write_artifacts(args, "sim", current)
    if args.update:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        if not current["paths_equal"]:
            print("refusing to write baseline: fast path != event loop", file=sys.stderr)
            return 1
        args.baseline.write_text(json.dumps(current, indent=2) + "\n")
        print(f"baseline updated: {args.baseline}")
        print(json.dumps(current, indent=2))
        return 0
    if not args.baseline.exists():
        print(
            f"no baseline at {args.baseline}; run with --suite sim --update first",
            file=sys.stderr,
        )
        return 1
    return check_sim(json.loads(args.baseline.read_text()), current, args.factor)


def _stream_workload():
    """The stream gate's workload: the sim workload stretched to 1M requests."""
    from dataclasses import replace

    tasks, plan, cluster, cfg = _sim_workload()
    rate = sum(t.arrival_rate for t in tasks)
    horizon = STREAM_TARGET_REQUESTS / rate
    return tasks, plan, cluster, replace(cfg, horizon_s=horizon)


def stream_probe() -> dict:
    """Run the 1M-request streaming sim and report wall + own peak RSS.

    Executed in a fresh interpreter (``--stream-probe``) so ``ru_maxrss``
    measures exactly this run: workload build + chunked sweep + bounded
    accumulators, with no earlier gate phases inflating the peak.
    """
    import resource
    from dataclasses import replace

    from repro.sim.runner import simulate_plan

    tasks, plan, cluster, cfg = _stream_workload()
    scfg = replace(cfg, streaming=True)
    t0 = perf_counter()
    report = simulate_plan(tasks, plan, cluster, scfg)
    wall = perf_counter() - t0
    return {
        "wall_s": wall,
        "requests": report.counters.requests,
        "req_per_s": report.counters.requests / wall,
        # linux ru_maxrss is KiB
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "counters": report.counters.as_dict(),
        "mean_latency_s": report.mean_latency_s,
        "miss_rate": report.miss_rate,
        "accuracy": report.accuracy,
        "goodput": report.goodput(),
    }


def _registry_snapshot(counters) -> dict:
    """Publish counters as ``sim.*`` and snapshot — the telemetry export path."""
    registry = MetricsRegistry()
    counters.publish(registry)
    return {name: m["value"] for name, m in registry.snapshot().items()}


def measure_stream(rounds: int = 2) -> dict:
    """Streaming measurement in the gate's JSON-safe shape.

    The 1M single-cell run happens in a subprocess (best wall of ``rounds``,
    max RSS across them); the record-backed reference and the sharded
    fan-out run in-process.
    """
    import json as _json
    import os
    import subprocess
    from dataclasses import replace

    from repro.sim.runner import run_cells, simulate_plan

    probes = []
    for _ in range(rounds):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--stream-probe"],
            capture_output=True, text=True, check=True,
        )
        probes.append(_json.loads(out.stdout))
    probe = min(probes, key=lambda p: p["wall_s"])
    peak_rss_kb = max(p["peak_rss_kb"] for p in probes)

    # streaming ≡ record-backed: same seed, same windowed sweep, records kept
    tasks, plan, cluster, cfg = _stream_workload()
    t0 = perf_counter()
    record_backed = simulate_plan(tasks, plan, cluster, cfg)
    record_backed_s = perf_counter() - t0
    mean_rel = abs(probe["mean_latency_s"] - record_backed.mean_latency_s) / max(
        abs(record_backed.mean_latency_s), 1e-30
    )
    stream_matches_records = (
        probe["counters"] == record_backed.counters.as_dict()
        and probe["miss_rate"] == record_backed.miss_rate
        and probe["accuracy"] == record_backed.accuracy
        and probe["goodput"] == record_backed.goodput()
        and mean_rel <= 1e-9
    )

    # sharded fan-out: serial and pooled cells must merge identically
    stream_cfg = replace(cfg, streaming=True)
    t0 = perf_counter()
    serial = run_cells(tasks, plan, cluster, replace(stream_cfg, sim_workers=1), STREAM_CELLS)
    serial_cells_s = perf_counter() - t0
    cpus = len(os.sched_getaffinity(0))
    t0 = perf_counter()
    pooled = run_cells(
        tasks, plan, cluster,
        replace(stream_cfg, sim_workers=min(STREAM_CELLS, max(cpus, 2))),
        STREAM_CELLS,
    )
    pooled_cells_s = perf_counter() - t0
    shard_counters_equal = (
        serial.counters == pooled.counters
        and _registry_snapshot(serial.counters) == _registry_snapshot(pooled.counters)
        and serial.mean_latency_s == pooled.mean_latency_s
    )
    shard_s = min(serial_cells_s, pooled_cells_s)
    return {
        "suite": "stream",
        "workload": (
            f"smart_city x16 tasks, {STREAM_TARGET_REQUESTS} requests "
            f"({cfg.horizon_s:.0f}s horizon), seed 0"
        ),
        "requests": probe["requests"],
        "wall_s": probe["wall_s"],
        "req_per_s": probe["req_per_s"],
        "peak_rss_kb": peak_rss_kb,
        "counters": probe["counters"],
        "stream_matches_records": stream_matches_records,
        "record_backed_s": record_backed_s,
        "shard_counters_equal": shard_counters_equal,
        "serial_cells_s": serial_cells_s,
        "pooled_cells_s": pooled_cells_s,
        "speedup_vs_records": record_backed_s / shard_s,
        "cell_pool_ratio": serial_cells_s / pooled_cells_s,
        "cpus": cpus,
    }


def append_stream_trajectory(current: dict, path: Path = STREAM_TRAJECTORY) -> None:
    """Append this run's headline numbers to the BENCH_stream.json history."""
    from datetime import datetime, timezone

    entries = json.loads(path.read_text()) if path.exists() else []
    entries.append(
        {
            "at": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            "requests": current["requests"],
            "wall_s": round(current["wall_s"], 4),
            "req_per_s": round(current["req_per_s"], 1),
            "peak_rss_kb": current["peak_rss_kb"],
            "record_backed_s": round(current["record_backed_s"], 4),
            "speedup_vs_records": round(current["speedup_vs_records"], 2),
            "cell_pool_ratio": round(current["cell_pool_ratio"], 2),
            "cpus": current["cpus"],
        }
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(entries, indent=2) + "\n")


def check_stream(
    baseline: dict,
    current: dict,
    factor: float,
    rss_ceiling_mb: float,
    min_speedup: float,
) -> int:
    """Gate the streaming path: equivalence, counters, RSS, throughput, speedup."""
    failures = []

    status = "OK" if current["stream_matches_records"] else "FAIL"
    print(f"{status} streaming summary == record-backed summary (fixed seed)")
    if not current["stream_matches_records"]:
        failures.append("stream_matches_records")

    status = "OK" if current["shard_counters_equal"] else "FAIL"
    print(
        f"{status} {STREAM_CELLS}-cell merge: serial == pooled counters "
        "and sim.* registry snapshots"
    )
    if not current["shard_counters_equal"]:
        failures.append("shard_counters_equal")

    for name in SIM_GATED_COUNTERS:
        base = baseline["counters"].get(name)
        cur = current["counters"][name]
        if base is None:
            continue
        status = "OK" if cur == base else "FAIL"
        print(f"{status} sim.{name} {cur} vs baseline {base} (exact, drift {cur - base:+d})")
        if cur != base:
            failures.append(f"sim.{name}")

    floor = baseline["req_per_s"] / factor
    status = "OK" if current["req_per_s"] >= floor else "FAIL"
    print(
        f"{status} throughput {current['req_per_s'] / 1e3:.0f}k req/s vs baseline "
        f"{baseline['req_per_s'] / 1e3:.0f}k (floor {floor / 1e3:.0f}k, budget {factor:.2f}x)"
    )
    if current["req_per_s"] < floor:
        failures.append("req_per_s")

    ceiling_kb = rss_ceiling_mb * 1024
    status = "OK" if current["peak_rss_kb"] <= ceiling_kb else "FAIL"
    print(
        f"{status} peak RSS {current['peak_rss_kb'] / 1024:.0f} MiB "
        f"(ceiling {rss_ceiling_mb:.0f} MiB, bounded-memory contract)"
    )
    if current["peak_rss_kb"] > ceiling_kb:
        failures.append("peak_rss")

    speedup = current["speedup_vs_records"]
    status = "OK" if speedup >= min_speedup else "FAIL"
    print(
        f"{status} sharded streaming {speedup:.1f}x vs record-backed run "
        f"(floor {min_speedup:.1f}x; record-backed {current['record_backed_s']:.2f}s)"
    )
    if speedup < min_speedup:
        failures.append("speedup_vs_records")
    note = "" if current["cpus"] >= STREAM_CELLS else (
        f" (only {current['cpus']} CPU(s): pool overhead dominates, informational)"
    )
    print(
        f"--   cell pool ratio {current['cell_pool_ratio']:.2f}x "
        f"(serial {current['serial_cells_s']:.2f}s / pooled "
        f"{current['pooled_cells_s']:.2f}s on {current['cpus']} CPUs){note}"
    )

    if failures:
        print(f"stream perf gate FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("stream perf gate passed")
    return 0


def run_stream_suite(args) -> int:
    """``--suite stream`` flow: baseline update or full gate (+ trajectory)."""
    if args.check_overhead:
        print("--check-overhead is not defined for the stream suite", file=sys.stderr)
        return 1
    current = measure_stream()
    write_artifacts(args, "stream", current)
    append_stream_trajectory(current)
    if args.update:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        if not (current["stream_matches_records"] and current["shard_counters_equal"]):
            print(
                "refusing to write baseline: streaming != record-backed or "
                "shard merge drifted",
                file=sys.stderr,
            )
            return 1
        args.baseline.write_text(json.dumps(current, indent=2) + "\n")
        print(f"baseline updated: {args.baseline}")
        print(json.dumps(current, indent=2))
        return 0
    if not args.baseline.exists():
        print(
            f"no baseline at {args.baseline}; run with --suite stream --update first",
            file=sys.stderr,
        )
        return 1
    return check_stream(
        json.loads(args.baseline.read_text()),
        current,
        args.factor,
        args.rss_ceiling_mb,
        args.min_speedup,
    )


def _plans_equal(a, b) -> bool:
    """Bit-identity between two joint plans (the 1-shard degenerate contract)."""
    return (
        a.assignment == b.assignment
        and a.features == b.features
        and a.latencies == b.latencies
        and a.compute_shares == b.compute_shares
        and a.bandwidth_shares == b.bandwidth_shares
        and a.objective_value == b.objective_value
    )


def _canon(x):
    """Plain-Python form of plan values (NumPy scalars -> int/float), so a
    digest does not depend on the NumPy scalar ``repr``."""
    if isinstance(x, (bool, str, type(None))):
        return x
    if dataclasses.is_dataclass(x):
        return tuple(
            (f.name, _canon(getattr(x, f.name))) for f in dataclasses.fields(x)
        )
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
        (
            name,
            _canon(plan.assignment[name]),
            _canon(plan.features[name]),
            _canon(plan.latencies[name]),
            _canon(plan.compute_shares[name]),
            _canon(plan.bandwidth_shares[name]),
        )
        for name in sorted(plan.assignment)
    ]
    body = repr(
        (rows, _canon(plan.objective_value), _canon(result.migration_history))
    )
    return hashlib.sha256(body.encode()).hexdigest()


def measure_shard() -> dict:
    """Shard-suite measurement in the gate's JSON-safe shape.

    Four blocks: the 1-shard ≡ centralized identity sweep over the fixed
    reference instances, the serial ≡ parallel shard fan-out check (plus
    its plan digest), the timed centralized-vs-sharded comparison on the
    scale instance, and the 16k instance (digest, wall, resolve_dirty).
    """
    from repro.core.candidates import build_candidates
    from repro.core.coordinator import resolve_dirty, solve_sharded
    from repro.core.joint import JointOptimizer, JointSolverConfig
    from repro.workloads.scenarios import build_scenario

    identity = {}
    for scenario, n, m, seed in SHARD_REFERENCE_INSTANCES:
        cluster, tasks = build_scenario(
            scenario, num_tasks=n, num_servers=m, seed=seed
        )
        cands = [build_candidates(t) for t in tasks]
        cen = JointOptimizer(cluster).solve(tasks, candidates=cands, seed=seed)
        one = solve_sharded(
            tasks, cluster, config=JointSolverConfig(shards=1),
            candidates=cands, seed=seed,
        )
        identity[f"{scenario}:{n}x{m}@{seed}"] = (
            _plans_equal(cen.plan, one.plan) and cen.history == one.history
        )

    # serial vs parallel shard fan-out on a small multi-shard instance
    cluster, tasks = build_scenario("smart_city", num_tasks=24, num_servers=4, seed=3)
    cands = [build_candidates(t) for t in tasks]
    serial = solve_sharded(
        tasks, cluster,
        config=JointSolverConfig(shards=2, migration_rounds=2),
        candidates=cands, seed=3,
    )
    pooled = solve_sharded(
        tasks, cluster,
        config=JointSolverConfig(shards=2, migration_rounds=2, restart_workers=4),
        candidates=cands, seed=3,
    )
    fanout_equal = (
        _plans_equal(serial.plan, pooled.plan)
        and serial.migration_history == pooled.migration_history
    )

    # the scale instance: both arms timed best-of-2 (same min-of-N trick the
    # sim suite uses — the slow arm's ~25 s runs swing ~15% with scheduler
    # noise on a shared box, which is enough to flap a 5x speedup floor)
    sc = SHARD_SCALE_INSTANCE
    cluster, tasks = build_scenario(
        sc["scenario"], num_tasks=sc["tasks"], num_servers=sc["servers"],
        server_spread=sc["server_spread"], seed=sc["seed"],
    )
    tasks = [
        dataclasses.replace(t, arrival_rate=t.arrival_rate * sc["rate_scale"])
        for t in tasks
    ]
    cands = [build_candidates(t) for t in tasks]
    local_search = sc["tasks"] <= 32  # E9 precedent

    def _timed(cfg, rounds):
        best_s, result = float("inf"), None
        for _ in range(rounds):
            gc.collect()  # garbage from earlier suite stages skews the timing
            t0 = perf_counter()
            r = JointOptimizer(cluster, config=cfg).solve(
                tasks, candidates=cands, seed=sc["seed"]
            )
            best_s = min(best_s, perf_counter() - t0)
            result = r  # deterministic: every round returns the same plan
        return best_s, result

    # best-of-2 on the ~25 s centralized arm, best-of-3 on the ~5 s sharded
    # arm — the speedup floor rides on the ratio of the two minima
    centralized_s, cen = _timed(JointSolverConfig(local_search=local_search), 2)
    sharded_s, sha = _timed(
        JointSolverConfig(
            local_search=local_search,
            shards=sc["shards"],
            shard_by=sc["shard_by"],
            migration_rounds=sc["migration_rounds"],
        ),
        3,
    )
    obj_c = cen.plan.objective_value
    obj_s = sha.plan.objective_value

    # the 16k instance: one timed solve (its plan digest pinned), then one
    # incremental re-solve of a single drifted shard
    sc16 = SHARD_SCALE_16K
    cluster16, tasks16 = build_scenario(
        sc16["scenario"], num_tasks=sc16["tasks"], num_servers=sc16["servers"],
        server_spread=sc16["server_spread"], seed=sc16["seed"],
    )
    tasks16 = [
        dataclasses.replace(t, arrival_rate=t.arrival_rate * sc16["rate_scale"])
        for t in tasks16
    ]
    cands16 = [build_candidates(t) for t in tasks16]

    cfg16 = JointSolverConfig(
        shards=sc16["shards"],
        shard_by=sc16["shard_by"],
        migration_rounds=sc16["migration_rounds"],
        local_search=False,
        refine_thresholds=False,
    )
    gc.collect()
    t0 = perf_counter()
    sharded16 = solve_sharded(
        tasks16, cluster16, config=cfg16, candidates=cands16, seed=sc16["seed"]
    )
    sharded16_s = perf_counter() - t0
    gc.collect()
    t0 = perf_counter()
    resolve_dirty(
        tasks16, cluster16, sharded16, [3],
        config=cfg16, candidates=cands16, seed=sc16["seed"],
    )
    resolve16_s = perf_counter() - t0

    return {
        "suite": "shard",
        "workload": (
            f"{sc['scenario']} x{sc['tasks']} tasks / {sc['servers']} servers, "
            f"{sc['shards']} shards ({sc['shard_by']}), rate x{sc['rate_scale']}, "
            f"seed {sc['seed']}"
        ),
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
        "workload_16k": (
            f"{sc16['scenario']} x{sc16['tasks']} tasks / {sc16['servers']} "
            f"servers, {sc16['shards']} shards ({sc16['shard_by']}), "
            f"rate x{sc16['rate_scale']}, seed {sc16['seed']}"
        ),
        "sparse_16k_s": sharded16_s,
        "sparse_floor_16k_s": sum(st.solve_s for st in sharded16.shard_stats),
        "digest_16k": solve_digest(sharded16),
        "index_build_16k_s": sharded16.perf.index_build_s,
        "resolve_dirty_16k_s": resolve16_s,
        "resolve_speedup_16k": sharded16_s / max(resolve16_s, 1e-9),
        "migration_history_16k": list(sharded16.migration_history),
    }


def append_solver_trajectory(current: dict, path: Path = SOLVER_TRAJECTORY) -> None:
    """Append this run's headline numbers to the BENCH_solver.json history."""
    import os
    from datetime import datetime, timezone

    entries = json.loads(path.read_text()) if path.exists() else []
    entries.append(
        {
            "at": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            "suite": "shard",
            "workload": current["workload"],
            "centralized_s": round(current["centralized_s"], 3),
            "sharded_s": round(current["sharded_s"], 3),
            "speedup": round(current["speedup"], 2),
            "regression_pct": round(current["regression_pct"], 3),
            "migrations": current["migrations"],
            "sparse_16k_s": round(current["sparse_16k_s"], 3),
            "resolve_dirty_16k_s": round(current["resolve_dirty_16k_s"], 3),
            "cpus": len(os.sched_getaffinity(0)),
        }
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(entries, indent=2) + "\n")


def check_shard(
    baseline: dict,
    current: dict,
    factor: float,
    min_speedup: float,
    max_regression_pct: float,
    min_resolve_speedup: float,
) -> int:
    """Gate the sharded control plane: identity, digests, wall, speedup."""
    failures = []

    for key, ok in current["identity"].items():
        status = "OK" if ok else "FAIL"
        print(f"{status} 1-shard == centralized (bit-exact) on {key}")
        if not ok:
            failures.append(f"identity:{key}")

    status = "OK" if current["fanout_equal"] else "FAIL"
    print(f"{status} serial shard fan-out == parallel shard fan-out")
    if not current["fanout_equal"]:
        failures.append("fanout_equal")

    for key, label in (("digest_fanout", "fan-out instance"),
                       ("digest_16k", current["workload_16k"])):
        ok = current[key] == baseline[key]
        print(
            f"{'OK' if ok else 'FAIL'} plan + migration history digest "
            f"{current[key][:12]} vs baseline {baseline[key][:12]} "
            f"(exact) on the {label}"
        )
        if not ok:
            failures.append(key)

    ratio = current["sharded_s"] / max(baseline["sharded_s"], 1e-9)
    status = "OK" if ratio <= factor else "FAIL"
    print(
        f"{status} sharded_s {current['sharded_s']:.2f}s vs baseline "
        f"{baseline['sharded_s']:.2f}s ({ratio:.2f}x, budget {factor:.2f}x)"
    )
    if ratio > factor:
        failures.append("sharded_s")

    speedup = current["speedup"]
    status = "OK" if speedup >= min_speedup else "FAIL"
    print(
        f"{status} sharded {speedup:.2f}x faster than centralized "
        f"({current['centralized_s']:.2f}s -> {current['sharded_s']:.2f}s, "
        f"floor {min_speedup:.1f}x)"
    )
    if speedup < min_speedup:
        failures.append("speedup")

    regr = current["regression_pct"]
    status = "OK" if regr <= max_regression_pct else "FAIL"
    print(
        f"{status} objective regression {regr:+.2f}% vs centralized "
        f"(ceiling {max_regression_pct:.1f}%)"
    )
    if regr > max_regression_pct:
        failures.append("regression_pct")

    base_mig = baseline.get("migration_history")
    if base_mig is not None:
        cur_mig = current["migration_history"]
        status = "OK" if cur_mig == base_mig else "FAIL"
        print(
            f"{status} migration history {cur_mig} vs baseline {base_mig} "
            "(exact, fully seeded)"
        )
        if cur_mig != base_mig:
            failures.append("migration_history")

    # --- the 16k block ---
    base_16k = baseline.get("sparse_16k_s")
    if base_16k is not None:
        ratio = current["sparse_16k_s"] / max(base_16k, 1e-9)
        status = "OK" if ratio <= factor else "FAIL"
        print(
            f"{status} sparse_16k_s {current['sparse_16k_s']:.2f}s vs baseline "
            f"{base_16k:.2f}s ({ratio:.2f}x, budget {factor:.2f}x)"
        )
        if ratio > factor:
            failures.append("sparse_16k_s")

    resolve = current["resolve_speedup_16k"]
    status = "OK" if resolve >= min_resolve_speedup else "FAIL"
    print(
        f"{status} resolve_dirty(1 shard) {resolve:.1f}x faster than the full "
        f"sharded solve ({current['sparse_16k_s']:.2f}s -> "
        f"{current['resolve_dirty_16k_s']:.2f}s, floor {min_resolve_speedup:.1f}x)"
    )
    if resolve < min_resolve_speedup:
        failures.append("resolve_speedup_16k")

    base_mig16 = baseline.get("migration_history_16k")
    if base_mig16 is not None:
        cur_mig16 = current["migration_history_16k"]
        status = "OK" if cur_mig16 == base_mig16 else "FAIL"
        print(
            f"{status} 16k migration history {cur_mig16} vs baseline "
            f"{base_mig16} (exact, fully seeded)"
        )
        if cur_mig16 != base_mig16:
            failures.append("migration_history_16k")

    if failures:
        print(f"shard perf gate FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("shard perf gate passed")
    return 0


def run_shard_suite(args) -> int:
    """``--suite shard`` flow: baseline update or full gate (+ trajectory)."""
    if args.check_overhead:
        print("--check-overhead is not defined for the shard suite", file=sys.stderr)
        return 1
    current = measure_shard()
    write_artifacts(args, "shard", current)
    append_solver_trajectory(current)
    if args.update:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        if not (all(current["identity"].values()) and current["fanout_equal"]):
            print(
                "refusing to write baseline: 1-shard identity or shard "
                "fan-out contract broken",
                file=sys.stderr,
            )
            return 1
        args.baseline.write_text(json.dumps(current, indent=2) + "\n")
        print(f"baseline updated: {args.baseline}")
        print(json.dumps(current, indent=2))
        return 0
    if not args.baseline.exists():
        print(
            f"no baseline at {args.baseline}; run with --suite shard --update first",
            file=sys.stderr,
        )
        return 1
    return check_shard(
        json.loads(args.baseline.read_text()),
        current,
        args.factor,
        args.min_shard_speedup,
        args.max_regression_pct,
        args.min_resolve_speedup,
    )


def obs_probe(mode: str) -> dict:
    """Run the 1M-request streaming sim, optionally monitored, in isolation.

    Executed in a fresh interpreter (``--obs-probe plain|monitored``) so the
    two arms' peak RSS and wall time are each attributable to exactly one
    configuration.  The monitored arm carries 1 s tumbling windows and
    reports the windowed + SLO fingerprints the gate pins.
    """
    import resource
    from dataclasses import replace

    from repro.sim.runner import simulate_plan
    from repro.telemetry import WindowConfig, evaluate_slos

    tasks, plan, cluster, cfg = _stream_workload()
    scfg = replace(cfg, streaming=True)
    if mode == "monitored":
        # the ~17,000 s horizon needs a coarser layout than the interactive
        # default to stay inside the per-task histogram-cell guard: 5 s
        # windows x 20 ms bins ≈ 0.34M cells/task (~45 MiB over 16 tasks)
        scfg = replace(
            scfg, windows=WindowConfig(window_s=5.0, bin_s=2e-2, max_s=2.0)
        )
    t0 = perf_counter()
    report = simulate_plan(tasks, plan, cluster, scfg)
    wall = perf_counter() - t0
    out = {
        "mode": mode,
        "wall_s": wall,
        "requests": report.counters.requests,
        "req_per_s": report.counters.requests / wall,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if mode == "monitored":
        out["windowed_fingerprint"] = report.windowed.fingerprint()
        out["slo_fingerprint"] = evaluate_slos(report.windowed).fingerprint()
    return out


def _obs_identity() -> dict:
    """Event-loop ≡ fast-path ≡ streaming windowed/SLO identity (fixed seed)."""
    from dataclasses import replace

    from repro.sim.runner import simulate_plan
    from repro.telemetry import WindowConfig, evaluate_slos

    tasks, plan, cluster, cfg = _sim_workload()
    wcfg = WindowConfig(window_s=0.5)
    fast = simulate_plan(tasks, plan, cluster, replace(cfg, windows=wcfg))
    event = simulate_plan(
        tasks, plan, cluster, replace(cfg, fast_path=False, windows=wcfg)
    )
    stream = simulate_plan(
        tasks, plan, cluster,
        replace(cfg, streaming=True, chunk_size=4096, windows=wcfg),
    )
    fp = {k: r.windowed.fingerprint() for k, r in
          (("fast", fast), ("event", event), ("stream", stream))}
    slo = {k: evaluate_slos(r.windowed).fingerprint() for k, r in
           (("fast", fast), ("event", event), ("stream", stream))}
    return {
        "event_equals_fast": fp["event"] == fp["fast"] and slo["event"] == slo["fast"],
        "stream_equals_fast": fp["stream"] == fp["fast"] and slo["stream"] == slo["fast"],
        "windowed_fingerprint": fp["fast"],
        "slo_fingerprint": slo["fast"],
    }


def _openmetrics_wellformed() -> bool:
    """Sanity of the OpenMetrics exposition over a real sim's counters."""
    from repro.sim.runner import simulate_plan
    from repro.telemetry import openmetrics_text

    tasks, plan, cluster, cfg = _sim_workload()
    report = simulate_plan(tasks, plan, cluster, cfg)
    registry = MetricsRegistry()
    report.counters.publish(registry)
    text = openmetrics_text(registry)
    return (
        text.rstrip().endswith("# EOF")
        and "repro_sim_requests_total" in text
        and "# TYPE repro_sim_requests counter" in text
    )


def measure_obs(rounds: int = 4) -> dict:
    """Observability measurement in the gate's JSON-safe shape.

    The plain and monitored 1M-request arms each run ``rounds`` times in
    fresh subprocesses, **interleaved** (plain, monitored, plain, ...) and
    the overhead ratio is the best of the per-round pairwise ratios
    ``monitored_i / plain_i``: adjacent runs share machine state
    (CPU-frequency scaling, page cache, background load), so pairing
    cancels the slow drift that would bias comparing minima drawn from
    different moments.  Throughput is best-of-``rounds``; max RSS is taken
    over the monitored runs.  The cross-engine identity and OpenMetrics
    checks run in-process on the small fixed workload.
    """
    import json as _json
    import subprocess

    def _probe_once(mode: str) -> dict:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--obs-probe", mode],
            capture_output=True, text=True, check=True,
        )
        return _json.loads(out.stdout)

    plain, monitored = [], []
    for _ in range(rounds):
        plain.append(_probe_once("plain"))
        monitored.append(_probe_once("monitored"))
    best_pair = min(
        zip(plain, monitored),
        key=lambda pm: pm[1]["wall_s"] / max(pm[0]["wall_s"], 1e-9),
    )
    plain_wall = best_pair[0]["wall_s"]
    mon_best = min(monitored, key=lambda p: p["wall_s"])
    fingerprints = {(p["windowed_fingerprint"], p["slo_fingerprint"]) for p in monitored}
    identity = _obs_identity()
    return {
        "suite": "obs",
        "workload": (
            f"smart_city x16 tasks, {STREAM_TARGET_REQUESTS} requests, "
            "5s windows x 20ms bins, seed 0"
        ),
        "requests": mon_best["requests"],
        "plain_wall_s": plain_wall,
        "monitored_wall_s": best_pair[1]["wall_s"],
        "monitor_ratio": best_pair[1]["wall_s"] / max(plain_wall, 1e-9),
        "monitored_req_per_s": mon_best["req_per_s"],
        "monitored_peak_rss_kb": max(p["peak_rss_kb"] for p in monitored),
        "probe_fingerprints_stable": len(fingerprints) == 1,
        "windowed_fingerprint_1m": mon_best["windowed_fingerprint"],
        "slo_fingerprint_1m": mon_best["slo_fingerprint"],
        "event_equals_fast": identity["event_equals_fast"],
        "stream_equals_fast": identity["stream_equals_fast"],
        "windowed_fingerprint": identity["windowed_fingerprint"],
        "slo_fingerprint": identity["slo_fingerprint"],
        "openmetrics_ok": _openmetrics_wellformed(),
    }


def check_obs(
    baseline: dict,
    current: dict,
    factor: float,
    rss_ceiling_mb: float,
    max_monitor_overhead: float,
) -> int:
    """Gate the SLO plane: identity, overhead, memory, pinned fingerprints."""
    failures = []

    for key, label in (
        ("event_equals_fast", "event-loop == fast-path windowed/SLO fingerprints"),
        ("stream_equals_fast", "streaming == fast-path windowed/SLO fingerprints"),
        ("probe_fingerprints_stable", "1M monitored fingerprints stable across rounds"),
        ("openmetrics_ok", "OpenMetrics exposition well-formed (# EOF, _total)"),
    ):
        status = "OK" if current[key] else "FAIL"
        print(f"{status} {label}")
        if not current[key]:
            failures.append(key)

    for key in ("windowed_fingerprint", "slo_fingerprint",
                "windowed_fingerprint_1m", "slo_fingerprint_1m"):
        base = baseline.get(key)
        if base is None:
            continue
        ok = current[key] == base
        status = "OK" if ok else "FAIL"
        print(f"{status} {key} {current[key][:16]}… vs baseline {base[:16]}… (exact)")
        if not ok:
            failures.append(key)

    ratio = current["monitor_ratio"]
    status = "OK" if ratio <= max_monitor_overhead else "FAIL"
    print(
        f"{status} monitored 1M wall {current['monitored_wall_s']:.2f}s vs "
        f"plain {current['plain_wall_s']:.2f}s "
        f"({ratio:.3f}x, budget {max_monitor_overhead:.2f}x)"
    )
    if ratio > max_monitor_overhead:
        failures.append("monitor_ratio")

    ceiling_kb = rss_ceiling_mb * 1024
    status = "OK" if current["monitored_peak_rss_kb"] <= ceiling_kb else "FAIL"
    print(
        f"{status} monitored peak RSS {current['monitored_peak_rss_kb'] / 1024:.0f} MiB "
        f"(ceiling {rss_ceiling_mb:.0f} MiB)"
    )
    if current["monitored_peak_rss_kb"] > ceiling_kb:
        failures.append("peak_rss")

    floor = baseline["monitored_req_per_s"] / factor
    status = "OK" if current["monitored_req_per_s"] >= floor else "FAIL"
    print(
        f"{status} monitored throughput {current['monitored_req_per_s'] / 1e3:.0f}k "
        f"req/s vs baseline {baseline['monitored_req_per_s'] / 1e3:.0f}k "
        f"(floor {floor / 1e3:.0f}k, budget {factor:.2f}x)"
    )
    if current["monitored_req_per_s"] < floor:
        failures.append("monitored_req_per_s")

    if failures:
        print(f"obs perf gate FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("obs perf gate passed")
    return 0


def run_obs_suite(args) -> int:
    """``--suite obs`` flow: baseline update or full gate."""
    if args.check_overhead:
        print("--check-overhead is not defined for the obs suite", file=sys.stderr)
        return 1
    current = measure_obs()
    write_artifacts(args, "obs", current)
    if args.update:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        if not (
            current["event_equals_fast"]
            and current["stream_equals_fast"]
            and current["probe_fingerprints_stable"]
            and current["openmetrics_ok"]
        ):
            print(
                "refusing to write baseline: windowed identity, fingerprint "
                "stability, or OpenMetrics sanity broken",
                file=sys.stderr,
            )
            return 1
        args.baseline.write_text(json.dumps(current, indent=2) + "\n")
        print(f"baseline updated: {args.baseline}")
        print(json.dumps(current, indent=2))
        return 0
    if not args.baseline.exists():
        print(
            f"no baseline at {args.baseline}; run with --suite obs --update first",
            file=sys.stderr,
        )
        return 1
    return check_obs(
        json.loads(args.baseline.read_text()),
        current,
        args.factor,
        args.rss_ceiling_mb,
        args.max_monitor_overhead,
    )


#: Fixed-seed instances for the risk-off (``buffer="none"``) identity sweep.
RISK_REFERENCE_INSTANCES = (
    ("smart_city", 6, 2, 0),
    ("industrial", 8, 2, 3),
    ("mobile_ar", 8, 3, 5),
)

#: Jitter sigma of the cross-engine equivalence check (mean-one log-normal).
RISK_JITTER_SIGMA = 0.2


def measure_risk(rounds: int = 5) -> dict:
    """Risk-suite measurement in the gate's JSON-safe shape.

    Four blocks: the ``buffer="none"`` ≡ risk-free identity sweep
    (centralized + sharded), the noise-free sim counter check against the
    sim baseline, the jitter-on cross-engine equivalence, and the paired
    interleaved overhead timing.  The E18 calibration run happens in
    :func:`run_risk_suite` so its table can land in the artifacts.
    """
    from dataclasses import replace

    from repro.core.candidates import build_candidates
    from repro.core.coordinator import solve_sharded
    from repro.core.joint import JointOptimizer, JointSolverConfig
    from repro.core.risk import RiskConfig
    from repro.sim.runner import simulate_plan
    from repro.workloads.scenarios import build_scenario

    none_cfg = JointSolverConfig(risk=RiskConfig(buffer="none"))
    identity = {}
    for scenario, n, m, seed in RISK_REFERENCE_INSTANCES:
        cluster, tasks = build_scenario(
            scenario, num_tasks=n, num_servers=m, seed=seed
        )
        cands = [build_candidates(t) for t in tasks]
        plain = JointOptimizer(cluster).solve(tasks, candidates=cands, seed=seed)
        off = JointOptimizer(cluster, config=none_cfg).solve(
            tasks, candidates=cands, seed=seed
        )
        identity[f"{scenario}:{n}x{m}@{seed}"] = (
            _plans_equal(plain.plan, off.plan) and plain.history == off.history
        )

    # sharded arm of the same contract: buffer="none" through the coordinator
    cluster, tasks = build_scenario("smart_city", num_tasks=24, num_servers=4, seed=3)
    cands = [build_candidates(t) for t in tasks]
    sh_plain = solve_sharded(
        tasks, cluster,
        config=JointSolverConfig(shards=2, migration_rounds=2),
        candidates=cands, seed=3,
    )
    sh_off = solve_sharded(
        tasks, cluster,
        config=JointSolverConfig(
            shards=2, migration_rounds=2, risk=RiskConfig(buffer="none")
        ),
        candidates=cands, seed=3,
    )
    sharded_identity = (
        _plans_equal(sh_plain.plan, sh_off.plan)
        and sh_plain.migration_history == sh_off.migration_history
    )

    # noise-free sim counters vs the checked-in sim baseline: the jitter
    # plumbing may not perturb the deterministic replay
    tasks, plan, cluster, cfg = _sim_workload()
    report = simulate_plan(tasks, plan, cluster, cfg)
    snapshot = _registry_snapshot(report.counters)
    sim_counters = {
        name: snapshot[f"sim.{name}"] for name in SIM_GATED_COUNTERS
    }

    # jitter on: fast path ≡ event loop (records bit-exact), streaming ≡
    # record-backed (counters + scalar summary exact)
    jcfg = replace(cfg, service_noise=RISK_JITTER_SIGMA)
    fast = simulate_plan(tasks, plan, cluster, jcfg)
    event = simulate_plan(tasks, plan, cluster, replace(jcfg, fast_path=False))
    stream = simulate_plan(
        tasks, plan, cluster, replace(jcfg, streaming=True, chunk_size=4096)
    )
    jitter_paths_equal = _reports_equal(fast, event)
    jitter_stream_equal = (
        stream.counters == fast.counters
        and stream.mean_latency_s == fast.mean_latency_s
        and stream.miss_rate == fast.miss_rate
        and stream.accuracy == fast.accuracy
    )

    # paired interleaved overhead: risk-free vs buffer="none" solves share
    # adjacent machine state, so the best pairwise ratio cancels drift
    cluster, tasks = build_scenario("smart_city", num_tasks=16, seed=0)
    cands = [build_candidates(t) for t in tasks]
    best_ratio = float("inf")
    for _ in range(rounds):
        gc.collect()
        t0 = perf_counter()
        JointOptimizer(cluster).solve(tasks, candidates=cands, seed=0)
        plain_s = perf_counter() - t0
        t0 = perf_counter()
        JointOptimizer(cluster, config=none_cfg).solve(
            tasks, candidates=cands, seed=0
        )
        off_s = perf_counter() - t0
        best_ratio = min(best_ratio, off_s / max(plain_s, 1e-9))

    return {
        "suite": "risk",
        "workload": (
            f"identity sweep + smart_city x16 sim workload, jitter "
            f"sigma={RISK_JITTER_SIGMA}, seed 0"
        ),
        "identity": identity,
        "sharded_identity": sharded_identity,
        "sim_counters": sim_counters,
        "jitter_paths_equal": jitter_paths_equal,
        "jitter_stream_equal": jitter_stream_equal,
        "overhead_ratio": best_ratio,
    }


def check_risk(
    current: dict,
    e18,
    sim_baseline: dict,
    max_risk_overhead: float,
) -> int:
    """Gate the chance-constrained path: identity, equivalence, calibration."""
    failures = []

    for key, ok in current["identity"].items():
        status = "OK" if ok else "FAIL"
        print(f'{status} buffer="none" == risk-free solve (bit-exact) on {key}')
        if not ok:
            failures.append(f"identity:{key}")

    status = "OK" if current["sharded_identity"] else "FAIL"
    print(f'{status} buffer="none" == risk-free solve through the 2-shard coordinator')
    if not current["sharded_identity"]:
        failures.append("sharded_identity")

    base_counters = (sim_baseline or {}).get("counters", {})
    for name in SIM_GATED_COUNTERS:
        base = base_counters.get(name)
        cur = current["sim_counters"][name]
        if base is None:
            print(f"--   sim.{name} {cur} (no sim baseline to pin against)")
            continue
        status = "OK" if cur == base else "FAIL"
        print(
            f"{status} noise-free sim.{name} {cur} vs sim baseline {base} "
            f"(exact, drift {cur - base:+d})"
        )
        if cur != base:
            failures.append(f"sim.{name}")

    for key, label in (
        ("jitter_paths_equal",
         f"jitter sigma={RISK_JITTER_SIGMA}: fast-path report == event-loop "
         "report (bit-exact)"),
        ("jitter_stream_equal",
         f"jitter sigma={RISK_JITTER_SIGMA}: streaming summary == record-backed "
         "summary (exact)"),
    ):
        status = "OK" if current[key] else "FAIL"
        print(f"{status} {label}")
        if not current[key]:
            failures.append(key)

    ratio = current["overhead_ratio"]
    status = "OK" if ratio <= max_risk_overhead else "FAIL"
    print(
        f'{status} buffer="none" solve overhead {ratio:.3f}x vs risk-free '
        f"(paired best-of-N, budget {max_risk_overhead:.2f}x)"
    )
    if ratio > max_risk_overhead:
        failures.append("overhead_ratio")

    cal = e18.extras["calibration_ok"]
    status = "OK" if cal else "FAIL"
    print(
        f"{status} E18 calibration: realized tail violation <= eps in every "
        f"(eps, load) cell"
    )
    if not cal:
        failures.append("calibration_ok")

    beats = e18.extras["beats_deterministic"]
    status = "OK" if beats else "FAIL"
    print(
        f"{status} E18: buffered arm beats the deterministic arm's violation "
        "rate on >=1 over-eps cell"
    )
    if not beats:
        failures.append("beats_deterministic")

    if failures:
        print(f"risk perf gate FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("risk perf gate passed")
    return 0


def run_risk_suite(args) -> int:
    """``--suite risk`` flow: contract gate (no wall-clock baseline of its own)."""
    from repro.experiments import e18_risk

    if args.check_overhead:
        print("--check-overhead is not defined for the risk suite", file=sys.stderr)
        return 1
    if args.update:
        print(
            "risk suite is contract-only (pins the sim baseline's counters); "
            "nothing to update — running the gate",
        )
    current = measure_risk()
    # reduced-horizon E18: the calibration claim at gate cost
    e18 = e18_risk.run(horizon_s=15.0, warmup_s=2.0)
    if getattr(args, "artifacts_dir", None):
        outdir = Path(args.artifacts_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "risk_e18.txt").write_text(e18.format() + "\n")
    write_artifacts(args, "risk", current)
    sim_baseline = (
        json.loads(DEFAULT_SIM_BASELINE.read_text())
        if DEFAULT_SIM_BASELINE.exists()
        else None
    )
    return check_risk(current, e18, sim_baseline, args.max_risk_overhead)


def write_artifacts(args, suite: str, current: dict) -> None:
    """Write CI-uploadable artifacts when ``--artifacts-dir`` is given.

    Every suite drops its raw measurement JSON plus a solver phase-breakdown
    table (from a small traced solve — the same table ``repro trace``
    prints); the obs suite additionally writes a replayable ``metrics.jsonl``
    stream and an ``openmetrics.txt`` snapshot of a monitored run.
    """
    if not getattr(args, "artifacts_dir", None):
        return
    outdir = Path(args.artifacts_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / f"{suite}_measure.json").write_text(
        json.dumps(current, indent=2, default=str) + "\n"
    )

    from repro.analysis.tables import format_table
    from repro.core.joint import JointOptimizer
    from repro.telemetry.trace import get_tracer, phase_breakdown
    from repro.workloads.scenarios import build_scenario

    tracer = get_tracer().enable()
    try:
        cluster, tasks = build_scenario("smart_city", num_tasks=16, seed=0)
        JointOptimizer(cluster).solve(tasks, seed=0)
    finally:
        tracer.disable()
    spans = tracer.drain()
    rows = phase_breakdown(spans, root="solve")
    (outdir / f"{suite}_phase_breakdown.txt").write_text(
        format_table(
            ["phase", "count", "total_ms", "fraction"],
            [(name, count, total * 1e3, frac) for name, count, total, frac in rows],
            title="solve phase breakdown",
            float_fmt="{:.3f}",
        )
        + "\n"
    )

    if suite == "obs":
        from dataclasses import replace

        from repro.sim.runner import simulate_plan
        from repro.telemetry import (
            MetricsStreamWriter,
            WindowConfig,
            evaluate_slos,
            export_openmetrics,
        )

        tasks, plan, cluster, cfg = _sim_workload()
        report = simulate_plan(
            tasks, plan, cluster,
            replace(cfg, streaming=True, windows=WindowConfig(window_s=0.5)),
        )
        registry = MetricsRegistry()
        report.counters.publish(registry)
        slo = evaluate_slos(report.windowed)
        with MetricsStreamWriter(str(outdir / "metrics.jsonl")) as out:
            out.windowed_snapshot(cfg.horizon_s, report.windowed.snapshot())
            out.slo_report(cfg.horizon_s, slo.as_dict())
            out.registry_snapshot(cfg.horizon_s, registry)
        export_openmetrics(registry, str(outdir / "openmetrics.txt"))
    print(f"artifacts written to {outdir}")


def check_overhead(baseline_path: Path, overhead: float) -> int:
    """Assert a tracing-disabled solve stays within ``overhead`` of baseline."""
    from repro.telemetry.trace import get_tracer

    if not baseline_path.exists():
        print(
            f"no baseline at {baseline_path}; run with --update first",
            file=sys.stderr,
        )
        return 1
    baseline = json.loads(baseline_path.read_text())
    tracer = get_tracer()
    if tracer.enabled:  # defensive: the gate must measure the disabled path
        tracer.disable()
    current = measure()
    budget = baseline["solve_s"] * (1.0 + overhead)
    ratio = current["solve_s"] / max(baseline["solve_s"], 1e-9)
    status = "OK" if current["solve_s"] <= budget else "FAIL"
    print(
        f"{status} tracing-disabled solve_s {current['solve_s']:.4f}s vs "
        f"baseline {baseline['solve_s']:.4f}s "
        f"({ratio:.3f}x, budget {1.0 + overhead:.2f}x)"
    )
    if current["solve_s"] > budget:
        print("telemetry overhead gate FAILED", file=sys.stderr)
        return 1
    print("telemetry overhead gate passed")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--suite",
        choices=("solver", "sim", "stream", "shard", "obs", "risk"),
        default="solver",
        help=(
            "what to gate: the E9 joint solver (default), the simulator hot "
            "path, the million-request streaming path, the sharded control "
            "plane, the streaming SLO observability plane, or the "
            "chance-constrained risk path"
        ),
    )
    ap.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline JSON (default: the per-suite file under benchmarks/baselines/)",
    )
    ap.add_argument(
        "--factor",
        type=float,
        default=1.5,
        help="max allowed ratio vs. baseline (wall time and counters)",
    )
    ap.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from this run instead of checking",
    )
    ap.add_argument(
        "--check-overhead",
        action="store_true",
        help="assert tracing-disabled solve time within --overhead of baseline",
    )
    ap.add_argument(
        "--overhead",
        type=float,
        default=0.02,
        help="allowed fractional overhead for --check-overhead (default 2%%)",
    )
    ap.add_argument(
        "--rss-ceiling-mb",
        type=float,
        default=512.0,
        help="stream suite: max peak RSS of the 1M-request run (default 512 MiB)",
    )
    ap.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help=(
            "stream suite: min wall-clock speedup of the sharded streaming "
            "fan-out over the record-backed run (default 3x)"
        ),
    )
    ap.add_argument(
        "--min-shard-speedup",
        type=float,
        default=4.5,
        help=(
            "shard suite: min wall-clock speedup of the sharded solve over "
            "the centralized solve on the scale instance (default 4.5x, "
            "under the baseline's recorded ~5.7x to absorb timing noise)"
        ),
    )
    ap.add_argument(
        "--min-resolve-speedup",
        type=float,
        default=10.0,
        help=(
            "shard suite: min speedup of an incremental resolve_dirty of one "
            "drifted shard over the full sharded solve on the 16k instance "
            "(default 10x, measured ~20x)"
        ),
    )
    ap.add_argument(
        "--max-regression-pct",
        type=float,
        default=5.0,
        help=(
            "shard suite: max objective regression of the sharded solve vs "
            "centralized, in percent (default 5%%)"
        ),
    )
    ap.add_argument(
        "--max-monitor-overhead",
        type=float,
        default=1.15,
        help=(
            "obs suite: max wall-time ratio of the monitored 1M-request "
            "streaming run over the un-monitored one (default 1.15x)"
        ),
    )
    ap.add_argument(
        "--max-risk-overhead",
        type=float,
        default=1.05,
        help=(
            "risk suite: max paired wall-time ratio of a buffer=\"none\" "
            "solve over a risk-free solve (default 1.05x, measured ~1.00x)"
        ),
    )
    ap.add_argument(
        "--artifacts-dir",
        type=Path,
        default=None,
        help=(
            "write CI-uploadable artifacts (measurement JSON, phase-breakdown "
            "table; obs suite also metrics.jsonl + openmetrics.txt) here"
        ),
    )
    ap.add_argument("--stream-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument(
        "--obs-probe", choices=("plain", "monitored"), default=None,
        help=argparse.SUPPRESS,
    )
    args = ap.parse_args(argv)
    if args.stream_probe:
        print(json.dumps(stream_probe()))
        return 0
    if args.obs_probe:
        print(json.dumps(obs_probe(args.obs_probe)))
        return 0
    if args.baseline is None:
        args.baseline = {
            "sim": DEFAULT_SIM_BASELINE,
            "stream": DEFAULT_STREAM_BASELINE,
            "shard": DEFAULT_SHARD_BASELINE,
            "obs": DEFAULT_OBS_BASELINE,
        }.get(args.suite, DEFAULT_BASELINE)

    if args.suite == "risk":
        return run_risk_suite(args)

    if args.suite == "obs":
        return run_obs_suite(args)

    if args.suite == "shard":
        return run_shard_suite(args)

    if args.suite == "stream":
        return run_stream_suite(args)

    if args.suite == "sim":
        return run_sim_suite(args)

    if args.check_overhead:
        return check_overhead(args.baseline, args.overhead)

    current = measure()
    write_artifacts(args, "solver", current)
    if args.update:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(current, indent=2) + "\n")
        print(f"baseline updated: {args.baseline}")
        print(json.dumps(current, indent=2))
        return 0

    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; run with --update first", file=sys.stderr)
        return 1
    baseline = json.loads(args.baseline.read_text())
    if baseline.get("largest_instance") != current["largest_instance"]:
        print(
            f"baseline instance {baseline.get('largest_instance')} != "
            f"current {current['largest_instance']}; refresh with --update",
            file=sys.stderr,
        )
        return 1

    failures = []
    ratio = current["solve_s"] / max(baseline["solve_s"], 1e-9)
    status = "OK" if ratio <= args.factor else "FAIL"
    print(
        f"{status} solve_s {current['solve_s']:.3f}s vs baseline "
        f"{baseline['solve_s']:.3f}s ({ratio:.2f}x, budget {args.factor:.2f}x)"
    )
    if ratio > args.factor:
        failures.append("solve_s")
    for name in GATED_COUNTERS:
        base = baseline["counters"].get(name)
        cur = current["counters"][name]
        if not base:
            continue
        ratio = cur / base
        status = "OK" if ratio <= args.factor else "FAIL"
        print(
            f"{status} {name} {cur} vs baseline {base} "
            f"({ratio:.2f}x, budget {args.factor:.2f}x)"
        )
        if ratio > args.factor:
            failures.append(name)
    # full metrics-snapshot section: gate every baseline-known solver.* counter
    # (older baselines without the section skip this block gracefully)
    base_metrics = baseline.get("metrics", {})
    for name in sorted(base_metrics):
        base = base_metrics[name]
        cur = current["metrics"].get(name)
        if not base or cur is None or name.removeprefix("solver.") in GATED_COUNTERS:
            continue
        ratio = cur / base
        status = "OK" if ratio <= args.factor else "FAIL"
        print(
            f"{status} {name} {cur} vs baseline {base} "
            f"({ratio:.2f}x, budget {args.factor:.2f}x)"
        )
        if ratio > args.factor:
            failures.append(name)
    if failures:
        print(f"perf gate FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
