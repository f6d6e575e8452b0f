"""P2 micro-bench: the simulator's replication fan-out against the event loop.

Eight replications of an E4-style workload (smart_city x 64 tasks, 60 s
horizon), fast path on 4 worker processes vs. the seed configuration (event
loop, serial), must win by >= 5x while every replication's report stays
bit-identical.  Fast ≡ event identity is also pinned by ``tests/sim`` and the
perf gate's sim suite; this bench is the only check of the fan-out speedup.
"""

from dataclasses import replace
from time import perf_counter

from repro.core.candidates import build_candidates
from repro.core.joint import JointOptimizer
from repro.faults import FaultSchedule
from repro.sim import SimulationConfig, merge_reports, run_replications
from repro.workloads.scenarios import build_scenario


def _reports_equal(a, b) -> bool:
    return (
        a.records == b.records
        and a.utilizations == b.utilizations
        and a.discarded_warmup == b.discarded_warmup
        and a.counters == b.counters
    )


def test_replication_fanout_speedup(benchmark):
    """Fast path + 4 workers vs. the seed event loop, 8 replications."""
    cluster, tasks = build_scenario("smart_city", num_tasks=64, seed=0)
    cands = [build_candidates(t) for t in tasks]
    plan = JointOptimizer(cluster).solve(tasks, candidates=cands, seed=0).plan
    fast_cfg = SimulationConfig(
        horizon_s=60.0, warmup_s=2.0, seed=0, replications=8, sim_workers=4
    )
    seed_cfg = replace(fast_cfg, faults=FaultSchedule(), sim_workers=1)

    t0 = perf_counter()
    event_reports = run_replications(tasks, plan, cluster, seed_cfg)
    event_s = perf_counter() - t0

    t0 = perf_counter()
    fast_reports = run_replications(tasks, plan, cluster, fast_cfg)
    fast_s = perf_counter() - t0

    for fast, event in zip(fast_reports, event_reports):
        assert _reports_equal(fast, event)
    speedup = event_s / fast_s
    assert speedup >= 5.0, f"fast fan-out only {speedup:.1f}x vs seed event loop"

    merged = benchmark.pedantic(
        lambda: merge_reports(run_replications(tasks, plan, cluster, fast_cfg)),
        rounds=1,
        iterations=1,
    )
    assert merged.counters.replications == 8
    benchmark.extra_info["event_s"] = event_s
    benchmark.extra_info["fast_s"] = fast_s
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["counters"] = merged.counters.as_dict()
