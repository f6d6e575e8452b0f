"""Hypothesis property tests for the failure-aware runtime.

The load-bearing invariant: every launched request is accounted for exactly
once — completed, discarded as warmup, lost, or shed — regardless of arrival
process (Poisson or the tie-heavy evenly spaced one), fault schedule, or
recovery policy.
"""

import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.joint import JointOptimizer
from repro.faults import (
    FailurePolicy,
    FaultEvent,
    FaultSchedule,
    PlanUpdate,
    sample_fault_schedule,
)
from repro.sim import SimulationConfig, simulate_plan
from tests.arrivals import ARRIVALS, arrival_process

_PLAN_CACHE = {}


def _plan(request):
    """Solve the small instance once per process (hypothesis re-calls us)."""
    if "plan" not in _PLAN_CACHE:
        cluster = request.getfixturevalue("small_cluster")
        tasks = request.getfixturevalue("small_tasks")
        cands = request.getfixturevalue("small_candidates")
        _PLAN_CACHE["plan"] = JointOptimizer(cluster).solve(
            tasks, candidates=cands, seed=0
        ).plan
    return _PLAN_CACHE["plan"]


def _policies():
    return st.sampled_from([
        None,
        FailurePolicy(),
        FailurePolicy(max_retries=0, failover=False),
        FailurePolicy(max_retries=0, failover=False, degrade_local=False),
        FailurePolicy(stage_timeout_s=0.05, max_retries=3),
    ])


@settings(max_examples=15, deadline=None)
@given(
    arrival=st.sampled_from(ARRIVALS),
    seed=st.integers(0, 2**16),
    crash_rate=st.sampled_from([0.0, 4.0, 12.0]),
    loss_prob=st.sampled_from([0.0, 0.3]),
    policy=_policies(),
)
def test_conservation_across_arrivals_faults_policies(
    arrival, seed, crash_rate, loss_prob, policy, request
):
    cluster = request.getfixturevalue("small_cluster")
    tasks = request.getfixturevalue("small_tasks")
    plan = _plan(request)
    horizon = 8.0
    faults = sample_fault_schedule(
        seed,
        horizon_s=horizon,
        servers=[s.name for s in cluster.servers],
        tasks=[t.name for t in tasks],
        crash_rate_per_min=crash_rate,
        mean_down_s=1.5,
        loss_prob=loss_prob,
    )
    cfg = SimulationConfig(
        horizon_s=horizon,
        warmup_s=1.0,
        seed=seed,
        faults=faults if len(faults) else None,
        failure_policy=policy if len(faults) else None,
    )
    with arrival_process(arrival):
        rep = simulate_plan(tasks, plan, cluster, cfg)
    c = rep.counters
    assert c.conserved(), (
        f"requests={c.requests} != records={c.records} + warmup="
        f"{c.discarded_warmup} + lost={c.lost} + shed={c.shed}"
    )
    assert len(rep.records) == c.records


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    crash_s=st.floats(1.0, 5.0),
    down_s=st.floats(0.5, 4.0),
    update_s=st.floats(0.5, 7.5),
)
def test_conservation_with_plan_repair_and_shedding(
    seed, crash_s, down_s, update_s, request
):
    """Shedding a task mid-run still accounts for every launched request."""
    cluster = request.getfixturevalue("small_cluster")
    tasks = request.getfixturevalue("small_tasks")
    plan = _plan(request)
    cfg = SimulationConfig(
        horizon_s=8.0,
        warmup_s=0.0,
        seed=seed,
        faults=FaultSchedule.crash_recover(
            cluster.servers[0].name, crash_s, down_s
        ),
        failure_policy=FailurePolicy(),
    )
    update = PlanUpdate(update_s, plan, shed_tasks=(tasks[0].name,))
    rep = simulate_plan(tasks, plan, cluster, cfg, plan_updates=[update])
    c = rep.counters
    assert c.conserved()
    assert all(
        r.arrival_s < update_s for r in rep.records if r.task_name == tasks[0].name
    )


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16), severity=st.floats(0.05, 0.95))
def test_slowdown_never_loses_requests(seed, severity, request):
    """Stragglers delay work; only crashes and losses can drop it."""
    cluster = request.getfixturevalue("small_cluster")
    tasks = request.getfixturevalue("small_tasks")
    plan = _plan(request)
    sched = FaultSchedule(events=(
        FaultEvent("server_slowdown", cluster.servers[0].name, 1.0, 5.0, severity),
        FaultEvent("server_slowdown", cluster.servers[1].name, 2.0, 6.0, severity),
    ))
    cfg = SimulationConfig(horizon_s=8.0, warmup_s=0.0, seed=seed, faults=sched)
    rep = simulate_plan(tasks, plan, cluster, cfg)
    assert rep.counters.lost == 0
    assert rep.counters.shed == 0
    assert rep.counters.conserved()


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_permanent_crash_with_full_ladder_loses_nothing(seed, request):
    """With every rung enabled, a permanent crash degrades but never drops."""
    cluster = request.getfixturevalue("small_cluster")
    tasks = request.getfixturevalue("small_tasks")
    plan = _plan(request)
    sched = FaultSchedule(events=tuple(
        FaultEvent("server_crash", s.name, 2.0, math.inf)
        for s in cluster.servers
    ))
    cfg = SimulationConfig(
        horizon_s=6.0,
        warmup_s=0.0,
        seed=seed,
        faults=sched,
        failure_policy=FailurePolicy(),
    )
    rep = simulate_plan(tasks, plan, cluster, cfg)
    assert rep.counters.lost == 0
    assert rep.counters.conserved()
