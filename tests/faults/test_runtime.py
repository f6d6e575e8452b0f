"""The failure-aware runtime end to end: config gating, the recovery
ladder, conservation, and deterministic replay."""

import dataclasses
import math

import pytest

from repro.errors import ConfigError
from repro.faults import FailurePolicy, FaultEvent, FaultSchedule, PlanUpdate
from repro.sim import SimulationConfig, simulate_plan
from repro.sim.runner import run_replications


def _crash_cfg(server, crash_s=3.0, down_s=4.0, horizon_s=12.0, **kw):
    return SimulationConfig(
        horizon_s=horizon_s, warmup_s=0.0, seed=0,
        faults=FaultSchedule.crash_recover(server, crash_s, down_s), **kw
    )


def _reports_equal(a, b):
    return (
        a.records == b.records
        and a.utilizations == b.utilizations
        and a.counters == b.counters
    )


class TestConfigGating:
    def test_policy_without_faults_rejected(self):
        with pytest.raises(ConfigError, match="requires a fault schedule"):
            SimulationConfig(failure_policy=FailurePolicy())

    def test_fault_beyond_horizon_rejected(self):
        with pytest.raises(ConfigError, match="beyond the horizon"):
            SimulationConfig(
                horizon_s=5.0, faults=FaultSchedule.crash_recover("s", 5.0, 1.0)
            )

    def test_plan_updates_require_faults(
        self, small_tasks, small_plan, small_cluster
    ):
        cfg = SimulationConfig(horizon_s=5.0, warmup_s=0.0)
        with pytest.raises(ConfigError, match="plan_updates"):
            simulate_plan(
                small_tasks, small_plan, small_cluster, cfg,
                plan_updates=[PlanUpdate(1.0, small_plan)],
            )

    def test_faultfree_run_reports_zero_failure_counters(
        self, small_tasks, small_plan, small_cluster
    ):
        rep = simulate_plan(
            small_tasks, small_plan, small_cluster,
            SimulationConfig(horizon_s=5.0, warmup_s=0.0, seed=0),
        )
        c = rep.counters
        assert (c.faults_injected, c.lost, c.shed, c.retries, c.failovers,
                c.degraded_completions) == (0, 0, 0, 0, 0, 0)
        assert c.conserved()


class TestRecoveryDemonstration:
    """The acceptance scenario: a mid-run crash strands in-flight requests."""

    def test_no_policy_loses_stranded_requests(
        self, small_tasks, small_plan, small_cluster, offload_target
    ):
        _, server = offload_target
        rep = simulate_plan(small_tasks, small_plan, small_cluster, _crash_cfg(server))
        assert rep.counters.faults_injected == 1
        assert rep.counters.lost > 0
        assert rep.counters.conserved()

    def test_policy_completes_every_request(
        self, small_tasks, small_plan, small_cluster, offload_target
    ):
        _, server = offload_target
        cfg = _crash_cfg(server, failure_policy=FailurePolicy())
        rep = simulate_plan(small_tasks, small_plan, small_cluster, cfg)
        c = rep.counters
        assert c.lost == 0 and c.shed == 0
        # every launched request is in the report (warmup_s=0: none discarded)
        assert c.records == c.requests
        # the ladder recovers by retrying or failing over, not only by
        # degrading to local execution
        assert c.retries + c.failovers > 0
        assert c.conserved()

    def test_recovery_restores_nominal_latency(
        self, small_tasks, small_plan, small_cluster, offload_target
    ):
        """Requests arriving well after recovery look like fault-free ones."""
        _, server = offload_target
        cfg = _crash_cfg(server, crash_s=3.0, down_s=2.0, horizon_s=14.0,
                         failure_policy=FailurePolicy())
        faulty = simulate_plan(small_tasks, small_plan, small_cluster, cfg)
        clean = simulate_plan(
            small_tasks, small_plan, small_cluster,
            SimulationConfig(horizon_s=14.0, warmup_s=0.0, seed=0),
        )
        tail = [r.latency_s for r in faulty.records if r.arrival_s > 9.0]
        clean_tail = [r.latency_s for r in clean.records if r.arrival_s > 9.0]
        assert max(tail) < 10 * max(clean_tail)


class TestLadderRungs:
    def test_degradation_when_failover_and_retries_disabled(
        self, small_tasks, small_plan, small_cluster, offload_target
    ):
        _, server = offload_target
        on_server = {
            name for name, idx in small_plan.assignment.items()
            if idx is not None and small_cluster.servers[idx].name == server
        }
        sched = FaultSchedule(
            events=(FaultEvent("server_crash", server, 3.0, math.inf),)
        )
        cfg = SimulationConfig(
            horizon_s=10.0, warmup_s=0.0, seed=0, faults=sched,
            failure_policy=FailurePolicy(max_retries=0, failover=False),
        )
        rep = simulate_plan(small_tasks, small_plan, small_cluster, cfg)
        c = rep.counters
        assert c.degraded_completions > 0 and c.lost == 0
        assert c.failovers == 0
        degraded = [r for r in rep.records if r.degraded]
        assert len(degraded) == c.degraded_completions
        assert all(not r.offloaded for r in degraded)
        assert {r.task_name for r in degraded} <= on_server

    def test_lost_when_whole_ladder_disabled(
        self, small_tasks, small_plan, small_cluster, offload_target
    ):
        _, server = offload_target
        sched = FaultSchedule(
            events=(FaultEvent("server_crash", server, 3.0, math.inf),)
        )
        cfg = SimulationConfig(
            horizon_s=10.0, warmup_s=0.0, seed=0, faults=sched,
            failure_policy=FailurePolicy(
                max_retries=0, failover=False, degrade_local=False
            ),
        )
        rep = simulate_plan(small_tasks, small_plan, small_cluster, cfg)
        assert rep.counters.lost > 0
        assert rep.counters.degraded_completions == 0
        assert rep.counters.conserved()

    def test_certain_loss_recovered_by_retries(
        self, small_tasks, small_plan, small_cluster, offload_target
    ):
        task, _ = offload_target
        sched = FaultSchedule(
            events=(FaultEvent("request_loss", task, 2.0, 4.0, 1.0),)
        )
        base = SimulationConfig(
            horizon_s=8.0, warmup_s=0.0, seed=0, faults=sched
        )
        nopolicy = simulate_plan(small_tasks, small_plan, small_cluster, base)
        assert nopolicy.counters.lost > 0
        policy = simulate_plan(
            small_tasks, small_plan, small_cluster,
            dataclasses.replace(base, failure_policy=FailurePolicy()),
        )
        # p=1 loss kills every in-window retry too; degradation must absorb
        assert policy.counters.lost == 0
        assert policy.counters.conserved()

    def test_slowdown_slows_but_loses_nothing(
        self, small_tasks, small_plan, small_cluster, offload_target
    ):
        _, server = offload_target
        sched = FaultSchedule(
            events=(FaultEvent("server_slowdown", server, 2.0, 6.0, 0.25),)
        )
        cfg = SimulationConfig(horizon_s=10.0, warmup_s=0.0, seed=0, faults=sched)
        slow = simulate_plan(small_tasks, small_plan, small_cluster, cfg)
        clean = simulate_plan(
            small_tasks, small_plan, small_cluster,
            SimulationConfig(horizon_s=10.0, warmup_s=0.0, seed=0),
        )
        assert slow.counters.lost == 0
        assert slow.counters.records == clean.counters.records
        assert slow.mean_latency_s > clean.mean_latency_s


class TestDeterminism:
    def test_fault_run_replays_bit_identically(
        self, small_tasks, small_plan, small_cluster, offload_target
    ):
        _, server = offload_target
        cfg = _crash_cfg(server, failure_policy=FailurePolicy())
        a = simulate_plan(small_tasks, small_plan, small_cluster, cfg)
        b = simulate_plan(small_tasks, small_plan, small_cluster, cfg)
        assert _reports_equal(a, b)

    def test_serial_equals_parallel_replications(
        self, small_tasks, small_plan, small_cluster, offload_target
    ):
        _, server = offload_target
        cfg = _crash_cfg(
            server, horizon_s=8.0, failure_policy=FailurePolicy()
        )
        serial = run_replications(
            small_tasks, small_plan, small_cluster,
            dataclasses.replace(cfg, replications=3, sim_workers=1),
        )
        parallel = run_replications(
            small_tasks, small_plan, small_cluster,
            dataclasses.replace(cfg, replications=3, sim_workers=3),
        )
        for a, b in zip(serial, parallel):
            assert _reports_equal(a, b)


class TestPlanRepair:
    def test_shed_tasks_dropped_from_update_onward(
        self, small_tasks, small_plan, small_cluster, offload_target
    ):
        task, server = offload_target
        cfg = _crash_cfg(server, crash_s=4.0, down_s=7.0,
                         failure_policy=FailurePolicy())
        update = PlanUpdate(4.5, small_plan, shed_tasks=(task,))
        rep = simulate_plan(
            small_tasks, small_plan, small_cluster, cfg, plan_updates=[update]
        )
        c = rep.counters
        assert c.shed > 0
        assert all(
            r.arrival_s < 4.5 for r in rep.records if r.task_name == task
        )
        assert c.conserved()


class TestTelemetry:
    def test_fault_events_in_timeline(
        self, small_tasks, small_plan, small_cluster, offload_target
    ):
        _, server = offload_target
        cfg = _crash_cfg(server, telemetry=True, failure_policy=FailurePolicy())
        rep = simulate_plan(small_tasks, small_plan, small_cluster, cfg)
        kinds = {e.kind for e in rep.timeline.events}
        assert {"fault_inject", "fault_recover"} <= kinds
        # the crash window produced ladder activity of some rung
        assert kinds & {"timeout", "retry", "failover", "degraded"}
        snapshot = rep.registry.snapshot()
        assert "sim.faults.server_crash" in snapshot
