"""The failure-aware runtime end to end: config gating, the recovery
ladder, conservation, and deterministic replay."""

import dataclasses
import hashlib
import math

import pytest

from repro.errors import ConfigError
from repro.faults import FailurePolicy, FaultEvent, FaultSchedule, PlanUpdate
from repro.sim import SimulationConfig, simulate_plan
from repro.sim.runner import run_replications
from repro.telemetry.timeline import TimelineRecorder


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
    def test_detection_delay_postpones_recovery(
        self, small_tasks, small_plan, small_cluster, offload_target
    ):
        """A failure is acted on ``detection_delay_s`` after it manifests:
        the same requests degrade locally, later under a slower detector."""
        _, server = offload_target
        reports = [
            simulate_plan(
                small_tasks, small_plan, small_cluster,
                _crash_cfg(server, failure_policy=FailurePolicy(
                    max_retries=0, failover=False, detection_delay_s=d,
                )),
            )
            for d in (0.005, 0.5)
        ]
        quick, slow = (r.counters for r in reports)
        assert quick.degraded_completions == slow.degraded_completions > 0
        assert quick.lost == slow.lost == 0
        assert reports[1].mean_latency_s > reports[0].mean_latency_s

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
        cfg = _crash_cfg(server, failure_policy=FailurePolicy())
        rep = simulate_plan(
            small_tasks, small_plan, small_cluster, cfg, recorder=TimelineRecorder()
        )
        kinds = {e.kind for e in rep.timeline.events}
        assert {"fault_inject", "fault_recover"} <= kinds
        # the crash window produced ladder activity of some rung
        assert kinds & {"timeout", "retry", "failover", "degraded"}
        snapshot = rep.registry.snapshot()
        assert "sim.faults.server_crash" in snapshot


# -- pinned fault-run digests ---------------------------------------------------


def _report_digest(rep) -> str:
    """sha256 over a report's records (by value, in order), every
    ``SimCounters`` field, utilizations and the windowed fingerprint; with a
    timeline, its events too (fault transitions as a sorted multiset, the
    rest in order)."""
    def val(x):
        return repr(float(x)) if isinstance(x, float) else repr(x)

    h = hashlib.sha256()
    for r in rep.records:
        h.update("|".join(val(v) for v in dataclasses.astuple(r)).encode())
    h.update(repr(sorted(rep.counters.as_dict().items())).encode())
    for name in sorted(rep.utilizations):
        h.update(f"{name}={float(rep.utilizations[name])!r}".encode())
    h.update(repr(rep.windowed.fingerprint() if rep.windowed else None).encode())
    if rep.timeline is not None:
        rows = [
            (val(e.t_s), e.kind, e.task, e.req_id, e.resource, val(e.value))
            for e in rep.timeline.events
        ]
        faults = ("fault_inject", "fault_recover")
        h.update(repr(sorted(r for r in rows if r[1] in faults)).encode())
        h.update(repr([r for r in rows if r[1] not in faults]).encode())
    return h.hexdigest()


class TestPinnedDigests:
    """Fault runs replay to digests pinned before the fault windows moved
    into the resources.

    The instance shares ``dev0`` between ``t0`` and ``t2``, whose plans keep
    no on-device exit (full-local degrade rung); ``t1``'s plan is swapped
    for one with an on-device exit (early-exit degrade rung).
    """

    @pytest.fixture(scope="class")
    def instance(self, pi4, me_resnet18, me_alexnet):
        from repro.core.candidates import build_candidates
        from repro.core.joint import JointOptimizer
        from repro.core.plan import TaskSpec
        from repro.devices.cluster import EdgeCluster
        from repro.devices.presets import SERVER_PRESETS
        from repro.network.link import Link
        from repro.units import mbps

        devices = [dataclasses.replace(pi4, name=f"dev{i}") for i in range(2)]
        servers = [
            dataclasses.replace(SERVER_PRESETS["edge_cpu"], name="srv_cpu"),
            dataclasses.replace(SERVER_PRESETS["edge_gpu"], name="srv_gpu"),
        ]
        cluster = EdgeCluster.star(devices, servers, Link(mbps(40), rtt_s=10e-3))
        tasks = [
            TaskSpec("t0", me_resnet18, "dev0", deadline_s=0.2,
                     accuracy_floor=0.6, arrival_rate=3.0),
            TaskSpec("t1", me_alexnet, "dev1", deadline_s=0.25,
                     accuracy_floor=0.5, arrival_rate=2.0),
            TaskSpec("t2", me_alexnet, "dev0", deadline_s=0.25,
                     accuracy_floor=0.5, arrival_rate=2.0),
        ]
        cands = [build_candidates(t) for t in tasks]
        plan = JointOptimizer(cluster).solve(tasks, candidates=cands, seed=0).plan
        # t1: the first candidate that keeps an on-device exit (cut 8, exits
        # (1, 3)) and still offloads most requests
        early = cands[1].features[16]
        assert early.plan.partition_cut >= me_alexnet.exit_cut_indices[1]
        plan = dataclasses.replace(plan, features={**plan.features, "t1": early})
        assert plan.assignment == {"t0": 1, "t1": 1, "t2": 0}
        return tasks, plan, cluster

    @staticmethod
    def _runs(plan):
        from repro.telemetry.windows import WindowConfig

        inf = math.inf
        base = dict(horizon_s=8.0, warmup_s=0.5, seed=3, windows=WindowConfig())
        every_kind = FaultSchedule(events=(
            FaultEvent("server_crash", "srv_gpu", 2.0, 3.5),
            FaultEvent("link_outage", "t2", 4.0, 4.6),
            FaultEvent("link_degrade", "t0", 1.0, 5.0, 0.5),
            FaultEvent("server_slowdown", "srv_cpu", 2.5, 6.0, 0.5),
            FaultEvent("request_loss", "t1", 1.0, 7.0, 0.3),
        ))
        back_to_back = FaultSchedule(events=(
            FaultEvent("server_crash", "srv_gpu", 2.0, 3.0),
            FaultEvent("server_crash", "srv_gpu", 3.0, 4.0),
            FaultEvent("server_crash", "srv_gpu", 4.5, 5.0),
            FaultEvent("server_slowdown", "srv_gpu", 1.0, 2.0, 0.5),
            FaultEvent("server_slowdown", "srv_gpu", 4.0, 4.5, 0.25),
            FaultEvent("server_slowdown", "srv_gpu", 5.0, 6.0, 0.5),
        ))
        # (config, plan updates, record a timeline?)
        return {
            "every_kind": (dict(base, faults=every_kind,
                                failure_policy=FailurePolicy()), (), False),
            "every_kind_no_policy": (dict(base, faults=every_kind), (), False),
            "permanent_degrade": (dict(
                base,
                faults=FaultSchedule(events=(
                    FaultEvent("server_crash", "srv_gpu", 3.0, inf),
                )),
                failure_policy=FailurePolicy(max_retries=0, failover=False),
            ), (), False),
            "back_to_back_failover": (dict(
                base, faults=back_to_back, failure_policy=FailurePolicy(),
            ), (), True),
            "plan_update_shed": (dict(
                base,
                faults=FaultSchedule.crash_recover("srv_gpu", 3.0, 3.0),
                failure_policy=FailurePolicy(),
            ), (PlanUpdate(4.0, plan, shed_tasks=("t0",)),), False),
        }

    #: recorded before the fault windows moved into the resources
    PINNED = {
        "every_kind": "13827089c50317a05da932def5c4df368376c51aef691d3ccf0bb7ad7d902798",
        "every_kind_no_policy": "af40f2c9ce20ef17486b3f5376955febb28014927a538f1ce8d305922a623fb8",
        "permanent_degrade": "cc0fea867ee287c9aa06930b55f613a528608c71da962b18e84a717559f5e2fb",
        "back_to_back_failover": "2038bf478659aed753278e86eedce188e107d81ce47ab240ff4269c79c3afea0",
        "plan_update_shed": "28631fc048aae7ebf36bda759a300d9a2146ebf4cedc5b6cebf76d89f1b52f4f",
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_digest(self, instance, name):
        tasks, plan, cluster = instance
        kwargs, updates, timeline = self._runs(plan)[name]
        rep = simulate_plan(
            tasks, plan, cluster, SimulationConfig(**kwargs),
            recorder=TimelineRecorder() if timeline else None, plan_updates=updates,
        )
        assert rep.counters.faults_injected == len(kwargs["faults"])
        assert rep.counters.conserved()
        assert _report_digest(rep) == self.PINNED[name]
