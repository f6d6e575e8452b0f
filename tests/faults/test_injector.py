"""Fault windows: a schedule resolved into the windows each resource holds."""

import math

import pytest

from repro.errors import FaultError, ResourceUnavailableError
from repro.faults import FaultEvent, FaultSchedule, resource_windows
from repro.sim import SimulationConfig, simulate_plan
from repro.sim.queues import FifoResource, slice_resources
from repro.telemetry.timeline import TimelineRecorder


def _server_slice(schedule, rate=1e9):
    """A slice of server ``srv`` holding its windows under ``schedule``."""
    by_server, _, _ = resource_windows(schedule, ["srv"], [])
    w = by_server["srv"]
    return FifoResource("srv:slice", rate=rate, down=w.down, speed=w.speed)


class TestCrashWindow:
    def test_down_exactly_during_window(self):
        res = _server_slice(FaultSchedule.crash_recover("srv", 1.0, 2.0))
        observed = {t: res.is_down(t) for t in (0.5, 1.0, 2.9, 3.0, 4.0)}
        # down on [start, end): closed at the crash, open at the recovery
        assert observed == {0.5: False, 1.0: True, 2.9: True, 3.0: False, 4.0: False}
        # a job submitted at the crash instant finds the slice down; one
        # submitted at the recovery instant starts right then
        res = _server_slice(FaultSchedule.crash_recover("srv", 1.0, 2.0))
        with pytest.raises(ResourceUnavailableError, match="while down"):
            res.submit(1.0, 10.0)
        assert res.submit(3.0, 1e9) == (3.0, 4.0)
        # back-to-back windows: the recovery and the next crash at t=2 apply
        # in schedule order, so the slice stays down through t=2
        res = _server_slice(FaultSchedule(events=(
            FaultEvent("server_crash", "srv", 1.0, 2.0),
            FaultEvent("server_crash", "srv", 2.0, 3.0),
        )))
        assert [res.is_down(t) for t in (1.5, 2.0, 2.5, 3.0)] == [
            True, True, True, False,
        ]

    def test_slowdown_scales_rate_then_reverts(self):
        res = _server_slice(FaultSchedule(events=(
            FaultEvent("server_slowdown", "srv", 1.0, 2.0, 0.5),
        )), rate=100.0)
        finishes = {t: res.submit(t, 100.0)[1] for t in (0.0, 1.0, 3.0)}
        assert finishes[0.0] == pytest.approx(1.0)      # nominal: 1 s of work
        # half speed: 2 s, kept past the window's end at t=2
        assert finishes[1.0] == pytest.approx(3.0)
        assert finishes[3.0] == pytest.approx(4.0)      # reverted

    def test_permanent_fault_never_reverts(self):
        res = _server_slice(FaultSchedule(events=(
            FaultEvent("server_crash", "srv", 1.0, math.inf),
        )))
        assert res.is_down(1e12)
        res.utilization(10.0)  # applies every window: still no recovery
        assert res.is_down(math.inf)

    def test_multiple_slices_transition_together(
        self, small_tasks, small_plan, small_cluster
    ):
        crashed = small_cluster.servers[0].name
        by_server, _, _ = resource_windows(
            FaultSchedule.crash_recover(crashed, 1.0, 1.0),
            [s.name for s in small_cluster.servers], [t.name for t in small_tasks],
        )

        def build(task, s, tag):
            server = small_cluster.servers[s].name
            return slice_resources(
                task, small_plan, s, small_cluster, tag=tag,
                server_faults=by_server[server],
            )

        # primary and standby slices on the crashed server; plan-update
        # slices on the other one
        on_crashed = [build(t, 0, tag) for t in small_tasks for tag in ("", ":fo")]
        elsewhere = [build(t, 1, ":u1") for t in small_tasks]
        assert all(srv.is_down(1.5) for srv, _, _ in on_crashed)
        assert not any(r.is_down(1.5) for _, up, dn in on_crashed for r in (up, dn))
        assert not any(r.is_down(1.5) for trio in elsewhere for r in trio)
        assert not any(srv.is_down(2.0) for srv, _, _ in on_crashed)


class TestResolution:
    def test_unknown_server_fails_fast(self):
        with pytest.raises(FaultError, match="unknown server"):
            resource_windows(FaultSchedule.crash_recover("ghost", 1.0, 1.0), ["srv"], [])

    def test_unknown_link_fails_fast(self, small_tasks, small_plan, small_cluster):
        sched = FaultSchedule(events=(FaultEvent("link_outage", "t9", 1.0, 2.0),))
        with pytest.raises(FaultError, match="unknown task link"):
            resource_windows(sched, [], ["t0"])
        # the run refuses it before any request starts
        with pytest.raises(FaultError, match="unknown task link"):
            simulate_plan(
                small_tasks, small_plan, small_cluster,
                SimulationConfig(horizon_s=4.0, warmup_s=0.0, faults=sched),
            )

    def test_request_loss_needs_no_resource(self):
        sched = FaultSchedule(events=(
            FaultEvent("request_loss", "anytask", 1.0, 2.0, 0.5),
        ))
        by_server, by_link, loss = resource_windows(sched, [], [])  # must not raise
        assert (by_server, by_link) == ({}, {})
        assert loss == {"anytask": ((1.0, 2.0, 0.5),)}

    def test_each_transition_counts_one_event(
        self, small_tasks, small_plan, small_cluster
    ):
        # loss windows on a task that does not exist change nothing in the
        # run; each still counts its start and (unless permanent) its end
        base = SimulationConfig(horizon_s=4.0, warmup_s=0.0, faults=FaultSchedule())
        sched = FaultSchedule(events=(
            FaultEvent("request_loss", "ghost", 1.0, 2.0, 0.5),
            FaultEvent("request_loss", "ghost", 2.5, math.inf, 0.5),
        ))
        clean = simulate_plan(small_tasks, small_plan, small_cluster, base)
        lossy = simulate_plan(
            small_tasks, small_plan, small_cluster,
            SimulationConfig(horizon_s=4.0, warmup_s=0.0, faults=sched),
        )
        assert lossy.counters.events == clean.counters.events + 3
        assert lossy.counters.faults_injected == 2
        assert lossy.records == clean.records


class TestTelemetry:
    def test_inject_and_recover_events_recorded(
        self, small_tasks, small_plan, small_cluster
    ):
        server = small_cluster.servers[0].name
        rep = simulate_plan(
            small_tasks, small_plan, small_cluster,
            SimulationConfig(
                horizon_s=4.0, warmup_s=0.0,
                faults=FaultSchedule.crash_recover(server, 1.0, 1.0),
            ),
            recorder=TimelineRecorder(),
        )
        faults = [e for e in rep.timeline.events if e.req_id == -1]
        assert [(e.kind, e.t_s, e.task) for e in faults] == [
            ("fault_inject", 1.0, server), ("fault_recover", 2.0, server),
        ]
        assert rep.registry.counters("sim.faults.") == {"sim.faults.server_crash": 1}
