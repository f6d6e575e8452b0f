"""Fault schedules: validation, window queries, seeded sampling."""

import math

import pytest

from repro.errors import FaultError
from repro.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
    resource_windows,
    sample_fault_schedule,
)
from repro.sim.queues import FifoResource


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            FaultEvent("meteor_strike", "srv", 1.0, 2.0)

    def test_empty_target_rejected(self):
        with pytest.raises(FaultError, match="target"):
            FaultEvent("server_crash", "", 1.0, 2.0)

    @pytest.mark.parametrize("start,end", [(2.0, 2.0), (2.0, 1.0), (-1.0, 2.0)])
    def test_bad_window_rejected(self, start, end):
        with pytest.raises(FaultError):
            FaultEvent("server_crash", "srv", start, end)

    @pytest.mark.parametrize("kind", ["server_slowdown", "link_degrade"])
    @pytest.mark.parametrize("severity", [0.0, 1.0, 1.5])
    def test_speed_severity_must_be_fractional(self, kind, severity):
        with pytest.raises(FaultError, match="severity"):
            FaultEvent(kind, "x", 0.0, 1.0, severity)

    def test_loss_severity_range(self):
        FaultEvent("request_loss", "t0", 0.0, 1.0, 1.0)  # p=1 is legal
        with pytest.raises(FaultError):
            FaultEvent("request_loss", "t0", 0.0, 1.0, 0.0)

    def test_permanent(self):
        assert FaultEvent("server_crash", "srv", 1.0, math.inf).permanent
        assert not FaultEvent("server_crash", "srv", 1.0, 2.0).permanent


class TestFaultSchedule:
    def test_events_sorted_by_start(self):
        sched = FaultSchedule(events=(
            FaultEvent("server_crash", "b", 5.0, 6.0),
            FaultEvent("server_crash", "a", 1.0, 2.0),
        ))
        assert [e.start_s for e in sched] == [1.0, 5.0]

    def test_overlap_same_kind_target_rejected(self):
        with pytest.raises(FaultError, match="overlapping"):
            FaultSchedule(events=(
                FaultEvent("server_crash", "srv", 1.0, 3.0),
                FaultEvent("server_crash", "srv", 2.0, 4.0),
            ))

    def test_overlap_allowed_across_kinds_and_targets(self):
        FaultSchedule(events=(
            FaultEvent("server_crash", "srv", 1.0, 3.0),
            FaultEvent("server_slowdown", "srv", 2.0, 4.0, 0.5),
            FaultEvent("server_crash", "other", 2.0, 4.0),
        ))

    def test_window_queries(self):
        sched = FaultSchedule.crash_recover("srv", 2.0, 3.0)
        by_server, by_link, loss = resource_windows(sched, ["srv", "other"], ["t0"])
        assert by_server["srv"].down == ((2.0, 5.0),)
        assert by_server["other"].down == () and by_link["t0"].down == ()
        assert loss == {}

    def test_next_failure_strictly_inside(self):
        by_server, _, _ = resource_windows(FaultSchedule.crash_recover("srv", 2.0, 1.0), ["srv"], [])

        def next_crash(t0, t1):
            return FifoResource("srv", rate=1.0, down=by_server["srv"].down).next_crash(t0, t1)

        assert next_crash(1.0, 3.0) == 2.0
        # boundary starts are not "during service"
        assert next_crash(2.0, 3.0) is None
        assert next_crash(0.0, 2.0) is None

    def test_loss_probability_window(self):
        sched = FaultSchedule(events=(
            FaultEvent("request_loss", "t0", 1.0, 2.0, 0.3),
        ))
        _, _, loss = resource_windows(sched, [], ["t0", "t1"])
        assert loss == {"t0": ((1.0, 2.0, 0.3),)}

    def test_union_revalidates(self):
        a = FaultSchedule.crash_recover("srv", 1.0, 2.0)
        b = FaultSchedule.crash_recover("srv", 5.0, 1.0)
        assert len(FaultSchedule(events=a.events + b.events)) == 2
        clash = FaultSchedule.crash_recover("srv", 2.0, 2.0)
        with pytest.raises(FaultError):
            FaultSchedule(events=a.events + clash.events)

    def test_events_by_kind_and_target(self):
        sched = FaultSchedule(events=(
            FaultEvent("server_crash", "srv", 1.0, 2.0),
            FaultEvent("request_loss", "t0", 0.0, 9.0, 0.1),
        ))
        assert [e.target for e in sched.events if e.kind == "server_crash"] == ["srv"]
        assert sorted({e.target for e in sched.events}) == ["srv", "t0"]


class TestSampling:
    def test_same_seed_same_schedule(self):
        kw = dict(horizon_s=30.0, servers=["s0", "s1"], tasks=["t0"],
                  crash_rate_per_min=6.0, loss_prob=0.1)
        assert sample_fault_schedule(7, **kw) == sample_fault_schedule(7, **kw)
        assert sample_fault_schedule(7, **kw) != sample_fault_schedule(8, **kw)

    def test_sampled_events_valid_and_in_horizon(self):
        sched = sample_fault_schedule(
            3, horizon_s=20.0, servers=["s0", "s1", "s2"], tasks=["t0", "t1"],
            crash_rate_per_min=10.0, slowdown_prob=1.0, loss_prob=0.2,
        )
        assert len(sched) > 0
        for e in sched:
            assert e.kind in FAULT_KINDS
            assert 0.0 <= e.start_s < 20.0

    def test_zero_rates_empty(self):
        sched = sample_fault_schedule(
            0, horizon_s=10.0, servers=["s0"], crash_rate_per_min=0.0,
            slowdown_prob=0.0,
        )
        assert len(sched) == 0

    def test_bad_horizon(self):
        with pytest.raises(FaultError):
            sample_fault_schedule(0, horizon_s=0.0, servers=["s0"])
