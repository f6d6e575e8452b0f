"""Simulator event timelines: lifecycle events match hand-computed times."""

import numpy as np
import pytest

from repro.core.plan import JointPlan
from repro.rng import derive
from repro.sim.execution import RealizationTable
from repro.sim.runner import SimulationConfig, simulate_plan
from repro.sim.sources import arrival_times
from repro.telemetry.timeline import TimelineRecorder


def _local_plan(tasks, candidate_sets):
    """A JointPlan keeping every task fully on its device."""
    features = {}
    for t, cs in zip(tasks, candidate_sets):
        local = next(f for f in cs.features if f.is_local_only)
        features[t.name] = local
    return JointPlan(
        assignment={t.name: None for t in tasks},
        features=features,
        compute_shares={t.name: 1.0 for t in tasks},
        bandwidth_shares={t.name: 1.0 for t in tasks},
        latencies={t.name: 0.1 for t in tasks},
        objective_value=0.1,
    )


@pytest.fixture()
def local_run(small_cluster, small_tasks, small_candidates):
    plan = _local_plan(small_tasks, small_candidates)
    cfg = SimulationConfig(horizon_s=3.0, warmup_s=0.0, seed=5)
    report = simulate_plan(small_tasks, plan, small_cluster, cfg, recorder=TimelineRecorder())
    return plan, cfg, report


def _arrivals(task, cfg):
    """The task's Poisson arrivals, from the stream the simulator derives."""
    return arrival_times(task.arrival_rate, cfg.horizon_s, derive(cfg.seed, "arrivals", task.name))


class TestTimelineEvents:
    def test_two_task_lifecycle_matches_hand_computation(
        self, small_cluster, small_tasks, local_run
    ):
        plan, cfg, report = local_run
        tl = report.timeline
        assert tl is not None
        for task in small_tasks:
            device = next(
                d for d in small_cluster.end_devices if d.name == task.device_name
            )
            rate = device.blended_flops
            arrivals = _arrivals(task, cfg)
            assert len(arrivals) > 1
            # hand-rolled FIFO: service = flops/rate + overhead, no preemption
            table = RealizationTable(task.model, plan.features[task.name].plan)
            diff_rng = derive(cfg.seed, "difficulty", task.name)
            difficulty = np.clip(
                task.model.difficulty.sample(diff_rng, len(arrivals)), 0.0, 1.0
            )
            positions = table.positions(difficulty)
            assert not table.offloaded[positions].any()  # local-only plan
            busy_until = 0.0
            for req_id, at in enumerate(arrivals):
                pos = int(positions[req_id])
                start = max(float(at), busy_until)
                service = table.dev_flops[pos] / rate + device.overhead_s
                busy_until = start + service

                events = sorted(
                    (e for e in tl.events if e.task == task.name and e.req_id == req_id),
                    key=lambda e: e.t_s,
                )
                kinds = [e.kind for e in events]
                assert kinds == [
                    "enqueue", "dequeue", "exec_start", "exit_taken", "complete",
                ]
                by_kind = {e.kind: e for e in events}
                assert by_kind["enqueue"].t_s == pytest.approx(float(at))
                assert by_kind["dequeue"].t_s == pytest.approx(start)
                assert by_kind["exec_start"].t_s == pytest.approx(start)
                assert by_kind["complete"].t_s == pytest.approx(start + service)
                assert by_kind["exit_taken"].value == float(pos)
                assert by_kind["enqueue"].resource == f"dev:{task.device_name}"

    def test_counts_cover_every_request(self, small_tasks, local_run):
        _, cfg, report = local_run
        n = sum(len(_arrivals(t, cfg)) for t in small_tasks)
        counts = report.timeline.counts()
        assert counts["enqueue"] == n
        assert counts["complete"] == n
        assert "transfer_start" not in counts  # purely local plan

    def test_perfetto_events_serializable(self, local_run):
        import json

        _, _, report = local_run
        events = report.timeline.perfetto_events()
        decoded = json.loads(json.dumps(events))
        slices = [e for e in decoded if e["ph"] == "X"]
        assert slices and all(e["dur"] >= 0 for e in slices)


class TestTelemetryGauges:
    def test_queue_and_utilization_gauges_sampled(self, local_run):
        _, _, report = local_run
        reg = report.registry
        assert reg is not None
        names = reg.names()
        assert any(n.startswith("sim.queue_depth.dev:") for n in names)
        assert any(n.startswith("sim.utilization.dev:") for n in names)
        assert reg.counter("sim.realized.requests").value == report.timeline.counts()[
            "enqueue"
        ]
        for name in names:
            if name.startswith("sim.utilization."):
                g = reg.gauge(name)
                assert 0.0 <= g.max <= 1.0

    def test_latency_histogram_observes_every_request(self, local_run):
        _, _, report = local_run
        h = report.registry.histogram("sim.latency_ms")
        assert h.total == report.timeline.counts()["complete"]


class TestDisabledPath:
    def test_no_telemetry_keeps_report_bitequal(
        self, small_cluster, small_tasks, small_candidates
    ):
        plan = _local_plan(small_tasks, small_candidates)
        cfg = SimulationConfig(horizon_s=3.0, warmup_s=0.0, seed=5)
        on = simulate_plan(small_tasks, plan, small_cluster, cfg, recorder=TimelineRecorder())
        off = simulate_plan(small_tasks, plan, small_cluster, cfg)
        assert off.timeline is None and off.registry is None
        assert [
            (r.task_name, r.req_id, r.arrival_s, r.completion_s, r.correct)
            for r in on.records
        ] == [
            (r.task_name, r.req_id, r.arrival_s, r.completion_s, r.correct)
            for r in off.records
        ]

    def test_report_carries_the_passed_recorders_timeline(
        self, small_cluster, small_tasks, small_candidates
    ):
        plan = _local_plan(small_tasks, small_candidates)
        rec = TimelineRecorder()
        cfg = SimulationConfig(horizon_s=3.0, warmup_s=0.0, seed=5)
        report = simulate_plan(small_tasks, plan, small_cluster, cfg, recorder=rec)
        assert report.timeline is rec.timeline
        assert len(rec.timeline) > 0
