"""The vectorized fast path must be bit-identical to the event loop."""

import numpy as np
import pytest

from repro.core.joint import JointOptimizer
from repro.core.candidates import build_candidates
from repro.core.plan import TaskSpec
from repro.faults import runtime as runtime_mod
from repro.network.wireless import BandwidthTrace
from repro.sim import runner as runner_mod
from repro.sim.runner import SimulationConfig, simulate_plan


@pytest.fixture(scope="module")
def solved(small_cluster, small_tasks, small_candidates):
    return JointOptimizer(small_cluster).solve(
        small_tasks, candidates=small_candidates, seed=0
    ).plan


def assert_reports_identical(a, b):
    assert len(a.records) == len(b.records)
    assert a.records == b.records  # dataclass equality: every field, every request
    assert a.utilizations == b.utilizations
    assert a.discarded_warmup == b.discarded_warmup
    assert a.counters == b.counters
    np.testing.assert_array_equal(a.latencies(), b.latencies())


class TestBitIdentity:
    @pytest.mark.parametrize("arrival", ["poisson", "deterministic", "mmpp"])
    def test_arrival_modes(self, small_cluster, small_tasks, solved, arrival):
        cfg = SimulationConfig(horizon_s=8.0, warmup_s=1.0, seed=11, arrival=arrival)
        fast = simulate_plan(small_tasks, solved, small_cluster, cfg)
        event = simulate_plan(
            small_tasks, solved, small_cluster,
            SimulationConfig(
                horizon_s=8.0, warmup_s=1.0, seed=11, arrival=arrival, fast_path=False
            ),
        )
        assert_reports_identical(fast, event)

    def test_bandwidth_trace(self, small_cluster, small_tasks, solved):
        trace = BandwidthTrace(
            times=np.array([0.0, 4.0]),
            values=np.array(
                [
                    small_cluster.link("dev0", "srv_cpu").bandwidth_bps / 10,
                    small_cluster.link("dev0", "srv_cpu").bandwidth_bps / 3,
                ]
            ),
        )
        kw = dict(horizon_s=8.0, warmup_s=1.0, seed=12, bandwidth_trace=trace)
        fast = simulate_plan(
            small_tasks, solved, small_cluster, SimulationConfig(**kw)
        )
        event = simulate_plan(
            small_tasks, solved, small_cluster,
            SimulationConfig(fast_path=False, **kw),
        )
        assert_reports_identical(fast, event)

    def test_shared_device_ties(self, small_cluster, me_resnet18, me_alexnet):
        """Deterministic arrivals on one shared device: maximal time ties.

        Both tasks run on ``dev0`` at the same rate, so every arrival
        instant is shared; the sweep's submission order must reproduce the
        event loop's (arrival time, schedule order) tie-break exactly.
        """
        tasks = [
            TaskSpec("s0", me_resnet18, "dev0", deadline_s=0.3, accuracy_floor=0.6,
                     arrival_rate=4.0),
            TaskSpec("s1", me_alexnet, "dev0", deadline_s=0.3, accuracy_floor=0.5,
                     arrival_rate=4.0),
        ]
        cands = [build_candidates(t) for t in tasks]
        plan = JointOptimizer(small_cluster).solve(tasks, candidates=cands, seed=0).plan
        kw = dict(horizon_s=6.0, warmup_s=0.5, seed=13, arrival="deterministic")
        fast = simulate_plan(tasks, plan, small_cluster, SimulationConfig(**kw))
        event = simulate_plan(
            tasks, plan, small_cluster, SimulationConfig(fast_path=False, **kw)
        )
        assert fast.total_requests > 0
        assert_reports_identical(fast, event)


class TestDispatch:
    def test_fast_path_engages_by_default(self, small_cluster, small_tasks, solved, monkeypatch):
        """Default runs never construct the event-loop simulator."""

        class Boom:
            def __init__(self):
                raise AssertionError("event loop constructed on the fast path")

        monkeypatch.setattr(runtime_mod, "Simulator", Boom)
        rep = simulate_plan(
            small_tasks, solved, small_cluster, SimulationConfig(horizon_s=6.0, seed=14)
        )
        assert rep.total_requests > 0
        with pytest.raises(AssertionError):
            simulate_plan(
                small_tasks, solved, small_cluster,
                SimulationConfig(horizon_s=6.0, seed=14, fast_path=False),
            )

    def test_telemetry_forces_event_loop(self, small_cluster, small_tasks, solved, monkeypatch):
        """Telemetry runs must never take the sweep (gauges need events)."""

        def boom(*a, **k):
            raise AssertionError("fast path taken on a telemetry run")

        monkeypatch.setattr(runner_mod, "sweep_pipeline", boom)
        rep = simulate_plan(
            small_tasks, solved, small_cluster,
            SimulationConfig(horizon_s=6.0, seed=15, telemetry=True),
        )
        assert rep.timeline is not None
        assert rep.registry is not None

    def test_fast_path_counters_match_event_loop(self, small_cluster, small_tasks, solved):
        """The equivalent event count is what the loop actually executes."""
        cfg = SimulationConfig(horizon_s=8.0, seed=16)
        fast = simulate_plan(small_tasks, solved, small_cluster, cfg)
        event = simulate_plan(
            small_tasks, solved, small_cluster,
            SimulationConfig(horizon_s=8.0, seed=16, fast_path=False),
        )
        assert fast.counters.events == event.counters.events
        assert fast.counters.requests == event.counters.requests
        assert fast.counters.events > 0
