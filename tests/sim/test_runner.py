"""End-to-end simulation runner."""

import numpy as np
import pytest

from repro.core.joint import JointOptimizer, JointSolverConfig
from repro.errors import ConfigError
from repro.sim.runner import SimulationConfig, simulate_plan


@pytest.fixture(scope="module")
def solved(small_cluster, small_tasks, small_candidates):
    return JointOptimizer(small_cluster).solve(
        small_tasks, candidates=small_candidates, seed=0
    ).plan


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(horizon_s=0.0),
            dict(warmup_s=50.0, horizon_s=10.0),
            dict(horizon_s=float("inf")),
            dict(warmup_s=float("nan")),
            dict(service_noise=float("nan")),
            dict(replications=0),
            dict(sim_workers=0),
            dict(chunk_size=2.5),
            dict(max_records=1.0),
            dict(replications=2.5),
            dict(replications=True),
            dict(sim_workers=1.5),
            dict(sim_workers=float("nan")),
            dict(horizon_s="10"),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SimulationConfig(**kwargs)


class TestSimulatePlan:
    def test_conservation(self, small_cluster, small_tasks, solved):
        """Every generated request is either completed or warmup-discarded."""
        cfg = SimulationConfig(horizon_s=10.0, warmup_s=1.0, seed=1)
        rep = simulate_plan(small_tasks, solved, small_cluster, cfg)
        from repro.sim.sources import arrival_times
        from repro.rng import derive

        expected = sum(
            len(arrival_times(t.arrival_rate, 10.0, derive(1, "arrivals", t.name)))
            for t in small_tasks
        )
        assert rep.total_requests + rep.discarded_warmup == expected

    def test_latencies_positive(self, small_cluster, small_tasks, solved):
        rep = simulate_plan(
            small_tasks, solved, small_cluster, SimulationConfig(horizon_s=10.0, seed=2)
        )
        assert np.all(rep.latencies() > 0)

    def test_deterministic_given_seed(self, small_cluster, small_tasks, solved):
        cfg = SimulationConfig(horizon_s=8.0, seed=3)
        a = simulate_plan(small_tasks, solved, small_cluster, cfg)
        b = simulate_plan(small_tasks, solved, small_cluster, cfg)
        np.testing.assert_array_equal(a.latencies(), b.latencies())

    def test_mean_tracks_prediction(self, small_cluster, small_tasks, solved):
        """Measured mean within 40% of predicted expected latency."""
        rep = simulate_plan(
            small_tasks, solved, small_cluster,
            SimulationConfig(horizon_s=60.0, warmup_s=10.0, seed=4),
        )
        for t in small_tasks:
            measured = rep.per_task[t.name].mean_latency_s
            predicted = solved.latencies[t.name]
            assert measured == pytest.approx(predicted, rel=0.4)

    def test_slower_links_slow_offloads(self, small_cluster, small_tasks, solved):
        cfg = SimulationConfig(horizon_s=15.0, seed=7)
        fast = simulate_plan(small_tasks, solved, small_cluster, cfg)
        slow_cluster = small_cluster.with_topology(small_cluster.topology.scale_all(1 / 20))
        slow = simulate_plan(small_tasks, solved, slow_cluster, cfg)
        assert any(s is not None for s in solved.assignment.values())
        assert slow.mean_latency_s > fast.mean_latency_s

    def test_unknown_task_in_plan_raises(self, small_cluster, small_tasks, solved, me_resnet18):
        from repro.core.plan import TaskSpec

        stranger = TaskSpec("ghost", me_resnet18, "dev0")
        with pytest.raises(ConfigError):
            simulate_plan([stranger], solved, small_cluster)

    def test_empty_tasks_raise(self, small_cluster, solved):
        with pytest.raises(ConfigError):
            simulate_plan([], solved, small_cluster)

    def test_utilizations_reported(self, small_cluster, small_tasks, solved):
        rep = simulate_plan(
            small_tasks, solved, small_cluster, SimulationConfig(horizon_s=10.0, seed=8)
        )
        assert any(k.startswith("dev:") for k in rep.utilizations)
        assert all(0.0 <= v <= 1.0 for v in rep.utilizations.values())
