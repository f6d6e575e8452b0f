"""End-to-end simulation runner."""

import numpy as np
import pytest

from repro.core.joint import JointOptimizer, JointSolverConfig
from repro.errors import ConfigError
from repro.network.wireless import BandwidthTrace
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
            dict(arrival="bursty-ish"),
            dict(burst_factor=0.5),
            dict(horizon_s=float("inf")),
            dict(warmup_s=float("nan")),
            dict(burst_factor=float("nan")),
            dict(service_noise=float("nan")),
            dict(hist_bin_s=float("nan")),
            dict(hist_max_s=float("inf")),
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
        from repro.sim.sources import PoissonArrivals
        from repro.rng import derive

        expected = sum(
            len(PoissonArrivals(t.arrival_rate).generate(10.0, derive(1, "arrivals", t.name)))
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

    def test_deterministic_arrivals_mode(self, small_cluster, small_tasks, solved):
        rep = simulate_plan(
            small_tasks, solved, small_cluster,
            SimulationConfig(horizon_s=10.0, arrival="deterministic", seed=5),
        )
        assert rep.total_requests > 0

    def test_mmpp_arrivals_mode(self, small_cluster, small_tasks, solved):
        rep = simulate_plan(
            small_tasks, solved, small_cluster,
            SimulationConfig(horizon_s=10.0, arrival="mmpp", seed=6),
        )
        assert rep.total_requests > 0

    def test_bandwidth_trace_slows_offloads(self, small_cluster, small_tasks, solved):
        fast = simulate_plan(
            small_tasks, solved, small_cluster,
            SimulationConfig(horizon_s=15.0, seed=7),
        )
        slow_trace = BandwidthTrace(
            times=np.array([0.0]), values=np.array([small_cluster.link("dev0", "srv_cpu").bandwidth_bps / 20])
        )
        slow = simulate_plan(
            small_tasks, solved, small_cluster,
            SimulationConfig(horizon_s=15.0, seed=7, bandwidth_trace=slow_trace),
        )
        offloaded = any(s is not None for s in solved.assignment.values())
        if offloaded:
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
