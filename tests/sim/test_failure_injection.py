"""Failure injection: the simulator under pathological configurations.

The simulator must stay causally consistent (no negative latencies, no lost
requests, deterministic) even when the inputs are extreme — overload,
near-zero bandwidth, a mid-run link collapse, degenerate difficulty
distributions.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.joint import JointOptimizer, JointSolverConfig
from repro.core.plan import TaskSpec
from repro.devices.cluster import EdgeCluster
from repro.devices.presets import SERVER_PRESETS, device_preset
from repro.faults import FaultEvent, FaultSchedule
from repro.models.exits import DifficultyDistribution
from repro.network.link import Link
from repro.sim import SimulationConfig, simulate_plan
from repro.units import mbps
from repro.workloads.scenarios import multiexit_model


def solve_and_simulate(cluster, tasks, cfg):
    plan = JointOptimizer(
        cluster, config=JointSolverConfig(refine_thresholds=False)
    ).solve(tasks, candidates=None, seed=0).plan
    return simulate_plan(tasks, plan, cluster, cfg)


class TestOverloadRegime:
    def test_massive_overload_completes_all_requests(self, small_cluster, me_alexnet):
        tasks = [
            TaskSpec("hot", me_alexnet, "dev0", deadline_s=0.05, accuracy_floor=0.5,
                     arrival_rate=200.0)
        ]
        rep = solve_and_simulate(
            small_cluster, tasks, SimulationConfig(horizon_s=3.0, warmup_s=0.0, seed=1)
        )
        # every arrival completes (latency grows, nothing is lost or negative)
        assert rep.total_requests > 300
        assert np.all(rep.latencies() > 0)
        assert rep.miss_rate > 0.5  # and the overload is visible

    def test_latency_grows_with_horizon_when_unstable(self, small_cluster, me_alexnet):
        tasks = [
            TaskSpec("hot", me_alexnet, "dev0", deadline_s=0.05, accuracy_floor=0.5,
                     arrival_rate=200.0)
        ]
        plan = JointOptimizer(
            small_cluster, config=JointSolverConfig(refine_thresholds=False)
        ).solve(tasks, seed=0).plan
        short = simulate_plan(
            tasks, plan, small_cluster, SimulationConfig(horizon_s=2.0, warmup_s=0.0, seed=2)
        )
        long = simulate_plan(
            tasks, plan, small_cluster, SimulationConfig(horizon_s=8.0, warmup_s=0.0, seed=2)
        )
        assert long.mean_latency_s > short.mean_latency_s  # queue keeps building


class TestDegenerateNetwork:
    def test_near_zero_bandwidth(self, me_alexnet, pi4):
        server = dataclasses.replace(SERVER_PRESETS["edge_gpu"], name="srv")
        device = dataclasses.replace(pi4, name="dev0")
        cluster = EdgeCluster.star([device], [server], Link(mbps(0.05), rtt_s=0.2))
        tasks = [TaskSpec("t", me_alexnet, "dev0", deadline_s=5.0, accuracy_floor=0.5,
                          arrival_rate=0.5)]
        rep = solve_and_simulate(
            cluster, tasks, SimulationConfig(horizon_s=20.0, warmup_s=0.0, seed=3)
        )
        assert rep.total_requests > 0
        assert np.all(np.isfinite(rep.latencies()))

    def test_bandwidth_collapse_mid_run(self, small_cluster, small_tasks, small_candidates):
        plan = JointOptimizer(small_cluster).solve(
            small_tasks, candidates=small_candidates, seed=0
        ).plan
        # full speed for 5 s, then every link collapses by 99.9% for good
        collapse = FaultSchedule(tuple(
            FaultEvent("link_degrade", t.name, 5.0, float("inf"), severity=1e-3)
            for t in small_tasks
        ))
        rep = simulate_plan(
            small_tasks, plan, small_cluster,
            SimulationConfig(horizon_s=10.0, warmup_s=0.0, seed=4, faults=collapse),
        )
        before = [r.latency_s for r in rep.records if r.arrival_s < 4.0 and r.offloaded]
        after = [r.latency_s for r in rep.records if r.arrival_s >= 5.0 and r.offloaded]
        assert before and after
        assert np.mean(after) > np.mean(before)


class TestDegenerateWorkloads:
    @pytest.mark.parametrize("alpha,beta", [(0.51, 20.0), (20.0, 0.51)])
    def test_extreme_difficulty_distributions(self, alpha, beta, pi4):
        model = dataclasses.replace  # noqa: F841 - keep import-style parallel
        me = multiexit_model("alexnet", 3, "mixed")
        # rebuild with an extreme difficulty mix
        from repro.models.multiexit import insert_exits
        from repro.models.zoo import build

        me = insert_exits(
            build("alexnet"), num_exits=3,
            difficulty=DifficultyDistribution(alpha=alpha, beta=beta),
        )
        server = dataclasses.replace(SERVER_PRESETS["edge_gpu"], name="srv")
        device = dataclasses.replace(pi4, name="dev0")
        cluster = EdgeCluster.star([device], [server], Link(mbps(40), rtt_s=0.01))
        tasks = [TaskSpec("t", me, "dev0", deadline_s=1.0, accuracy_floor=0.4,
                          arrival_rate=2.0)]
        rep = solve_and_simulate(
            cluster, tasks, SimulationConfig(horizon_s=15.0, warmup_s=0.0, seed=5)
        )
        assert rep.total_requests > 0
        assert 0.0 <= rep.accuracy <= 1.0

    def test_single_request_horizon(self, small_cluster, me_alexnet):
        tasks = [TaskSpec("t", me_alexnet, "dev0", deadline_s=1.0, accuracy_floor=0.5,
                          arrival_rate=0.5)]
        rep = solve_and_simulate(
            small_cluster, tasks, SimulationConfig(horizon_s=3.0, warmup_s=0.0, seed=7)
        )
        assert rep.total_requests >= 1
