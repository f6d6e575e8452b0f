"""Integration tests for the extension features working together."""

import dataclasses

import numpy as np
import pytest

from repro import JointOptimizer, SimulationConfig, build_scenario, simulate_plan
from repro.core.candidates import build_candidates
from repro.core.online import ControllerConfig, EnvironmentSample, OnlineController
from repro.models.quantization import ALL_LEVELS
from repro.units import mbps


class TestQuantizationEndToEnd:
    """The quantization knob flows consistently from search to simulation."""

    @pytest.fixture(scope="class")
    def instance(self):
        cluster, tasks = build_scenario(
            "smart_city", num_tasks=3, access_mbps=15.0, seed=2
        )
        cands = [
            build_candidates(t, quantization_levels=ALL_LEVELS) for t in tasks
        ]
        return cluster, tasks, cands

    def test_solver_uses_quantized_plans_on_thin_link(self, instance):
        cluster, tasks, cands = instance
        plan = JointOptimizer(cluster).solve(tasks, candidates=cands, seed=0).plan
        levels = {f.plan.quantization for f in plan.features.values()}
        assert levels & {"fp16", "int8"}  # the knob is actually used

    def test_simulated_latency_tracks_quantized_prediction(self, instance):
        cluster, tasks, cands = instance
        plan = JointOptimizer(cluster).solve(tasks, candidates=cands, seed=0).plan
        rep = simulate_plan(
            tasks, plan, cluster,
            SimulationConfig(horizon_s=40.0, warmup_s=5.0, seed=3),
        )
        for t in tasks:
            predicted = plan.latencies[t.name]
            if np.isfinite(predicted):
                measured = rep.per_task[t.name].mean_latency_s
                assert measured == pytest.approx(predicted, rel=0.45), t.name

    def test_simulated_accuracy_reflects_quantization_cost(self, instance):
        cluster, tasks, cands = instance
        plan = JointOptimizer(cluster).solve(tasks, candidates=cands, seed=0).plan
        rep = simulate_plan(
            tasks, plan, cluster,
            SimulationConfig(horizon_s=40.0, warmup_s=5.0, seed=4),
        )
        for t in tasks:
            stats = rep.per_task[t.name]
            expected = plan.features[t.name].accuracy
            sigma = (expected * (1 - expected) / stats.count) ** 0.5
            assert abs(stats.accuracy - expected) < 4 * sigma + 0.01, t.name


class TestOnlineControllerWithDiurnalTrace:
    """The controller driven by the windowed rates of a diurnal workload."""

    def test_replans_on_rush_hour(self, small_cluster, small_tasks, small_candidates):
        controller = OnlineController(
            small_cluster,
            small_tasks,
            candidates=small_candidates,
            config=ControllerConfig(replan_threshold=0.5, min_replan_interval_s=0.0),
        )
        # a strong diurnal pattern (base 3/s, amplitude 0.9, one 120 s
        # period) read at the midpoints of six 20 s windows
        starts = np.arange(0.0, 120.0, 20.0)
        rates = 3.0 * (1.0 + 0.9 * np.sin(2.0 * np.pi * (starts + 10.0) / 120.0))
        replans = 0
        for t0, rate in zip(starts, rates):
            if rate <= 0:
                continue
            fired = controller.observe(
                EnvironmentSample(
                    time_s=float(t0),
                    arrival_rates={t.name: float(rate) for t in small_tasks},
                )
            )
            replans += fired
        # the rush-hour / dead-of-night swing (>= 2x) must trigger re-plans
        assert replans >= 1
        assert controller.replan_count == replans

    def test_plan_valid_after_each_replan(self, small_cluster, small_tasks, small_candidates):
        controller = OnlineController(
            small_cluster,
            small_tasks,
            candidates=small_candidates,
            config=ControllerConfig(replan_threshold=0.2, min_replan_interval_s=0.0),
        )
        for k, bw in enumerate([40.0, 10.0, 3.0, 25.0, 40.0]):
            controller.observe(
                EnvironmentSample(
                    time_s=float(k),
                    bandwidth_bps={
                        key: mbps(bw) for key in small_cluster.topology.links
                    },
                )
            )
            plan = controller.plan
            for t in small_tasks:
                assert t.name in plan.features
                assert plan.features[t.name].accuracy >= t.accuracy_floor - 1e-9
