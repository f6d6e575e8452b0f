"""The BCD joint optimizer."""

import dataclasses

import numpy as np
import pytest

from repro.core.joint import JointOptimizer, JointSolverConfig
from repro.core.objectives import Objective
from repro.core.plan import TaskSpec
from repro.errors import ConfigError


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_iterations=0),
            dict(tol=-1.0),
            dict(restarts=0),
            dict(restart_workers=0),
            dict(nested_shards=-1),
            dict(tol=float("nan")),
            dict(tol=float("inf")),
            dict(migration_hysteresis=float("nan")),
            dict(migration_hysteresis=float("inf")),
            dict(max_iterations=2.5),
            dict(max_iterations=True),
            dict(restarts=True),
            dict(restart_workers=2.0),
            dict(shards=2.0),
            dict(migration_rounds=1.5),
            dict(nested_shards=False),
            dict(tol="0.1"),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            JointSolverConfig(**kwargs)


    def test_integer_like_values_accepted(self):
        cfg = JointSolverConfig(
            max_iterations=np.int64(3), shards=np.int32(2), tol=0, migration_hysteresis=1
        )
        assert cfg.max_iterations == 3 and cfg.shards == 2


class TestSolve:
    def test_produces_complete_plan(self, small_cluster, small_tasks, small_candidates):
        res = JointOptimizer(small_cluster).solve(small_tasks, candidates=small_candidates)
        plan = res.plan
        for t in small_tasks:
            assert t.name in plan.features
            assert t.name in plan.latencies
            assert np.isfinite(plan.latencies[t.name])

    def test_objective_matches_latencies(self, small_cluster, small_tasks, small_candidates):
        res = JointOptimizer(small_cluster).solve(small_tasks, candidates=small_candidates)
        lat = np.array([res.plan.latencies[t.name] for t in small_tasks])
        assert res.plan.objective_value == pytest.approx(
            Objective.AVG_LATENCY.evaluate(lat, small_tasks)
        )

    def test_history_monotone_nonincreasing(self, small_cluster, small_tasks, small_candidates):
        res = JointOptimizer(small_cluster).solve(small_tasks, candidates=small_candidates)
        finite = [h for h in res.history if np.isfinite(h)]
        assert all(b <= a + 1e-12 for a, b in zip(finite, finite[1:]))

    def test_converges(self, small_cluster, small_tasks, small_candidates):
        res = JointOptimizer(small_cluster).solve(small_tasks, candidates=small_candidates)
        assert res.converged

    def test_respects_accuracy_floor(self, small_cluster, small_tasks, small_candidates):
        res = JointOptimizer(small_cluster).solve(small_tasks, candidates=small_candidates)
        for t in small_tasks:
            assert res.plan.features[t.name].accuracy >= t.accuracy_floor - 1e-9

    def test_deterministic_given_seed(self, small_cluster, small_tasks, small_candidates):
        a = JointOptimizer(small_cluster).solve(small_tasks, candidates=small_candidates, seed=5)
        b = JointOptimizer(small_cluster).solve(small_tasks, candidates=small_candidates, seed=5)
        assert a.plan.objective_value == b.plan.objective_value
        assert a.plan.assignment == b.plan.assignment

    def test_restarts_never_worse(self, small_cluster, small_tasks, small_candidates):
        one = JointOptimizer(
            small_cluster, config=JointSolverConfig(restarts=1)
        ).solve(small_tasks, candidates=small_candidates, seed=1)
        three = JointOptimizer(
            small_cluster, config=JointSolverConfig(restarts=3)
        ).solve(small_tasks, candidates=small_candidates, seed=1)
        assert three.plan.objective_value <= one.plan.objective_value + 1e-12

    def test_empty_tasks_raise(self, small_cluster):
        with pytest.raises(ConfigError):
            JointOptimizer(small_cluster).solve([])

    def test_duplicate_names_raise(self, small_cluster, small_tasks):
        with pytest.raises(ConfigError):
            JointOptimizer(small_cluster).solve([small_tasks[0], small_tasks[0]])

    def test_unknown_device_raises(self, small_cluster, me_resnet18):
        t = TaskSpec("x", me_resnet18, "ghost_device")
        with pytest.raises(ConfigError):
            JointOptimizer(small_cluster).solve([t])

    def test_candidates_length_mismatch(self, small_cluster, small_tasks, small_candidates):
        with pytest.raises(ConfigError):
            JointOptimizer(small_cluster).solve(
                small_tasks, candidates=small_candidates[:1]
            )

    def test_shares_within_capacity(self, small_cluster, small_tasks, small_candidates):
        res = JointOptimizer(small_cluster).solve(small_tasks, candidates=small_candidates)
        per_server = {}
        for t in small_tasks:
            s = res.plan.assignment[t.name]
            if s is not None and res.plan.features[t.name].srv_flops > 0:
                per_server.setdefault(s, 0.0)
                per_server[s] += res.plan.compute_shares[t.name]
        for total in per_server.values():
            assert total <= 1.0 + 1e-9

    def test_deadline_objective_runs(self, small_cluster, small_tasks, small_candidates):
        res = JointOptimizer(
            small_cluster, objective=Objective.DEADLINE_MISS
        ).solve(small_tasks, candidates=small_candidates)
        assert np.isfinite(res.plan.objective_value)

    def test_candidate_counts_reported(self, small_cluster, small_tasks, small_candidates):
        res = JointOptimizer(small_cluster).solve(small_tasks, candidates=small_candidates)
        assert res.candidate_counts == {
            t.name: len(c) for t, c in zip(small_tasks, small_candidates)
        }

    def test_summary_mentions_all_tasks(self, small_cluster, small_tasks, small_candidates):
        res = JointOptimizer(small_cluster).solve(small_tasks, candidates=small_candidates)
        s = res.plan.summary()
        for t in small_tasks:
            assert t.name in s


class TestLocalSearchPinned:
    """A centralized 32 x 8 solve (the stream_city seed-1 instance) where the
    local search changes the result, pinned by sha256 of the plan and the
    history, both with and without the local search."""

    @pytest.fixture(scope="class")
    def instance(self):
        from repro.core.candidates import build_candidates
        from repro.rng import derive_seed
        from repro.workloads.scenarios import build_scenario

        cluster, tasks = build_scenario(
            "smart_city", num_tasks=32, num_servers=8, server_spread=8.0,
            access_mbps=100.0, seed=derive_seed(1, "scenario"),
        )
        return cluster, tasks, [build_candidates(t) for t in tasks], derive_seed(1, "solver")

    @pytest.mark.parametrize(
        "local_search, objective, digest",
        [
            (False, 0.12649146483657656,
             "0a4d2640853cdfc105822f045028b22a341ec7555684f46f2d4afe03d8345b9d"),
            (True, 0.12361334469183571,
             "2bbf9c1968e02b4dc6b115e49c8f11b8b8d026eb0c0fb3a36e56bc4b59ca8e11"),
        ],
    )
    def test_solve_digest(self, instance, plan_digest, local_search, objective, digest):
        cluster, tasks, cands, seed = instance
        res = JointOptimizer(
            cluster, config=JointSolverConfig(local_search=local_search)
        ).solve(tasks, candidates=cands, seed=seed)
        assert res.plan.objective_value == objective
        assert plan_digest(res.plan, res.history) == digest
