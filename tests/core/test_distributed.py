"""Best-response offloading game."""

import numpy as np
import pytest

from repro.core.distributed import best_response_offloading
from repro.core.joint import JointOptimizer
from repro.errors import ConfigError


class TestBestResponse:
    def test_produces_complete_plan(self, small_cluster, small_tasks, small_candidates):
        res = best_response_offloading(
            small_tasks, small_cluster, candidates=small_candidates, seed=0
        )
        assert set(res.plan.latencies) == {t.name for t in small_tasks}
        assert np.isfinite(res.plan.objective_value)

    def test_converges_to_equilibrium(self, small_cluster, small_tasks, small_candidates):
        res = best_response_offloading(
            small_tasks, small_cluster, candidates=small_candidates, seed=0
        )
        assert res.converged
        assert res.rounds <= 30

    def test_close_to_centralized(self, small_cluster, small_tasks, small_candidates):
        br = best_response_offloading(
            small_tasks, small_cluster, candidates=small_candidates, seed=0
        )
        bcd = JointOptimizer(small_cluster).solve(
            small_tasks, candidates=small_candidates, seed=0
        )
        gap = br.plan.objective_value / bcd.plan.objective_value
        assert gap < 1.25  # "close-to-optimal" guarantee band

    def test_history_recorded(self, small_cluster, small_tasks, small_candidates):
        res = best_response_offloading(
            small_tasks, small_cluster, candidates=small_candidates, seed=0
        )
        assert len(res.history) == res.rounds + 1

    def test_final_history_matches_objective(self, small_cluster, small_tasks, small_candidates):
        res = best_response_offloading(
            small_tasks, small_cluster, candidates=small_candidates, seed=0
        )
        assert res.history[-1] == pytest.approx(res.plan.objective_value)

    def test_deterministic_given_seed(self, small_cluster, small_tasks, small_candidates):
        a = best_response_offloading(
            small_tasks, small_cluster, candidates=small_candidates, seed=3
        )
        b = best_response_offloading(
            small_tasks, small_cluster, candidates=small_candidates, seed=3
        )
        assert a.plan.objective_value == b.plan.objective_value

    def test_empty_tasks_raise(self, small_cluster):
        with pytest.raises(ConfigError):
            best_response_offloading([], small_cluster)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_rounds=0),
            dict(max_rounds=-2),
            dict(max_rounds=2.0),
            dict(max_rounds=True),
            dict(improvement_eps=float("nan")),
            dict(improvement_eps=float("inf")),
            dict(improvement_eps=-1.0),
            dict(improvement_eps=None),
        ],
    )
    def test_invalid_game_settings_raise(
        self, small_cluster, small_tasks, small_candidates, kwargs
    ):
        with pytest.raises(ConfigError):
            best_response_offloading(
                small_tasks, small_cluster, candidates=small_candidates, **kwargs
            )

    def test_zero_eps_and_one_round_accepted(
        self, small_cluster, small_tasks, small_candidates
    ):
        res = best_response_offloading(
            small_tasks, small_cluster, candidates=small_candidates,
            max_rounds=1, improvement_eps=0, seed=0,
        )
        assert res.rounds == 1
        assert np.isfinite(res.plan.objective_value)

    def test_candidates_mismatch_raises(self, small_cluster, small_tasks, small_candidates):
        with pytest.raises(ConfigError):
            best_response_offloading(
                small_tasks, small_cluster, candidates=small_candidates[:1]
            )

    def test_accuracy_floors_respected(self, small_cluster, small_tasks, small_candidates):
        res = best_response_offloading(
            small_tasks, small_cluster, candidates=small_candidates, seed=0
        )
        for t in small_tasks:
            assert res.plan.features[t.name].accuracy >= t.accuracy_floor - 1e-9


class TestBestResponseAtScale:
    """The decentralized arm of E17: the game must stay bounded and exactly
    reproducible at the 1k-task scale the sharded control plane targets."""

    @pytest.fixture(scope="class")
    def scale_result(self):
        import dataclasses

        from repro.core.candidates import build_candidates
        from repro.workloads.scenarios import build_scenario

        cluster, tasks = build_scenario(
            "smart_city", num_tasks=1024, num_servers=32,
            server_spread=4.0, seed=0,
        )
        # rate-scaled for queue stability at this density (E17 precedent)
        tasks = [
            dataclasses.replace(t, arrival_rate=t.arrival_rate * 0.1)
            for t in tasks
        ]
        cands = [build_candidates(t) for t in tasks]
        res = best_response_offloading(
            tasks, cluster, candidates=cands, max_rounds=2, seed=0
        )
        return tasks, cluster, cands, res

    def test_rounds_bounded_and_game_improves(self, scale_result):
        _, _, _, res = scale_result
        assert res.rounds <= 2
        assert len(res.history) == res.rounds + 1
        # players move selfishly, so the *global* objective need not fall
        # every round — but it must collapse from the all-local start
        assert res.history[-1] < res.history[0] * 0.5

    def test_complete_finite_plan(self, scale_result):
        tasks, _, _, res = scale_result
        assert set(res.plan.latencies) == {t.name for t in tasks}
        assert np.isfinite(res.plan.objective_value)

    def test_deterministic_given_seed(self, scale_result):
        tasks, cluster, cands, res = scale_result
        again = best_response_offloading(
            tasks, cluster, candidates=cands, max_rounds=2, seed=0
        )
        assert again.plan.objective_value == res.plan.objective_value
        assert again.history == res.history
        assert again.plan.assignment == res.plan.assignment


class TestPinnedGames:
    """Fixed-seed games pinned by sha256 (plan, rounds, moves, convergence and
    the ``repr`` of the history).  Last re-recorded when ranking and pricing
    moved onto one latency model: placements, plans, shares, rounds and moves
    stayed the same, only last-bit latency floats moved."""

    @pytest.mark.parametrize(
        "n, m, rate, seed, rounds, moves, digest",
        [
            (24, 6, 1.0, 0, 3, 26,
             "da2f64b2d5f107fc7be29a8348c77e301e9058f7a9c6499e27a5a1340d1a41a2"),
            (24, 6, 1.0, 1, 6, 30,
             "42032e19c8d62d2ef976cc09b9eb3ecfdd0e134f7e1a4db886dc55d2a7d2701c"),
            (96, 12, 0.25, 0, 3, 98,
             "18565cf3109e8c46a62036ca42838251af4ed5a3f8aaa6cb59d7082c8e5b1dac"),
            (96, 12, 0.25, 1, 3, 98,
             "c89fe44a68c7958b20ef0e1a60689cc2c68d33b9b8e0caf461ddf66f247b17ac"),
        ],
    )
    def test_game_digest(
        self, city_instance, plan_digest, n, m, rate, seed, rounds, moves, digest
    ):
        cluster, tasks, cands = city_instance(n, m, seed, rate)
        res = best_response_offloading(tasks, cluster, candidates=cands, seed=seed)
        assert (res.rounds, res.moves, res.converged) == (rounds, moves, True)
        assert plan_digest(res.plan, res.rounds, res.moves, res.converged, res.history) == digest
