"""Randomized scenario generator."""

import pytest

from repro.errors import ConfigError
from repro.workloads.generator import RandomScenarioConfig, random_scenario


class TestRandomScenario:
    def test_respects_ranges(self):
        cfg = RandomScenarioConfig(num_tasks=(3, 5), num_servers=(2, 3))
        for k in range(5):
            cluster, tasks = random_scenario(seed=k, config=cfg)
            assert 3 <= len(tasks) <= 5
            assert 2 <= cluster.num_servers <= 3

    def test_accuracy_floor_always_attainable(self):
        for k in range(8):
            _, tasks = random_scenario(seed=k)
            for t in tasks:
                assert t.accuracy_floor < t.model.accuracy_model.final_accuracy

    def test_deterministic_given_seed(self):
        c1, t1 = random_scenario(seed=77)
        c2, t2 = random_scenario(seed=77)
        assert [t.deadline_s for t in t1] == [t.deadline_s for t in t2]
        assert [s.peak_flops for s in c1.servers] == [s.peak_flops for s in c2.servers]

    def test_different_seeds_differ(self):
        _, t1 = random_scenario(seed=1)
        _, t2 = random_scenario(seed=2)
        assert [t.deadline_s for t in t1] != [t.deadline_s for t in t2]

    def test_inverted_range_raises(self):
        with pytest.raises(ConfigError):
            RandomScenarioConfig(num_tasks=(5, 3))

    def test_unknown_model_raises(self):
        with pytest.raises(ConfigError):
            RandomScenarioConfig(models=("skynet",))

    def test_solvable_by_joint(self):
        from repro.core.joint import JointOptimizer

        cluster, tasks = random_scenario(seed=5)
        res = JointOptimizer(cluster).solve(tasks)
        assert res.plan.objective_value > 0
