"""Objective functions."""

import numpy as np
import pytest

from repro.core.objectives import Objective
from repro.core.plan import TaskSpec
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def tasks(me_resnet18):
    return [
        TaskSpec("a", me_resnet18, "d", deadline_s=0.1, weight=1.0),
        TaskSpec("b", me_resnet18, "d", deadline_s=0.2, weight=3.0),
    ]


class TestAvgLatency:
    def test_weighted_mean(self, tasks):
        lat = np.array([0.1, 0.2])
        v = Objective.AVG_LATENCY.evaluate(lat, tasks)
        assert v == pytest.approx((1 * 0.1 + 3 * 0.2) / 4)

    def test_inf_propagates(self, tasks):
        assert Objective.AVG_LATENCY.evaluate(np.array([np.inf, 0.1]), tasks) == np.inf


class TestMaxLatency:
    def test_max(self, tasks):
        assert Objective.MAX_LATENCY.evaluate(np.array([0.1, 0.3]), tasks) == pytest.approx(0.3)


class TestDeadlineMiss:
    def test_all_meet(self, tasks):
        v = Objective.DEADLINE_MISS.evaluate(np.array([0.05, 0.1]), tasks)
        assert v < 0.01  # only the tie-break term

    def test_one_misses(self, tasks):
        v = Objective.DEADLINE_MISS.evaluate(np.array([0.15, 0.1]), tasks)
        assert 0.5 <= v < 0.51

    def test_tiebreak_orders_within_same_miss_count(self, tasks):
        fast = Objective.DEADLINE_MISS.evaluate(np.array([0.01, 0.01]), tasks)
        slow = Objective.DEADLINE_MISS.evaluate(np.array([0.09, 0.19]), tasks)
        assert fast < slow

    def test_urgency_weighting(self, tasks):
        w_a = Objective.DEADLINE_MISS.task_weight(tasks[0])
        w_b = Objective.DEADLINE_MISS.task_weight(tasks[1])
        assert w_a == pytest.approx(1.0 / 0.1)
        assert w_b == pytest.approx(3.0 / 0.2)

    def test_plain_weight_for_avg(self, tasks):
        assert Objective.AVG_LATENCY.task_weight(tasks[1]) == 3.0


class TestValidation:
    def test_shape_mismatch(self, tasks):
        with pytest.raises(ConfigError):
            Objective.AVG_LATENCY.evaluate(np.array([0.1]), tasks)

    def test_evaluate_empty_tasks_rejected(self):
        with pytest.raises(ConfigError):
            Objective.AVG_LATENCY.evaluate(np.array([]), [])
