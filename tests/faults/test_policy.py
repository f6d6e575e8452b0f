"""Failure policies and plan-repair directives."""

import pytest

from repro.core.joint import JointOptimizer
from repro.errors import ConfigError
from repro.faults import FailurePolicy, PlanUpdate


class TestFailurePolicy:
    def test_defaults_valid(self):
        p = FailurePolicy()
        assert p.stage_timeout_s > 0 and p.max_retries >= 0

    @pytest.mark.parametrize("kw", [
        dict(stage_timeout_s=0.0),
        dict(max_retries=-1),
        dict(backoff_base_s=-0.1),
        dict(backoff_factor=0.5),
        dict(detection_delay_s=-1e-9),
        dict(stage_timeout_s=float("nan")),
        dict(detection_delay_s=float("nan")),
        dict(backoff_base_s=float("inf")),
        dict(backoff_factor=float("nan")),
        dict(max_retries=2.5),
        dict(max_retries=True),
    ])
    def test_bad_knobs_rejected(self, kw):
        with pytest.raises(ConfigError):
            FailurePolicy(**kw)

    def test_backoff_is_exponential(self):
        p = FailurePolicy(backoff_base_s=0.01, backoff_factor=2.0)
        assert p.backoff_s(0) == pytest.approx(0.01)
        assert p.backoff_s(3) == pytest.approx(0.08)


class TestPlanUpdate:
    @pytest.fixture(scope="class")
    def plan(self, small_cluster, small_tasks, small_candidates):
        return JointOptimizer(small_cluster).solve(
            small_tasks, candidates=small_candidates, seed=0
        ).plan

    def test_valid_update(self, plan):
        up = PlanUpdate(3.0, plan, shed_tasks=("t0",))
        assert up.time_s == 3.0 and up.shed_tasks == ("t0",)

    def test_negative_time_rejected(self, plan):
        with pytest.raises(ConfigError):
            PlanUpdate(-1.0, plan)

    @pytest.mark.parametrize("time_s", [float("nan"), float("inf")])
    def test_nonfinite_time_rejected(self, plan, time_s):
        with pytest.raises(ConfigError, match="finite"):
            PlanUpdate(time_s, plan)

    def test_unknown_shed_task_rejected(self, plan):
        with pytest.raises(ConfigError, match="shed task"):
            PlanUpdate(1.0, plan, shed_tasks=("ghost",))
