"""Plan data model: TaskSpec, SurgeryPlan, PlanFeatures validation."""

import pytest

from repro.core.plan import PlanFeatures, SurgeryPlan, TaskSpec
from repro.errors import PlanError


class TestTaskSpec:
    def test_valid(self, me_resnet18):
        t = TaskSpec("t", me_resnet18, "dev0")
        assert t.weight == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(deadline_s=0.0),
            dict(accuracy_floor=0.0),
            dict(accuracy_floor=1.5),
            dict(arrival_rate=0.0),
            dict(weight=-1.0),
        ],
    )
    def test_invalid(self, me_resnet18, kwargs):
        base = dict(name="t", model=me_resnet18, device_name="dev0")
        base.update(kwargs)
        with pytest.raises(PlanError):
            TaskSpec(**base)

    @pytest.mark.parametrize("field", ["deadline_s", "arrival_rate", "weight"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, me_resnet18, field, value):
        with pytest.raises(PlanError, match="finite"):
            TaskSpec("t", me_resnet18, "dev0", **{field: value})


class TestSurgeryPlan:
    def test_valid(self):
        p = SurgeryPlan(kept_exits=(1, 4), thresholds=(0.8, 0.0), partition_cut=3)
        assert p.partition_cut == 3

    def test_length_mismatch(self):
        with pytest.raises(PlanError):
            SurgeryPlan(kept_exits=(1, 4), thresholds=(0.0,), partition_cut=0)

    def test_empty_exits(self):
        with pytest.raises(PlanError):
            SurgeryPlan(kept_exits=(), thresholds=(), partition_cut=0)

    def test_unsorted_exits(self):
        with pytest.raises(PlanError):
            SurgeryPlan(kept_exits=(4, 1), thresholds=(0.5, 0.0), partition_cut=0)

    def test_duplicate_exits(self):
        with pytest.raises(PlanError):
            SurgeryPlan(kept_exits=(1, 1), thresholds=(0.5, 0.0), partition_cut=0)

    def test_final_threshold_nonzero(self):
        with pytest.raises(PlanError):
            SurgeryPlan(kept_exits=(1, 4), thresholds=(0.5, 0.5), partition_cut=0)

    def test_threshold_out_of_range(self):
        with pytest.raises(PlanError):
            SurgeryPlan(kept_exits=(1, 4), thresholds=(1.0, 0.0), partition_cut=0)

    def test_negative_cut(self):
        with pytest.raises(PlanError):
            SurgeryPlan(kept_exits=(4,), thresholds=(0.0,), partition_cut=-1)

    def test_validate_against_requires_final_exit(self, me_resnet18):
        p = SurgeryPlan(kept_exits=(1, 2), thresholds=(0.5, 0.0), partition_cut=0)
        with pytest.raises(PlanError):
            p.validate_against(me_resnet18)

    def test_validate_against_cut_range(self, me_resnet18):
        n_cuts = len(me_resnet18.backbone.cut_points)
        p = SurgeryPlan(kept_exits=(4,), thresholds=(0.0,), partition_cut=n_cuts)
        with pytest.raises(PlanError):
            p.validate_against(me_resnet18)

    def test_validate_against_ok(self, me_resnet18):
        SurgeryPlan(kept_exits=(0, 4), thresholds=(0.7, 0.0), partition_cut=2).validate_against(
            me_resnet18
        )


class TestPlanFeatures:
    PLAN = SurgeryPlan(kept_exits=(4,), thresholds=(0.0,), partition_cut=0)

    def make(self, **kw):
        base = dict(
            plan=self.PLAN,
            dev_flops=0.0,
            srv_flops=1e9,
            wire_bytes=1e5,
            p_offload=1.0,
            accuracy=0.7,
        )
        base.update(kw)
        return PlanFeatures(**base)

    def test_valid(self):
        f = self.make()
        assert not f.is_local_only

    def test_local_only_detection(self):
        f = self.make(srv_flops=0.0, wire_bytes=0.0, p_offload=0.0, dev_flops=1e9)
        assert f.is_local_only

    def test_negative_cost(self):
        with pytest.raises(PlanError):
            self.make(dev_flops=-1.0)

    def test_p_offload_range(self):
        with pytest.raises(PlanError):
            self.make(p_offload=1.5)

    def test_accuracy_range(self):
        with pytest.raises(PlanError):
            self.make(accuracy=0.0)

    def test_impossible_moments(self):
        with pytest.raises(PlanError):
            self.make(srv_flops=2e9, srv_flops_sq=1e9)  # E[X^2] << E[X]^2

    def test_zero_second_moment_allowed(self):
        # zero means "not provided"; legacy constructors still work
        f = self.make(srv_flops=2e9, srv_flops_sq=0.0)
        assert f.srv_flops_sq == 0.0
