"""Multi-exit transform: attach-point selection, branch costs, invariants."""

import numpy as np
import pytest

from repro.errors import ModelError, PlanError
from repro.models.multiexit import (
    ExitBranch,
    MultiExitModel,
    insert_exits,
    select_attach_points,
)
from repro.models.zoo import build


class TestSelectAttachPoints:
    def test_count(self, tiny_model):
        pts = select_attach_points(tiny_model, 3)
        assert len(pts) == 3

    def test_sorted_and_interior(self, tiny_model):
        pts = select_attach_points(tiny_model, 3)
        idx = [p.index for p in pts]
        assert idx == sorted(idx)
        assert all(0 < p.depth_fraction < 1 for p in pts)

    def test_distinct(self, tiny_model):
        pts = select_attach_points(tiny_model, 4)
        assert len({p.index for p in pts}) == len(pts)

    def test_zero_exits(self, tiny_model):
        assert select_attach_points(tiny_model, 0) == []

    def test_negative_raises(self, tiny_model):
        with pytest.raises(PlanError):
            select_attach_points(tiny_model, -1)


class TestInsertExits:
    def test_final_exit_always_last(self, me_resnet18):
        assert me_resnet18.exits[-1].is_final
        assert me_resnet18.exits[-1].depth_fraction == pytest.approx(1.0)

    def test_exit_count(self, me_resnet18):
        assert me_resnet18.num_exits == 5  # 4 early + final

    def test_exit_depths_increasing(self, me_resnet18):
        d = [e.depth_fraction for e in me_resnet18.exits]
        assert np.all(np.diff(d) > 0)

    def test_exit_accuracies_increasing(self, me_resnet18):
        a = [e.accuracy for e in me_resnet18.exits]
        assert np.all(np.diff(a) > 0)

    def test_competences_increasing(self, me_resnet18):
        assert np.all(np.diff(me_resnet18.competences) > 0)

    def test_branch_flops_positive_for_early_exits(self, me_resnet18):
        for e in me_resnet18.exits[:-1]:
            assert e.branch_flops > 0
        assert me_resnet18.exits[-1].branch_flops == 0

    def test_total_flops_include_branch(self, me_resnet18):
        for e in me_resnet18.exits:
            assert e.total_flops == e.backbone_flops + e.branch_flops

    def test_explicit_attach_points(self):
        g = build("alexnet")
        names = [c.name for c in g.cut_points if 0 < c.depth_fraction < 1]
        me = insert_exits(g, attach_points=names[:2])
        assert me.num_exits == 3

    def test_explicit_attach_point_at_sink_raises(self):
        g = build("alexnet")
        with pytest.raises(PlanError):
            insert_exits(g, attach_points=[g.topological_order[-1]])

    def test_cut_arrays_match_backbone(self, me_resnet18):
        cuts = me_resnet18.backbone.cut_points
        assert len(me_resnet18.cut_flops) == len(cuts)
        assert me_resnet18.cut_flops[-1] == cuts[-1].head_flops

    def test_result_bytes_default(self, me_resnet18):
        assert me_resnet18.result_bytes == 4096


class TestMultiExitValidation:
    def _final(self, model, cut_index=None):
        last = model.cut_points[-1]
        return ExitBranch(
            name="final",
            cut_index=last.index if cut_index is None else cut_index,
            attach_node=last.name,
            backbone_flops=last.head_flops,
            branch_flops=0,
            branch_params=0,
            attach_bytes=last.boundary_bytes,
            depth_fraction=1.0,
            accuracy=0.7,
            is_final=True,
        )

    def test_requires_final_exit_deepest(self, tiny_model):
        from repro.models.accuracy import AccuracyModel
        from repro.models.exits import DifficultyDistribution

        early = ExitBranch(
            name="e0",
            cut_index=2,
            attach_node="relu1",
            backbone_flops=100,
            branch_flops=10,
            branch_params=5,
            attach_bytes=64,
            depth_fraction=0.3,
            accuracy=0.4,
        )
        # final marked at a shallower cut than the early exit -> invalid
        with pytest.raises(ModelError):
            MultiExitModel(
                tiny_model,
                [early, self._final(tiny_model, cut_index=1)],
                AccuracyModel(),
                DifficultyDistribution(),
            )

    def test_duplicate_attach_raises(self, tiny_model):
        from repro.models.accuracy import AccuracyModel
        from repro.models.exits import DifficultyDistribution

        f = self._final(tiny_model)
        with pytest.raises(ModelError):
            MultiExitModel(
                tiny_model, [f, f], AccuracyModel(), DifficultyDistribution()
            )

    def test_empty_exits_raises(self, tiny_model):
        from repro.models.accuracy import AccuracyModel
        from repro.models.exits import DifficultyDistribution

        with pytest.raises(ModelError):
            MultiExitModel(tiny_model, [], AccuracyModel(), DifficultyDistribution())
