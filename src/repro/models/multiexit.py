"""The multi-exit transform: attach side-branch classifiers to a backbone.

:func:`insert_exits` performs the *structural* half of model surgery — it
selects attach points among the backbone's valid cut points (evenly spaced in
cumulative FLOPs, BranchyNet-style) and synthesizes a small classifier branch
(global average pool → dense → softmax) at each.  The result is a
:class:`MultiExitModel` carrying, for every exit, the precomputed cost and
accuracy metadata the surgery optimizer consumes:

- cumulative backbone FLOPs up to the attach point,
- branch FLOPs and parameter counts,
- attach-point activation bytes (what crosses the network if we also cut there),
- marginal exit accuracy (from the backbone's :class:`AccuracyModel`) and the
  calibrated competence used by threshold semantics.

The *behavioural* half — choosing which exits to keep and their thresholds —
lives in :mod:`repro.core.surgery`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError, PlanError
from repro.models.accuracy import AccuracyModel, profile_for
from repro.models.exits import DifficultyDistribution
from repro.models.graph import CutPoint, ModelGraph
from repro.models.layers import shape_bytes


@dataclass(frozen=True)
class ExitBranch:
    """One early exit: a classifier branch attached at a backbone cut point.

    ``cut_index`` indexes the backbone's ``cut_points`` list; the *final* exit
    is represented as a branch at the last cut point with zero branch cost.
    """

    name: str
    cut_index: int
    attach_node: str
    backbone_flops: int  # cumulative backbone FLOPs through the attach point
    branch_flops: int  # extra FLOPs of the side classifier itself
    branch_params: int
    attach_bytes: int  # activation size at the attach point
    depth_fraction: float
    accuracy: float  # marginal (all-samples) accuracy of this exit
    is_final: bool = False

    @property
    def total_flops(self) -> int:
        """FLOPs to produce this exit's prediction from the input."""
        return self.backbone_flops + self.branch_flops


class MultiExitModel:
    """A backbone :class:`ModelGraph` plus an ordered list of exits.

    Exits are sorted by depth; the last is always the backbone's own
    classifier (``is_final=True``).  Competences are calibrated once per
    (model, difficulty distribution) at construction.
    """

    def __init__(
        self,
        backbone: ModelGraph,
        exits: Sequence[ExitBranch],
        accuracy_model: AccuracyModel,
        difficulty: DifficultyDistribution,
        result_bytes: int = 4096,
    ) -> None:
        if not exits:
            raise ModelError(f"{backbone.name}: multi-exit model needs >= 1 exit")
        order = sorted(exits, key=lambda e: e.cut_index)
        if not order[-1].is_final:
            raise ModelError(f"{backbone.name}: deepest exit must be the final exit")
        if sum(e.is_final for e in order) != 1:
            raise ModelError(f"{backbone.name}: exactly one final exit required")
        indices = [e.cut_index for e in order]
        if len(set(indices)) != len(indices):
            raise ModelError(f"{backbone.name}: duplicate exit attach points {indices}")
        self.backbone = backbone
        self.exits: List[ExitBranch] = order
        self.accuracy_model = accuracy_model
        self.difficulty = difficulty
        #: bytes of a prediction shipped back to the device after a remote exit
        self.result_bytes = int(result_bytes)

        grid, weights = difficulty.grid()
        accs = np.array([e.accuracy for e in order])
        self._competences = accuracy_model.calibrate_competence(accs, grid, weights)

        cuts = backbone.cut_points
        #: cumulative backbone FLOPs at every cut point (partition search data)
        self.cut_flops = np.array([c.head_flops for c in cuts], dtype=float)
        #: boundary activation bytes at every cut point
        self.cut_bytes = np.array([c.boundary_bytes for c in cuts], dtype=float)

    # -- accessors -----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.backbone.name

    @property
    def num_exits(self) -> int:
        return len(self.exits)

    @property
    def competences(self) -> np.ndarray:
        """Calibrated competence per exit (depth order)."""
        return self._competences.copy()

    @property
    def exit_cut_indices(self) -> np.ndarray:
        return np.array([e.cut_index for e in self.exits], dtype=int)

    @property
    def exit_total_flops(self) -> np.ndarray:
        return np.array([e.total_flops for e in self.exits], dtype=float)

    @property
    def input_bytes(self) -> int:
        return self.backbone.input_bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MultiExitModel({self.name!r}, exits={self.num_exits})"


def _branch_cost(backbone: ModelGraph, attach_node: str, num_classes: int) -> Tuple[int, int]:
    """FLOPs and params of a GAP->Dense->Softmax side classifier at a node."""
    shape = backbone.output_shape_of(attach_node)
    if len(shape) == 3:
        c = shape[0]
        gap_flops = int(np.prod(shape))
        feat = c
    else:
        gap_flops = 0
        feat = int(np.prod(shape))
    dense_flops = 2 * feat * num_classes
    softmax_flops = 5 * num_classes
    params = feat * num_classes + num_classes
    return gap_flops + dense_flops + softmax_flops, params


def select_attach_points(
    backbone: ModelGraph, num_exits: int, min_depth: float = 0.05, max_depth: float = 0.85
) -> List[CutPoint]:
    """Pick ``num_exits`` early-exit attach points evenly spaced in FLOPs.

    Targets are equally spaced depth fractions within [min_depth, max_depth];
    each maps to the nearest distinct cut point.  The final exit is *not*
    among these — it is implied.
    """
    if num_exits < 0:
        raise PlanError(f"num_exits must be >= 0, got {num_exits}")
    cuts = backbone.cut_points
    interior = [c for c in cuts if 0.0 < c.depth_fraction < 1.0]
    if num_exits == 0 or not interior:
        return []
    fractions = np.array([c.depth_fraction for c in interior])
    targets = np.linspace(min_depth, max_depth, num_exits)
    chosen: List[CutPoint] = []
    used: set = set()
    for t in targets:
        order = np.argsort(np.abs(fractions - t))
        for j in order:
            if interior[j].index not in used:
                used.add(interior[j].index)
                chosen.append(interior[j])
                break
    chosen.sort(key=lambda c: c.index)
    return chosen


def insert_exits(
    backbone: ModelGraph,
    num_exits: int = 4,
    accuracy_model: Optional[AccuracyModel] = None,
    difficulty: Optional[DifficultyDistribution] = None,
    num_classes: int = 1000,
    attach_points: Optional[Sequence[str]] = None,
) -> MultiExitModel:
    """Attach ``num_exits`` early exits to ``backbone`` plus the final exit.

    ``attach_points`` (cut-point node names) overrides automatic selection.
    """
    acc_model = accuracy_model if accuracy_model is not None else profile_for(backbone.name)
    diff = difficulty if difficulty is not None else DifficultyDistribution()

    if attach_points is not None:
        cuts = [backbone.cut_by_name(n) for n in attach_points]
        for c in cuts:
            if c.depth_fraction >= 1.0:
                raise PlanError(f"attach point {c.name} is the final layer")
        cuts.sort(key=lambda c: c.index)
    else:
        cuts = select_attach_points(backbone, num_exits)

    exits: List[ExitBranch] = []
    for i, cut in enumerate(cuts):
        branch_flops, branch_params = _branch_cost(backbone, cut.name, num_classes)
        acc = float(acc_model.accuracy_at(cut.depth_fraction))
        exits.append(
            ExitBranch(
                name=f"exit{i}",
                cut_index=cut.index,
                attach_node=cut.name,
                backbone_flops=cut.head_flops,
                branch_flops=branch_flops,
                branch_params=branch_params,
                attach_bytes=cut.boundary_bytes,
                depth_fraction=cut.depth_fraction,
                accuracy=acc,
            )
        )
    last = backbone.cut_points[-1]
    exits.append(
        ExitBranch(
            name="final",
            cut_index=last.index,
            attach_node=last.name,
            backbone_flops=last.head_flops,
            branch_flops=0,
            branch_params=0,
            attach_bytes=last.boundary_bytes,
            depth_fraction=1.0,
            accuracy=acc_model.final_accuracy,
            is_final=True,
        )
    )
    return MultiExitModel(backbone, exits, acc_model, diff)
