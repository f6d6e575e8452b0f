"""Model-surgery evaluation and enumeration.

Evaluation maps a :class:`~repro.core.plan.SurgeryPlan` to its
allocation-independent :class:`~repro.core.plan.PlanFeatures` (see the
linearity property in :mod:`repro.core.plan`).  Enumeration sweeps

    exit subsets × a shared-threshold grid × partition cut points

and is organized so the expensive part — the exit-probability quadrature —
runs once per (subset, threshold) while the partition-cut sweep is a pure
vectorized pass, making full enumeration cheap enough to run per task.
"""

from __future__ import annotations

import weakref
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.latency import predicted_latency
from repro.core.plan import FEATURE_COLUMNS, PlanFeatures, PlanTable, SurgeryPlan, suspect_rows
from repro.devices.device import DeviceSpec
from repro.errors import ConfigError, PlanError, require_int
from repro.models.exits import exit_probabilities
from repro.models.multiexit import MultiExitModel
from repro.network.link import Link

#: Default shared-threshold grid for candidate enumeration.  0 is excluded
#: (a 0 threshold on a non-final exit would swallow every sample); values
#: match the operating points BranchyNet-class papers report.
DEFAULT_THRESHOLD_GRID: Tuple[float, ...] = (0.5, 0.65, 0.8, 0.9, 0.95)

#: Cap on partition cut points examined per model during enumeration (the
#: exits' attach points are always included on top of this budget).
DEFAULT_MAX_CUTS = 16


#: Memo of exit-distribution quadratures, weakly keyed by model:
#: {model: {(kept, thresholds): (p, acc)}}.  The quadrature is the single
#: most expensive step of plan evaluation and depends only on (model, kept
#: exits, thresholds) — enumeration and per-task threshold refinement
#: re-request the same policies over and over, so amortizing it across tasks
#: sharing a model template is a large win.  Cached arrays are read-only.
_EXIT_DIST_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

#: Memo of full plan evaluations, weakly keyed by model:
#: {model: {SurgeryPlan: PlanFeatures}}.  Features are frozen, so sharing
#: one object across callers is safe.  Bounded in practice by the candidate
#: enumeration space plus the refinement grid per model.
_PLAN_FEATURES_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _exit_distribution(
    model: MultiExitModel, kept: Sequence[int], thresholds: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    key = (tuple(int(k) for k in kept), tuple(float(t) for t in thresholds))
    per_model = _EXIT_DIST_CACHE.get(model)
    if per_model is None:
        per_model = _EXIT_DIST_CACHE.setdefault(model, {})
    cached = per_model.get(key)
    if cached is not None:
        return cached
    comp = model.competences[list(kept)]
    p, acc = exit_probabilities(comp, thresholds, model.difficulty, model.accuracy_model)
    p.setflags(write=False)
    acc.setflags(write=False)
    per_model[key] = (p, acc)
    return p, acc


def evaluate_plan(model: MultiExitModel, plan: SurgeryPlan) -> PlanFeatures:
    """Compile one surgery plan into allocation-independent features.

    Semantics: layers at backbone cut index <= ``plan.partition_cut`` run on
    the end device; deeper layers run on the assigned server.  An exit branch
    executes on the side its attach point lives on.  A sample that exits at
    kept position ``i`` has also evaluated (and not taken) all earlier kept
    exits, so their branch FLOPs are charged cumulatively.

    Evaluations are memoized per (model, plan): features are allocation
    independent and frozen, and threshold refinement re-evaluates the same
    trial plans for every task sharing a model template.
    """
    per_model = _PLAN_FEATURES_CACHE.get(model)
    if per_model is None:
        per_model = _PLAN_FEATURES_CACHE.setdefault(model, {})
    cached = per_model.get(plan)
    if cached is not None:
        return cached
    feats = _evaluate_plan_uncached(model, plan)
    per_model[plan] = feats
    return feats


def _evaluate_plan_uncached(model: MultiExitModel, plan: SurgeryPlan) -> PlanFeatures:
    from repro.models.quantization import quantization_level

    plan.validate_against(model)
    lvl = quantization_level(plan.quantization)
    kept = list(plan.kept_exits)
    p, acc = _exit_distribution(model, kept, plan.thresholds)
    acc = np.clip(acc + lvl.accuracy_delta, 0.01, 0.999)

    c = plan.partition_cut
    cut_flops = model.cut_flops  # increasing in cut index
    cut_bytes = model.cut_bytes
    attach = model.exit_cut_indices[kept]  # attach cut index per kept exit
    backbone = np.array([model.exits[k].backbone_flops for k in kept], dtype=float)
    branch = np.array([model.exits[k].branch_flops for k in kept], dtype=float)

    on_device = attach <= c
    dev_backbone = np.minimum(backbone, cut_flops[c])
    srv_backbone = np.maximum(backbone - cut_flops[c], 0.0)
    dev_branch_cum = np.cumsum(np.where(on_device, branch, 0.0))
    srv_branch_cum = np.cumsum(np.where(on_device, 0.0, branch))

    dev_flops_per_exit = dev_backbone + dev_branch_cum
    srv_flops_per_exit = srv_backbone + srv_branch_cum
    offloaded = ~on_device

    # precision scaling: quantized execution is faster (fold the speedup into
    # effective FLOPs so features stay allocation-independent) and quantized
    # activations are smaller on the wire
    dev_flops_per_exit = dev_flops_per_exit / lvl.compute_speedup
    srv_flops_per_exit = srv_flops_per_exit / lvl.compute_speedup

    e_dev = float(np.dot(p, dev_flops_per_exit))
    e_srv = float(np.dot(p, srv_flops_per_exit))
    p_off = float(p[offloaded].sum())
    boundary = (float(cut_bytes[c]) + model.result_bytes) * lvl.wire_scale
    wire = p_off * boundary
    e_acc = float(np.dot(p, acc))

    return PlanFeatures(
        plan=plan,
        dev_flops=e_dev,
        srv_flops=e_srv,
        wire_bytes=wire,
        p_offload=p_off,
        accuracy=e_acc,
        exit_probs=tuple(float(x) for x in p),
        dev_flops_sq=float(np.dot(p, dev_flops_per_exit**2)),
        srv_flops_sq=float(np.dot(p, srv_flops_per_exit**2)),
        wire_bytes_sq=p_off * boundary**2,
    )


#: Fine per-exit threshold grid used by :func:`refine_thresholds`.
REFINE_GRID: Tuple[float, ...] = (
    0.3, 0.4, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.93, 0.95, 0.97,
)


def refine_thresholds(
    model: MultiExitModel,
    plan: SurgeryPlan,
    device: DeviceSpec,
    accuracy_floor: float,
    server: Optional[DeviceSpec] = None,
    link: Optional[Link] = None,
    compute_share: float = 1.0,
    bandwidth_share: float = 1.0,
    grid: Sequence[float] = REFINE_GRID,
    max_sweeps: int = 4,
) -> Tuple[SurgeryPlan, PlanFeatures]:
    """Per-exit threshold refinement by coordinate descent.

    Enumeration couples all early exits to one shared threshold (which keeps
    the candidate space small); given a chosen plan and its allocation, this
    pass re-optimizes each kept early exit's threshold *individually* over a
    finer grid, holding the others fixed, and repeats until a full sweep
    makes no improvement.  Every accepted move strictly decreases expected
    latency while respecting ``accuracy_floor``, so the refined plan is never
    worse than the input plan; typical gains are a few percent where the
    shared-threshold restriction binds.  Trials are priced by the latency
    model's scalar twin (:func:`repro.core.latency.predicted_latency`,
    mean service latency only).

    Returns the refined plan and its features (possibly the originals).
    """
    plan.validate_against(model)
    if not (0.0 < accuracy_floor <= 1.0):
        raise PlanError(f"accuracy floor must be in (0,1], got {accuracy_floor}")

    def evaluate(p: SurgeryPlan) -> Tuple[float, PlanFeatures]:
        f = evaluate_plan(model, p)
        if f.accuracy < accuracy_floor - 1e-12:
            return np.inf, f
        lat = predicted_latency(
            f, device, server, link, compute_share, bandwidth_share
        )
        return lat, f

    best_plan = plan
    best_lat, best_feats = evaluate(plan)
    n_early = len(plan.kept_exits) - 1
    if n_early == 0:
        return best_plan, best_feats
    for _ in range(max_sweeps):
        improved = False
        for pos in range(n_early):
            for theta in grid:
                if theta == best_plan.thresholds[pos]:
                    continue
                thresholds = list(best_plan.thresholds)
                thresholds[pos] = theta
                trial = SurgeryPlan(
                    kept_exits=best_plan.kept_exits,
                    thresholds=tuple(thresholds),
                    partition_cut=best_plan.partition_cut,
                    quantization=best_plan.quantization,
                )
                lat, feats = evaluate(trial)
                if lat < best_lat - 1e-12:
                    best_plan, best_lat, best_feats = trial, lat, feats
                    improved = True
        if not improved:
            break
    return best_plan, best_feats


def _check_max_cuts(max_cuts: object) -> None:
    """Raise :class:`ConfigError` unless ``max_cuts`` is a positive integer."""
    require_int(SimpleNamespace(max_cuts=max_cuts), "max_cuts")
    if max_cuts < 1:
        raise ConfigError(f"max_cuts must be >= 1, got {max_cuts!r}")


def enumerate_features(
    model: MultiExitModel,
    threshold_grid: Sequence[float] = DEFAULT_THRESHOLD_GRID,
    max_cuts: int = DEFAULT_MAX_CUTS,
    include_exit_subsets: bool = True,
    quantization_levels: Sequence[str] = ("fp32",),
) -> PlanTable:
    """Enumerate candidate surgery plans of ``model`` into a :class:`PlanTable`.

    The sweep covers every subset of early exits (all sharing one threshold
    from ``threshold_grid``) crossed with a partition-cut set containing the
    exit attach points, the two extremes (full offload / fully local), an
    even FLOPs-spaced sample of the remaining cut points up to ``max_cuts``,
    and the requested ``quantization_levels`` (default: fp32 only; pass
    :data:`repro.models.quantization.ALL_LEVELS` to enable the precision
    knob).  Row order is subset, threshold, level, cut.

    The inner cut sweep is vectorized: the exit distribution of a (subset,
    threshold) pair is computed once and reused for every cut and level, and
    its rows go straight into the table's columns.  Every row passes the
    checks :class:`SurgeryPlan` and :class:`PlanFeatures` make, in row order,
    without building an object per row.
    """
    from repro.models.quantization import quantization_level

    _check_max_cuts(max_cuts)
    levels = [quantization_level(name) for name in quantization_levels]
    if not levels:
        raise PlanError("need at least one quantization level")
    level_names = [lvl.name for lvl in levels]
    n_exits = model.num_exits
    final_idx = n_exits - 1
    early = list(range(final_idx))

    # --- partition cut candidates -----------------------------------------
    n_cuts = len(model.backbone.cut_points)
    wanted = {0, n_cuts - 1}
    wanted.update(int(i) for i in model.exit_cut_indices)
    if n_cuts > max_cuts:
        # sample additional cuts evenly in cumulative FLOPs
        targets = np.linspace(0.0, model.cut_flops[-1], max_cuts)
        extra = {int(np.argmin(np.abs(model.cut_flops - t))) for t in targets}
        wanted.update(extra)
    else:
        wanted.update(range(n_cuts))
    cuts = np.array(sorted(wanted), dtype=int)
    # cuts at/after the final exit's attach point are all "fully local":
    # keep the first of each run (every kept-exit subset ends at the final
    # exit, so the runs are the same for all of them)
    eff = np.minimum(cuts, int(model.exit_cut_indices[final_idx]))
    firsts = np.flatnonzero(np.r_[True, eff[1:] != eff[:-1]])
    row_cuts = cuts[firsts].astype(np.int32)

    # --- exit subsets -------------------------------------------------------
    if include_exit_subsets:
        subsets: List[Tuple[int, ...]] = []
        for mask in range(1 << len(early)):
            chosen = tuple(e for i, e in enumerate(early) if mask >> i & 1)
            subsets.append(chosen + (final_idx,))
    else:
        subsets = [tuple(early) + (final_idx,), (final_idx,)]

    cut_flops = model.cut_flops
    cut_bytes = model.cut_bytes
    result_bytes = float(model.result_bytes)

    columns: Dict[str, List[np.ndarray]] = {name: [] for name in FEATURE_COLUMNS}
    group_ids: List[np.ndarray] = []
    level_ids: List[np.ndarray] = []
    groups: List[Tuple[Tuple[int, ...], Tuple[float, ...], Tuple[float, ...]]] = []
    seen: set = set()
    for kept in subsets:
        thetas: Sequence[Tuple[float, ...]]
        if len(kept) == 1:
            thetas = [(0.0,)]
        else:
            thetas = [tuple([th] * (len(kept) - 1) + [0.0]) for th in threshold_grid]
        attach = model.exit_cut_indices[list(kept)]
        backbone = np.array([model.exits[k].backbone_flops for k in kept], dtype=float)
        branch = np.array([model.exits[k].branch_flops for k in kept], dtype=float)
        for thresholds in thetas:
            p, acc = _exit_distribution(model, kept, thresholds)
            # vectorized sweep over cuts: axes (exit k, cut c)
            on_dev = attach[:, None] <= cuts[None, :]
            dev_bb = np.minimum(backbone[:, None], cut_flops[cuts][None, :])
            srv_bb = np.maximum(backbone[:, None] - cut_flops[cuts][None, :], 0.0)
            dev_br = np.cumsum(np.where(on_dev, branch[:, None], 0.0), axis=0)
            srv_br = np.cumsum(np.where(on_dev, 0.0, branch[:, None]), axis=0)
            dev_total = dev_bb + dev_br
            srv_total = srv_bb + srv_br
            e_dev_raw = p @ dev_total
            e_srv_raw = p @ srv_total
            e_dev_sq_raw = p @ dev_total**2
            e_srv_sq_raw = p @ srv_total**2
            p_off = np.where(on_dev, 0.0, p[:, None]).sum(axis=0)
            boundary_raw = cut_bytes[cuts] + result_bytes
            block: Dict[str, List[np.ndarray]] = {name: [] for name in FEATURE_COLUMNS}
            block_levels: List[int] = []
            for li, lvl in enumerate(levels):
                key = (kept, thresholds, lvl.name)
                if key in seen:
                    continue
                seen.add(key)
                sp = lvl.compute_speedup
                e_dev = e_dev_raw / sp
                e_srv = e_srv_raw / sp
                e_dev_sq = e_dev_sq_raw / sp**2
                e_srv_sq = e_srv_sq_raw / sp**2
                boundary = boundary_raw * lvl.wire_scale
                wire = p_off * boundary
                wire_sq = p_off * boundary**2
                acc_q = np.clip(acc + lvl.accuracy_delta, 0.01, 0.999)
                e_acc = float(np.dot(p, acc_q))
                for name, col in (
                    ("dev_flops", e_dev), ("srv_flops", e_srv), ("wire_bytes", wire),
                    ("p_offload", p_off), ("dev_flops_sq", e_dev_sq),
                    ("srv_flops_sq", e_srv_sq), ("wire_bytes_sq", wire_sq),
                ):
                    block[name].append(col[firsts])
                block["accuracy"].append(np.full(len(firsts), e_acc))
                block_levels.append(li)
            if not block_levels:
                continue
            # the group's first row is where its plan checks would fail
            SurgeryPlan(
                kept_exits=kept,
                thresholds=thresholds,
                partition_cut=int(row_cuts[0]),
                quantization=level_names[block_levels[0]],
            )
            group = (kept, thresholds, tuple(float(x) for x in p))
            cols = {name: np.concatenate(block[name]) for name in FEATURE_COLUMNS}
            level_col = np.repeat(np.array(block_levels, dtype=np.int32), len(firsts))
            bad = suspect_rows(cols)
            if bad.size:
                # build the suspect rows in order: the first invalid one raises
                PlanTable(
                    [group], level_names, np.zeros(len(level_col), np.int32),
                    np.tile(row_cuts, len(block_levels)), level_col, cols,
                ).features(bad)
            for name in FEATURE_COLUMNS:
                columns[name].append(cols[name])
            group_ids.append(np.full(len(level_col), len(groups), np.int32))
            level_ids.append(level_col)
            groups.append(group)

    group_col = np.concatenate(group_ids)
    return PlanTable(
        groups,
        level_names,
        group_col,
        np.tile(row_cuts, len(group_col) // len(row_cuts)),
        np.concatenate(level_ids),
        {name: np.concatenate(columns[name]) for name in FEATURE_COLUMNS},
    )
