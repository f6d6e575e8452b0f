"""Hypothesis oracle for the columnar candidate pipeline.

The oracle is the object-per-candidate enumeration the columnar one
replaced, kept here verbatim: one :class:`PlanFeatures` (and its
:class:`SurgeryPlan`) per raw candidate, fed to :class:`CandidateSet` as a
list.  For every drawn zoo model, threshold grid, cut budget, precision
levels, accuracy floor and prune switch, the columnar pipeline
(:func:`enumerate_features` into a :class:`PlanTable`, then
:func:`build_candidates`) must give the same raw plans and the same
survivors in the same order, with byte-identical columns and equal
features — or raise the same error, including when no plan meets the
floor.
"""

from typing import List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import CandidateSet, build_candidates
from repro.core.plan import FEATURE_COLUMNS, PlanFeatures, PlanTable, SurgeryPlan, TaskSpec
from repro.core.surgery import _exit_distribution, enumerate_features
from repro.errors import ReproError
from repro.models.quantization import ALL_LEVELS
from repro.workloads.scenarios import multiexit_model

MODELS = (
    ("resnet18", 3, "mixed"),
    ("alexnet", 3, "easy"),
    ("mobilenet_v2", 4, "hard"),
    ("vgg16", 3, "easy"),
    ("resnet50", 2, "mixed"),
)


def oracle_features(
    model,
    threshold_grid: Sequence[float],
    max_cuts: int,
    quantization_levels: Sequence[str],
) -> List[PlanFeatures]:
    """The object-per-candidate enumeration (one object per raw row)."""
    from repro.models.quantization import quantization_level

    levels = [quantization_level(name) for name in quantization_levels]
    final_idx = model.num_exits - 1
    early = list(range(final_idx))
    n_cuts = len(model.backbone.cut_points)
    wanted = {0, n_cuts - 1}
    wanted.update(int(i) for i in model.exit_cut_indices)
    if n_cuts > max_cuts:
        targets = np.linspace(0.0, model.cut_flops[-1], max_cuts)
        wanted.update({int(np.argmin(np.abs(model.cut_flops - t))) for t in targets})
    else:
        wanted.update(range(n_cuts))
    cuts = np.array(sorted(wanted), dtype=int)
    subsets: List[Tuple[int, ...]] = []
    for mask in range(1 << len(early)):
        chosen = tuple(e for i, e in enumerate(early) if mask >> i & 1)
        subsets.append(chosen + (final_idx,))

    cut_flops, cut_bytes = model.cut_flops, model.cut_bytes
    result_bytes = float(model.result_bytes)
    out: List[PlanFeatures] = []
    seen: set = set()
    for kept in subsets:
        if len(kept) == 1:
            thetas = [(0.0,)]
        else:
            thetas = [tuple([th] * (len(kept) - 1) + [0.0]) for th in threshold_grid]
        attach = model.exit_cut_indices[list(kept)]
        backbone = np.array([model.exits[k].backbone_flops for k in kept], dtype=float)
        branch = np.array([model.exits[k].branch_flops for k in kept], dtype=float)
        for thresholds in thetas:
            p, acc = _exit_distribution(model, kept, thresholds)
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
            for lvl in levels:
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
                for j, c in enumerate(cuts):
                    key = (kept, thresholds, lvl.name, min(int(c), int(attach[-1])))
                    if key in seen:
                        continue
                    seen.add(key)
                    plan = SurgeryPlan(
                        kept_exits=kept, thresholds=thresholds,
                        partition_cut=int(c), quantization=lvl.name,
                    )
                    out.append(PlanFeatures(
                        plan=plan,
                        dev_flops=float(e_dev[j]),
                        srv_flops=float(e_srv[j]),
                        wire_bytes=float(wire[j]),
                        p_offload=float(p_off[j]),
                        accuracy=e_acc,
                        exit_probs=tuple(float(x) for x in p),
                        dev_flops_sq=float(e_dev_sq[j]),
                        srv_flops_sq=float(e_srv_sq[j]),
                        wire_bytes_sq=float(wire_sq[j]),
                    ))
    return out


def _outcome(fn):
    """``("ok", value)`` or ``("raise", type, message)``."""
    try:
        return ("ok", fn())
    except ReproError as e:
        return ("raise", type(e), str(e))


def assert_same_set(cs: CandidateSet, ref: CandidateSet) -> None:
    assert cs.features == ref.features
    assert repr(cs.features) == repr(ref.features)
    for name in FEATURE_COLUMNS:
        a, b = getattr(cs, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@st.composite
def pipelines(draw):
    return dict(
        model=multiexit_model(*draw(st.sampled_from(MODELS))),
        grid=tuple(draw(st.lists(
            st.sampled_from([0.3, 0.5, 0.65, 0.8, 0.9, 0.95, 1.0]), min_size=1, max_size=5,
        ))),
        max_cuts=draw(st.integers(1, 24)),
        levels=tuple(draw(st.lists(st.sampled_from(ALL_LEVELS), min_size=1, max_size=3))),
        floor=draw(st.sampled_from([0.3, 0.55, 0.62, 0.7, 0.75, 0.85, 0.99])),
        prune=draw(st.booleans()),
    )


@settings(max_examples=60, deadline=None)
@given(pipelines())
def test_columnar_pipeline_matches_object_oracle(case):
    model, grid, cuts, levels = case["model"], case["grid"], case["max_cuts"], case["levels"]
    task = TaskSpec("t", model, "dev0", accuracy_floor=case["floor"])

    got_raw = _outcome(lambda: enumerate_features(
        model, threshold_grid=grid, max_cuts=cuts, quantization_levels=levels
    ))
    ref_raw = _outcome(lambda: oracle_features(model, grid, cuts, levels))
    assert got_raw[0] == ref_raw[0]
    if got_raw[0] == "raise":
        assert got_raw == ref_raw
        return
    table, oracle = got_raw[1], ref_raw[1]
    assert isinstance(table, PlanTable)
    assert len(table) == len(oracle) and list(table) == oracle
    assert_same_set(CandidateSet(task, table), CandidateSet(task, oracle))

    def oracle_derived():
        cs = CandidateSet(task, oracle).filter_accuracy(task.accuracy_floor)
        return cs.pruned() if case["prune"] else cs

    got = _outcome(lambda: build_candidates(
        task, threshold_grid=grid, max_cuts=cuts, quantization_levels=levels,
        prune=case["prune"], cache=False,
    ))
    ref = _outcome(oracle_derived)
    assert got[0] == ref[0]
    if got[0] == "raise":
        assert got == ref
    else:
        assert_same_set(got[1], ref[1])


@pytest.mark.parametrize("rows", [slice(None, None, 7), slice(3, 40, 5), slice(-5, None)])
def test_table_reads_as_its_feature_list(rows):
    model = multiexit_model(*MODELS[0])
    table = enumerate_features(model, threshold_grid=(0.5, 0.8))
    oracle = oracle_features(model, (0.5, 0.8), 16, ("fp32",))
    assert table[rows] == oracle[rows]
    assert table[-1] == oracle[-1]
