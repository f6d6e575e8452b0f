"""Hypothesis property tests for the extension features."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import SurgeryPlan
from repro.core.surgery import evaluate_plan, refine_thresholds
from repro.models.quantization import ALL_LEVELS, quantization_level

# --- quantization scaling laws --------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    cut_frac=st.floats(0.0, 1.0),
    theta=st.sampled_from([0.5, 0.7, 0.9]),
    level=st.sampled_from(ALL_LEVELS),
)
def test_quantization_scales_every_cost_consistently(cut_frac, theta, level, request):
    """For ANY plan, quantized features are the fp32 features scaled by the
    level's constants — no plan-dependent leakage."""
    model = request.getfixturevalue("me_resnet18")
    n_cuts = len(model.backbone.cut_points)
    cut = int(round(cut_frac * (n_cuts - 1)))
    base = SurgeryPlan(
        kept_exits=(1, model.num_exits - 1), thresholds=(theta, 0.0), partition_cut=cut
    )
    quant = SurgeryPlan(
        kept_exits=base.kept_exits,
        thresholds=base.thresholds,
        partition_cut=cut,
        quantization=level,
    )
    f0 = evaluate_plan(model, base)
    fq = evaluate_plan(model, quant)
    lvl = quantization_level(level)
    assert fq.dev_flops == pytest.approx(f0.dev_flops / lvl.compute_speedup, rel=1e-9)
    assert fq.srv_flops == pytest.approx(f0.srv_flops / lvl.compute_speedup, rel=1e-9)
    assert fq.wire_bytes == pytest.approx(f0.wire_bytes * lvl.wire_scale, rel=1e-9)
    assert fq.p_offload == pytest.approx(f0.p_offload, abs=1e-12)
    assert fq.accuracy <= f0.accuracy + 1e-12


# --- refinement safety ------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    theta=st.sampled_from([0.5, 0.65, 0.8, 0.95]),
    floor=st.floats(0.45, 0.62),
    x=st.floats(0.1, 1.0),
)
def test_refinement_never_worse_never_infeasible(theta, floor, x, request):
    model = request.getfixturevalue("me_resnet18")
    pi4 = request.getfixturevalue("pi4")
    gpu = request.getfixturevalue("edge_gpu")
    from repro.core.latency import plan_latency
    from repro.network.link import Link
    from repro.units import mbps

    link = Link(mbps(30), rtt_s=5e-3)
    plan = SurgeryPlan(
        kept_exits=(1, 3, model.num_exits - 1),
        thresholds=(theta, theta, 0.0),
        partition_cut=0,
    )
    f0 = evaluate_plan(model, plan)
    if f0.accuracy < floor:
        return  # input infeasible; nothing to check
    lat0 = float(
        plan_latency(
            f0.dev_flops, f0.srv_flops, f0.wire_bytes, f0.p_offload, pi4,
            server=gpu, link=link, compute_share=x,
        )
    )
    refined_plan, fr = refine_thresholds(
        model, plan, pi4, floor, server=gpu, link=link, compute_share=x
    )
    lat1 = float(
        plan_latency(
            fr.dev_flops, fr.srv_flops, fr.wire_bytes, fr.p_offload, pi4,
            server=gpu, link=link, compute_share=x,
        )
    )
    assert lat1 <= lat0 + 1e-12
    assert fr.accuracy >= floor - 1e-12
    # structure is preserved: only thresholds may change
    assert refined_plan.kept_exits == plan.kept_exits
    assert refined_plan.partition_cut == plan.partition_cut


# --- queue-aware candidate ranking ---------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(lam=st.floats(0.1, 20.0))
def test_candidate_latencies_monotone_in_arrival_rate(lam, request):
    """More load can never make any candidate look faster."""
    cs = request.getfixturevalue("e2e_pruned_ext")
    pi4 = request.getfixturevalue("pi4")
    gpu = request.getfixturevalue("edge_gpu")
    from repro.network.link import Link
    from repro.units import mbps

    link = Link(mbps(30), rtt_s=5e-3)
    lo = cs.latencies(pi4, server=gpu, link=link, arrival_rate=lam)
    hi = cs.latencies(pi4, server=gpu, link=link, arrival_rate=lam * 1.5)
    assert np.all(hi >= lo - 1e-9)


@pytest.fixture(scope="module")
def e2e_pruned_ext(me_resnet18):
    from repro.core.candidates import CandidateSet
    from repro.core.plan import TaskSpec
    from repro.core.surgery import enumerate_features

    task = TaskSpec("t", me_resnet18, "d", accuracy_floor=0.4)
    return CandidateSet(
        task, enumerate_features(me_resnet18, threshold_grid=(0.8,))
    ).pruned()
