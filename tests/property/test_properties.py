"""Hypothesis property tests on core invariants.

These pin the mathematical contracts that the optimizer's correctness rests
on: shape/FLOPs algebra, exit-distribution normalization and monotonicity,
sqrt-share optimality, M/G/1 sanity, dominance-prune safety, and the
engine's causal ordering.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import sqrt_shares
from repro.core.queueing import mg1_wait, mm1_wait
from repro.models.accuracy import AccuracyModel
from repro.models.exits import DifficultyDistribution, exit_probabilities
from repro.models.graph import ModelGraph
from repro.models.layers import (
    Activation,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool,
    Input,
    Pool,
    conv_out_hw,
    shape_bytes,
    shape_elements,
)

# --- shape algebra ------------------------------------------------------------


@given(
    c=st.integers(1, 64),
    h=st.integers(3, 64),
    k=st.integers(1, 5),
    stride=st.integers(1, 3),
    out_ch=st.integers(1, 64),
)
def test_conv_shape_and_flops_consistent(c, h, k, stride, out_ch):
    pad = k // 2
    conv = Conv2D("c", out_channels=out_ch, kernel=k, stride=stride, padding=pad)
    out = conv.output_shape((c, h, h))
    assert out[0] == out_ch
    assert out[1] == conv_out_hw(h, k, stride, pad)
    # flops = 2 * k^2 * Cin * elements(out)
    assert conv.flops((c, h, h)) == 2 * k * k * c * shape_elements(out)


@given(shape=st.tuples(st.integers(1, 32), st.integers(1, 32), st.integers(1, 32)))
def test_bytes_are_4x_elements(shape):
    assert shape_bytes(shape) == 4 * shape_elements(shape)


@given(
    channels=st.lists(st.integers(1, 16), min_size=1, max_size=4),
    h=st.integers(4, 16),
)
def test_chain_graph_flops_additive(channels, h):
    """Total FLOPs of a generated chain equals the sum over its layers."""
    layers = [Input("input", shape=(3, h, h))]
    for i, ch in enumerate(channels):
        layers.append(Conv2D(f"conv{i}", out_channels=ch, kernel=3, padding=1))
        layers.append(Activation(f"relu{i}"))
    layers.append(GlobalAvgPool("gap"))
    layers.append(Dense("fc", out_features=4))
    g = ModelGraph.chain("gen", layers)
    assert g.total_flops == sum(g.flops_of(n) for n in g.topological_order)
    # cut head-FLOPs are monotone along the chain
    heads = [c.head_flops for c in g.cut_points]
    assert heads == sorted(heads)
    assert heads[-1] == g.total_flops


# --- exit distributions --------------------------------------------------------

ACC = AccuracyModel()


@given(
    comps=st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=5),
    thr=st.floats(0.05, 0.95),
    alpha=st.floats(0.5, 6.0),
    beta=st.floats(0.5, 6.0),
)
@settings(max_examples=40, deadline=None)
def test_exit_probabilities_normalized(comps, thr, alpha, beta):
    comps = sorted(comps)
    thresholds = [thr] * (len(comps) - 1) + [0.0]
    diff = DifficultyDistribution(alpha=alpha, beta=beta)
    p, acc = exit_probabilities(comps, thresholds, diff, ACC)
    assert p.sum() == pytest.approx(1.0)
    assert np.all(p >= 0)
    assert np.all((acc > 0) & (acc < 1))


@given(
    t_lo=st.floats(0.1, 0.5),
    t_hi=st.floats(0.55, 0.95),
)
@settings(max_examples=25, deadline=None)
def test_raising_threshold_reduces_early_mass(t_lo, t_hi):
    comps = [0.3, 0.7]
    diff = DifficultyDistribution()
    p_lo, _ = exit_probabilities(comps, [t_lo, 0.0], diff, ACC)
    p_hi, _ = exit_probabilities(comps, [t_hi, 0.0], diff, ACC)
    assert p_hi[0] <= p_lo[0] + 1e-12


# --- allocation ----------------------------------------------------------------


@given(
    weights=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=8),
)
def test_sqrt_shares_feasible_and_optimal(weights):
    a = np.array(weights)
    x = sqrt_shares(a)
    assert x.sum() == pytest.approx(1.0)
    assert np.all(x > 0)
    # Cauchy-Schwarz lower bound is attained: sum(a/x) == (sum sqrt a)^2
    assert float(np.sum(a / x)) == pytest.approx(float(np.sum(np.sqrt(a)) ** 2), rel=1e-9)


@given(
    lam=st.floats(0.01, 10.0),
    s=st.floats(1e-4, 1.0),
    cv2=st.floats(0.0, 5.0),
)
def test_mg1_wait_nonnegative_and_monotone_in_variance(lam, s, cv2):
    es2 = s * s * (1.0 + cv2)
    w = mg1_wait(lam, s, es2)
    assert w >= 0 or w == float("inf")
    w_det = mg1_wait(lam, s, s * s)
    if np.isfinite(w):
        assert w >= w_det - 1e-12


@given(lam=st.floats(0.0, 5.0), mu=st.floats(0.01, 10.0))
def test_mm1_never_negative(lam, mu):
    w = mm1_wait(lam, mu)
    assert w >= 0 or w == float("inf")
    if lam >= mu:
        assert w == float("inf")


# --- dominance pruning -----------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    x=st.floats(0.05, 1.0),
    y=st.floats(0.05, 1.0),
    floor=st.floats(0.5, 0.68),
)
def test_pruning_never_loses_the_optimum(x, y, floor, request):
    """For random shares and accuracy floors, the pruned candidate set
    contains a plan as fast as the best in the full set."""
    full = request.getfixturevalue("e2e_candidates")
    pruned = request.getfixturevalue("e2e_pruned")
    pi4 = request.getfixturevalue("pi4")
    gpu = request.getfixturevalue("edge_gpu")
    from repro.network.link import Link
    from repro.units import mbps

    link = Link(mbps(30), rtt_s=5e-3)
    lat_full = full.latencies(pi4, server=gpu, link=link, compute_share=x, bandwidth_share=y)
    lat_pruned = pruned.latencies(pi4, server=gpu, link=link, compute_share=x, bandwidth_share=y)
    ok_full = lat_full[full.accuracy >= floor]
    ok_pruned = lat_pruned[pruned.accuracy >= floor]
    if ok_full.size and ok_pruned.size:
        assert ok_pruned.min() <= ok_full.min() + 1e-9


@pytest.fixture(scope="module")
def e2e_candidates(me_resnet18):
    from repro.core.candidates import CandidateSet
    from repro.core.plan import TaskSpec
    from repro.core.surgery import enumerate_features

    task = TaskSpec("t", me_resnet18, "d", accuracy_floor=0.4)
    return CandidateSet(task, enumerate_features(me_resnet18, threshold_grid=(0.7, 0.9)))


@pytest.fixture(scope="module")
def e2e_pruned(e2e_candidates):
    return e2e_candidates.pruned()


# --- simulator causality ----------------------------------------------------------


@given(
    delays=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=30),
)
def test_engine_fires_in_nondecreasing_time(delays):
    from repro.sim.engine import Simulator

    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    jobs=st.lists(
        st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 100.0)), min_size=1, max_size=20
    )
)
def test_fifo_resource_never_overlaps(jobs):
    from repro.sim.queues import FifoResource

    r = FifoResource("r", rate=10.0)
    jobs = sorted(jobs)  # FIFO requires time-ordered submission
    intervals = []
    for now, amount in jobs:
        start, finish = r.submit(now, amount)
        assert start >= now
        assert finish >= start
        if amount > 0:
            intervals.append((start, finish))
    for (s1, f1), (s2, f2) in zip(intervals, intervals[1:]):
        assert s2 >= f1 - 1e-12  # no two jobs in service simultaneously
