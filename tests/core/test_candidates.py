"""Candidate sets: filtering, pruning, vectorized evaluation."""

import numpy as np
import pytest

from repro.core.candidates import _ARRAY_FIELDS, CandidateSet, build_candidates
from repro.core.plan import TaskSpec
from repro.core.surgery import DEFAULT_THRESHOLD_GRID, enumerate_features
from repro.errors import InfeasibleError, PlanError
from repro.models.quantization import ALL_LEVELS
from repro.network.link import Link
from repro.units import mbps
from repro.workloads.scenarios import SCENARIOS, multiexit_model

LINK = Link(mbps(40), rtt_s=10e-3)


@pytest.fixture(scope="module")
def task(me_resnet18):
    return TaskSpec("t", me_resnet18, "dev0", deadline_s=0.3, accuracy_floor=0.6)


@pytest.fixture(scope="module")
def full_set(task):
    return CandidateSet(task, enumerate_features(task.model))


class TestBuildAndFilter:
    def test_build_candidates_prunes(self, task, full_set):
        cs = build_candidates(task)
        assert 0 < len(cs) < len(full_set)

    def test_accuracy_filter(self, task, full_set):
        cs = full_set.filter_accuracy(0.65)
        assert np.all(cs.accuracy >= 0.65 - 1e-12)

    def test_accuracy_filter_infeasible(self, full_set):
        with pytest.raises(InfeasibleError):
            full_set.filter_accuracy(0.99)

    def test_local_only_subset(self, full_set):
        local = full_set.local_only()
        assert all(f.is_local_only for f in local.features)

    def test_empty_set_raises(self, task):
        with pytest.raises(PlanError):
            CandidateSet(task, [])

    def test_arrays_match_features(self, full_set):
        i = len(full_set) // 2
        f = full_set.features[i]
        assert full_set.dev_flops[i] == f.dev_flops
        assert full_set.accuracy[i] == f.accuracy


class TestPruning:
    def test_pruned_plans_are_undominated(self, full_set):
        cs = full_set.pruned()
        cost = np.stack([cs.dev_flops, cs.srv_flops, cs.wire_bytes, cs.p_offload], axis=1)
        n = len(cs)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                dominates = cs.accuracy[j] >= cs.accuracy[i] - 1e-12 and np.all(
                    cost[j] <= cost[i] + 1e-9
                )
                strictly = cs.accuracy[j] > cs.accuracy[i] + 1e-12 or np.any(
                    cost[j] < cost[i] - 1e-9
                )
                assert not (dominates and strictly), (i, j)

    def test_pruning_preserves_best_latency(self, full_set, pi4, edge_gpu, latency_model):
        """For ANY allocation, the pruned set achieves the same best latency
        subject to the same accuracy — dominance must be allocation-safe."""
        pruned = full_set.pruned()
        for x, y in [(1.0, 1.0), (0.3, 0.7), (0.05, 0.05)]:
            lat_full = full_set.latencies(
                pi4, latency_model, server=edge_gpu, link=LINK,
                compute_share=x, bandwidth_share=y,
            )
            lat_pruned = pruned.latencies(
                pi4, latency_model, server=edge_gpu, link=LINK,
                compute_share=x, bandwidth_share=y,
            )
            for floor in (0.55, 0.62, 0.68):
                ok_full = lat_full[full_set.accuracy >= floor]
                ok_pruned = lat_pruned[pruned.accuracy >= floor]
                assert ok_pruned.min() == pytest.approx(ok_full.min(), rel=1e-9)

    def test_subsample_bounds_size(self, full_set):
        small = full_set.subsample(7)
        assert len(small) <= 7

    def test_subsample_noop_when_small(self, full_set):
        assert len(full_set.subsample(10**6)) == len(full_set)

    def test_subsample_invalid(self, full_set):
        with pytest.raises(PlanError):
            full_set.subsample(0)


class TestEvaluation:
    def test_local_eval_infinite_for_offload_plans(self, full_set, pi4, latency_model):
        lat = full_set.latencies(pi4, latency_model)
        offloaders = full_set.p_offload > 0
        assert np.all(np.isinf(lat[offloaders]))
        assert np.all(np.isfinite(lat[~offloaders]))

    def test_best_returns_argmin(self, full_set, pi4, edge_gpu, latency_model):
        idx, lat = full_set.best(pi4, latency_model, server=edge_gpu, link=LINK)
        all_lat = full_set.latencies(pi4, latency_model, server=edge_gpu, link=LINK)
        assert lat == pytest.approx(float(all_lat.min()))
        assert all_lat[idx] == pytest.approx(lat)

    def test_more_compute_share_never_hurts(self, full_set, pi4, edge_gpu, latency_model):
        lo = full_set.latencies(
            pi4, latency_model, server=edge_gpu, link=LINK, compute_share=0.2
        )
        hi = full_set.latencies(
            pi4, latency_model, server=edge_gpu, link=LINK, compute_share=0.9
        )
        assert np.all(hi <= lo + 1e-12)


def _blocked_matrix_prune(cs):
    """Reference prune: the full n × n dominance matrix, built in column
    blocks, then the accuracy-descending keep scan over its columns."""
    n = len(cs)
    cost = np.stack([cs.dev_flops, cs.srv_flops, cs.wire_bytes, cs.p_offload], axis=1)
    acc = cs.accuracy
    # dom[a, b]: a weakly dominates b on accuracy and every resource, and is
    # strictly better somewhere
    dom = np.empty((n, n), dtype=bool)
    block = max(1, (1 << 22) // n)
    for start in range(0, n, block):
        sl = slice(start, min(start + block, n))
        dom[:, sl] = (
            (acc[:, None] >= (acc[sl] - 1e-12)[None, :])
            & np.all(cost[:, None, :] <= (cost[sl] + 1e-9)[None, :, :], axis=2)
            & (
                (acc[:, None] > (acc[sl] + 1e-12)[None, :])
                | np.any(cost[:, None, :] < (cost[sl] - 1e-9)[None, :, :], axis=2)
            )
        )
    keep = np.ones(n, dtype=bool)
    kept_sofar = np.zeros(n, dtype=bool)
    for idx in np.argsort(-acc, kind="stable"):
        if np.any(dom[:, idx] & kept_sofar):
            keep[idx] = False
        else:
            kept_sofar[idx] = True
    return np.flatnonzero(keep)


#: (scenario, model, exits, difficulty, accuracy floor) of every preset template
PRESET_TEMPLATES = [
    (sc.name, model, sc.num_exits, diff, floor)
    for sc in SCENARIOS.values()
    for (model, _dev, _deadline, floor, _rate, diff) in sc.task_templates
]
GRID7 = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)


class TestPruneOracle:
    """The kept-set prune keeps exactly what the n × n matrix prune keeps."""

    @pytest.mark.parametrize("levels", [("fp32",), ALL_LEVELS], ids=["fp32", "all_levels"])
    @pytest.mark.parametrize("grid", [DEFAULT_THRESHOLD_GRID, GRID7], ids=["grid5", "grid7"])
    @pytest.mark.parametrize(
        "template", PRESET_TEMPLATES, ids=[f"{t[0]}-{t[1]}" for t in PRESET_TEMPLATES]
    )
    def test_matches_blocked_matrix(self, template, grid, levels):
        _, model_name, exits, diff, floor = template
        model = multiexit_model(model_name, exits, diff)
        task = TaskSpec("t", model, "dev0", deadline_s=0.1, accuracy_floor=floor)
        feats = enumerate_features(model, threshold_grid=grid, quantization_levels=levels)
        cs = CandidateSet(task, feats).filter_accuracy(floor)
        keep = _blocked_matrix_prune(cs)
        pruned = cs.pruned()
        assert 0 < len(pruned) < len(cs)
        assert len(pruned.features) == len(keep)
        assert all(f is cs.features[i] for f, i in zip(pruned.features, keep))
        for name in _ARRAY_FIELDS:
            np.testing.assert_array_equal(getattr(pruned, name), getattr(cs, name)[keep])
