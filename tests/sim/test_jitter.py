"""Per-request service-time jitter: engine equivalence and determinism.

The jitter draws are counter-based (one RNG material per (task, stage),
indexed by request id), so every engine — event loop, record-backed and
streaming fast path, faults runtime — must realize the *identical*
per-request factors regardless of evaluation order or chunking.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.joint import JointOptimizer
from repro.errors import ConfigError
from repro.sim.execution import (
    JITTER_STAGES,
    jitter_factors,
    jitter_materials,
)
from repro.sim.runner import SimulationConfig, simulate_plan


@pytest.fixture(scope="module")
def solved(small_cluster, small_tasks, small_candidates):
    return JointOptimizer(small_cluster).solve(
        small_tasks, candidates=small_candidates, seed=0
    ).plan


def assert_reports_identical(a, b):
    assert a.records == b.records
    assert a.utilizations == b.utilizations
    assert a.discarded_warmup == b.discarded_warmup
    assert a.counters == b.counters


class TestConfigValidation:
    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig(horizon_s=10.0, warmup_s=1.0, service_noise=-0.1)

    def test_epsilon_bounds(self):
        with pytest.raises(ConfigError):
            SimulationConfig(horizon_s=10.0, warmup_s=1.0, epsilon=0.0)
        with pytest.raises(ConfigError):
            SimulationConfig(horizon_s=10.0, warmup_s=1.0, epsilon=1.0)
        SimulationConfig(horizon_s=10.0, warmup_s=1.0, epsilon=0.05)  # ok


class TestJitterFactors:
    def test_mean_one_lognormal(self):
        mats = jitter_materials(0, "t0")
        f = jitter_factors(mats["dev"], np.arange(200_000), 0.2)
        assert f.min() > 0
        # exp(sigma*Z - sigma^2/2) has mean 1; loose band for sample error
        assert abs(f.mean() - 1.0) < 0.01

    def test_counter_based_order_independence(self):
        mats = jitter_materials(0, "t0")
        ids = np.array([5, 1, 9])
        whole = jitter_factors(mats["dev"], np.arange(10), 0.2)
        picked = jitter_factors(mats["dev"], ids, 0.2)
        np.testing.assert_array_equal(picked, whole[ids])

    def test_stages_draw_independently(self):
        mats = jitter_materials(0, "t0")
        per_stage = {
            st: jitter_factors(mats[st], np.arange(8), 0.2)
            for st in JITTER_STAGES
        }
        flat = np.stack(list(per_stage.values()))
        assert len({tuple(row) for row in flat}) == len(JITTER_STAGES)

    def test_tasks_draw_independently(self):
        a = jitter_factors(jitter_materials(0, "t0")["dev"], np.arange(8), 0.2)
        b = jitter_factors(jitter_materials(0, "t1")["dev"], np.arange(8), 0.2)
        assert not np.array_equal(a, b)


class TestEngineEquivalence:
    def test_zero_noise_is_default(self, small_cluster, small_tasks, solved):
        base = SimulationConfig(horizon_s=8.0, warmup_s=1.0, seed=11)
        explicit = dataclasses.replace(base, service_noise=0.0)
        assert_reports_identical(
            simulate_plan(small_tasks, solved, small_cluster, base),
            simulate_plan(small_tasks, solved, small_cluster, explicit),
        )

    def test_jitter_changes_latencies(self, small_cluster, small_tasks, solved):
        base = SimulationConfig(horizon_s=8.0, warmup_s=1.0, seed=11)
        noisy = dataclasses.replace(base, service_noise=0.25)
        a = simulate_plan(small_tasks, solved, small_cluster, base)
        b = simulate_plan(small_tasks, solved, small_cluster, noisy)
        assert a.records != b.records

    def test_fast_equals_event_loop(self, small_cluster, small_tasks, solved):
        cfg = SimulationConfig(
            horizon_s=8.0, warmup_s=1.0, seed=11, service_noise=0.25
        )
        fast = simulate_plan(small_tasks, solved, small_cluster, cfg)
        event = simulate_plan(
            small_tasks, solved, small_cluster,
            dataclasses.replace(cfg, fast_path=False),
        )
        assert_reports_identical(fast, event)

    @pytest.mark.parametrize("chunk", [7, 64])
    def test_streaming_equals_oneshot(
        self, small_cluster, small_tasks, solved, chunk
    ):
        cfg = SimulationConfig(
            horizon_s=8.0, warmup_s=1.0, seed=11, service_noise=0.25
        )
        one = simulate_plan(small_tasks, solved, small_cluster, cfg)
        stream = simulate_plan(
            small_tasks, solved, small_cluster,
            dataclasses.replace(cfg, streaming=True, chunk_size=chunk),
        )
        assert stream.counters == one.counters
        assert stream.mean_latency_s == one.mean_latency_s
        assert stream.miss_rate == one.miss_rate
        assert stream.accuracy == one.accuracy

    def test_faults_runtime_jitter_smoke(self, small_cluster, small_tasks, solved):
        from repro.faults.schedule import FaultSchedule

        target = small_cluster.servers[0].name
        cfg = SimulationConfig(
            horizon_s=8.0, warmup_s=1.0, seed=11, service_noise=0.25,
            faults=FaultSchedule.crash_recover(target, 3.0, 2.0),
        )
        noisy = simulate_plan(small_tasks, solved, small_cluster, cfg)
        plain = simulate_plan(
            small_tasks, solved, small_cluster,
            dataclasses.replace(cfg, service_noise=0.0),
        )
        assert noisy.counters.requests > 0
        # jitter perturbs the fault run too (same counter-based draws)
        assert noisy.records != plain.records
