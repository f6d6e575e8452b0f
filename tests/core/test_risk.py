"""Chance-constrained deadline support: κ(ε), RiskConfig, variance algebra,
buffered latency kernels, and the risk-off bit-identity contract."""

import math

import numpy as np
import pytest

from repro.core.candidates import build_candidates
from repro.core.joint import JointOptimizer, JointSolverConfig
from repro.core.risk import RiskConfig, kappa, stage_std, wait_std
from repro.errors import ConfigError
from repro.workloads.scenarios import build_scenario


class TestKappa:
    def test_cantelli_closed_form(self):
        for eps in (0.01, 0.05, 0.1, 0.5):
            assert kappa(eps, "cantelli") == pytest.approx(
                math.sqrt((1 - eps) / eps)
            )

    def test_cantelli_decreasing_in_epsilon(self):
        ks = [kappa(e) for e in (0.01, 0.05, 0.1, 0.3)]
        assert ks == sorted(ks, reverse=True)

    def test_gaussian_quantile(self):
        from scipy.special import ndtri

        assert kappa(0.05, "gaussian") == pytest.approx(float(ndtri(0.95)))

    def test_gaussian_clamped_at_zero(self):
        assert kappa(0.9, "gaussian") == 0.0

    def test_gaussian_tighter_than_cantelli(self):
        for eps in (0.01, 0.05, 0.1):
            assert kappa(eps, "gaussian") < kappa(eps, "cantelli")

    def test_none_is_zero(self):
        assert kappa(0.05, "none") == 0.0

    def test_bad_epsilon(self):
        with pytest.raises(ConfigError):
            kappa(0.0)
        with pytest.raises(ConfigError):
            kappa(1.0)

    def test_bad_buffer(self):
        with pytest.raises(ConfigError):
            kappa(0.05, "chebyshev")


class TestRiskConfig:
    def test_derived_fields(self):
        r = RiskConfig(epsilon=0.05, service_noise=0.2)
        assert r.kappa == pytest.approx(math.sqrt(19))
        assert r.rel_var == pytest.approx(math.expm1(0.04))
        assert r.active

    def test_none_buffer_inactive(self):
        r = RiskConfig(buffer="none")
        assert not r.active
        assert r.kappa == 0.0

    def test_none_buffer_skips_epsilon_check(self):
        # buffer="none" is the risk-off switch; epsilon is irrelevant there
        assert not RiskConfig(epsilon=2.0, buffer="none").active

    def test_bad_buffer(self):
        with pytest.raises(ConfigError):
            RiskConfig(buffer="bogus")

    def test_bad_epsilon(self):
        with pytest.raises(ConfigError):
            RiskConfig(epsilon=0.0)

    def test_negative_noise(self):
        with pytest.raises(ConfigError):
            RiskConfig(service_noise=-0.1)


class TestVarianceAlgebra:
    def test_deterministic_stage_has_zero_std(self):
        # constant work, always visited, no jitter: Var X = 0
        assert stage_std(2.0, 4.0, 0.0, 1.0, 0.0) == pytest.approx(0.0)

    def test_jitter_inflates_std(self):
        assert stage_std(2.0, 4.0, 0.0, 1.0, 0.05) > 0.0

    def test_exit_mix_variance(self):
        # W in {1, 3} equiprobable: E[W]=2, E[W^2]=5, Var=1
        assert stage_std(2.0, 5.0, 0.0, 1.0, 0.0) == pytest.approx(1.0)

    def test_rtt_term_bernoulli(self):
        # pure overhead visited w.p. p: std = rtt * sqrt(p(1-p))
        assert stage_std(0.0, 0.0, 0.1, 0.25, 0.0) == pytest.approx(
            0.1 * math.sqrt(0.25 * 0.75)
        )
        assert stage_std(0.0, 0.0, 0.1, 1.0, 0.0) == pytest.approx(0.0)

    def test_wait_std_surrogate(self):
        # E[W^2] = 2*Wbar*(m+Wbar) for M/M/1
        assert wait_std(0.5, 0.1) == pytest.approx(math.sqrt(2 * 0.5 * 0.6))

    def test_wait_std_zero_and_nonfinite(self):
        assert wait_std(0.0, 0.1) == 0.0
        assert wait_std(float("inf"), 0.1) == 0.0
        assert wait_std(float("nan"), 0.1) == 0.0

    def test_vectorized(self):
        out = stage_std(
            np.array([2.0, 2.0]), np.array([4.0, 5.0]), 0.0, 1.0, 0.0
        )
        assert out.tolist() == pytest.approx([0.0, 1.0])


class TestBufferedLatencies:
    @pytest.fixture(scope="class")
    def instance(self):
        cluster, tasks = build_scenario("smart_city", num_tasks=4, seed=0)
        return cluster, tasks

    def _candidate_latencies(self, cluster, task, risk=None):
        cands = build_candidates(task)
        device = cluster.by_name(task.device_name)
        server = cluster.servers[0]
        link = cluster.link(task.device_name, server.name)
        return cands.latencies(
            device, server, link,
            arrival_rate=task.arrival_rate, risk=risk,
        )

    def test_buffered_candidate_latencies_dominate(self, instance):
        cluster, tasks = instance
        plain = self._candidate_latencies(cluster, tasks[0])
        buffered = self._candidate_latencies(
            cluster, tasks[0], risk=RiskConfig(epsilon=0.05, service_noise=0.1)
        )
        finite = np.isfinite(plain)
        assert finite.any()
        assert np.all(buffered[finite] >= plain[finite])

    def test_buffer_shrinks_with_epsilon(self, instance):
        cluster, tasks = instance
        tight = self._candidate_latencies(
            cluster, tasks[0], risk=RiskConfig(epsilon=0.01, service_noise=0.1)
        )
        loose = self._candidate_latencies(
            cluster, tasks[0], risk=RiskConfig(epsilon=0.2, service_noise=0.1)
        )
        finite = np.isfinite(tight)
        assert np.all(tight[finite] >= loose[finite])

    def test_none_buffer_bit_identical_solve(self, instance):
        cluster, tasks = instance
        plain = JointOptimizer(cluster).solve(tasks, seed=0)
        off = JointOptimizer(
            cluster, config=JointSolverConfig(risk=RiskConfig(buffer="none"))
        ).solve(tasks, seed=0)
        assert plain.plan.assignment == off.plan.assignment
        assert plain.plan.latencies == off.plan.latencies
        assert plain.plan.objective_value == off.plan.objective_value
        assert plain.history == off.history

    def test_zero_kappa_active_config_identical_solve(self, instance):
        # gaussian buffer at eps >= 0.5 clamps kappa to 0: the buffered code
        # paths run (sigma is computed) but add exactly 0, so the solve must
        # reproduce the risk-free plan to the last bit
        cluster, tasks = instance
        plain = JointOptimizer(cluster).solve(tasks, seed=0)
        zero = JointOptimizer(
            cluster,
            config=JointSolverConfig(
                risk=RiskConfig(epsilon=0.5, buffer="gaussian", service_noise=0.1)
            ),
        ).solve(tasks, seed=0)
        assert plain.plan.latencies == zero.plan.latencies
        assert plain.plan.objective_value == zero.plan.objective_value
