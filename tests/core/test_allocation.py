"""Allocation: sqrt shares, assignment, solution evaluation."""

import numpy as np
import pytest

from repro.core.allocation import (
    Allocation,
    allocate_shares,
    assign_servers,
    solution_latencies,
    sqrt_shares,
)
from repro.core.objectives import Objective
from repro.errors import ConfigError


class TestSqrtShares:
    def test_sums_to_one(self):
        x = sqrt_shares(np.array([1.0, 4.0, 9.0]))
        assert x.sum() == pytest.approx(1.0)

    def test_proportional_to_sqrt(self):
        x = sqrt_shares(np.array([1.0, 4.0]))
        assert x[1] / x[0] == pytest.approx(2.0)

    def test_kkt_optimality(self):
        """sqrt shares minimize sum(a_i / x_i) s.t. sum x = 1: perturbing any
        pair of shares must not decrease the objective."""
        a = np.array([0.5, 2.0, 7.0])
        x = sqrt_shares(a)
        base = float(np.sum(a / x))
        rng = np.random.default_rng(0)
        for _ in range(200):
            i, j = rng.choice(3, size=2, replace=False)
            eps = float(rng.uniform(-min(x[i], x[j]) * 0.5, min(x[i], x[j]) * 0.5))
            y = x.copy()
            y[i] += eps
            y[j] -= eps
            if np.any(y <= 0):
                continue
            assert float(np.sum(a / y)) >= base - 1e-9

    def test_zero_weights_get_full_share(self):
        x = sqrt_shares(np.array([0.0, 4.0]))
        assert x[0] == 1.0
        assert x[1] == 1.0  # only active weights share

    def test_negative_weight_raises(self):
        with pytest.raises(ConfigError):
            sqrt_shares(np.array([-1.0]))


class TestAllocation:
    def test_valid(self):
        Allocation([None, 0], np.array([1.0, 0.5]), np.array([1.0, 1.0]))

    def test_share_bounds(self):
        with pytest.raises(ConfigError):
            Allocation([0], np.array([0.0]), np.array([1.0]))
        with pytest.raises(ConfigError):
            Allocation([0], np.array([1.0]), np.array([1.5]))

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            Allocation([0, 1], np.array([1.0]), np.array([1.0, 1.0]))


class TestAllocateShares:
    def test_shares_sum_per_server(self, small_tasks, small_candidates, small_cluster):
        assignment = [0, 0]
        alloc = allocate_shares(
            small_tasks, small_candidates, [0, 0], assignment, small_cluster
        )
        # both tasks offloading plans? plan 0 may be local; use plans with srv work
        idx = [int(np.argmax(cs.srv_flops)) for cs in small_candidates]
        alloc = allocate_shares(
            small_tasks, small_candidates, idx, assignment, small_cluster
        )
        assert alloc.compute_shares.sum() == pytest.approx(1.0)

    def test_different_servers_full_shares(self, small_tasks, small_candidates, small_cluster):
        idx = [int(np.argmax(cs.srv_flops)) for cs in small_candidates]
        alloc = allocate_shares(
            small_tasks, small_candidates, idx, [0, 1], small_cluster
        )
        np.testing.assert_allclose(alloc.compute_shares, 1.0)

    def test_local_tasks_unconstrained(self, small_tasks, small_candidates, small_cluster):
        alloc = allocate_shares(
            small_tasks, small_candidates, [0, 0], [None, None], small_cluster
        )
        np.testing.assert_allclose(alloc.compute_shares, 1.0)
        np.testing.assert_allclose(alloc.bandwidth_shares, 1.0)

    def test_urgent_task_gets_more_under_deadline_objective(
        self, small_tasks, small_candidates, small_cluster
    ):
        import dataclasses

        idx = [int(np.argmax(cs.srv_flops)) for cs in small_candidates]
        tasks = [
            dataclasses.replace(small_tasks[0], deadline_s=0.02),
            dataclasses.replace(small_tasks[1], deadline_s=2.0),
        ]
        alloc = allocate_shares(
            tasks, small_candidates, idx, [0, 0], small_cluster, objective=Objective.DEADLINE_MISS,
        )
        base = allocate_shares(
            tasks, small_candidates, idx, [0, 0], small_cluster, objective=Objective.AVG_LATENCY,
        )
        assert alloc.compute_shares[0] > base.compute_shares[0]

    def test_length_mismatch_raises(self, small_tasks, small_candidates, small_cluster):
        with pytest.raises(ConfigError):
            allocate_shares(
                small_tasks, small_candidates, [0], [0, 0], small_cluster
            )


class TestAssignServers:
    def test_assigns_all_tasks(self, small_tasks, small_candidates, small_cluster):
        a = assign_servers(small_tasks, small_candidates, small_cluster)
        assert len(a) == 2
        for s in a:
            assert s is None or 0 <= s < small_cluster.num_servers

    def test_empty_tasks(self, small_cluster):
        assert assign_servers([], [], small_cluster) == []


class TestSolutionLatencies:
    def test_local_only_plan_needs_no_server(self, small_tasks, small_candidates, small_cluster):
        local_idx = [
            next(i for i, f in enumerate(cs.features) if f.is_local_only)
            for cs in small_candidates
        ]
        alloc = Allocation([None, None], np.ones(2), np.ones(2))
        # without queueing: always finite (a Pi may be too slow to *sustain*
        # the stream — that is the queueing term's job to flag)
        lat = solution_latencies(
            small_tasks, small_candidates, local_idx, alloc, small_cluster,
            include_queueing=False,
        )
        assert np.all(np.isfinite(lat))

    def test_offload_plan_without_server_is_inf(self, small_tasks, small_candidates, small_cluster):
        off_idx = [int(np.argmax(cs.p_offload)) for cs in small_candidates]
        alloc = Allocation([None, None], np.ones(2), np.ones(2))
        lat = solution_latencies(
            small_tasks, small_candidates, off_idx, alloc, small_cluster
        )
        assert np.all(np.isinf(lat))

    def test_queueing_increases_latency(self, small_tasks, small_candidates, small_cluster):
        off_idx = [int(np.argmax(cs.p_offload)) for cs in small_candidates]
        alloc = Allocation([0, 1], np.ones(2), np.ones(2))
        with_q = solution_latencies(
            small_tasks, small_candidates, off_idx, alloc, small_cluster, True
        )
        without_q = solution_latencies(
            small_tasks, small_candidates, off_idx, alloc, small_cluster, False
        )
        assert np.all(with_q >= without_q - 1e-15)

    def test_overload_is_inf(self, small_tasks, small_candidates, small_cluster):
        import dataclasses

        hot = [dataclasses.replace(t, arrival_rate=1e6) for t in small_tasks]
        off_idx = [int(np.argmax(cs.p_offload)) for cs in small_candidates]
        alloc = Allocation([0, 1], np.ones(2), np.ones(2))
        lat = solution_latencies(
            hot, small_candidates, off_idx, alloc, small_cluster
        )
        assert np.all(np.isinf(lat))


class TestPowerShares:
    def test_exponent_zero_equal(self):
        from repro.core.allocation import power_shares

        x = power_shares(np.array([1.0, 100.0]), exponent=0.0)
        np.testing.assert_allclose(x, [0.5, 0.5])

    def test_exponent_one_proportional(self):
        from repro.core.allocation import power_shares

        x = power_shares(np.array([1.0, 3.0]), exponent=1.0)
        np.testing.assert_allclose(x, [0.25, 0.75])

    def test_half_matches_sqrt(self):
        from repro.core.allocation import power_shares

        w = np.array([0.3, 2.0, 9.0])
        np.testing.assert_allclose(power_shares(w, 0.5), sqrt_shares(w))

    def test_invalid_exponent(self):
        from repro.core.allocation import power_shares

        with pytest.raises(ConfigError):
            power_shares(np.array([1.0]), exponent=1.5)

    def test_exponent_one_equalizes_latency_contributions(self):
        from repro.core.allocation import power_shares

        a = np.array([0.5, 2.0, 7.0])
        x = power_shares(a, exponent=1.0)
        contributions = a / x
        assert np.allclose(contributions, contributions[0])


class TestOverloadPenaltyMode:
    def test_penalty_finite_and_graded(self, small_tasks, small_candidates, small_cluster):
        import dataclasses

        hot = [dataclasses.replace(t, arrival_rate=1e3) for t in small_tasks]
        hotter = [dataclasses.replace(t, arrival_rate=2e3) for t in small_tasks]
        off_idx = [int(np.argmax(cs.p_offload)) for cs in small_candidates]
        alloc = Allocation([0, 1], np.ones(2), np.ones(2))
        p1 = solution_latencies(
            hot, small_candidates, off_idx, alloc, small_cluster, overload="penalty",
        )
        p2 = solution_latencies(
            hotter, small_candidates, off_idx, alloc, small_cluster, overload="penalty",
        )
        assert np.all(np.isfinite(p1)) and np.all(np.isfinite(p2))
        assert np.all(p2 > p1)  # more overloaded -> larger surrogate

    def test_penalty_agrees_when_stable(self, small_tasks, small_candidates, small_cluster):
        local_idx = [
            next(i for i, f in enumerate(cs.features) if f.is_local_only)
            for cs in small_candidates
        ]
        alloc = Allocation([None, None], np.ones(2), np.ones(2))
        a = solution_latencies(
            small_tasks, small_candidates, local_idx, alloc, small_cluster,
            include_queueing=False,
        )
        b = solution_latencies(
            small_tasks, small_candidates, local_idx, alloc, small_cluster,
            include_queueing=False, overload="penalty",
        )
        np.testing.assert_allclose(a, b)

    def test_invalid_mode_rejected(self, small_tasks, small_candidates, small_cluster):
        alloc = Allocation([None, None], np.ones(2), np.ones(2))
        with pytest.raises(ConfigError):
            solution_latencies(
                small_tasks, small_candidates, [0, 0], alloc, small_cluster,
                overload="maybe",
            )
