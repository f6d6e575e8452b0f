"""The solver performance layer is invisible in results: cached candidate
pipelines, incremental share re-solves, and parallel restarts must all be
bit-exact against their from-scratch counterparts, with the work counters
recording what was actually done."""

import numpy as np
import pytest

from repro.core.allocation import (
    IncrementalAllocator,
    allocate_shares,
    solution_latencies,
    solution_latency_task,
)
from repro.core.candidates import (
    CandidateSet,
    build_candidates,
    candidate_cache_stats,
    clear_candidate_cache,
)
from repro.core.joint import JointOptimizer, JointSolverConfig
from repro.core.plan import TaskSpec
from repro.devices.latency import LatencyModel


def assert_plans_bitequal(a, b):
    """Byte-identical JointPlans: every float compared with ==, not isclose."""
    assert a.assignment == b.assignment
    assert a.compute_shares == b.compute_shares
    assert a.bandwidth_shares == b.bandwidth_shares
    assert a.latencies == b.latencies
    assert a.objective_value == b.objective_value
    assert {k: f.plan for k, f in a.features.items()} == {
        k: f.plan for k, f in b.features.items()
    }


class TestCandidateCache:
    def test_cache_hit_returns_equal_arrays(self, small_tasks):
        clear_candidate_cache()
        first = build_candidates(small_tasks[0])
        before = candidate_cache_stats()
        second = build_candidates(small_tasks[0])
        after = candidate_cache_stats()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses
        np.testing.assert_array_equal(first.dev_flops, second.dev_flops)
        np.testing.assert_array_equal(first.accuracy, second.accuracy)
        assert first.features == second.features

    def test_cache_off_bitequal_to_cache_on(self, small_tasks):
        clear_candidate_cache()
        cached = build_candidates(small_tasks[0], cache=True)
        uncached = build_candidates(small_tasks[0], cache=False)
        assert len(cached) == len(uncached)
        for name in ("dev_flops", "srv_flops", "wire_bytes", "p_offload",
                     "accuracy", "dev_flops_sq", "srv_flops_sq", "wire_bytes_sq"):
            np.testing.assert_array_equal(
                getattr(cached, name), getattr(uncached, name)
            )

    def test_derived_set_rebinds_task(self, small_tasks, me_resnet18):
        clear_candidate_cache()
        build_candidates(small_tasks[0])
        other = TaskSpec(
            "clone", me_resnet18, "dev1",
            deadline_s=0.5, accuracy_floor=small_tasks[0].accuracy_floor,
        )
        cs = build_candidates(other)
        assert cs.task is other

    def test_take_matches_list_rebuild(self, small_candidates):
        cs = small_candidates[0]
        idx = list(range(0, len(cs), 3))
        sliced = cs._take(idx)
        rebuilt = CandidateSet(cs.task, [cs.features[i] for i in idx])
        assert sliced.features == rebuilt.features
        np.testing.assert_array_equal(sliced.dev_flops, rebuilt.dev_flops)
        np.testing.assert_array_equal(sliced.wire_bytes_sq, rebuilt.wire_bytes_sq)

    def test_pruned_matches_quadratic_reference(self, small_candidates):
        cs = small_candidates[0]
        # reference: the original O(n^2) Python dominance scan
        order = np.argsort(-cs.accuracy, kind="stable")
        cost = np.stack(
            [cs.dev_flops, cs.srv_flops, cs.wire_bytes, cs.p_offload], axis=1
        )
        kept = []
        for idx in order:
            dominated = False
            for k in kept:
                if (
                    cs.accuracy[k] >= cs.accuracy[idx] - 1e-12
                    and np.all(cost[k] <= cost[idx] + 1e-9)
                    and (
                        cs.accuracy[k] > cs.accuracy[idx] + 1e-12
                        or np.any(cost[k] < cost[idx] - 1e-9)
                    )
                ):
                    dominated = True
                    break
            if not dominated:
                kept.append(idx)
        expected = [cs.features[i] for i in sorted(kept)]
        assert cs.pruned().features == expected


class TestIncrementalAllocator:
    @pytest.fixture()
    def state(self, small_cluster, small_tasks, small_candidates):
        inc = IncrementalAllocator(
            small_tasks, small_candidates, small_cluster, LatencyModel()
        )
        plan_idx = [len(c) // 2 for c in small_candidates]
        assignment = [0, 1]
        return inc, plan_idx, assignment

    def test_solve_bitequal_to_allocate_shares(
        self, state, small_cluster, small_tasks, small_candidates
    ):
        inc, plan_idx, assignment = state
        a = inc.solve(plan_idx, assignment)
        b = allocate_shares(
            small_tasks, small_candidates, plan_idx, assignment,
            small_cluster, LatencyModel(),
        )
        np.testing.assert_array_equal(a.compute_shares, b.compute_shares)
        np.testing.assert_array_equal(a.bandwidth_shares, b.bandwidth_shares)

    @pytest.mark.parametrize("move", [(0, None), (0, 1), (1, 0), (1, None)])
    def test_update_bitequal_to_full_solve(self, state, move):
        inc, plan_idx, assignment = state
        base = inc.solve(plan_idx, assignment)
        task, dest = move
        new_assign = list(assignment)
        new_assign[task] = dest
        new_idx = list(plan_idx)
        new_idx[task] = 0
        incremental = inc.update(base, new_idx, new_assign, (task,))
        full = inc.solve(new_idx, new_assign)
        assert incremental.assignment == full.assignment
        np.testing.assert_array_equal(
            incremental.compute_shares, full.compute_shares
        )
        np.testing.assert_array_equal(
            incremental.bandwidth_shares, full.bandwidth_shares
        )

    def test_task_kernel_matches_solution_latencies(
        self, state, small_cluster, small_tasks, small_candidates
    ):
        inc, plan_idx, assignment = state
        alloc = inc.solve(plan_idx, assignment)
        lat = solution_latencies(
            small_tasks, small_candidates, plan_idx, alloc,
            small_cluster, LatencyModel(), overload="penalty",
        )
        for i, task in enumerate(small_tasks):
            one = solution_latency_task(
                task, small_candidates[i], plan_idx[i], alloc.assignment[i],
                float(alloc.compute_shares[i]), float(alloc.bandwidth_shares[i]),
                small_cluster, LatencyModel(), overload="penalty",
            )
            assert one == lat[i]


class TestSolverDeterminism:
    def test_cache_on_off_same_plan(self, small_cluster, small_tasks):
        clear_candidate_cache()
        on = JointOptimizer(
            small_cluster, config=JointSolverConfig(candidate_cache=True)
        ).solve(small_tasks, seed=11)
        off = JointOptimizer(
            small_cluster, config=JointSolverConfig(candidate_cache=False)
        ).solve(small_tasks, seed=11)
        assert_plans_bitequal(on.plan, off.plan)
        assert on.history == off.history

    def test_parallel_restarts_match_serial(
        self, small_cluster, small_tasks, small_candidates
    ):
        serial = JointOptimizer(
            small_cluster, config=JointSolverConfig(restarts=3)
        ).solve(small_tasks, candidates=small_candidates, seed=11)
        parallel = JointOptimizer(
            small_cluster,
            config=JointSolverConfig(restarts=3, restart_workers=3),
        ).solve(small_tasks, candidates=small_candidates, seed=11)
        assert_plans_bitequal(serial.plan, parallel.plan)
        assert serial.history == parallel.history

    def test_invalid_restart_workers(self, small_cluster):
        with pytest.raises(Exception):
            JointSolverConfig(restart_workers=0)

    def test_parallel_restart_counters_match_serial(
        self, small_cluster, small_tasks, small_candidates
    ):
        """Merged work counters are order-independent: the parallel merge keys
        restarts by seed-stream index, so thread completion order is invisible."""
        serial = JointOptimizer(
            small_cluster, config=JointSolverConfig(restarts=4)
        ).solve(small_tasks, candidates=small_candidates, seed=11)
        parallel = JointOptimizer(
            small_cluster,
            config=JointSolverConfig(restarts=4, restart_workers=4),
        ).solve(small_tasks, candidates=small_candidates, seed=11)
        s, p = serial.perf.as_dict(), parallel.perf.as_dict()
        s.pop("solve_s"), p.pop("solve_s")  # wall clock is machine noise
        assert s == p


class TestPerfCounters:
    def test_counters_populated(self, small_cluster, small_tasks):
        clear_candidate_cache()
        opt = JointOptimizer(small_cluster)
        first = opt.solve(small_tasks, seed=3)
        second = opt.solve(small_tasks, seed=3)
        assert first.perf.allocate_calls > 0
        assert first.perf.latency_evals > 0
        assert first.perf.candidate_evals > 0
        assert first.perf.solve_s > 0
        assert first.perf.restarts == 1
        assert first.perf.candidate_cache_misses > 0
        # the repeat solve finds every candidate set already cached
        assert second.perf.candidate_cache_hits == len(small_tasks)
        assert second.perf.candidate_cache_misses == 0

    def test_local_search_sweep_is_incremental(self):
        """One sweep never worsens the objective, and its trial moves re-solve
        only the touched server/link groups: a from-scratch solve of this
        16-task x 4-server instance pays 20 groups per call."""
        from repro.core.allocation import Allocation, assign_servers
        from repro.core.joint import _SolveContext
        from repro.profiling.counters import PerfCounters
        from repro.workloads.scenarios import build_scenario

        cluster, tasks = build_scenario(
            "smart_city", num_tasks=16, num_servers=4, server_spread=4.0, seed=0
        )
        cands = [build_candidates(t) for t in tasks]
        opt = JointOptimizer(cluster)
        ctx = _SolveContext(cluster, opt.latency_model, opt.objective, tasks, cands)
        setup = PerfCounters()
        assignment = assign_servers(tasks, cands, cluster, opt.latency_model)
        boot = Allocation(list(assignment), np.ones(len(tasks)), np.ones(len(tasks)))
        plan_idx = opt._surgery_step(tasks, cands, boot, ctx, setup)
        alloc = ctx.allocator.solve(plan_idx, assignment, setup)
        obj = opt._objective(tasks, cands, plan_idx, alloc, setup)

        counters = PerfCounters()
        _, _, new_obj = opt._local_search(
            tasks, cands, list(plan_idx), alloc, obj, ctx, counters
        )
        assert new_obj <= obj
        assert counters.allocate_calls > 0
        assert counters.allocate_group_solves <= counters.allocate_calls * 4

    def test_as_dict_round_trips(self, small_cluster, small_tasks, small_candidates):
        res = JointOptimizer(small_cluster).solve(
            small_tasks, candidates=small_candidates, seed=3
        )
        d = res.perf.as_dict()
        assert d["allocate_calls"] == res.perf.allocate_calls
        assert set(d) >= {
            "solve_s", "allocate_calls", "allocate_group_solves",
            "latency_evals", "candidate_evals",
            "candidate_cache_hits", "candidate_cache_misses", "restarts",
        }
