"""The hierarchical coordinator: shard solves + cross-shard migration."""

import dataclasses

import numpy as np
import pytest

from repro.core.candidates import CandidateSet, build_candidates
from repro.core.coordinator import ShardedResult, _PositionResolver, solve_sharded
from repro.core.joint import JointOptimizer, JointSolverConfig
from repro.errors import ConfigError
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import Tracer, get_tracer, set_tracer
from repro.workloads.scenarios import build_scenario


@pytest.fixture(scope="module")
def medium_instance():
    cluster, tasks = build_scenario("smart_city", num_tasks=24, num_servers=4, seed=3)
    return cluster, tasks, [build_candidates(t) for t in tasks]


class TestPositionResolver:
    def test_identity_then_first_equal_then_none(self, medium_instance):
        _, tasks, cands = medium_instance
        f0, f1 = cands[0].features[:2]
        twin = dataclasses.replace(f1)
        cs = CandidateSet(tasks[0], [f0, f1, twin])
        resolver = _PositionResolver()
        assert resolver.resolve(cs, twin) == 2  # identity beats an earlier equal
        assert resolver.resolve(cs, dataclasses.replace(twin)) == 1
        assert resolver.resolve(cs, f0) == 0
        outside = dataclasses.replace(f0, accuracy=f0.accuracy / 2)
        assert resolver.resolve(cs, outside) is None

    def test_value_lookup_makes_no_equality_scan(self, medium_instance, monkeypatch):
        _, tasks, cands = medium_instance
        cs = cands[0]
        resolver = _PositionResolver()
        resolver.resolve(cs, cs.features[0])  # index the list
        last = dataclasses.replace(cs.features[-1])
        expected = cs.features.index(last)
        calls = []
        eq = type(last).__eq__
        monkeypatch.setattr(
            type(last), "__eq__", lambda a, b: calls.append(1) or eq(a, b)
        )
        assert resolver.resolve(cs, last) == expected
        assert len(calls) <= 1  # one hash hit, not a scan of the list


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(shards=0),
            dict(shards=-1),
            dict(shard_by="hash"),
            dict(migration_rounds=-1),
            dict(migration_hysteresis=-0.5),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            JointSolverConfig(**kwargs)

    def test_more_shards_than_servers_rejected_at_solve(self, medium_instance):
        cluster, tasks, cands = medium_instance
        cfg = JointSolverConfig(shards=cluster.num_servers + 1)
        with pytest.raises(ConfigError):
            JointOptimizer(cluster, config=cfg).solve(tasks, candidates=cands)


class TestSingleShardIdentity:
    def test_bit_identical_to_centralized(self, medium_instance):
        # JointOptimizer keeps shards=1 on the centralized path; calling the
        # coordinator directly exercises its degenerate early return
        cluster, tasks, cands = medium_instance
        cen = JointOptimizer(cluster).solve(tasks, candidates=cands, seed=7)
        one = solve_sharded(
            tasks, cluster, config=JointSolverConfig(shards=1),
            candidates=cands, seed=7,
        )
        assert isinstance(one, ShardedResult)
        assert one.plan.assignment == cen.plan.assignment
        assert one.plan.features == cen.plan.features
        assert one.plan.latencies == cen.plan.latencies
        assert one.plan.compute_shares == cen.plan.compute_shares
        assert one.plan.bandwidth_shares == cen.plan.bandwidth_shares
        assert one.plan.objective_value == cen.plan.objective_value
        assert one.history == cen.history
        assert one.iterations == cen.iterations
        assert one.migration_history == []


class TestShardedSolve:
    @pytest.fixture(scope="class")
    def result(self, medium_instance):
        cluster, tasks, cands = medium_instance
        cfg = JointSolverConfig(shards=2, migration_rounds=3)
        return solve_sharded(
            tasks, cluster, config=cfg, candidates=cands, seed=7
        )

    def test_complete_plan(self, medium_instance, result):
        _, tasks, _ = medium_instance
        for t in tasks:
            assert t.name in result.plan.latencies
            assert np.isfinite(result.plan.latencies[t.name])

    def test_shard_stats_cover_all_tasks(self, medium_instance, result):
        _, tasks, _ = medium_instance
        assert len(result.shard_stats) == 2
        assert sum(st.num_tasks for st in result.shard_stats) == len(tasks)

    def test_counters(self, result):
        assert result.perf.shard_solves == 2
        assert result.perf.migration_rounds == len(result.migration_history)
        assert result.perf.migrations == sum(result.migration_history)

    def test_final_homing_matches_assignment(self, medium_instance, result):
        # after migration, every offloaded task's homing shard owns the
        # server it is assigned to
        cluster, tasks, _ = medium_instance
        plan = result.shard_plan
        for i, t in enumerate(tasks):
            s = result.plan.assignment[t.name]  # global server index or None
            if s is not None:
                assert plan.shard_of_server(s) == plan.task_shard[i]

    def test_migration_improves_or_holds(self, result):
        # history[0] is the stitched objective before migration
        assert result.history[-1] <= result.history[0] + 1e-12

    def test_deterministic(self, medium_instance, result):
        cluster, tasks, cands = medium_instance
        again = solve_sharded(
            tasks, cluster,
            config=JointSolverConfig(shards=2, migration_rounds=3),
            candidates=cands, seed=7,
        )
        assert again.plan.assignment == result.plan.assignment
        assert again.plan.latencies == result.plan.latencies
        assert again.migration_history == result.migration_history
        assert again.history == result.history

    def test_serial_parallel_fanout_identical(self, medium_instance, result):
        cluster, tasks, cands = medium_instance
        par = solve_sharded(
            tasks, cluster,
            config=JointSolverConfig(
                shards=2, migration_rounds=3, restart_workers=4
            ),
            candidates=cands, seed=7,
        )
        assert par.plan.assignment == result.plan.assignment
        assert par.plan.latencies == result.plan.latencies
        assert par.plan.objective_value == result.plan.objective_value
        assert par.migration_history == result.migration_history

    def test_seed_changes_solution_space_not_validity(self, medium_instance):
        cluster, tasks, cands = medium_instance
        cfg = JointSolverConfig(shards=2, migration_rounds=1)
        other = solve_sharded(tasks, cluster, config=cfg, candidates=cands, seed=11)
        for t in tasks:
            assert np.isfinite(other.plan.latencies[t.name])


class TestMigration:
    def test_zero_rounds_skips_migration(self, medium_instance):
        cluster, tasks, cands = medium_instance
        res = solve_sharded(
            tasks, cluster,
            config=JointSolverConfig(shards=2, migration_rounds=0),
            candidates=cands, seed=7,
        )
        assert res.migration_history == []
        assert res.perf.migrations == 0
        assert res.shard_plan.task_shard == tuple(res.shard_plan.task_shard)

    def test_hysteresis_gates_migrations(self, medium_instance):
        # a migration must beat the relative gain ``migration_hysteresis``;
        # no move on this instance gains a millionfold
        cluster, tasks, cands = medium_instance
        res = solve_sharded(
            tasks, cluster,
            config=JointSolverConfig(
                shards=2, migration_rounds=3, migration_hysteresis=1e6
            ),
            candidates=cands, seed=7,
        )
        assert res.perf.migrations == 0

    def test_migration_strictly_helps_here(self, medium_instance):
        # on this instance the partition leaves cross-shard gains on the
        # table; the coordinator should find at least one
        cluster, tasks, cands = medium_instance
        without = solve_sharded(
            tasks, cluster,
            config=JointSolverConfig(shards=2, migration_rounds=0),
            candidates=cands, seed=7,
        )
        with_mig = solve_sharded(
            tasks, cluster,
            config=JointSolverConfig(shards=2, migration_rounds=3),
            candidates=cands, seed=7,
        )
        assert with_mig.perf.migrations > 0
        assert (
            with_mig.plan.objective_value <= without.plan.objective_value + 1e-12
        )


class TestTraceDeterminism:
    """Serial and parallel fan-outs record the same merged span sequence."""

    @staticmethod
    def _traced_solve(medium_instance, workers):
        cluster, tasks, cands = medium_instance
        saved = get_tracer()
        set_tracer(Tracer(enabled=True))
        try:
            solve_sharded(
                tasks, cluster,
                config=JointSolverConfig(
                    shards=2, migration_rounds=3, restart_workers=workers
                ),
                candidates=cands, seed=7,
            )
            return get_tracer().drain()
        finally:
            set_tracer(saved)

    def test_serial_parallel_span_sequences_identical(self, medium_instance):
        serial = self._traced_solve(medium_instance, workers=1)
        parallel = self._traced_solve(medium_instance, workers=4)

        def shape(spans):
            return [(s.name, s.span_id, s.parent_id, s.stream) for s in spans]

        assert shape(parallel) == shape(serial)
        # spans arrive merged by (stream, seq): shard solves occupy their
        # deterministic stream blocks regardless of thread scheduling
        ids = [s.span_id for s in serial]
        assert ids == sorted(ids)
        assert {s.stream for s in serial} > {0}  # shard streams present

    def test_shard_streams_reparent_under_root(self, medium_instance):
        spans = self._traced_solve(medium_instance, workers=4)
        root = next(s for s in spans if s.name == "solve.sharded")
        off_stream = [s for s in spans if s.stream != root.stream]
        assert off_stream
        tops = [s for s in off_stream if s.parent_id == root.span_id]
        assert tops  # each shard's top-level solve hangs off the root span


class TestPublishHealth:
    @pytest.fixture(scope="class")
    def result(self, medium_instance):
        cluster, tasks, cands = medium_instance
        return solve_sharded(
            tasks, cluster,
            config=JointSolverConfig(shards=2, migration_rounds=3),
            candidates=cands, seed=7,
        )

    def test_gauges_cover_every_shard(self, medium_instance, result):
        _, tasks, _ = medium_instance
        reg = MetricsRegistry()
        result.publish_health(reg, tasks=tasks)
        homed_total = 0
        for s in range(2):
            for f in ("tasks", "objective", "solve_s", "iterations",
                      "migrations_in", "utilization", "violation_rate"):
                assert f"shard.{s}.{f}" in reg, f"missing shard.{s}.{f}"
            homed_total += int(reg.gauge(f"shard.{s}.tasks").value)
            assert 0.0 <= reg.gauge(f"shard.{s}.violation_rate").value <= 1.0
        assert homed_total == len(tasks)
        assert reg.counter("shard.migration.accepted").value == sum(
            result.migration_history
        )
        assert reg.gauge("shard.migration.rounds").value == len(
            result.migration_history
        )

    def test_migrations_in_reflects_rehoming(self, result):
        # post-migration homing minus the shard's solve-time task count
        reg = MetricsRegistry()
        result.publish_health(reg)
        for st in result.shard_stats:
            moved = reg.gauge(f"shard.{st.shard}.migrations_in").value
            assert moved == reg.gauge(f"shard.{st.shard}.tasks").value - st.num_tasks

    def test_without_tasks_skips_derived_gauges(self, result):
        reg = MetricsRegistry()
        result.publish_health(reg)
        assert "shard.0.tasks" in reg
        assert "shard.0.utilization" not in reg
        assert "shard.0.violation_rate" not in reg

    def test_requires_shard_plan(self, result):
        bare = dataclasses.replace(result, shard_plan=None)
        with pytest.raises(ConfigError, match="no shard plan"):
            bare.publish_health(MetricsRegistry())

    def test_rejects_foreign_task_list(self, medium_instance, result):
        _, tasks, _ = medium_instance
        with pytest.raises(ConfigError, match="sequence solve_sharded ran over"):
            result.publish_health(MetricsRegistry(), tasks=tasks[:-1])


class TestValidation:
    def test_no_tasks(self, medium_instance):
        cluster, _, _ = medium_instance
        with pytest.raises(ConfigError):
            solve_sharded([], cluster)

    def test_duplicate_names(self, medium_instance):
        cluster, tasks, cands = medium_instance
        dup = [tasks[0], tasks[0]]
        with pytest.raises(ConfigError):
            solve_sharded(dup, cluster, candidates=[cands[0], cands[0]])

    def test_unknown_device(self, medium_instance):
        cluster, tasks, cands = medium_instance
        bad = [dataclasses.replace(tasks[0], device_name="ghost")]
        with pytest.raises(ConfigError):
            solve_sharded(bad, cluster, candidates=[cands[0]])

    def test_candidates_length_mismatch(self, medium_instance):
        cluster, tasks, cands = medium_instance
        with pytest.raises(ConfigError):
            solve_sharded(tasks, cluster, candidates=cands[:-1])
