"""Affinity index ≡ brute-force oracles, nested sharding, resolve_dirty.

The index's fast paths (top-k shortlists, template compression,
shortlist-walk foreign mins, cursor homing) must decide exactly what a
brute-force scan over every (task, server) pair decides.  The scenarios
here are deliberately non-deduplicating — per-device heterogeneous access
links (so ``StarTopology.row_key`` gives every device its own fingerprint)
and ``cache=False`` candidate pipelines (so no two tasks share a features
list) — to exercise the index without the template merging that scenario
presets enjoy.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.candidates import build_candidates
from repro.core.coordinator import resolve_dirty, solve_sharded
from repro.core.joint import JointSolverConfig
from repro.core.plan import TaskSpec
from repro.core.sharding import AffinityIndex, home_tasks
from repro.devices.cluster import EdgeCluster
from repro.devices.presets import SERVER_PRESETS, device_preset
from repro.errors import ConfigError
from repro.network.link import Link
from repro.network.topology import StarTopology
from repro.units import mbps
from repro.workloads.scenarios import build_scenario


@pytest.fixture(scope="module")
def hetero_instance(me_resnet18, me_alexnet):
    """3 devices × 4 servers, every access link distinct, unique candsets."""
    pi4 = device_preset("raspberry_pi4")
    devices = [dataclasses.replace(pi4, name=f"dev{i}") for i in range(3)]
    servers = [
        dataclasses.replace(
            SERVER_PRESETS["edge_gpu" if j % 2 else "edge_cpu"], name=f"srv{j}"
        )
        for j in range(4)
    ]
    links = {
        (d.name, s.name): Link(mbps(18 + 9 * i + 4 * j), rtt_s=(4 + 2 * i + j) * 1e-3)
        for i, d in enumerate(devices)
        for j, s in enumerate(servers)
    }
    topo = StarTopology([d.name for d in devices], [s.name for s in servers], links)
    cluster = EdgeCluster(devices, servers, topo)
    models = [me_resnet18, me_alexnet]
    tasks = [
        TaskSpec(
            f"t{i}",
            models[i % 2],
            f"dev{i % 3}",
            deadline_s=0.2 + 0.03 * i,
            accuracy_floor=0.5,
            arrival_rate=1.5 + 0.5 * i,
        )
        for i in range(9)
    ]
    cands = [build_candidates(t, cache=False) for t in tasks]
    return cluster, tasks, cands


PARTITIONS = [((0, 1), (2, 3)), ((0, 2), (1,), (3,)), ((0,), (1,), (2,), (3,))]


def _oracle_bounds(tasks, cands, cluster):
    """Brute force: best candidate latency of every task on every server."""
    out = np.empty((len(tasks), cluster.num_servers))
    for i, t in enumerate(tasks):
        device = cluster.by_name(t.device_name)
        for s, server in enumerate(cluster.servers):
            link = cluster.link(t.device_name, server.name)
            out[i, s] = np.min(
                cands[i].latencies(device, server=server, link=link)
            )
    return out


def _oracle_foreign(bounds, shards):
    """Per (task, home shard): masked argmin over the foreign servers."""
    n, m = bounds.shape
    val = np.full((n, len(shards)), np.inf)
    srv = np.full((n, len(shards)), -1)
    for h, shard in enumerate(shards):
        foreign = np.array([s for s in range(m) if s not in shard])
        if foreign.size:
            j = np.argmin(bounds[:, foreign], axis=1)
            val[:, h] = bounds[np.arange(n), foreign[j]]
            srv[:, h] = foreign[j]
    return val, srv


def _oracle_homing(bounds, shards):
    """Capacity walk: each task takes its best-scoring shard with room."""
    n, m = bounds.shape
    k = len(shards)
    caps = [max(1, -(-n * len(shard) // m)) for shard in shards]
    loads = [0] * k
    out = []
    for i in range(n):
        score = [bounds[i, list(shard)].min() for shard in shards]
        order = sorted(range(k), key=lambda j: (score[j], j))
        chosen = next((j for j in order if loads[j] < caps[j]), None)
        if chosen is None:
            chosen = min(range(k), key=lambda j: (loads[j] / caps[j], j))
        loads[chosen] += 1
        out.append(chosen)
    return tuple(out)


class TestSparseDenseEquivalence:
    """The sparse index against the dense reference's answers: brute-force
    oracles for bounds, foreign mins and homing, and a solve pinned from the
    dense arm."""

    def test_row_key_falls_back_on_hetero_links(self, hetero_instance):
        cluster, _, _ = hetero_instance
        keys = {cluster.topology.row_key(f"dev{i}") for i in range(3)}
        assert len(keys) == 3  # distinct fingerprints, no cross-device merge

    def test_no_dedup_one_template_per_task(self, hetero_instance):
        cluster, tasks, cands = hetero_instance
        idx = AffinityIndex(tasks, cands, cluster)
        assert idx.bounds.shape[0] == len(tasks)

    def test_bounds_identical(self, hetero_instance):
        cluster, tasks, cands = hetero_instance
        idx = AffinityIndex(tasks, cands, cluster)
        np.testing.assert_array_equal(
            idx.bounds[idx.template_of], _oracle_bounds(tasks, cands, cluster)
        )

    @pytest.mark.parametrize("shards", PARTITIONS)
    def test_foreign_mins_identical(self, hetero_instance, shards):
        cluster, tasks, cands = hetero_instance
        idx = AffinityIndex(tasks, cands, cluster)
        fv, fs = idx.foreign_mins(shards)
        val, srv = _oracle_foreign(_oracle_bounds(tasks, cands, cluster), shards)
        np.testing.assert_array_equal(fv[idx.template_of], val)
        np.testing.assert_array_equal(fs[idx.template_of], srv)

    @pytest.mark.parametrize("shards", PARTITIONS)
    def test_homing_identical(self, hetero_instance, shards):
        cluster, tasks, cands = hetero_instance
        expected = _oracle_homing(_oracle_bounds(tasks, cands, cluster), shards)
        idx = AffinityIndex(tasks, cands, cluster)
        assert home_tasks(tasks, cands, cluster, shards, affinity=idx) == expected
        assert home_tasks(tasks, cands, cluster, shards) == expected

    def test_solve_identical(self, hetero_instance):
        # pinned from the dense reference arm before it was deleted (the
        # sparse and dense arms were asserted bit-identical on this solve)
        cluster, tasks, cands = hetero_instance
        cfg = JointSolverConfig(shards=2, migration_rounds=2)
        r = solve_sharded(tasks, cluster, config=cfg, candidates=cands, seed=5)
        assert r.plan.assignment == {
            "t0": 2, "t1": 3, "t2": 3, "t3": 3, "t4": 2,
            "t5": 0, "t6": 1, "t7": 1, "t8": 1,
        }
        assert repr(r.plan.objective_value) == "0.2804918590167214"
        assert r.migration_history == [0]

    def test_invalid_mode_rejected(self, hetero_instance):
        cluster, tasks, cands = hetero_instance
        with pytest.raises(ConfigError):
            AffinityIndex(tasks, cands, cluster, mode="dense")
        with pytest.raises(TypeError):
            JointSolverConfig(affinity="sparse")


@pytest.fixture(scope="module")
def scenario_instance():
    cluster, tasks = build_scenario("smart_city", num_tasks=24, num_servers=8, seed=2)
    return cluster, tasks, [build_candidates(t) for t in tasks]


class TestNestedSharding:
    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            JointSolverConfig(nested_shards=-1)

    def test_valid_plan_and_deterministic(self, scenario_instance):
        cluster, tasks, cands = scenario_instance
        cfg = JointSolverConfig(shards=2, nested_shards=2, migration_rounds=1)
        a = solve_sharded(tasks, cluster, config=cfg, candidates=cands, seed=1)
        b = solve_sharded(tasks, cluster, config=cfg, candidates=cands, seed=1)
        assert set(a.plan.assignment) == {t.name for t in tasks}
        assert all(np.isfinite(v) for v in a.plan.latencies.values())
        assert a.plan.assignment == b.plan.assignment
        assert a.plan.latencies == b.plan.latencies
        assert a.plan.objective_value == b.plan.objective_value

    def test_region_tasks_stay_in_region(self, scenario_instance):
        # nested racks only re-partition *within* a region: each task's final
        # server must still live in the shard its homing (plus migration)
        # assigned at the outer level
        cluster, tasks, cands = scenario_instance
        cfg = JointSolverConfig(shards=2, nested_shards=2, migration_rounds=0)
        r = solve_sharded(tasks, cluster, config=cfg, candidates=cands, seed=1)
        for i, t in enumerate(tasks):
            srv = r.plan.assignment[t.name]
            if srv is None:
                continue
            home = r.shard_plan.task_shard[i]
            assert srv in r.shard_plan.server_shards[home]


class TestResolveDirty:
    @pytest.fixture(scope="class")
    def prior(self, scenario_instance):
        cluster, tasks, cands = scenario_instance
        cfg = JointSolverConfig(shards=4, migration_rounds=2)
        return cfg, solve_sharded(
            tasks, cluster, config=cfg, candidates=cands, seed=3
        )

    def test_clean_shards_kept_by_identity(self, scenario_instance, prior):
        cluster, tasks, cands = scenario_instance
        cfg, before = prior
        after = resolve_dirty(
            tasks, cluster, before, [1], config=cfg, candidates=cands, seed=3
        )
        for i, t in enumerate(tasks):
            if before.shard_plan.task_shard[i] != 1:
                assert after.plan.assignment[t.name] == before.plan.assignment[t.name]
                assert after.plan.features[t.name] == before.plan.features[t.name]
        assert set(after.plan.assignment) == {t.name for t in tasks}
        assert after.perf.resolve_dirty_s > 0.0

    def test_deterministic(self, scenario_instance, prior):
        cluster, tasks, cands = scenario_instance
        cfg, before = prior
        a = resolve_dirty(
            tasks, cluster, before, [0, 2], config=cfg, candidates=cands, seed=3
        )
        b = resolve_dirty(
            tasks, cluster, before, [0, 2], config=cfg, candidates=cands, seed=3
        )
        assert a.plan.assignment == b.plan.assignment
        assert a.plan.latencies == b.plan.latencies
        assert a.plan.objective_value == b.plan.objective_value

    def test_all_dirty_reproduces_migrationless_fanout(self, scenario_instance):
        # with every shard dirty and the same seed, the delta path must
        # reproduce a fresh fan-out exactly (migration is never re-run, so
        # compare against a migration_rounds=0 solve)
        cluster, tasks, cands = scenario_instance
        cfg = JointSolverConfig(shards=4, migration_rounds=0)
        fresh = solve_sharded(tasks, cluster, config=cfg, candidates=cands, seed=3)
        re = resolve_dirty(
            tasks, cluster, fresh, [0, 1, 2, 3], config=cfg, candidates=cands, seed=3
        )
        assert re.plan.assignment == fresh.plan.assignment
        assert re.plan.features == fresh.plan.features
        assert re.plan.latencies == fresh.plan.latencies
        assert re.plan.objective_value == fresh.plan.objective_value

    def test_all_dirty_reproduces_nested_fanout(self, scenario_instance):
        # the delta path fans out through the same shard solver as a fresh
        # solve, so nested racks re-shard there too
        cluster, tasks, cands = scenario_instance
        cfg = JointSolverConfig(shards=2, nested_shards=2, migration_rounds=0)
        fresh = solve_sharded(tasks, cluster, config=cfg, candidates=cands, seed=3)
        re = resolve_dirty(
            tasks, cluster, fresh, [0, 1], config=cfg, candidates=cands, seed=3
        )
        assert re.plan.assignment == fresh.plan.assignment
        assert re.plan.features == fresh.plan.features
        assert re.plan.latencies == fresh.plan.latencies
        assert [dataclasses.replace(st, solve_s=0.0) for st in re.shard_stats] == [
            dataclasses.replace(st, solve_s=0.0) for st in fresh.shard_stats
        ]

    def test_task_validation(self, scenario_instance, prior):
        cluster, tasks, cands = scenario_instance
        cfg, before = prior
        dup = list(tasks)
        dup[1] = dataclasses.replace(dup[1], name=dup[0].name)
        with pytest.raises(ConfigError):
            resolve_dirty(dup, cluster, before, [0], config=cfg, candidates=cands)
        stray = list(tasks)
        stray[0] = dataclasses.replace(stray[0], device_name="no-such-device")
        with pytest.raises(ConfigError):
            resolve_dirty(stray, cluster, before, [0], config=cfg, candidates=cands)

    def test_validation(self, scenario_instance, prior):
        cluster, tasks, cands = scenario_instance
        cfg, before = prior
        with pytest.raises(ConfigError):
            resolve_dirty(tasks, cluster, before, [], config=cfg, candidates=cands)
        with pytest.raises(ConfigError):
            resolve_dirty(tasks, cluster, before, [4], config=cfg, candidates=cands)
        with pytest.raises(ConfigError):
            resolve_dirty(tasks[:-1], cluster, before, [0], config=cfg)
