"""Hypothesis properties of the sharded control plane.

Two invariants the coordinator's correctness rests on:

- per-shard :class:`PerfCounters` merge is order-independent (serial and
  parallel shard fan-out must report byte-identical counters regardless of
  completion order);
- a shard plan is a *partition*: every server in exactly one shard, every
  task homed to exactly one shard — and migration re-homing preserves that;
  a nested solve's racks partition each region the same way.
"""

import dataclasses
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import coordinator
from repro.core.candidates import build_candidates
from repro.core.joint import JointOptimizer, JointSolverConfig
from repro.core.sharding import ShardPlan, ShardView, partition_servers
from repro.errors import ConfigError
from repro.profiling.counters import PerfCounters
from repro.workloads.scenarios import build_scenario

_COUNTER_FIELDS = [f.name for f in dataclasses.fields(PerfCounters)]


@st.composite
def counters(draw):
    values = {
        name: (
            draw(st.floats(0.0, 100.0, allow_nan=False))
            if name.endswith("_s")  # wall-clock timer fields are floats
            else draw(st.integers(0, 10_000))
        )
        for name in _COUNTER_FIELDS
    }
    return PerfCounters(**values)


@given(
    per_shard=st.lists(counters(), min_size=1, max_size=8),
    seed=st.randoms(use_true_random=False),
)
def test_counter_merge_order_independent(per_shard, seed):
    keyed = dict(enumerate(per_shard))
    merged = PerfCounters.merged(keyed)
    shuffled_keys = list(keyed)
    seed.shuffle(shuffled_keys)
    remerged = PerfCounters.merged({k: keyed[k] for k in shuffled_keys})
    assert merged == remerged


@given(
    per_shard=st.lists(counters(), min_size=1, max_size=6),
)
def test_counter_merge_equals_field_sums(per_shard):
    merged = PerfCounters.merged(dict(enumerate(per_shard)))
    for name in _COUNTER_FIELDS:
        assert getattr(merged, name) == pytest.approx(
            sum(getattr(c, name) for c in per_shard)
        )


@given(
    num_servers=st.integers(1, 64),
    shards=st.integers(1, 64),
    shard_by=st.sampled_from(["contiguous", "interleave"]),
)
def test_partition_covers_every_server_once(num_servers, shards, shard_by):
    if shards > num_servers:
        with pytest.raises(ConfigError):
            partition_servers(num_servers, shards, shard_by)
        return
    parts = partition_servers(num_servers, shards, shard_by)
    flat = [s for shard in parts for s in shard]
    assert sorted(flat) == list(range(num_servers))
    assert all(shard for shard in parts)


@lru_cache(maxsize=None)
def _nested_instance(num_servers):
    cluster, tasks = build_scenario(
        "smart_city", num_tasks=3 * num_servers, num_servers=num_servers, seed=0
    )
    return cluster, tasks, [build_candidates(t) for t in tasks]


def _nested_solve(num_servers, regions, racks, shard_by):
    """Run a ``nested_shards=racks`` solve and record every sharded solve it
    makes: ``(cluster or view, config, result)`` per level."""
    cluster, tasks, cands = _nested_instance(num_servers)
    cfg = JointSolverConfig(
        shards=regions, nested_shards=racks, shard_by=shard_by,
        max_iterations=2, local_search=False, refine_thresholds=False,
        migration_rounds=0,
    )
    solves = []
    real = coordinator.solve_sharded

    def recording(tasks, cluster, **kw):
        res = real(tasks, cluster, **kw)
        solves.append((cluster, kw["config"], res))
        return res

    with mock.patch.object(coordinator, "solve_sharded", recording):
        JointOptimizer(cluster, config=cfg).solve(tasks, candidates=cands, seed=0)
    return cluster, solves


@settings(max_examples=12, deadline=None)
@given(
    num_servers=st.integers(2, 8),
    regions=st.integers(2, 3),
    racks=st.integers(2, 4),
    shard_by=st.sampled_from(["contiguous", "interleave"]),
)
def test_nested_partition_partitions_both_levels(
    num_servers, regions, racks, shard_by
):
    """The layout a ``nested_shards`` solve really runs: the outer solve
    partitions the servers into regions; each region's solve re-shards its
    :class:`ShardView` into racks that partition exactly that region; the
    flattened racks are the outer partition; racks never re-shard."""
    assume(regions <= num_servers)
    cluster, solves = _nested_solve(num_servers, regions, racks, shard_by)
    outer = [r for c, _, r in solves if c is cluster]
    inner = [(c, cfg, r) for c, cfg, r in solves if c is not cluster]
    assert len(outer) == 1
    outer_plan = outer[0].shard_plan
    assert outer_plan.server_shards == partition_servers(num_servers, regions, shard_by)
    racks_of = {}
    for view, cfg, res in inner:
        # one level down only: every inner solve runs over a region of the
        # top cluster and hands its racks nested_shards=0
        assert isinstance(view, ShardView) and view.parent is cluster
        assert cfg.nested_shards == 0
        region = view.server_ids
        assert region in outer_plan.server_shards and region not in racks_of
        local = res.shard_plan.server_shards
        assert len(local) == min(racks, len(region))
        assert all(rack for rack in local)
        racks_of[region] = [tuple(region[j] for j in rack) for rack in local]
        flat = [s for rack in racks_of[region] for s in rack]
        assert sorted(flat) == sorted(region) and len(set(flat)) == len(flat)
    # every region that solved tasks over more than one server re-sharded
    homed = set(outer_plan.task_shard)
    for k, region in enumerate(outer_plan.server_shards):
        if k in homed and len(region) > 1:
            assert region in racks_of
    all_racks = [
        rack
        for region in outer_plan.server_shards
        for rack in racks_of.get(region, [region])
    ]
    assert sorted(s for rack in all_racks for s in rack) == list(range(num_servers))


@given(nested=st.one_of(st.integers(-8, -1), st.sampled_from([1.5, "2", True])))
def test_nested_partition_rejects_bad_racks(nested):
    with pytest.raises(ConfigError):
        JointSolverConfig(shards=2, nested_shards=nested)


@settings(max_examples=50)
@given(
    num_servers=st.integers(2, 32),
    shards=st.integers(2, 8),
    num_tasks=st.integers(1, 64),
    data=st.data(),
)
def test_migration_rehoming_keeps_partition(num_servers, shards, num_tasks, data):
    """Any sequence of migration re-homings keeps every task in exactly one
    (valid) shard — the coordinator's ``with_task_shard`` path."""
    if shards > num_servers:
        return
    server_shards = partition_servers(num_servers, shards, "interleave")
    homing = data.draw(
        st.lists(
            st.integers(0, shards - 1), min_size=num_tasks, max_size=num_tasks
        )
    )
    plan = ShardPlan(server_shards, tuple(homing))
    moves = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, num_tasks - 1), st.integers(0, shards - 1)
            ),
            max_size=16,
        )
    )
    task_shard = list(plan.task_shard)
    for task, target in moves:
        task_shard[task] = target
    rehomed = plan.with_task_shard(task_shard)
    # every task homed to exactly one existing shard...
    assert len(rehomed.task_shard) == num_tasks
    assert all(0 <= s < shards for s in rehomed.task_shard)
    # ...and tasks_by_shard() tiles the task set exactly once
    seen = sorted(i for ids in rehomed.tasks_by_shard() for i in ids)
    assert seen == list(range(num_tasks))
    # the server partition is untouched by re-homing
    assert rehomed.server_shards == plan.server_shards
