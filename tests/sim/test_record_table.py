"""The columnar record table against the per-record objects it replaces.

Oracles: the object builder (one ``RequestRecord`` per completed row, the
way records were built before the table) and the per-record statistics
(``TaskStats`` and report aggregates recomputed record by record).  Runs are
hypothesis-drawn on both engines, fault-free and under faults.
"""

import dataclasses
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.joint import JointOptimizer
from repro.faults import FailurePolicy, FaultSchedule, sample_fault_schedule
from repro.faults import runtime as runtime_mod
from repro.sim import execution, fastpath
from repro.sim.entities import COLUMNS, RecordTable, RequestRecord
from repro.sim.metrics import SimulationReport, TaskStats, merge_reports
from repro.sim.runner import SimulationConfig, simulate_plan
from tests.arrivals import ARRIVALS, arrival_process


def object_records(fields):
    """The object builder the table replaced: every column unboxed with
    ``tolist`` and one ``RequestRecord`` per row."""
    names, task, *cols = fields
    named = np.array(names, dtype=object)[task]
    return list(map(RequestRecord, named.tolist(), *(c.tolist() for c in cols)))


def per_record_stats(records):
    """Per-task statistics recomputed record by record (first-appearance
    task order)."""
    by_task = {}
    for r in records:
        by_task.setdefault(r.task_name, []).append(r)
    out = {}
    for name, recs in by_task.items():
        lat = np.array([r.latency_s for r in recs])
        out[name] = TaskStats(
            count=len(recs),
            mean_latency_s=float(lat.mean()),
            p50_latency_s=float(np.percentile(lat, 50)),
            p95_latency_s=float(np.percentile(lat, 95)),
            p99_latency_s=float(np.percentile(lat, 99)),
            max_latency_s=float(lat.max()),
            miss_rate=float(np.mean([not r.met_deadline for r in recs])),
            accuracy=float(np.mean([r.correct for r in recs])),
            offload_fraction=float(np.mean([r.offloaded for r in recs])),
            mean_exit_position=float(np.mean([r.exit_position for r in recs])),
            mean_queueing_s=float(np.mean([r.queueing_s for r in recs])),
        )
    return out


def assert_matches_records(report, records):
    """Every aggregate of ``report`` bit-equals its per-record recompute."""
    assert report.records == records
    assert list(report.per_task) == list(per_record_stats(records))
    assert report.per_task == per_record_stats(records)
    lat = np.array([r.latency_s for r in records])
    assert report.latencies().tobytes() == lat.tobytes()
    if records:
        assert report.miss_rate == float(np.mean([not r.met_deadline for r in records]))
        assert report.accuracy == float(np.mean([r.correct for r in records]))
        assert report.mean_latency_s == float(lat.mean())
    met = sum(r.met_deadline for r in records)
    assert report.goodput() == met / report.horizon_s


@pytest.fixture(scope="module")
def setup(small_cluster, small_tasks, small_candidates):
    plan = JointOptimizer(small_cluster).solve(
        small_tasks, candidates=small_candidates, seed=0
    ).plan
    return small_tasks, plan, small_cluster


def _run_capturing(tasks, plan, cluster, cfg):
    """The run's report and the object builder's records of the same
    ``record_fields`` columns the engine built its table from."""
    captured = []

    def spy(fields):
        captured.append(object_records(fields))
        return execution.build_records(fields)

    with mock.patch.object(fastpath, "build_records", spy), \
            mock.patch.object(runtime_mod, "build_records", spy):
        report = simulate_plan(tasks, plan, cluster, cfg)
    (records,) = captured
    return report, records


_POLICIES = st.sampled_from([
    None,
    FailurePolicy(),
    FailurePolicy(max_retries=0, failover=False),
])


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    arrival=st.sampled_from(ARRIVALS),
    noise=st.sampled_from([0.0, 0.3]),
    engine=st.sampled_from(["sweep", "event_loop"]),
    warmup=st.sampled_from([0.0, 1.5]),
)
def test_fault_free_runs_match_object_records(setup, seed, arrival, noise, engine, warmup):
    tasks, plan, cluster = setup
    cfg = SimulationConfig(
        horizon_s=6.0, warmup_s=warmup, seed=seed, service_noise=noise,
        faults=FaultSchedule() if engine == "event_loop" else None,
    )
    with arrival_process(arrival):
        report, records = _run_capturing(tasks, plan, cluster, cfg)
    assert isinstance(report.records, RecordTable)
    assert_matches_records(report, records)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    crash_rate=st.sampled_from([4.0, 12.0]),
    loss_prob=st.sampled_from([0.0, 0.3]),
    policy=_POLICIES,
)
def test_fault_runs_match_object_records(setup, seed, crash_rate, loss_prob, policy):
    tasks, plan, cluster = setup
    faults = sample_fault_schedule(
        seed, horizon_s=8.0, servers=[s.name for s in cluster.servers],
        tasks=[t.name for t in tasks], crash_rate_per_min=crash_rate,
        mean_down_s=1.5, loss_prob=loss_prob,
    )
    cfg = SimulationConfig(
        horizon_s=8.0, warmup_s=1.0, seed=seed, faults=faults, failure_policy=policy,
    )
    report, records = _run_capturing(tasks, plan, cluster, cfg)
    assert_matches_records(report, records)
    assert [r.degraded for r in report.records] == [r.degraded for r in records]


@settings(max_examples=6, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**16), min_size=2, max_size=3, unique=True))
def test_merge_concatenates_record_lists(setup, seeds):
    tasks, plan, cluster = setup
    reports = [
        simulate_plan(tasks, plan, cluster, SimulationConfig(horizon_s=4.0, seed=s))
        for s in seeds
    ]
    merged = merge_reports(reports)
    records = [r for rep in reports for r in rep.records]
    assert_matches_records(merged, records)


@pytest.fixture(scope="module")
def table(setup):
    tasks, plan, cluster = setup
    cfg = SimulationConfig(horizon_s=12.0, warmup_s=0.0)
    return simulate_plan(tasks, plan, cluster, cfg).records


class TestSequence:
    def test_indexing_and_slicing(self, table):
        records = list(table)
        assert len(records) == len(table) > 10
        assert table[0] == records[0] and table[-1] == records[-1]
        with pytest.raises(IndexError):
            table[len(table)]
        for sl in (slice(2, 7), slice(None, None, -3), slice(5, 5)):
            part = table[sl]
            assert isinstance(part, RecordTable)
            assert part == records[sl] and list(part) == records[sl]
        assert table.index(records[3]) == 3 and records[3] in table

    def test_records_carry_python_scalars(self, table):
        r = table[0]
        assert [type(getattr(r, f.name)) for f in dataclasses.fields(r)] == [
            str, int, float, float, float, int, bool, bool, float, float, float, bool,
        ]

    def test_empty_equals_empty_list(self, table):
        empty = table[:0]
        assert empty == [] and [] == empty and not empty
        assert RecordTable.from_records([]) == empty
        assert table != [] and table != list(table)[:-1]

    def test_equality_across_name_orders(self, table):
        records = list(table)
        flipped = RecordTable.from_records(records[::-1])[::-1]
        assert flipped.names != table.names or len(table.names) == 1
        assert flipped == table
        changed = records[:]
        changed[4] = dataclasses.replace(changed[4], arrival_s=changed[4].arrival_s + 1.0)
        assert RecordTable.from_records(changed) != table

    def test_pickle_round_trip(self, table):
        back = pickle.loads(pickle.dumps(table))
        assert isinstance(back, RecordTable) and back == table
        assert not back.arrival_s.flags.writeable

    def test_columns_read_only(self, table):
        for name in ("task",) + COLUMNS:
            with pytest.raises(ValueError):
                getattr(table, name)[0] = 0

    def test_concat_and_from_records_round_trip(self, table):
        assert RecordTable.concat([table[:5], table[5:]]) == table
        part = table[:20]
        head = RecordTable(  # the same records under reversed names
            table.names[::-1], len(table.names) - 1 - part.task,
            *(getattr(part, c) for c in COLUMNS),
        )
        assert head.names != table.names and head == part
        assert RecordTable.concat([head, table[20:]]) == table
        assert RecordTable.from_records(list(table)) == table
        assert RecordTable.from_records(table) is table

    def test_report_from_record_list(self, table):
        report = SimulationReport.from_records(list(table), 12.0, {})
        assert isinstance(report.records, RecordTable)
        assert_matches_records(report, list(table))


class TestRequestRecord:
    def rec(self):
        return RequestRecord("t", 3, 1.0, 1.5, 2.0, 1, True, False, 0.1, 0.2, 0.05)

    def test_slots_no_instance_dict(self):
        assert not hasattr(self.rec(), "__dict__")

    def test_astuple_equality_and_pickle(self):
        r = self.rec()
        assert dataclasses.astuple(r) == (
            "t", 3, 1.0, 1.5, 2.0, 1, True, False, 0.1, 0.2, 0.05, False,
        )
        assert r == self.rec() and r != dataclasses.replace(r, degraded=True)
        assert pickle.loads(pickle.dumps(r)) == r
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.req_id = 4
