"""Metrics collection and reports."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, SimulationError
from repro.sim.entities import RequestRecord
from repro.sim.execution import ARR, COLS, COMPLETION, REQ, build_records, record_fields
from repro.sim.metrics import SimulationReport, TaskStats, lerp_percentiles
from repro.sim.runner import SimulationConfig


def rec(task="t0", rid=0, arrival=1.0, completion=1.1, deadline=1.2, correct=True):
    return RequestRecord(
        task_name=task,
        req_id=rid,
        arrival_s=arrival,
        completion_s=completion,
        deadline_s=deadline,
        exit_position=1,
        offloaded=True,
        correct=correct,
        dev_busy_s=0.02,
        srv_busy_s=0.03,
        net_busy_s=0.01,
    )


class TestRequestRecord:
    def test_latency(self):
        assert rec().latency_s == pytest.approx(0.1)

    def test_deadline_check(self):
        assert rec(completion=1.15).met_deadline
        assert not rec(completion=1.25).met_deadline

    def test_queueing_time(self):
        r = rec()
        assert r.queueing_s == pytest.approx(0.1 - 0.06)

    def test_queueing_clamped_nonnegative(self):
        r = rec(completion=1.01)
        assert r.queueing_s == 0.0


def _rows(*spans):
    """Completed rows of task 0, one ``(arrival, completion)`` pair each."""
    rows = np.zeros((len(spans), len(COLS)))
    rows[:, REQ] = np.arange(len(spans))
    rows[:, [ARR, COMPLETION]] = spans
    return rows, np.zeros(len(spans), dtype=np.intp)


class TestCollector:
    def test_warmup_discard(self):
        records = build_records(record_fields(*_rows((1.0, 1.1), (3.0, 3.1)), ["t0"], 2.0))
        assert [r.arrival_s for r in records] == [3.0]

    def test_time_travel_rejected(self):
        with pytest.raises(SimulationError):
            record_fields(*_rows((2.0, 1.0)), ["t0"], 0.0)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig(warmup_s=-1.0)


class TestReport:
    def make_report(self):
        records = [
            rec(rid=0, arrival=1.0, completion=1.1, correct=True),
            rec(rid=1, arrival=2.0, completion=2.3, correct=False),
            rec(task="t1", rid=0, arrival=1.0, completion=1.05, correct=True),
        ]
        return SimulationReport.from_records(records, horizon_s=10.0, utilizations={})

    def test_per_task_counts(self):
        r = self.make_report()
        assert r.per_task["t0"].count == 2
        assert r.per_task["t1"].count == 1

    def test_aggregate_mean(self):
        r = self.make_report()
        assert r.mean_latency_s == pytest.approx((0.1 + 0.3 + 0.05) / 3)

    def test_miss_rate(self):
        r = self.make_report()
        # t0#1 completes 0.1s after its deadline (2.0+0.2)
        assert r.miss_rate == pytest.approx(1 / 3)

    def test_accuracy(self):
        r = self.make_report()
        assert r.accuracy == pytest.approx(2 / 3)

    def test_percentiles_ordered(self):
        r = self.make_report()
        assert (
            r.percentile_latency_s(50)
            <= r.percentile_latency_s(95)
            <= r.percentile_latency_s(99)
        )

    def test_summary_renders(self):
        s = self.make_report().summary()
        assert "t0" in s and "t1" in s and "miss" in s

    def test_task_stats_are_slotted_values(self):
        stats = self.make_report().per_task["t0"]
        assert not hasattr(stats, "__dict__")
        fields = dataclasses.asdict(stats)
        assert list(fields) == [f.name for f in dataclasses.fields(TaskStats)]
        assert fields["count"] == 2
        assert TaskStats(**fields) == stats
        assert TaskStats(**{**fields, "count": 3}) != stats
        assert pickle.loads(pickle.dumps(stats)) == stats
        with pytest.raises(AttributeError):
            stats.note = "ad hoc"


class TestLerpPercentiles:
    """The record-backed percentile kernel is ``np.percentile``, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, -0.0, 0.5, 1e-300]),
            min_size=1, max_size=40,
        ),
        qs=st.lists(
            st.floats(0.0, 100.0) | st.sampled_from([0, 50, 95, 99, 99.9, 100]),
            min_size=1, max_size=4,
        ),
    )
    @example(values=[1.0], qs=[0.0, 50.0, 100.0])
    @example(values=[-0.0, -0.0], qs=[50.0])
    @example(values=[3.0, 1.0, 2.0, 2.0], qs=[25.0, 99.0])
    def test_equals_numpy_bit_for_bit(self, values, qs):
        arr = np.array(values, dtype=np.float64)
        got = np.array(lerp_percentiles(arr, qs))
        want = np.array([float(np.percentile(arr, q)) for q in qs])
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(arr, np.array(values))  # the input is not reordered

    def test_nan_wins_like_numpy(self):
        arr = np.array([1.0, np.nan, 3.0])
        assert np.isnan(lerp_percentiles(arr, (0, 50))).all()
        assert np.isnan(np.percentile(arr, 50))

    @pytest.mark.parametrize("q", [-1.0, 100.5, float("nan")])
    def test_rejects_out_of_range(self, q):
        with pytest.raises(ValueError):
            lerp_percentiles(np.ones(3), (q,))
        with pytest.raises(ValueError):
            np.percentile(np.ones(3), q)
