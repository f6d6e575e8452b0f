"""Metrics registry: counters, gauges, histograms, and the PerfCounters bridge."""

import json

import pytest

from repro.profiling.counters import PerfCounters
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)


class TestCounter:
    def test_monotonic(self):
        c = Counter("work")
        c.inc()
        c.inc(5)
        assert c.value == 6
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_snapshot(self):
        c = Counter("work")
        c.inc(3)
        assert c.snapshot() == {"type": "counter", "value": 3}


class TestGauge:
    def test_aggregates(self):
        g = Gauge("depth")
        for v in (2.0, 5.0, 1.0):
            g.set(v)
        snap = g.snapshot()
        assert snap["value"] == 1.0 and snap["min"] == 1.0 and snap["max"] == 5.0
        assert snap["count"] == 3

    def test_timestamped_series(self):
        g = Gauge("util")
        g.set(0.5, t=1.0)
        g.set(0.75, t=2.0)
        g.set(0.9)  # untimestamped samples skip the series
        assert g.samples == [(1.0, 0.5), (2.0, 0.75)]
        assert g.snapshot()["series_len"] == 2

    def test_empty_snapshot(self):
        snap = Gauge("idle").snapshot()
        assert snap["value"] is None and snap["min"] is None and snap["count"] == 0


class TestHistogram:
    def test_bucketing_and_overflow(self):
        h = Histogram("lat", bounds=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.counts == [1, 1, 1]
        assert h.overflow == 1
        assert h.total == 4
        assert h.mean == pytest.approx((0.5 + 5.0 + 50.0 + 500.0) / 4)

    def test_default_buckets_are_ms_scale(self):
        h = Histogram("lat")
        assert h.bounds == DEFAULT_LATENCY_BUCKETS_MS
        h.observe(150.0)
        assert h.counts[h.bounds.index(200.0)] == 1

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(5.0, 5.0))
        with pytest.raises(ValueError):
            Histogram("bad", bounds=())


class TestRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert len(reg) == 2 and "a" in reg and reg.names() == ["a", "g"]

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_counters_prefix_filter(self):
        reg = MetricsRegistry()
        reg.counter("solver.calls").inc(2)
        reg.counter("sim.requests").inc(7)
        reg.gauge("solver.time").set(1.0)
        assert reg.counters("solver.") == {"solver.calls": 2}
        assert reg.counters() == {"sim.requests": 7, "solver.calls": 2}

    def test_jsonl_round_trips(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc(4)
        reg.gauge("g").set(0.25, t=1.5)
        reg.histogram("h", bounds=(10.0,)).observe(3.0)
        path = str(tmp_path / "metrics.jsonl")
        reg.export_jsonl(path)
        objs = [json.loads(ln) for ln in open(path).read().splitlines()]
        assert {o["name"] for o in objs} == {"c", "g", "h"}
        by_name = {o["name"]: o for o in objs}
        assert by_name["c"]["value"] == 4
        assert by_name["h"]["total"] == 1

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert len(reg) == 0

    def test_global_registry_swap(self):
        old = get_registry()
        try:
            fresh = set_registry(MetricsRegistry())
            assert get_registry() is fresh
        finally:
            set_registry(old)


class TestPerfCountersBridge:
    def test_publish_registers_counters_and_gauge(self):
        perf = PerfCounters(
            solve_s=0.5, allocate_calls=4, latency_evals=320, restarts=2
        )
        reg = MetricsRegistry()
        perf.publish(reg)
        assert reg.counter("solver.allocate_calls").value == 4
        assert reg.counter("solver.latency_evals").value == 320
        assert reg.counter("solver.restarts").value == 2
        assert reg.gauge("solver.solve_s").value == 0.5

    def test_merged_is_order_independent(self):
        streams = {
            2: PerfCounters(allocate_calls=10, latency_evals=7),
            0: PerfCounters(allocate_calls=1, latency_evals=2),
            1: PerfCounters(allocate_calls=100, latency_evals=50),
        }
        forward = PerfCounters.merged(streams)
        backward = PerfCounters.merged(dict(reversed(list(streams.items()))))
        assert forward.as_dict() == backward.as_dict()
        assert forward.allocate_calls == 111
        assert forward.latency_evals == 59
