"""Named-metric registry: counters, gauges, and fixed-bucket histograms.

The registry is deliberately small and dependency-free — a dict of metric
objects with a :meth:`MetricsRegistry.snapshot` API that renders to plain
JSON-able dicts, a JSONL dump (one metric per line, for collection alongside
trace files), and a human-readable text dump.

Conventions:

- metric names are dot-separated, lowercase: ``solver.allocate_calls``,
  ``sim.queue_depth.srv:t3``;
- counters are monotonic (work done), gauges are sampled values (queue
  depth, utilization) and remember their last/min/max plus a bounded sample
  series, histograms bucket **milliseconds** by default
  (:data:`DEFAULT_LATENCY_BUCKETS_MS`).
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
]

#: Fixed latency buckets (upper bounds, milliseconds) — roughly logarithmic
#: from sub-millisecond device hits to multi-second overload tails.
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0, 10000.0,
)

#: Gauges keep at most this many (t, value) samples; older samples are
#: dropped (the min/max/last aggregates keep covering everything observed).
GAUGE_SERIES_CAP = 20_000


class Counter:
    """Monotonic counter (units of work done)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Union[int, float] = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up (got {amount})")
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Sampled value with last/min/max aggregates and a bounded series."""

    __slots__ = ("name", "value", "min", "max", "count", "samples", "dropped")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None
        self.min = float("inf")
        self.max = float("-inf")
        self.count = 0
        self.samples: List[Tuple[float, float]] = []
        self.dropped = 0

    def set(self, value: float, t: Optional[float] = None) -> None:
        value = float(value)
        self.value = value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self.count += 1
        if t is not None:
            if len(self.samples) < GAUGE_SERIES_CAP:
                self.samples.append((float(t), value))
            else:
                self.dropped += 1

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "gauge",
            "value": self.value,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "count": self.count,
            "series_len": len(self.samples),
            "series_dropped": self.dropped,
        }


class Histogram:
    """Fixed-bucket histogram (bucket bounds are inclusive upper edges)."""

    __slots__ = ("name", "bounds", "counts", "overflow", "total", "sum")

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS
    ) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"{name}: bucket bounds must be strictly increasing")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.overflow = 0
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.total += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.overflow += 1

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else float("nan")

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "overflow": self.overflow,
            "total": self.total,
            "sum": self.sum,
            "mean": self.mean if self.total else None,
        }


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    Metric creation is locked; mutation of an individual metric is not (the
    repo's writers are single-threaded per instance — parallel solver restarts
    go through per-restart :class:`~repro.profiling.counters.PerfCounters`
    merged afterwards, not through shared registry counters).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Union[Counter, Gauge, Histogram]] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind: type, *args: Any):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = kind(name, *args)
                    self._metrics[name] = metric
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS
    ) -> Histogram:
        return self._get_or_create(name, Histogram, bounds)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    # -- output -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-dict snapshot of every metric, sorted by name."""
        return {name: self._metrics[name].snapshot() for name in self.names()}

    def counters(self, prefix: str = "") -> Dict[str, Union[int, float]]:
        """Just the counter values (optionally filtered by name prefix)."""
        return {
            name: m.value
            for name, m in sorted(self._metrics.items())
            if isinstance(m, Counter) and name.startswith(prefix)
        }

    def jsonl_lines(self) -> Iterable[str]:
        """One JSON object per metric: ``{"name": ..., **snapshot}``."""
        for name, snap in self.snapshot().items():
            yield json.dumps({"name": name, **snap})

    def export_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for line in self.jsonl_lines():
                fh.write(line + "\n")


_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _GLOBAL_REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide registry (fresh one per traced run); returns it."""
    global _GLOBAL_REGISTRY
    _GLOBAL_REGISTRY = registry
    return registry
