"""Metrics collection and simulation reports.

With telemetry enabled (``SimulationConfig(telemetry=True)``), the report
additionally carries the per-request event :attr:`SimulationReport.timeline`
and the :attr:`SimulationReport.registry` of sampled queue-depth /
utilization gauges and realized-work counters — both ``None`` on ordinary
runs, so the default path allocates nothing extra.

Streaming runs (``SimulationConfig(streaming=True)``) never materialize one
:class:`~repro.sim.entities.RequestRecord` per request; instead a
:class:`StreamingStats` accumulator folds each completed chunk into
fixed-bin latency histograms and per-task running sums, so memory stays
bounded at millions of requests.  The resulting
:class:`SimulationReport` is *records-free*: scalar aggregates (mean
latency, miss rate, accuracy, goodput, counters) are exact, latency
quantiles are exact within one histogram bin, and ``records`` holds at most
``max_records`` reservoir-sampled requests kept for debugging.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.errors import SimulationError
from repro.rng import derive
from repro.sim.entities import RequestRecord
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.timeline import Timeline
from repro.telemetry.windows import KahanSum, LatencyHistogram, WindowedMetrics


@dataclass
class SimCounters:
    """Deterministic work counters of one (or several merged) simulation runs.

    Mirrors :class:`~repro.profiling.counters.PerfCounters` for the
    simulator: machine-independent counts that benchmarks and the perf gate
    can assert on.  ``events`` is the number of event-loop callbacks the run
    processed — the fast path reports the *equivalent* count
    (``2·non-offloaded + 5·offloaded`` requests), which is exactly what the
    event loop executes for the same workload, so the two paths stay
    comparable and reports stay equal.
    """

    requests: int = 0
    records: int = 0
    discarded_warmup: int = 0
    events: int = 0
    replications: int = 0
    # -- failure accounting (all zero on fault-free runs) ---------------------
    #: fault-schedule events applied by the injector
    faults_injected: int = 0
    #: offload attempts re-submitted after a failed/timed-out attempt
    retries: int = 0
    #: attempts redirected to the failover server slice
    failovers: int = 0
    #: requests completed locally at a fallback exit (edge unreachable)
    degraded_completions: int = 0
    #: requests that never completed (no policy, or retries exhausted)
    lost: int = 0
    #: requests dropped at arrival by overload shedding (admission repair)
    shed: int = 0

    def merge(self, other: "SimCounters") -> "SimCounters":
        """Accumulate ``other`` into ``self`` (returns self for chaining)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    @classmethod
    def merged(cls, by_stream: Mapping[int, "SimCounters"]) -> "SimCounters":
        """Order-independent merge of per-replication counters.

        Replications record into their own instances keyed by replication
        index; merging in sorted index order makes the result independent of
        worker completion order, so serial and parallel fan-outs report
        byte-identical counters.
        """
        out = cls()
        for stream in sorted(by_stream):
            out.merge(by_stream[stream])
        return out

    def conserved(self) -> bool:
        """Request conservation: no request may silently vanish.

        Every launched request must end up completed (recorded or
        warmup-discarded), lost, or shed — across all arrival modes, fault
        schedules, and policies.  A property test pins this.
        """
        return self.requests == (
            self.records + self.discarded_warmup + self.lost + self.shed
        )

    def as_dict(self) -> Dict[str, Union[int, float]]:
        """JSON-friendly snapshot (benchmark ``extra_info`` / gate payload)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def publish(self, registry: MetricsRegistry, prefix: str = "sim") -> None:
        """Register these counts as ``{prefix}.{field}`` monotonic counters."""
        for f in fields(self):
            registry.counter(f"{prefix}.{f.name}").inc(getattr(self, f.name))


@dataclass
class TaskStats:
    """Measured statistics of one task's request stream."""

    count: int
    mean_latency_s: float
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    max_latency_s: float
    miss_rate: float
    accuracy: float
    offload_fraction: float
    mean_exit_position: float
    mean_queueing_s: float


class StreamingTaskStats:
    """Bounded-memory running statistics of one task's request stream."""

    __slots__ = (
        "hist", "count", "met", "correct", "offloaded", "exit_sum",
        "lat_sum", "queue_sum", "max_latency_s",
    )

    def __init__(self, bin_s: float, max_s: float) -> None:
        self.hist = LatencyHistogram(bin_s, max_s)
        self.count = 0
        self.met = 0
        self.correct = 0
        self.offloaded = 0
        self.exit_sum = 0  # integer positions: the sum is exact
        self.lat_sum = KahanSum()
        self.queue_sum = KahanSum()
        self.max_latency_s = float("-inf")

    def observe(
        self,
        latency: np.ndarray,
        met: np.ndarray,
        correct: np.ndarray,
        offloaded: np.ndarray,
        positions: np.ndarray,
        queueing: np.ndarray,
    ) -> None:
        if latency.size == 0:
            return
        self.count += int(latency.size)
        self.met += int(np.count_nonzero(met))
        self.correct += int(np.count_nonzero(correct))
        self.offloaded += int(np.count_nonzero(offloaded))
        self.exit_sum += int(positions.sum())
        self.lat_sum.add(float(latency.sum()))
        self.queue_sum.add(float(queueing.sum()))
        self.max_latency_s = max(self.max_latency_s, float(latency.max()))
        self.hist.observe(latency)

    def merge(self, other: "StreamingTaskStats") -> "StreamingTaskStats":
        self.count += other.count
        self.met += other.met
        self.correct += other.correct
        self.offloaded += other.offloaded
        self.exit_sum += other.exit_sum
        self.lat_sum.add(other.lat_sum.value)
        self.queue_sum.add(other.queue_sum.value)
        self.max_latency_s = max(self.max_latency_s, other.max_latency_s)
        self.hist.merge(other.hist)
        return self

    def to_task_stats(self) -> TaskStats:
        n = self.count
        if n == 0:
            raise SimulationError("no completions to summarize")
        return TaskStats(
            count=n,
            mean_latency_s=self.lat_sum.value / n,
            p50_latency_s=self.hist.quantile(50),
            p95_latency_s=self.hist.quantile(95),
            p99_latency_s=self.hist.quantile(99),
            max_latency_s=self.max_latency_s,
            miss_rate=(n - self.met) / n,
            accuracy=self.correct / n,
            offload_fraction=self.offloaded / n,
            mean_exit_position=self.exit_sum / n,
            mean_queueing_s=self.queue_sum.value / n,
        )


class StreamingStats:
    """Columnar metrics accumulator for the chunked streaming sweep.

    Consumes completed requests chunk by chunk as NumPy columns — no
    per-request Python objects — and keeps per-task running sums, fixed-bin
    latency histograms, and (optionally) a seeded reservoir sample of up to
    ``max_records`` :class:`RequestRecord` objects for debugging.  Integer-
    derived aggregates (counts, miss/accuracy/offload ratios, goodput) are
    exact; latency/queueing means are compensated sums (equal to the
    record-backed values within accumulation rounding, ~1 ulp); quantiles
    are exact within one histogram bin.  Accumulators from independent
    shards :meth:`merge` exactly (counts add, histograms add bin-wise).
    """

    def __init__(
        self,
        bin_s: float = 5e-4,
        max_s: float = 30.0,
        max_records: int = 0,
        seed: Union[int, None] = 0,
        windowed: Optional[WindowedMetrics] = None,
    ) -> None:
        if max_records < 0:
            raise SimulationError("max_records must be >= 0")
        self.bin_s = bin_s
        self.max_s = max_s
        self.max_records = max_records
        self.per_task: Dict[str, StreamingTaskStats] = {}
        self.reservoir: List[RequestRecord] = []
        self._seen = 0  # completions offered to the reservoir so far
        self._rng = derive(seed, "reservoir") if max_records > 0 else None
        #: optional tumbling-window SLO aggregator fed alongside the running
        #: sums (owned by the caller; not merged by :meth:`merge`)
        self.windowed = windowed

    # -- accumulation ---------------------------------------------------------

    def observe(
        self,
        task_name: str,
        req_ids: np.ndarray,
        arrival: np.ndarray,
        completion: np.ndarray,
        deadline: np.ndarray,
        positions: np.ndarray,
        offloaded: np.ndarray,
        correct: np.ndarray,
        dev_busy: np.ndarray,
        srv_busy: np.ndarray,
        net_busy: np.ndarray,
    ) -> None:
        """Fold one completed (already warmup-filtered) chunk of one task."""
        if arrival.size == 0:
            return
        if np.any(completion < arrival):
            bad = int(np.argmax(completion < arrival))
            raise SimulationError(
                f"request {task_name}#{int(req_ids[bad])} completes before it arrives"
            )
        latency = completion - arrival
        met = completion <= deadline + 1e-12  # matches RequestRecord.met_deadline
        queueing = np.maximum(0.0, latency - (dev_busy + srv_busy + net_busy))
        stats = self.per_task.get(task_name)
        if stats is None:
            stats = self.per_task[task_name] = StreamingTaskStats(self.bin_s, self.max_s)
        stats.observe(latency, met, correct, offloaded, positions, queueing)
        if self.windowed is not None:
            self.windowed.observe(task_name, completion, latency, met)
        if self._rng is not None:
            self._sample(
                task_name, req_ids, arrival, completion, deadline, positions,
                offloaded, correct, dev_busy, srv_busy, net_busy,
            )

    def _sample(self, task_name, req_ids, arrival, completion, deadline,
                positions, offloaded, correct, dev_busy, srv_busy, net_busy) -> None:
        """Algorithm-R reservoir over the accumulation order (seeded)."""

        def make(i: int) -> RequestRecord:
            return RequestRecord(
                task_name=task_name,
                req_id=int(req_ids[i]),
                arrival_s=float(arrival[i]),
                completion_s=float(completion[i]),
                deadline_s=float(deadline[i]),
                exit_position=int(positions[i]),
                offloaded=bool(offloaded[i]),
                correct=bool(correct[i]),
                dev_busy_s=float(dev_busy[i]),
                srv_busy_s=float(srv_busy[i]),
                net_busy_s=float(net_busy[i]),
            )

        k = self.max_records
        m = int(arrival.size)
        start = 0
        while len(self.reservoir) < k and start < m:
            self.reservoir.append(make(start))
            self._seen += 1
            start += 1
        if start >= m:
            return
        # vectorized accept test: item t (0-based overall) replaces a random
        # slot with probability k/(t+1)
        t = self._seen + np.arange(m - start, dtype=np.int64)
        slots = self._rng.integers(0, t + 1)
        for offset in np.flatnonzero(slots < k).tolist():
            self.reservoir[int(slots[offset])] = make(start + offset)
        self._seen += m - start

    # -- aggregates -----------------------------------------------------------

    @property
    def count(self) -> int:
        return sum(s.count for s in self.per_task.values())

    @property
    def met(self) -> int:
        return sum(s.met for s in self.per_task.values())

    @property
    def correct_count(self) -> int:
        return sum(s.correct for s in self.per_task.values())

    @property
    def latency_sum_s(self) -> float:
        total = KahanSum()
        for name in sorted(self.per_task):
            total.add(self.per_task[name].lat_sum.value)
        return total.value

    def quantile(self, q: float) -> float:
        """Global latency quantile from the bin-wise sum of task histograms."""
        merged = LatencyHistogram(self.bin_s, self.max_s)
        for stats in self.per_task.values():
            merged.merge(stats.hist)
        return merged.quantile(q)

    def merge(self, other: "StreamingStats") -> "StreamingStats":
        """Exact shard merge: counts/histograms add, reservoirs concatenate.

        The concatenated reservoir is a per-shard (not globally uniform)
        sample, truncated to ``max_records`` — it exists for debugging, not
        statistics.
        """
        if self.bin_s != other.bin_s or self.max_s != other.max_s:
            raise SimulationError("cannot merge streaming stats with different binning")
        for name, stats in other.per_task.items():
            mine = self.per_task.get(name)
            if mine is None:
                mine = self.per_task[name] = StreamingTaskStats(self.bin_s, self.max_s)
            mine.merge(stats)
        self.max_records = max(self.max_records, other.max_records)
        self.reservoir = (self.reservoir + other.reservoir)[: self.max_records]
        self._seen += other._seen
        return self


class MetricsCollector:
    """Accumulates :class:`RequestRecord` objects during a run."""

    def __init__(self, warmup_s: float = 0.0) -> None:
        if warmup_s < 0:
            raise SimulationError("warmup must be >= 0")
        self.warmup_s = warmup_s
        self.records: List[RequestRecord] = []
        self.discarded = 0

    def record(self, rec: RequestRecord) -> None:
        if rec.completion_s < rec.arrival_s:
            raise SimulationError(
                f"request {rec.task_name}#{rec.req_id} completes before it arrives"
            )
        if rec.arrival_s < self.warmup_s:
            self.discarded += 1
            return
        self.records.append(rec)

    def report(
        self,
        horizon_s: float,
        utilizations: Optional[Dict[str, float]] = None,
        timeline: Optional[Timeline] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> "SimulationReport":
        return SimulationReport.from_records(
            self.records, horizon_s, utilizations or {}, self.discarded,
            timeline=timeline, registry=registry,
        )


@dataclass
class SimulationReport:
    """Aggregated outcome of one simulation run.

    Comes in two flavors.  *Record-backed* reports carry every completed
    request in :attr:`records` and compute aggregates from cached columnar
    arrays.  *Streaming* reports (``stream`` is set) carry the bounded
    :class:`StreamingStats` accumulator instead; :attr:`records` then holds
    at most the reservoir sample, and aggregates dispatch to the
    accumulator's running sums and histograms.
    """

    horizon_s: float
    records: List[RequestRecord]
    per_task: Dict[str, TaskStats]
    utilizations: Dict[str, float] = field(default_factory=dict)
    discarded_warmup: int = 0
    #: per-request event timeline (telemetry runs only, else None)
    timeline: Optional[Timeline] = None
    #: sampled gauges + realized-work counters (telemetry runs only, else None)
    registry: Optional[MetricsRegistry] = None
    #: deterministic work counters (requests/records/events/replications);
    #: identical between the event-loop and fast paths by construction
    counters: SimCounters = field(default_factory=SimCounters)
    #: streaming accumulator (records-free runs only, else None)
    stream: Optional[StreamingStats] = None
    #: tumbling-window SLO aggregates (``SimulationConfig(windows=...)`` runs
    #: only, else None); feeds :func:`repro.telemetry.slo.evaluate_slos`
    windowed: Optional[WindowedMetrics] = None
    #: lazily built columnar arrays over ``records`` (latency/met/correct/…)
    _cache: Dict[str, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    @classmethod
    def from_records(
        cls,
        records: List[RequestRecord],
        horizon_s: float,
        utilizations: Dict[str, float],
        discarded: int = 0,
        timeline: Optional[Timeline] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> "SimulationReport":
        per_task: Dict[str, TaskStats] = {}
        by_task: Dict[str, List[RequestRecord]] = {}
        for r in records:
            by_task.setdefault(r.task_name, []).append(r)
        for name, recs in by_task.items():
            lat = np.array([r.latency_s for r in recs])
            per_task[name] = TaskStats(
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
        return cls(
            horizon_s=horizon_s,
            records=records,
            per_task=per_task,
            utilizations=utilizations,
            discarded_warmup=discarded,
            timeline=timeline,
            registry=registry,
        )

    @classmethod
    def from_stream(
        cls,
        stream: StreamingStats,
        horizon_s: float,
        utilizations: Dict[str, float],
        discarded: int = 0,
        timeline: Optional[Timeline] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> "SimulationReport":
        """Records-free report over a :class:`StreamingStats` accumulator.

        ``records`` holds only the (possibly empty) reservoir sample; every
        aggregate dispatches to the accumulator's running sums.
        """
        per_task = {
            name: stats.to_task_stats()
            for name, stats in sorted(stream.per_task.items())
            if stats.count
        }
        return cls(
            horizon_s=horizon_s,
            records=list(stream.reservoir),
            per_task=per_task,
            utilizations=utilizations,
            discarded_warmup=discarded,
            timeline=timeline,
            registry=registry,
            stream=stream,
        )

    # -- aggregates -----------------------------------------------------------

    @property
    def streaming(self) -> bool:
        """True when this report is records-free (streaming accumulator)."""
        return self.stream is not None

    @property
    def total_requests(self) -> int:
        if self.stream is not None:
            return self.stream.count
        return len(self.records)

    def _columns(self) -> Dict[str, np.ndarray]:
        """Columnar views over ``records``, built once and cached."""
        cols = self._cache.get("columns")
        if cols is None:
            n = len(self.records)
            lat = np.empty(n, dtype=np.float64)
            met = np.empty(n, dtype=bool)
            correct = np.empty(n, dtype=bool)
            for i, r in enumerate(self.records):
                lat[i] = r.latency_s
                met[i] = r.met_deadline
                correct[i] = r.correct
            cols = {"latency": lat, "met": met, "correct": correct}
            self._cache["columns"] = cols
        return cols

    def latencies(self) -> np.ndarray:
        """Per-request latency column (cached; record-backed reports only)."""
        if self.stream is not None:
            raise SimulationError(
                "streaming reports keep no per-request latencies; use "
                "mean_latency_s / percentile_latency_s or rerun with "
                "streaming=False"
            )
        return self._columns()["latency"]

    @property
    def mean_latency_s(self) -> float:
        if self.stream is not None:
            n = self.stream.count
            return self.stream.latency_sum_s / n if n else float("nan")
        lat = self.latencies()
        return float(lat.mean()) if lat.size else float("nan")

    def percentile_latency_s(self, q: float) -> float:
        if self.stream is not None:
            return self.stream.quantile(q)
        lat = self.latencies()
        return float(np.percentile(lat, q)) if lat.size else float("nan")

    @property
    def miss_rate(self) -> float:
        if self.stream is not None:
            n = self.stream.count
            return (n - self.stream.met) / n if n else float("nan")
        if not self.records:
            return float("nan")
        return float(np.mean(~self._columns()["met"]))

    @property
    def lost(self) -> int:
        """Requests that never completed (fault runs without/after policy)."""
        return self.counters.lost

    @property
    def shed(self) -> int:
        """Requests dropped at arrival by overload shedding."""
        return self.counters.shed

    @property
    def degraded_completions(self) -> int:
        """Requests completed locally at a fallback exit."""
        return self.counters.degraded_completions

    def goodput(self) -> float:
        """Deadline-met completions per second of horizon."""
        if self.stream is not None:
            return self.stream.met / self.horizon_s
        met = int(np.count_nonzero(self._columns()["met"]))
        return met / self.horizon_s

    @property
    def accuracy(self) -> float:
        if self.stream is not None:
            n = self.stream.count
            return self.stream.correct_count / n if n else float("nan")
        if not self.records:
            return float("nan")
        return float(np.mean(self._columns()["correct"]))

    def summary(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"simulated {self.total_requests} requests over {self.horizon_s:.1f}s "
            f"(+{self.discarded_warmup} warmup-discarded)",
            f"mean={self.mean_latency_s * 1e3:.2f}ms "
            f"p95={self.percentile_latency_s(95) * 1e3:.2f}ms "
            f"p99={self.percentile_latency_s(99) * 1e3:.2f}ms "
            f"miss={self.miss_rate * 100:.1f}% acc={self.accuracy:.3f}",
        ]
        for name in sorted(self.per_task):
            s = self.per_task[name]
            lines.append(
                f"  {name:>10s}: n={s.count:<6d} mean={s.mean_latency_s * 1e3:7.2f}ms "
                f"p99={s.p99_latency_s * 1e3:7.2f}ms miss={s.miss_rate * 100:5.1f}% "
                f"acc={s.accuracy:.3f} off={s.offload_fraction:.2f}"
            )
        return "\n".join(lines)


def merge_reports(reports: Sequence[SimulationReport]) -> SimulationReport:
    """Pool replication (or traffic-cell shard) reports into one aggregate.

    Record-backed reports concatenate records in replication order (the
    caller supplies reports indexed by replication, so serial and parallel
    fan-outs merge identically) and recompute per-task statistics over the
    pool; streaming reports merge their accumulators exactly (counts and
    histograms add bin-wise).  Mixing the two modes is an error.
    Utilizations are averaged per resource, counters merge
    order-independently via :meth:`SimCounters.merged`, and the merged
    counters are checked for request conservation — a failed merge must not
    silently drop requests.

    Edge cases: an empty sequence raises :class:`SimulationError`
    immediately (``from_records([])`` would otherwise yield a report whose
    aggregates are all NaN with no hint why); reports whose records are all
    empty merge into an explicit empty report that still carries the pooled
    utilizations, warmup-discard count, and counters.
    """
    if not reports:
        raise SimulationError(
            "merge_reports() needs at least one report; got an empty sequence"
        )
    if len(reports) == 1:
        return reports[0]
    horizon = reports[0].horizon_s
    if any(r.horizon_s != horizon for r in reports):
        raise SimulationError("cannot merge reports with different horizons")
    n_streaming = sum(1 for r in reports if r.stream is not None)
    if 0 < n_streaming < len(reports):
        raise SimulationError(
            "cannot merge streaming and record-backed reports: "
            f"{n_streaming} of {len(reports)} are streaming"
        )
    util_keys = list(reports[0].utilizations)
    utils = {
        k: float(np.mean([r.utilizations[k] for r in reports])) for k in util_keys
    }
    discarded = sum(r.discarded_warmup for r in reports)
    if n_streaming:
        first = reports[0].stream
        pooled = StreamingStats(first.bin_s, first.max_s, max_records=0)
        for r in reports:
            pooled.merge(r.stream)
        merged = SimulationReport.from_stream(pooled, horizon, utils, discarded)
    else:
        records: List[RequestRecord] = []
        for r in reports:
            records.extend(r.records)
        merged = SimulationReport.from_records(
            records, horizon, utils, discarded=discarded
        )
    n_windowed = sum(1 for r in reports if r.windowed is not None)
    if 0 < n_windowed < len(reports):
        raise SimulationError(
            "cannot merge windowed and window-free reports: "
            f"{n_windowed} of {len(reports)} carry windowed metrics"
        )
    if n_windowed:
        pooled_w = WindowedMetrics(reports[0].windowed.config, horizon)
        for r in reports:
            pooled_w.merge(r.windowed)
        merged.windowed = pooled_w
    merged.counters = SimCounters.merged(
        {i: r.counters for i, r in enumerate(reports)}
    )
    if not merged.counters.conserved():
        c = merged.counters
        raise SimulationError(
            "merged counters violate request conservation: "
            f"requests={c.requests} != records={c.records} + "
            f"discarded={c.discarded_warmup} + lost={c.lost} + shed={c.shed}"
        )
    return merged
