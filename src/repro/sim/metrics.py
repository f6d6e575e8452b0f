"""Metrics collection and simulation reports.

Record-backed reports hold every completed request in one columnar
:class:`~repro.sim.entities.RecordTable`: per-task :class:`TaskStats` and
the report aggregates are computed from its columns, with the float ops of
:class:`~repro.sim.entities.RequestRecord`'s properties done elementwise,
and no per-request object is built unless a caller indexes or iterates the
records.

With a :class:`~repro.telemetry.timeline.TimelineRecorder` passed to
:func:`~repro.sim.runner.simulate_plan` (``recorder=``), the report
additionally carries the per-request event :attr:`SimulationReport.timeline`
and the :attr:`SimulationReport.registry` of sampled queue-depth /
utilization gauges and realized-work counters — both ``None`` on ordinary
runs, so the default path allocates nothing extra.

Streaming runs (``SimulationConfig(streaming=True)``) keep no per-request
columns either; instead a :class:`StreamingStats` accumulator folds each
completed chunk into fixed-bin latency histograms and per-task running
sums, held as task-indexed columns with no per-task object, so memory is
O(window + in-flight requests) plus O(tasks) in columns and the filled
histogram cells, at millions of requests or thousands of tasks.  The resulting
:class:`SimulationReport` is *records-free*: scalar aggregates (mean
latency, miss rate, accuracy, goodput, counters) are exact, latency
quantiles are exact within one histogram bin, and ``records`` holds at most
``max_records`` reservoir-sampled requests kept for debugging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.errors import SimulationError
from repro.rng import derive
from repro.sim.entities import RecordTable, RequestRecord
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.timeline import Timeline
from repro.telemetry.windows import (
    HIST_BIN_S, HIST_MAX_S, MAX_CELL_KEY, KahanSum, LatencyHistogram, TaskColumns,
    WindowedMetrics, cell_quantiles, checked_range, kahan_fold,
)


@dataclass
class SimCounters:
    """Deterministic work counters of one (or several merged) simulation runs.

    Mirrors :class:`~repro.profiling.counters.PerfCounters` for the
    simulator: machine-independent counts that benchmarks and the perf gate
    can assert on.  ``events`` is the number of event-loop callbacks the run
    processed — the fast path reports the *equivalent* count
    (``2·non-offloaded + 5·offloaded`` requests), which is exactly what the
    event loop executes for the same workload, so the two paths stay
    comparable and reports stay equal.  A fault run adds one event per
    fault-window transition (each window's start, and its end unless
    permanent), though the resources apply them without the heap.
    """

    requests: int = 0
    records: int = 0
    discarded_warmup: int = 0
    events: int = 0
    replications: int = 0
    # -- failure accounting (all zero on fault-free runs) ---------------------
    #: fault-schedule events of the run (every window applies)
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


@dataclass(slots=True)
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


def lerp_percentiles(values: np.ndarray, qs: Sequence[float]) -> List[float]:
    """``np.percentile(values, q)`` for each of ``qs``, bit for bit, over a
    non-empty 1-D column.

    ``np.percentile``'s (default, linear) interpolation imports ``numpy.ma``
    through ``np.unique`` on first use; this is the same arithmetic without
    it: the same partition of a copy (signed zeros land where NumPy puts
    them), then NumPy's lerp rule, ``a + d·g``, or ``b - d·(1 - g)`` when
    ``g ≥ 0.5``.
    """
    n = values.size
    out = []
    for q in qs:
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile {q} outside [0, 100]")
        v = (n - 1) * (q / 100)
        # NumPy reads the maximum (index -1) from v = n - 1 on
        lo = -1 if v >= n - 1 else math.floor(v)
        hi = -1 if lo == -1 else lo + 1
        part = np.partition(values, sorted({0, -1, lo, hi}))
        if np.isnan(part[-1]):  # NaN sorts last and wins
            out.append(float(part[-1]))
            continue
        a, b, g = part[lo], part[hi], v - lo
        d = b - a
        out.append(float(b - d * (1 - g) if g >= 0.5 else a + d * g))
    return out


class StreamingStats(TaskColumns):
    """Columnar metrics accumulator for the chunked streaming sweep.

    Consumes completed requests chunk by chunk as NumPy columns — no
    per-request Python objects — and keeps, per task, running counts,
    compensated sums and maxima in task-indexed columns (one row per task,
    no per-task object), the non-zero cells of a fixed-bin latency
    histogram (:meth:`cells` keys are bins: bin ``k`` holds
    ``[k·bin_s, (k+1)·bin_s)``), and (optionally) a seeded reservoir sample
    of up to ``max_records`` :class:`RequestRecord` objects for debugging.
    Memory is O(tasks) in columns plus the filled histogram cells.

    Integer-derived aggregates (counts, miss/accuracy/offload ratios,
    goodput) are exact; latency/queueing means are compensated sums (equal
    to the record-backed values within accumulation rounding, ~1 ulp);
    quantiles are exact within one histogram bin.  Accumulators from
    independent shards :meth:`merge` exactly (counts add, histograms add
    bin-wise).
    """

    #: the task-indexed columns and the value a new row starts at
    _COLUMNS = (
        ("_count", 0), ("_met", 0), ("_correct", 0), ("_offloaded", 0),
        ("_exit_sum", 0), ("_overflow", 0),
        ("_lat_sum", 0.0), ("_lat_comp", 0.0), ("_queue_sum", 0.0),
        ("_queue_comp", 0.0), ("_max_latency", -np.inf),
    )

    def __init__(
        self,
        bin_s: float = HIST_BIN_S,
        max_s: float = HIST_MAX_S,
        max_records: int = 0,
        seed: Union[int, None] = 0,
        windowed: Optional[WindowedMetrics] = None,
    ) -> None:
        if max_records < 0:
            raise SimulationError("max_records must be >= 0")
        self.n_bins = LatencyHistogram(bin_s, max_s).n_bins  # validates the bins
        if self.n_bins > MAX_CELL_KEY:  # bins are the int32 cell keys
            raise SimulationError(
                f"{self.n_bins} histogram bins exceed {MAX_CELL_KEY}; coarsen bin_s"
            )
        self.bin_s = bin_s
        self.max_s = max_s
        self.max_records = max_records
        self._init_columns()
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
        _, hi = checked_range(latency)
        met = completion <= deadline + 1e-12  # matches RequestRecord.met_deadline
        queueing = np.maximum(0.0, latency - (dev_busy + srv_busy + net_busy))
        r = self._row(task_name)
        self._count[r] += latency.size
        self._met[r] += np.count_nonzero(met)
        self._correct[r] += np.count_nonzero(correct)
        self._offloaded[r] += np.count_nonzero(offloaded)
        self._exit_sum[r] += int(positions.sum())  # integer positions: the sum is exact
        kahan_fold(self._lat_sum, self._lat_comp, r, float(latency.sum()))
        kahan_fold(self._queue_sum, self._queue_comp, r, float(queueing.sum()))
        self._max_latency[r] = max(float(self._max_latency[r]), hi)
        idx = (latency / self.bin_s).astype(np.int64)
        over = idx >= self.n_bins
        self._overflow[r] += np.count_nonzero(over)
        inside = idx[~over]
        if inside.size:
            self._fold_cells(r, inside)
        if self.windowed is not None:
            self.windowed.observe(task_name, completion, latency, met)
        if self._rng is not None:
            self._sample(RecordTable(
                (task_name,), np.zeros(arrival.size, dtype=np.intp), req_ids, arrival,
                completion, deadline, positions, offloaded, correct, dev_busy,
                srv_busy, net_busy,
            ))

    def _sample(self, chunk: RecordTable) -> None:
        """Algorithm-R reservoir over the accumulation order (seeded)."""
        k = self.max_records
        m = len(chunk)
        start = 0
        while len(self.reservoir) < k and start < m:
            self.reservoir.append(chunk[start])
            self._seen += 1
            start += 1
        if start >= m:
            return
        # vectorized accept test: item t (0-based overall) replaces a random
        # slot with probability k/(t+1)
        t = self._seen + np.arange(m - start, dtype=np.int64)
        slots = self._rng.integers(0, t + 1)
        for offset in np.flatnonzero(slots < k).tolist():
            self.reservoir[int(slots[offset])] = chunk[start + offset]
        self._seen += m - start

    # -- aggregates -----------------------------------------------------------

    def task_stats(self, task_name: str) -> TaskStats:
        """``task_name``'s :class:`TaskStats`."""
        r = self._rows[task_name]
        n = int(self._count[r])  # every row holds at least one completion
        max_s = float(self._max_latency[r])
        p50, p95, p99 = cell_quantiles(
            self._keys[r], self._cells[r], int(self._overflow[r]), max_s, self.bin_s,
            (50, 95, 99),
        )
        return TaskStats(
            count=n,
            mean_latency_s=float(self._lat_sum[r] + self._lat_comp[r]) / n,
            p50_latency_s=p50,
            p95_latency_s=p95,
            p99_latency_s=p99,
            max_latency_s=max_s,
            miss_rate=(n - int(self._met[r])) / n,
            accuracy=int(self._correct[r]) / n,
            offload_fraction=int(self._offloaded[r]) / n,
            mean_exit_position=int(self._exit_sum[r]) / n,
            mean_queueing_s=float(self._queue_sum[r] + self._queue_comp[r]) / n,
        )

    @property
    def count(self) -> int:
        return int(self._count[: len(self._rows)].sum())

    @property
    def met(self) -> int:
        return int(self._met[: len(self._rows)].sum())

    @property
    def correct_count(self) -> int:
        return int(self._correct[: len(self._rows)].sum())

    @property
    def latency_sum_s(self) -> float:
        total = KahanSum()
        for name in self.tasks():
            r = self._rows[name]
            total.add(float(self._lat_sum[r] + self._lat_comp[r]))
        return total.value

    def quantile(self, q: float) -> float:
        """Global latency quantile from the bin-wise sum of task histograms."""
        n = len(self._rows)
        bins = np.concatenate([np.zeros(0, dtype=np.int64), *self._keys])
        order = np.argsort(bins, kind="stable")
        counts = np.concatenate([np.zeros(0, dtype=np.int64), *self._cells])[order]
        return cell_quantiles(
            bins[order], counts, int(self._overflow[:n].sum()),
            float(self._max_latency[:n].max(initial=-np.inf)), self.bin_s, (q,),
        )[0]

    def merge(self, other: "StreamingStats") -> "StreamingStats":
        """Exact shard merge: counts/histograms add, reservoirs concatenate.

        The concatenated reservoir is a per-shard (not globally uniform)
        sample, truncated to ``max_records`` — it exists for debugging, not
        statistics.
        """
        if self.bin_s != other.bin_s or self.max_s != other.max_s:
            raise SimulationError("cannot merge streaming stats with different binning")
        rows = self._merge_rows(other)
        m = rows.size
        kahan_fold(self._lat_sum, self._lat_comp, rows, other._lat_sum[:m] + other._lat_comp[:m])
        kahan_fold(
            self._queue_sum, self._queue_comp, rows, other._queue_sum[:m] + other._queue_comp[:m]
        )
        self._max_latency[rows] = np.maximum(self._max_latency[rows], other._max_latency[:m])
        self.max_records = max(self.max_records, other.max_records)
        self.reservoir = (self.reservoir + other.reservoir)[: self.max_records]
        self._seen += other._seen
        return self


@dataclass
class SimulationReport:
    """Aggregated outcome of one simulation run.

    Comes in two flavors.  *Record-backed* reports carry every completed
    request in the :class:`~repro.sim.entities.RecordTable` :attr:`records`
    and compute aggregates from its columns.  *Streaming* reports
    (``stream`` is set) carry the bounded :class:`StreamingStats`
    accumulator instead; :attr:`records` then holds
    at most the reservoir sample, and aggregates dispatch to the
    accumulator's running sums and histograms.
    """

    horizon_s: float
    records: RecordTable
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
    #: lazily computed columns of ``records`` (latency/met/correct)
    _cache: Dict[str, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    @classmethod
    def from_records(
        cls,
        records: Iterable[RequestRecord],
        horizon_s: float,
        utilizations: Dict[str, float],
        discarded: int = 0,
        timeline: Optional[Timeline] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> "SimulationReport":
        """Record-backed report; per-task statistics come from the table's
        columns, tasks in order of first appearance."""
        table = RecordTable.from_records(records)
        report = cls(
            horizon_s=horizon_s,
            records=table,
            per_task={},
            utilizations=utilizations,
            discarded_warmup=discarded,
            timeline=timeline,
            registry=registry,
        )
        cols = report._columns()
        lat, met, queueing = cols["latency"], cols["met"], table.queueing_s
        order = np.argsort(table.task, kind="stable")
        codes, first, counts = np.unique(table.task, return_index=True, return_counts=True)
        groups = np.split(order, np.cumsum(counts)[:-1])
        for k in np.argsort(first, kind="stable"):
            sel = groups[k]
            tl = lat[sel]
            p50, p95, p99 = lerp_percentiles(tl, (50, 95, 99))
            report.per_task[table.names[codes[k]]] = TaskStats(
                count=int(sel.size),
                mean_latency_s=float(tl.mean()),
                p50_latency_s=p50,
                p95_latency_s=p95,
                p99_latency_s=p99,
                max_latency_s=float(tl.max()),
                miss_rate=float(np.mean(~met[sel])),
                accuracy=float(np.mean(table.correct[sel])),
                offload_fraction=float(np.mean(table.offloaded[sel])),
                mean_exit_position=float(np.mean(table.exit_position[sel])),
                mean_queueing_s=float(np.mean(queueing[sel])),
            )
        return report

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
        per_task = {name: stream.task_stats(name) for name in stream.tasks()}
        return cls(
            horizon_s=horizon_s,
            records=RecordTable.from_records(stream.reservoir),
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
        """Latency, deadline-met and correctness columns of ``records``,
        computed once and cached."""
        cols = self._cache.get("columns")
        if cols is None:
            table = self.records
            cols = {
                "latency": table.latency_s,
                "met": table.met_deadline,
                "correct": table.correct,
            }
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
        return lerp_percentiles(lat, (q,))[0] if lat.size else float("nan")

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

    Record-backed reports concatenate record tables in replication order (the
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
        merged = SimulationReport.from_records(
            RecordTable.concat(r.records for r in reports), horizon, utils,
            discarded=discarded,
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
