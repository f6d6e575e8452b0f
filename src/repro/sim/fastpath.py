"""Vectorized fast path for :func:`repro.sim.runner.simulate_plan`.

The event loop's work factors into (a) per-request stochastic realization —
arrival times, difficulties, exit positions, correctness draws, service
jitter — and (b) a device→uplink→server→downlink FIFO pipeline whose only
coupling is each resource's ``busy_until`` horizon.  Neither needs a heap:
(a) is one realizer for both engines (:class:`~repro.sim.execution.
TaskRealizer`, whose rows the event loop replays request by request), and
(b) reduces to per-resource *sweeps* — one lean recurrence per resource over
submissions in the exact order the event loop would have made them.

:func:`sweep_pipeline` is the one sweep.  It realizes requests in arrival
windows of roughly ``cfg.chunk_size`` requests and sweeps every resource
window by window (the block comment above :class:`_StageBuffer` explains
why that is lossless), so any window size gives the same bits.  Within a
window it realizes one device group (the tasks sharing a device) at a
time and drops each task's rows once the task has advanced, so the live
rows follow the requests in flight rather than the whole window.  A task's
stream (realizer, generators, stage buffers) is built when its group is
first realized and released right after its last window, so a one-window
run holds one device group's streams at a time.  Completed requests flow
to one of two sinks: a streaming run folds them into its
:class:`~repro.sim.metrics.StreamingStats` accumulator as they complete;
every other run keeps them all and builds the
:class:`~repro.sim.entities.RecordTable` once, at the end, with the event
loop's builder (:func:`~repro.sim.execution.record_fields`).  A streaming
run's memory is therefore O(window + in-flight requests) plus O(tasks) in
the accumulators' task-indexed columns.

With tracing on, each realization window is a ``sim.window`` span whose
``requests`` and ``live_streams`` attributes count the requests it realized
and the most task streams alive at once.

Reproducing the event loop **bit for bit** pins two orderings:

- *submission order* per resource: the shared device resource receives
  requests in ``(arrival, global-index)`` order; each per-task stage resource
  receives its task's offloaded requests in the stable sort of the previous
  stage's completion times over the previous stage's processing order (each
  stage event is scheduled while its predecessor fires, so heap sequence
  numbers inherit the predecessor's order);
- *record order*: completion callbacks interleave globally by
  ``(completion time, heap sequence)``, where the sequence comparison
  recurses through each request's scheduling chain.  That collapses to a
  lexicographic key — offloaded: ``(completion, server_done,
  uplink_delivery, device_done, arrival, task, req_id)``; non-offloaded:
  ``(completion, arrival, -inf, -inf, -inf, task, req_id)`` (the ``-inf``
  padding encodes that arrival events always beat same-time dynamic events,
  since all arrivals are scheduled before the run starts and hold the lowest
  sequence numbers — task by task, in request order, which is what the
  trailing ``(task, req_id)`` tie-break spells out).

Eligibility is decided by the caller (:func:`~repro.sim.runner.simulate_plan`):
a fault schedule (the empty one included) or a telemetry recorder selects
the event loop, since faults interrupt service and gauges sample on event
boundaries the fast path does not visit.  Everything else — bandwidth
traces included (``LinkResource.sweep`` reuses the exact trace integration) —
takes the sweep.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.plan import JointPlan, SurgeryPlan, TaskSpec
from repro.errors import SimulationError
from repro.sim.entities import RecordTable
from repro.sim.execution import (
    ARR, COLS, COMPLETION, CORRECT, DEADLINE, DEV_BUSY, DEV_DONE, DEV_FLOPS,
    DOWN_BYTES, NET_BUSY, OFF, POS, REQ, SRV_BUSY, SRV_DONE, SRV_FLOPS, UP_BYTES,
    UP_DONE, RealizationTable, TaskRealizer, build_records, record_fields,
    shared_table,
)
from repro.sim.metrics import SimCounters, StreamingStats
from repro.sim.queues import FifoResource, LinkResource
from repro.telemetry.trace import get_tracer
from repro.telemetry.windows import WindowedMetrics

__all__ = ["sweep_pipeline"]


# -- windowed sweep ------------------------------------------------------------
#
# The sweep replays the exact per-resource recurrences of the event loop
# window by window instead of over one giant array.  Three facts make the
# windowing lossless:
#
# 1. Every stochastic column is chunkable: arrivals come from a
#    ``repro.sim.sources.PoissonStream`` and difficulty draws are
#    stream-sequential, and exec and jitter uniforms are counter-based
#    (addressed by request index), so realizing requests window by window
#    yields the same columns for any window size.
# 2. Device submissions are ordered by ``(arrival, task order)``, and window
#    boundaries split by arrival — every submission of window *k* precedes
#    every submission of window *k+1*, so per-window sweeps see the global
#    submission order.
# 3. Offload-stage submissions are ordered by the *previous* stage's finish
#    times, which do not respect window boundaries; each stage therefore
#    buffers pending submissions and only flushes entries whose stage key is
#    strictly below the window edge ``t1``.  That is safe because any
#    request realized in a later window has all stage timestamps ≥ its
#    arrival ≥ ``t1``; within the flush, a stable argsort over
#    ``[sorted carry-over ‖ new batch in request order]`` reproduces the
#    global stable submission order (carry-over entries hold smaller request
#    ids than any new entry, so ties resolve identically).
#
# Each resource's ``sweep`` carries its busy horizon and busy-time
# accumulator across calls with sequential-scalar semantics, so splitting
# one sweep into many changes no bits.  Inside a window, tasks are walked
# in task order; at the turn of a device group's first task the whole group
# is realized and swept through its device, and the other members' rows
# wait until their turn.  Per-task random streams are independent, so the
# realization order changes no column, and the sink receives its
# ``observe`` calls task by task in task order for any device layout.
#
# Completions leave the pipeline at window boundaries, not in the event
# loop's order; the record sink restores that order once, with one lexsort
# over the record-order key (module docstring), which is why every stage row
# carries its device-finish and uplink-delivery times.


#: the rows of an empty stage buffer: one shared, read-only matrix
_NO_ROWS = np.empty((0, len(COLS)))
_NO_ROWS.flags.writeable = False


class _StageBuffer:
    """Pending submissions of one pipeline stage, in submission order.

    Rows are keyed by column ``key`` — the previous stage's finish time,
    i.e. this stage's submission time.  :meth:`push_flush` appends a batch
    in request order, restores global submission order with a stable
    argsort, and splits off every row with ``key < threshold``.  A FIFO
    predecessor finishes a task's requests in request order, so without a
    carry-over the batch is usually in key order already; the sort (an
    identity permutation then) and its copy are skipped.
    """

    __slots__ = ("key", "rows")

    def __init__(self, key: int) -> None:
        self.key = key
        self.rows = _NO_ROWS

    def push_flush(self, batch: np.ndarray, threshold: float) -> np.ndarray:
        if not batch.shape[0]:
            merged = self.rows  # the carry-over is already sorted
        else:
            if self.rows.shape[0]:
                batch = np.concatenate([self.rows, batch])
            key = batch[:, self.key]
            if np.all(key[1:] >= key[:-1]):
                merged = batch
            else:
                merged = batch[np.argsort(key, kind="stable")]
        split = int(np.searchsorted(merged[:, self.key], threshold, side="left"))
        # an owned copy (or the shared empty matrix), never a view: a view
        # would pin every flushed row of ``merged`` until the next flush
        self.rows = merged[split:].copy() if split < merged.shape[0] else _NO_ROWS
        return merged[:split]


class _TaskStream:
    """One task in the sweep: its realizer, its plan's shared read-only
    :class:`RealizationTable` and its three offload-stage buffers.  Its
    generators are derived from the seed and the task's name, so building
    it late changes no draw."""

    __slots__ = (
        "task", "table", "realizer", "offloaded_total", "up_buf", "srv_buf", "down_buf",
    )

    def __init__(
        self,
        task: TaskSpec,
        plan: JointPlan,
        cfg,
        tables: Dict[Tuple[int, SurgeryPlan], RealizationTable],
    ) -> None:
        self.task = task
        self.table = shared_table(tables, task.model, plan.features[task.name].plan)
        self.realizer = TaskRealizer(task, cfg)
        self.offloaded_total = 0
        self.up_buf = _StageBuffer(DEV_DONE)
        self.srv_buf = _StageBuffer(UP_DONE)
        self.down_buf = _StageBuffer(SRV_DONE)

    def realize(self, t_end: float) -> np.ndarray:
        """Rows of the requests arriving in the current window."""
        rows = self.realizer.realize(self.table, t_end)
        self.offloaded_total += int(np.count_nonzero(rows[:, OFF]))
        return rows


def _sweep_device(device: FifoResource, members: Sequence[np.ndarray]) -> None:
    """Run one shared device resource over its tasks' merged arrivals.

    The event loop submits device work while arrival events fire, i.e. in
    ``(arrival time, global scheduling index)`` order; concatenating the
    device's batches in task order *is* global-index order, so a stable
    argsort by arrival reproduces it exactly.  Fills the device-finish,
    device-busy and (provisional) completion columns in place.
    """
    arrival = np.concatenate([rows[:, ARR] for rows in members])
    if arrival.size == 0:
        return
    work = np.concatenate([rows[:, DEV_FLOPS] for rows in members])
    order = np.argsort(arrival, kind="stable")
    starts, finishes = device.sweep(arrival[order], work[order])
    all_starts = np.empty_like(arrival)
    all_done = np.empty_like(arrival)
    all_starts[order] = starts
    all_done[order] = finishes
    off = 0
    for rows in members:
        n = rows.shape[0]
        done = all_done[off : off + n]
        rows[:, DEV_DONE] = done
        rows[:, COMPLETION] = done
        rows[:, DEV_BUSY] = done - all_starts[off : off + n]
        off += n


def _advance_task_window(
    s: _TaskStream,
    index: int,
    rows: np.ndarray,
    threshold: float,
    sink,
    task_server_res: Dict[str, FifoResource],
    task_uplink_res: Dict[str, LinkResource],
    task_downlink_res: Dict[str, LinkResource],
) -> None:
    """Advance one task through uplink → server → downlink for one window.

    Locally-completed requests go to ``sink`` immediately; offloaded ones
    enter the stage buffers and are flushed stage by stage up to
    ``threshold`` (the window edge, or ``inf`` on the final drain).
    """
    name = s.task.name
    off = rows[:, OFF] > 0
    if not off.all():
        sink.observe(index, rows[~off])

    # each stage's input goes as soon as its flush exists (the caller hands
    # ``rows`` over without keeping a reference), so at most about two
    # copies of the task's offloaded rows are live at a time
    batch = s.up_buf.push_flush(rows[off], threshold)
    del rows
    if batch.shape[0]:
        start, deliver = task_uplink_res[name].sweep(
            batch[:, DEV_DONE], batch[:, UP_BYTES]
        )
        batch[:, UP_DONE] = deliver
        batch[:, NET_BUSY] = deliver - start

    batch = s.srv_buf.push_flush(batch, threshold)
    if batch.shape[0]:
        start, done = task_server_res[name].sweep(batch[:, UP_DONE], batch[:, SRV_FLOPS])
        batch[:, SRV_DONE] = done
        batch[:, SRV_BUSY] = done - start

    batch = s.down_buf.push_flush(batch, threshold)
    if batch.shape[0]:
        start, deliver = task_downlink_res[name].sweep(
            batch[:, SRV_DONE], batch[:, DOWN_BYTES]
        )
        batch[:, COMPLETION] = deliver
        batch[:, NET_BUSY] += deliver - start
        sink.observe(index, batch)


class _StreamingSink:
    """Folds warmup-filtered completions into a :class:`StreamingStats`."""

    __slots__ = ("stats", "names", "warmup_s", "discarded")

    def __init__(self, stats: StreamingStats, names: List[str], warmup_s: float) -> None:
        self.stats = stats
        self.names = names
        self.warmup_s = warmup_s
        self.discarded = 0

    def observe(self, index: int, rows: np.ndarray) -> None:
        keep = rows[:, ARR] >= self.warmup_s
        kept = rows if keep.all() else rows[keep]
        self.discarded += rows.shape[0] - kept.shape[0]
        if kept.shape[0]:
            self.stats.observe(
                self.names[index],
                kept[:, REQ].astype(np.int64),
                kept[:, ARR],
                kept[:, COMPLETION],
                kept[:, DEADLINE],
                kept[:, POS].astype(np.int64),
                kept[:, OFF] > 0,
                kept[:, CORRECT] > 0,
                kept[:, DEV_BUSY],
                kept[:, SRV_BUSY],
                kept[:, NET_BUSY],
            )


class _RecordSink:
    """Keeps every completion; builds the record table once, in event-loop
    order."""

    __slots__ = ("parts",)

    def __init__(self) -> None:
        self.parts: List[Tuple[int, np.ndarray]] = []

    def observe(self, index: int, rows: np.ndarray) -> None:
        self.parts.append((index, rows))

    def records(
        self,
        names: List[str],
        warmup_s: float,
        windowed: Optional[WindowedMetrics],
    ) -> RecordTable:
        n = sum(r.shape[0] for _, r in self.parts)
        rows = np.empty((n, len(COLS)))
        task = np.empty(n, dtype=np.intp)
        # each part goes as soon as it is copied, so the parts and the whole
        # matrix are never both live
        self.parts.reverse()
        lo = 0
        while self.parts:
            index, part = self.parts.pop()
            hi = lo + part.shape[0]
            rows[lo:hi] = part
            task[lo:hi] = index
            lo = hi
        fields = record_fields(rows, task, names, warmup_s, windowed, order=_record_order)
        del rows, task
        return build_records(fields)


def _record_order(rows: np.ndarray, task: np.ndarray) -> np.ndarray:
    """Global completion-callback order of the event loop.

    Ties in completion time resolve by heap sequence number, which recurses
    through each request's scheduling chain (finish ← downlink ← server ←
    uplink ← arrival for offloaded; finish ← arrival for non-offloaded).
    ``-inf`` in the offload-only key slots encodes that an arrival event
    outranks any same-time dynamic event; remaining full ties fall back to
    the global scheduling index ``(task, req_id)``.
    """
    neg_inf = np.float64(-np.inf)
    off = rows[:, OFF] > 0
    arrival = rows[:, ARR]
    return np.lexsort((
        rows[:, REQ],
        task,
        np.where(off, arrival, neg_inf),
        np.where(off, rows[:, DEV_DONE], neg_inf),
        np.where(off, rows[:, UP_DONE], neg_inf),
        np.where(off, rows[:, SRV_DONE], arrival),
        rows[:, COMPLETION],
    ))


def sweep_pipeline(
    tasks: Sequence[TaskSpec],
    plan: JointPlan,
    cfg,
    device_res: Dict[str, FifoResource],
    task_server_res: Dict[str, FifoResource],
    task_uplink_res: Dict[str, LinkResource],
    task_downlink_res: Dict[str, LinkResource],
    stats: Optional[StreamingStats] = None,
    windowed: Optional[WindowedMetrics] = None,
) -> Tuple[Optional[RecordTable], int, SimCounters]:
    """Vectorized equivalent of the event loop over already-built resources.

    Realizes arrivals in windows of roughly ``cfg.chunk_size`` requests and
    sweeps each resource window by window (bit-identical recurrences — see
    the block comment above), mutating the resources exactly as the event
    loop would (busy horizons, busy time, job counts).  Returns
    ``(records, discarded, counters)``.

    With ``stats``, warmup-filtered completions fold into the accumulator
    as they complete (which feeds its own ``stats.windowed``) and
    ``records`` is None; memory stays O(window + in-flight requests) plus
    O(tasks) in the accumulators' columns.
    Otherwise ``records`` holds every warmup-filtered completion in the
    event loop's completion order, and ``windowed``, if given, receives
    them per task in request order, through the builder the event loop
    uses too.
    """
    tables: Dict[Tuple[int, SurgeryPlan], RealizationTable] = {}
    names = [t.name for t in tasks]
    sink = _RecordSink() if stats is None else _StreamingSink(stats, names, cfg.warmup_s)
    total_rate = sum(t.arrival_rate for t in tasks)
    window_s = max(cfg.chunk_size / total_rate, 1e-9) if total_rate > 0 else cfg.horizon_s
    # each task's device group: every task sharing its device, in task order
    groups: Dict[str, List[int]] = {}
    for i, task in enumerate(tasks):
        groups.setdefault(task.device_name, []).append(i)

    # live task streams: built when their group is first realized, released
    # once their last window is swept
    streams: Dict[int, _TaskStream] = {}

    def stream(j: int) -> _TaskStream:
        s = streams.get(j)
        if s is None:
            s = streams[j] = _TaskStream(tasks[j], plan, cfg, tables)
        return s

    total = n_off = 0
    tracer = get_tracer()
    t = 0.0
    last = False
    while not last:
        t1 = t + window_s
        last = t1 >= cfg.horizon_s
        t_end = min(t1, cfg.horizon_s)
        threshold = np.inf if last else t1
        with tracer.span("sim.window") as span:
            realized = live = 0
            # realized rows of group members whose turn has not come yet
            parked: Dict[int, np.ndarray] = {}
            for i, task in enumerate(tasks):
                if i not in parked:  # the first member of its group in this window
                    members = groups[task.device_name]
                    batch = [stream(j).realize(t_end) for j in members]
                    realized += sum(rows.shape[0] for rows in batch)
                    live = max(live, len(streams))
                    _sweep_device(device_res[task.device_name], batch)
                    parked.update(zip(members, batch))
                    del batch
                _advance_task_window(
                    streams[i], i, parked.pop(i), threshold, sink,
                    task_server_res, task_uplink_res, task_downlink_res,
                )
                if last:
                    done = streams.pop(i)
                    total += done.realizer.generated
                    n_off += done.offloaded_total
            span.set("requests", realized)
            span.set("live_streams", live)
        t = t1

    if total == 0 and not cfg.allow_empty:
        raise SimulationError("no requests generated; horizon or rates too small")
    if stats is None:
        records = sink.records(names, cfg.warmup_s, windowed)
        discarded = total - len(records)
    else:
        records, discarded = None, sink.discarded
    counters = SimCounters(
        requests=total,
        records=total - discarded,
        discarded_warmup=discarded,
        events=2 * (total - n_off) + 5 * n_off,
        replications=1,
    )
    return records, discarded, counters
