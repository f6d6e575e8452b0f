"""Vectorized fast path for :func:`repro.sim.runner.simulate_plan`.

The event loop's work factors into (a) per-request stochastic realization —
arrival times, difficulties, exit positions, correctness draws, service
jitter — and (b) a device→uplink→server→downlink FIFO pipeline whose only
coupling is each resource's ``busy_until`` horizon.  Neither needs a heap:
(a) vectorizes completely (``RealizationTable`` + :mod:`repro.rng_vec`), and
(b) reduces to per-resource *sweeps* — one lean recurrence per resource over
submissions in the exact order the event loop would have made them.

:func:`sweep_pipeline` is the one sweep.  It realizes requests in arrival
windows of roughly ``cfg.chunk_size`` requests and sweeps every resource
window by window (the block comment above :class:`_StageBuffer` explains
why that is lossless), so any window size gives the same bits.  Within a
window it realizes one device group (the tasks sharing a device) at a
time and drops each task's rows once the task has advanced, so the live
rows follow the requests in flight rather than the whole window.  Completed
requests flow to one of two sinks: a streaming run folds them into its
:class:`~repro.sim.metrics.StreamingStats` accumulator as they complete;
every other run keeps them all and builds the :class:`RequestRecord` list
once, at the end.

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
any telemetry recorder forces the event loop, since gauges sample on event
boundaries the fast path does not visit.  Everything else — bandwidth
traces included (``LinkResource.sweep`` reuses the exact trace integration) —
is fast-path eligible.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.plan import JointPlan, SurgeryPlan, TaskSpec
from repro.errors import SimulationError
from repro.rng import derive, derive_material
from repro.rng_vec import first_uniforms
from repro.sim.entities import RequestRecord
from repro.sim.execution import RealizationTable, jitter_factors, jitter_materials
from repro.sim.metrics import SimCounters, StreamingStats
from repro.sim.queues import FifoResource, LinkResource
from repro.sim.sources import arrival_stream, arrival_times
from repro.telemetry.windows import WindowedMetrics

__all__ = ["sweep_pipeline"]


# -- windowed sweep ------------------------------------------------------------
#
# The sweep replays the exact per-resource recurrences of the event loop
# window by window instead of over one giant array.  Three facts make the
# windowing lossless:
#
# 1. Every stochastic column is chunkable: a record-backed run slices one
#    ``arrival_times`` array (the event loop's own draws) and a streaming
#    run draws from a replaying ``repro.sim.sources.ArrivalStream``;
#    difficulty draws are stream-sequential, and exec and jitter uniforms
#    are counter-based (addressed by request index), so realizing requests
#    window by window yields the same columns for any window size.
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

#: per-request columns of one row; all float64, so a batch of requests (and
#: every stage buffer) is one ``(n, len(_COLS))`` matrix
_COLS = (
    "req_id", "arrival", "deadline", "position", "offloaded", "correct",
    "dev_flops", "up_bytes", "srv_flops", "down_bytes",
    "dev_done", "up_done", "srv_done", "completion",
    "dev_busy", "net_busy", "srv_busy",
)
(
    _REQ, _ARR, _DEADLINE, _POS, _OFF, _CORRECT,
    _DEV_FLOPS, _UP_BYTES, _SRV_FLOPS, _DOWN_BYTES,
    _DEV_DONE, _UP_DONE, _SRV_DONE, _COMPLETION,
    _DEV_BUSY, _NET_BUSY, _SRV_BUSY,
) = range(len(_COLS))


#: records built per step at the end of a record-backed run (bounds the
#: transient Python lists)
_RECORD_BLOCK = 4096


def _no_rows() -> np.ndarray:
    return np.empty((0, len(_COLS)))


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
        self.rows = _no_rows()

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
        # an owned copy (or a fresh empty matrix), never a view: a view would
        # pin every flushed row of ``merged`` until the next flush
        self.rows = merged[split:].copy() if split < merged.shape[0] else _no_rows()
        return merged[:split]


class _Replay:
    """Window-by-window view of a precomputed arrival array."""

    __slots__ = ("times", "taken")

    def __init__(self, times: np.ndarray) -> None:
        self.times = times
        self.taken = 0

    def take_until(self, t_end: float) -> np.ndarray:
        end = int(np.searchsorted(self.times, t_end, side="left"))
        out = self.times[self.taken : end]
        self.taken = end
        return out


class _TaskStream:
    """Incremental realization of one task's request stream.

    Arrivals come from :func:`arrival_times` (record-backed runs) or
    :func:`arrival_stream` (streaming runs), difficulties from one derived
    generator (stream-sequential draws), and exec and jitter uniforms from
    counter-based :func:`first_uniforms` streams addressed by request index
    — so the realized columns do not depend on how the horizon is cut into
    windows.  Each task owns the three offload-stage buffers; tasks with the
    same model and surgery plan share one read-only :class:`RealizationTable`
    through ``tables``.
    """

    __slots__ = (
        "task", "table", "arrivals", "diff_rng", "exec_material", "sigma",
        "jitter", "generated", "offloaded_total", "up_buf", "srv_buf", "down_buf",
    )

    def __init__(
        self,
        task: TaskSpec,
        plan: JointPlan,
        cfg,
        tables: Dict[Tuple[int, SurgeryPlan], RealizationTable],
    ) -> None:
        self.task = task
        surgery = plan.features[task.name].plan
        key = (id(task.model), surgery)
        if key not in tables:
            tables[key] = RealizationTable(task.model, surgery)
        self.table = tables[key]
        process = (
            task.arrival_rate,
            cfg.horizon_s,
            cfg.arrival,
            cfg.burst_factor,
            derive(cfg.seed, "arrivals", task.name),
        )
        # record-backed runs replay the event loop's own arrival array; a
        # Poisson stream sums its gaps block by block, which rounds
        # arrivals past its first block differently
        self.arrivals = (
            arrival_stream(*process) if cfg.streaming
            else _Replay(arrival_times(*process))
        )
        self.diff_rng = derive(cfg.seed, "difficulty", task.name)
        self.exec_material = derive_material(cfg.seed, "exec", task.name)
        self.sigma = cfg.service_noise
        # per-(task, stage) jitter streams: the same factors the event loop
        # applies per request via jitter_demand
        self.jitter: List[Tuple[int, List[int]]] = []
        if self.sigma > 0:
            mats = jitter_materials(cfg.seed, task.name)
            self.jitter = [
                (_DEV_FLOPS, mats["dev"]), (_SRV_FLOPS, mats["srv"]),
                (_UP_BYTES, mats["up"]), (_DOWN_BYTES, mats["down"]),
            ]
        self.generated = 0
        self.offloaded_total = 0
        self.up_buf = _StageBuffer(_DEV_DONE)
        self.srv_buf = _StageBuffer(_UP_DONE)
        self.down_buf = _StageBuffer(_SRV_DONE)

    def realize(self, t_end: float) -> np.ndarray:
        """Rows of the requests arriving in the current window."""
        arrival = self.arrivals.take_until(t_end)
        m = arrival.size
        table = self.table
        difficulties = np.clip(
            self.task.model.difficulty.sample(self.diff_rng, m), 0.0, 1.0
        )
        pos = table.positions(difficulties)
        req_id = np.arange(self.generated, self.generated + m, dtype=np.int64)
        uniforms = first_uniforms(self.exec_material, req_id)
        self.generated += m
        offloaded = table.offloaded[pos]
        self.offloaded_total += int(np.count_nonzero(offloaded))

        rows = np.zeros((m, len(_COLS)))
        rows[:, _REQ] = req_id
        rows[:, _ARR] = arrival
        rows[:, _DEADLINE] = arrival + self.task.deadline_s
        rows[:, _POS] = pos
        rows[:, _OFF] = offloaded
        rows[:, _CORRECT] = uniforms < table.p_correct(pos, difficulties)
        rows[:, _DEV_FLOPS] = table.dev_flops[pos]
        rows[:, _UP_BYTES] = table.up_bytes[pos]
        rows[:, _SRV_FLOPS] = table.srv_flops[pos]
        rows[:, _DOWN_BYTES] = table.down_bytes[pos]
        for col, material in self.jitter:
            rows[:, col] *= jitter_factors(material, req_id, self.sigma)
        return rows


def _sweep_device(device: FifoResource, members: Sequence[np.ndarray]) -> None:
    """Run one shared device resource over its tasks' merged arrivals.

    The event loop submits device work while arrival events fire, i.e. in
    ``(arrival time, global scheduling index)`` order; concatenating the
    device's batches in task order *is* global-index order, so a stable
    argsort by arrival reproduces it exactly.  Fills the device-finish,
    device-busy and (provisional) completion columns in place.
    """
    arrival = np.concatenate([rows[:, _ARR] for rows in members])
    if arrival.size == 0:
        return
    work = np.concatenate([rows[:, _DEV_FLOPS] for rows in members])
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
        rows[:, _DEV_DONE] = done
        rows[:, _COMPLETION] = done
        rows[:, _DEV_BUSY] = done - all_starts[off : off + n]
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
    off = rows[:, _OFF] > 0
    if not off.all():
        sink.observe(index, rows[~off])

    # each stage's input goes as soon as its flush exists (the caller hands
    # ``rows`` over without keeping a reference), so at most about two
    # copies of the task's offloaded rows are live at a time
    batch = s.up_buf.push_flush(rows[off], threshold)
    del rows
    if batch.shape[0]:
        start, deliver = task_uplink_res[name].sweep(
            batch[:, _DEV_DONE], batch[:, _UP_BYTES]
        )
        batch[:, _UP_DONE] = deliver
        batch[:, _NET_BUSY] = deliver - start

    batch = s.srv_buf.push_flush(batch, threshold)
    if batch.shape[0]:
        start, done = task_server_res[name].sweep(batch[:, _UP_DONE], batch[:, _SRV_FLOPS])
        batch[:, _SRV_DONE] = done
        batch[:, _SRV_BUSY] = done - start

    batch = s.down_buf.push_flush(batch, threshold)
    if batch.shape[0]:
        start, deliver = task_downlink_res[name].sweep(
            batch[:, _SRV_DONE], batch[:, _DOWN_BYTES]
        )
        batch[:, _COMPLETION] = deliver
        batch[:, _NET_BUSY] += deliver - start
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
        keep = rows[:, _ARR] >= self.warmup_s
        kept = rows if keep.all() else rows[keep]
        self.discarded += rows.shape[0] - kept.shape[0]
        if kept.shape[0]:
            self.stats.observe(
                self.names[index],
                kept[:, _REQ].astype(np.int64),
                kept[:, _ARR],
                kept[:, _COMPLETION],
                kept[:, _DEADLINE],
                kept[:, _POS].astype(np.int64),
                kept[:, _OFF] > 0,
                kept[:, _CORRECT] > 0,
                kept[:, _DEV_BUSY],
                kept[:, _SRV_BUSY],
                kept[:, _NET_BUSY],
            )


class _RecordSink:
    """Keeps every completion; builds the records once, in event-loop order."""

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
    ) -> List[RequestRecord]:
        if not self.parts:
            return []
        rows = np.concatenate([r for _, r in self.parts])
        task = np.concatenate(
            [np.full(r.shape[0], i, dtype=np.intp) for i, r in self.parts]
        )
        self.parts = []
        late = rows[:, _COMPLETION] < rows[:, _ARR]
        if np.any(late):  # pragma: no cover - structural invariant
            bad = int(np.argmax(late))
            raise SimulationError(
                f"request {names[task[bad]]}#{int(rows[bad, _REQ])} "
                "completes before it arrives"
            )
        keep = rows[:, _ARR] >= warmup_s
        rows, task = rows[keep], task[keep]
        if windowed is not None:
            # each task's completions in request order: the same float
            # accumulation order as one whole-horizon batch per task
            by_req = np.lexsort((rows[:, _REQ], task))
            bounds = np.searchsorted(task[by_req], np.arange(len(names) + 1))
            for i, name in enumerate(names):
                sel = by_req[bounds[i] : bounds[i + 1]]
                comp = rows[sel, _COMPLETION]
                windowed.observe(
                    name,
                    comp,
                    comp - rows[sel, _ARR],
                    comp <= rows[sel, _DEADLINE] + 1e-12,
                )
        order = _record_order(rows, task)
        # the record fields as columns in record order, so the rows can go
        # before the records are built
        fields = [
            np.array(names, dtype=object)[task[order]],
            rows[order, _REQ].astype(np.int64),
            rows[order, _ARR],
            rows[order, _COMPLETION],
            rows[order, _DEADLINE],
            rows[order, _POS].astype(np.int64),
            rows[order, _OFF] > 0,
            rows[order, _CORRECT] > 0,
            rows[order, _DEV_BUSY],
            rows[order, _SRV_BUSY],
            rows[order, _NET_BUSY],
        ]
        del rows, task
        records: List[RequestRecord] = []
        for lo in range(0, order.size, _RECORD_BLOCK):
            records.extend(
                map(RequestRecord, *(f[lo : lo + _RECORD_BLOCK].tolist() for f in fields))
            )
        return records


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
    off = rows[:, _OFF] > 0
    arrival = rows[:, _ARR]
    return np.lexsort((
        rows[:, _REQ],
        task,
        np.where(off, arrival, neg_inf),
        np.where(off, rows[:, _DEV_DONE], neg_inf),
        np.where(off, rows[:, _UP_DONE], neg_inf),
        np.where(off, rows[:, _SRV_DONE], arrival),
        rows[:, _COMPLETION],
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
) -> Tuple[List[RequestRecord], int, SimCounters]:
    """Vectorized equivalent of the event loop over already-built resources.

    Realizes arrivals in windows of roughly ``cfg.chunk_size`` requests and
    sweeps each resource window by window (bit-identical recurrences — see
    the block comment above), mutating the resources exactly as the event
    loop would (busy horizons, busy time, job counts).  Returns
    ``(records, discarded, counters)``.

    With ``stats``, warmup-filtered completions fold into the accumulator
    as they complete (which feeds its own ``stats.windowed``) and
    ``records`` is empty; memory stays O(window + in-flight requests).
    Otherwise ``records`` holds every warmup-filtered completion in the
    event loop's completion order, and ``windowed``, if given, receives
    them per task in request order — integer state bit-identical to the
    event loop's scalar feed (window/bin indices use the same double ops).
    """
    tables: Dict[Tuple[int, SurgeryPlan], RealizationTable] = {}
    streams = [_TaskStream(t, plan, cfg, tables) for t in tasks]
    names = [t.name for t in tasks]
    sink = _RecordSink() if stats is None else _StreamingSink(stats, names, cfg.warmup_s)
    total_rate = sum(t.arrival_rate for t in tasks)
    window_s = max(cfg.chunk_size / total_rate, 1e-9) if total_rate > 0 else cfg.horizon_s
    # each task's device group: every task sharing its device, in task order
    groups: Dict[str, List[int]] = {}
    for i, task in enumerate(tasks):
        groups.setdefault(task.device_name, []).append(i)

    t = 0.0
    last = False
    while not last:
        t1 = t + window_s
        last = t1 >= cfg.horizon_s
        t_end = min(t1, cfg.horizon_s)
        threshold = np.inf if last else t1
        # realized rows of group members whose turn has not come yet
        parked: Dict[int, np.ndarray] = {}
        for i, s in enumerate(streams):
            if i not in parked:  # the first member of its group in this window
                members = groups[s.task.device_name]
                batch = [streams[j].realize(t_end) for j in members]
                _sweep_device(device_res[s.task.device_name], batch)
                parked.update(zip(members, batch))
                del batch
            _advance_task_window(
                s, i, parked.pop(i), threshold, sink,
                task_server_res, task_uplink_res, task_downlink_res,
            )
        t = t1

    total = sum(s.generated for s in streams)
    if total == 0 and not cfg.allow_empty:
        raise SimulationError("no requests generated; horizon or rates too small")
    n_off = sum(s.offloaded_total for s in streams)
    if stats is None:
        records = sink.records(names, cfg.warmup_s, windowed)
        discarded = total - len(records)
    else:
        records, discarded = [], sink.discarded
    counters = SimCounters(
        requests=total,
        records=total - discarded,
        discarded_warmup=discarded,
        events=2 * (total - n_off) + 5 * n_off,
        replications=1,
    )
    return records, discarded, counters
