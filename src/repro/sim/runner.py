"""End-to-end simulation of a solved :class:`~repro.core.plan.JointPlan`.

Resource model (mirrors the optimizer's allocation semantics so predicted
and measured latencies are comparable):

- each **end device** is one FIFO compute resource shared by all its tasks;
- each **offloading task** owns a dedicated slice of its server — a FIFO
  resource at ``share × server_rate`` (processor-sharing realized as static
  partitioning, which is what the allocator grants) — and a dedicated slice
  of its access link used for both directions;
- a request flows device-compute → uplink → server-compute → downlink, with
  any stage of zero demand skipped.

Arrivals are Poisson at each task's rate and links serve at fixed rates,
the assumptions of the optimizer's M/G/1 terms; per-request difficulties
come from each model's difficulty distribution.  Bandwidth dynamics reach
the experiments as re-plans over changed clusters (E11), not inside a run.

Two execution engines produce **bit-identical** reports on a fixed seed.
Both realize requests from one source — each task's
:class:`~repro.sim.execution.TaskRealizer`, over its
:func:`~repro.sim.sources.arrival_stream` — and build records and the
windowed SLO feed with one builder (:func:`~repro.sim.execution.
record_fields`):

- the **fast path** (default): requests are realized window by window and
  the FIFO pipeline is swept per resource in the event loop's exact
  submission order (:mod:`repro.sim.fastpath`).  Completions either become
  records, in the event loop's completion order, or fold into a
  bounded-memory streaming accumulator (``streaming``);
- the **event loop**: the one discrete-event engine,
  :func:`repro.faults.runtime.simulate_with_faults`, which replays the
  realized rows request by request.  It runs whenever a fault schedule is
  set (``faults=FaultSchedule()`` selects it for a fault-free run) or a
  :class:`~repro.telemetry.timeline.TimelineRecorder` is passed (gauges
  sample on event boundaries).

Replications fan out deterministically via :func:`run_replications`:
replication 0 runs ``cfg.seed`` unchanged (so one replication reproduces a
plain :func:`simulate_plan`), replication ``r`` runs the derived seed
``derive_seed(cfg.seed, "replication", r)`` — identical per-replication
reports whether executed serially or on ``sim_workers`` processes.
"""

from __future__ import annotations

import pickle
import warnings
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.core.plan import JointPlan, TaskSpec
from repro.devices.cluster import EdgeCluster
from repro.errors import ConfigError, SimulationError, require_finite, require_int
from repro.faults.policy import FailurePolicy, PlanUpdate
from repro.faults.schedule import FaultSchedule
from repro.rng import derive_seed
from repro.sim.fastpath import sweep_pipeline
from repro.sim.metrics import SimulationReport, StreamingStats, merge_reports
from repro.sim.queues import device_resources, slice_resources
from repro.telemetry.metrics import get_registry
from repro.telemetry.timeline import TimelineRecorder
from repro.telemetry.trace import get_tracer
from repro.telemetry.windows import WindowConfig, WindowedMetrics

#: float knobs that must be finite: an infinite horizon never ends the sweep,
#: and NaN slips through every ``<``/``>`` range check below
_FINITE_FIELDS = ("horizon_s", "warmup_s", "service_noise")


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one simulation run."""

    horizon_s: float = 30.0
    warmup_s: float = 2.0
    seed: int = 0
    #: independent replications to run (see :func:`run_replications`)
    replications: int = 1
    #: worker processes for replication fan-out (1 = serial)
    sim_workers: int = 1
    #: fault schedule to inject; any schedule, the empty one included,
    #: selects the event loop.  None is fault-free and takes the sweep,
    #: whose fixed-seed outputs are bit-identical to a run with
    #: ``faults=FaultSchedule()``
    faults: Optional[FaultSchedule] = None
    #: recovery ladder for failed offload stages; requires ``faults``.
    #: None under a schedule is the no-policy baseline (failures -> lost)
    failure_policy: Optional[FailurePolicy] = None
    #: bounded-memory mode: fold completions into a streaming accumulator
    #: instead of materializing one record per request; the report becomes
    #: records-free (see :class:`repro.sim.metrics.StreamingStats`).
    #: Incompatible with fault schedules and timeline recorders (both need
    #: the event loop).
    streaming: bool = False
    #: target requests per fast-path sweep window (memory/throughput
    #: trade-off; any value yields identical results)
    chunk_size: int = 65536
    #: reservoir-sampled records to keep on streaming runs (0 = none)
    max_records: int = 0
    #: tumbling-window SLO aggregation (:class:`~repro.telemetry.windows.
    #: WindowConfig`); unlike per-request timelines this works on *every*
    #: engine — event loop, record-backed and streaming fast path, and
    #: fault runs — with bit-identical integer state, and lands in
    #: ``SimulationReport.windowed``.  None (default) costs nothing.
    windows: Optional[WindowConfig] = None
    #: internal (set by :func:`run_cells`): a run that generates zero
    #: requests returns an empty report instead of raising — Poisson
    #: thinning across many cells can legitimately leave one cell silent
    #: within the horizon; the fan-out re-checks the *merged* total
    allow_empty: bool = False
    #: log-σ of per-request multiplicative service-time jitter (mean-one
    #: log-normal, drawn per pipeline stage from counter-based streams — see
    #: :func:`repro.sim.execution.jitter_factors`).  0.0 (default) draws
    #: nothing and every engine stays bit-identical to a jitter-free run.
    service_noise: float = 0.0
    #: target tail-violation level ε this run is judged against (reporting
    #: only — the simulator does not change behaviour; the CLI and E18 use
    #: it to compare realized per-task violation rates to the target)
    epsilon: Optional[float] = None

    def __post_init__(self) -> None:
        require_finite(self, *_FINITE_FIELDS)
        require_int(self, "chunk_size", "max_records", "replications", "sim_workers")
        if self.service_noise < 0:
            raise ConfigError("service_noise must be >= 0")
        if self.epsilon is not None and not (0.0 < self.epsilon < 1.0):
            raise ConfigError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.horizon_s <= 0:
            raise ConfigError("horizon must be positive")
        if not (0 <= self.warmup_s < self.horizon_s):
            raise ConfigError("warmup must lie in [0, horizon)")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.sim_workers < 1:
            raise ConfigError("sim_workers must be >= 1")
        if self.failure_policy is not None and self.faults is None:
            raise ConfigError("failure_policy requires a fault schedule")
        if self.chunk_size < 1:
            raise ConfigError("chunk_size must be >= 1")
        if self.max_records < 0:
            raise ConfigError("max_records must be >= 0")
        if self.streaming and self.faults is not None:
            raise ConfigError(
                "streaming is incompatible with fault schedules (fault "
                "runs use the failure-aware event loop)"
            )
        if self.faults is not None:
            # FaultEvent/FailurePolicy validate their own knobs; here we pin
            # the schedule against *this* run: a window opening at or beyond
            # the horizon can never fire and is almost certainly a typo
            for e in self.faults:
                if e.start_s >= self.horizon_s:
                    raise ConfigError(
                        f"fault {e.kind} on {e.target!r} starts at "
                        f"t={e.start_s:.6g}, at/beyond the horizon "
                        f"{self.horizon_s:.6g}"
                    )


def simulate_plan(
    tasks: Sequence[TaskSpec],
    plan: JointPlan,
    cluster: EdgeCluster,
    config: Optional[SimulationConfig] = None,
    recorder: Optional[TimelineRecorder] = None,
    plan_updates: Sequence[PlanUpdate] = (),
) -> SimulationReport:
    """Replay ``plan`` under stochastic load; return measured statistics.

    With a ``recorder``, every request's lifecycle (enqueue → dequeue →
    exec-start → transfer → exit-taken → complete) lands in
    ``report.timeline`` and queue-depth / utilization
    gauges sampled on event boundaries land in ``report.registry``; such runs
    always use the event loop.  Otherwise a run without a fault schedule
    takes the vectorized sweep, which is bit-identical on a fixed seed.

    The event loop is :func:`repro.faults.runtime.simulate_with_faults`.
    With ``config.faults`` set, resources go down and recover per the
    schedule, failed offload stages walk the ``config.failure_policy``
    recovery ladder, and controller-issued ``plan_updates`` re-provision
    arrivals mid-run; without it the schedule is empty.
    """
    cfg = config or SimulationConfig()
    if not tasks:
        raise ConfigError("no tasks to simulate")
    for t in tasks:
        if t.name not in plan.features:
            raise ConfigError(f"plan has no entry for task {t.name!r}")

    if plan_updates and cfg.faults is None:
        raise ConfigError("plan_updates require a fault schedule")
    if cfg.streaming and recorder is not None:
        raise ConfigError(
            "streaming runs cannot attach a per-request timeline recorder: "
            "timelines and queue gauges sample on event boundaries the "
            "chunked sweep does not visit.  Window-granularity SLO metrics "
            "*are* streaming-compatible — use windows=WindowConfig(...)"
        )
    if cfg.faults is not None or recorder is not None:
        # the one event loop: a fault-free run is a run with an empty schedule
        from repro.faults.runtime import simulate_with_faults

        return simulate_with_faults(tasks, plan, cluster, cfg, recorder, plan_updates)

    # shared device FIFOs + each offloading task's (server, up, down) slices
    device_res = device_resources(cluster)
    slices = [
        (t.name, slice_resources(t, plan, s, cluster))
        for t in tasks
        if (s := plan.assignment[t.name]) is not None
    ]
    task_server_res, task_uplink_res, task_downlink_res = (
        {name: trio[k] for name, trio in slices} for k in range(3)
    )
    wm = (
        WindowedMetrics(cfg.windows, cfg.horizon_s)
        if cfg.windows is not None else None
    )

    stats = (
        StreamingStats(max_records=cfg.max_records, seed=cfg.seed, windowed=wm)
        if cfg.streaming else None
    )
    tracer = get_tracer()
    with tracer.span("sim.sweep", {"tasks": len(tasks)} if tracer.enabled else None):
        records, discarded, counters = sweep_pipeline(
            tasks, plan, cfg,
            device_res, task_server_res, task_uplink_res, task_downlink_res,
            stats=stats, windowed=wm,
        )
    utils = {
        r.name: r.utilization(cfg.horizon_s)
        for r in (*device_res.values(), *task_server_res.values())
    }
    with tracer.span("sim.report"):
        if stats is None:
            report = SimulationReport.from_records(
                records, cfg.horizon_s, utils, discarded=discarded
            )
        else:
            report = SimulationReport.from_stream(
                stats, cfg.horizon_s, utils, discarded=discarded
            )
    report.counters = counters
    report.windowed = wm
    return report


def _replication_config(cfg: SimulationConfig, rep: int) -> SimulationConfig:
    """Per-replication config: replication 0 keeps ``cfg.seed`` verbatim."""
    seed = cfg.seed if rep == 0 else derive_seed(cfg.seed, "replication", rep)
    return replace(cfg, seed=seed, replications=1, sim_workers=1)


def _replication_worker(args) -> SimulationReport:
    tasks, plan, cluster, cfg, plan_updates = args
    return simulate_plan(
        tasks, plan, cluster, cfg, plan_updates=plan_updates
    )


def run_replications(
    tasks: Sequence[TaskSpec],
    plan: JointPlan,
    cluster: EdgeCluster,
    config: SimulationConfig,
    plan_updates: Sequence[PlanUpdate] = (),
) -> List[SimulationReport]:
    """Run ``config.replications`` independent simulations, optionally parallel.

    Replication ``r`` uses the derived seed stream
    ``derive_seed(config.seed, "replication", r)`` (replication 0 keeps the
    base seed, so a single replication reproduces :func:`simulate_plan`
    byte-for-byte).  With ``sim_workers > 1`` replications fan out over a
    process pool — results are collected by replication index, so the report
    list is identical to a serial run regardless of completion order.
    """
    cfgs = [_replication_config(config, r) for r in range(config.replications)]
    jobs = [
        (tasks, plan, cluster, c, tuple(plan_updates)) for c in cfgs
    ]
    return _fan_out(jobs, min(config.sim_workers, len(jobs)))


#: Failures that mean the process pool itself could not run (no fork or
#: semaphores in a sandbox, an unpicklable job; ``_fan_out`` adds a killed
#: worker's ``BrokenProcessPool``).  Anything else a job raises is a real
#: error and propagates.
_POOL_FAILURES = (OSError, NotImplementedError, pickle.PicklingError)


def _fan_out(jobs, workers: int) -> List[SimulationReport]:
    """Run simulation jobs on a process pool, serially when unavailable.

    Each fallback to serial warns and counts ``sim.pool.fallbacks`` in the
    process-wide metrics registry.  The pool's modules (``multiprocessing``,
    ``socket``, ``subprocess``) load only when jobs fan out.
    """
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(_replication_worker, jobs))
        except (*_POOL_FAILURES, BrokenProcessPool) as exc:
            get_registry().counter("sim.pool.fallbacks").inc()
            warnings.warn(
                f"simulation process pool unavailable ({type(exc).__name__}: "
                f"{exc}); running {len(jobs)} jobs serially",
                RuntimeWarning,
                stacklevel=3,
            )
    return [_replication_worker(j) for j in jobs]


def _cell_config(cfg: SimulationConfig, cell: int) -> SimulationConfig:
    """Per-cell config: cell 0 keeps ``cfg.seed`` verbatim (one cell ≡ one run)."""
    seed = cfg.seed if cell == 0 else derive_seed(cfg.seed, "cell", cell)
    return replace(
        cfg, seed=seed, streaming=True, replications=1, sim_workers=1,
        allow_empty=True,
    )


def run_cells(
    tasks: Sequence[TaskSpec],
    plan: JointPlan,
    cluster: EdgeCluster,
    config: SimulationConfig,
    cells: int,
) -> SimulationReport:
    """Shard one workload across ``cells`` independent traffic cells.

    Each cell simulates the same plan over its own resource slice with every
    task's arrival rate thinned to ``rate / cells`` — for Poisson arrivals
    this is the exact decomposition of the full-rate stream into independent
    substreams, so the merged report covers the same total offered load.
    Cell ``c`` derives its seed as ``derive_seed(seed, "cell", c)`` (cell 0
    keeps the base seed, so ``cells=1`` reproduces a plain streaming
    :func:`simulate_plan` byte-for-byte); with ``config.sim_workers > 1``
    cells fan out over a process pool, and because the streaming
    accumulators merge exactly, the merged counters, histograms, and integer
    aggregates are identical regardless of worker count or completion order.
    Cells force ``streaming=True``: the bounded accumulator is what makes
    the merge exact and the fan-out worthwhile.
    """
    if cells < 1:
        raise ConfigError("cells must be >= 1")
    scaled = [replace(t, arrival_rate=t.arrival_rate / cells) for t in tasks]
    jobs = [
        (scaled, plan, cluster, _cell_config(config, c), ())
        for c in range(cells)
    ]
    merged = merge_reports(_fan_out(jobs, min(config.sim_workers, cells)))
    if merged.counters.requests == 0:
        raise SimulationError("no requests generated; horizon or rates too small")
    return merged
