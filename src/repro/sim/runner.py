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

Arrivals default to Poisson at each task's rate; per-request difficulties
come from each model's difficulty distribution.  A
:class:`~repro.network.wireless.BandwidthTrace` makes every link time-varying
(experiment E11).

Two execution engines produce **bit-identical** reports on a fixed seed:

- the **fast path** (default): stochastic realization is generated as
  arrays, window by window, and the FIFO pipeline is swept per resource in
  the event loop's exact submission order (:mod:`repro.sim.fastpath`).
  Completions either become records, in the event loop's completion order,
  or fold into a bounded-memory streaming accumulator (``streaming``);
- the **event loop**: the one discrete-event engine,
  :func:`repro.faults.runtime.simulate_with_faults`.  A fault-free run is a
  run with an empty fault schedule; it is used whenever a fault schedule is
  set, a telemetry recorder is attached (gauges sample on event boundaries)
  or ``fast_path=False`` forces it.

Replications fan out deterministically via :func:`run_replications`:
replication 0 runs ``cfg.seed`` unchanged (so one replication reproduces a
plain :func:`simulate_plan`), replication ``r`` runs the derived seed
``derive_seed(cfg.seed, "replication", r)`` — identical per-replication
reports whether executed serially or on ``sim_workers`` processes.
"""

from __future__ import annotations

import math
import numbers
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.plan import JointPlan, TaskSpec
from repro.devices.cluster import EdgeCluster
from repro.devices.latency import LatencyModel
from repro.errors import ConfigError, SimulationError
from repro.faults.policy import FailurePolicy, PlanUpdate
from repro.faults.schedule import FaultSchedule
from repro.network.wireless import BandwidthTrace
from repro.rng import derive_seed
from repro.sim.fastpath import sweep_pipeline
from repro.sim.metrics import SimulationReport, StreamingStats, merge_reports
from repro.sim.queues import FifoResource, LinkResource
from repro.telemetry.metrics import get_registry
from repro.telemetry.timeline import TimelineRecorder
from repro.telemetry.windows import WindowConfig, WindowedMetrics

_ARRIVALS = {"poisson", "deterministic", "mmpp"}
#: float knobs that must be finite: an infinite horizon never ends the sweep,
#: and NaN slips through every ``<``/``>`` range check below
_FINITE_FIELDS = (
    "horizon_s", "warmup_s", "burst_factor", "service_noise",
    "hist_bin_s", "hist_max_s",
)


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one simulation run."""

    horizon_s: float = 30.0
    warmup_s: float = 2.0
    arrival: str = "poisson"
    #: MMPP burstiness (used when arrival == "mmpp"): high = burst_factor × rate
    burst_factor: float = 4.0
    bandwidth_trace: Optional[BandwidthTrace] = None
    seed: int = 0
    #: record per-request event timelines + queue/utilization gauges into
    #: ``SimulationReport.timeline`` / ``.registry`` (off by default)
    telemetry: bool = False
    #: use the vectorized pipeline sweep when eligible (bit-identical to the
    #: event loop); set False to force the event loop.  Fault runs
    #: (``faults`` set) and telemetry runs always use the event loop — the
    #: sweep cannot represent interrupted service or sample event boundaries.
    fast_path: bool = True
    #: independent replications to run (see :func:`run_replications`)
    replications: int = 1
    #: worker processes for replication fan-out (1 = serial)
    sim_workers: int = 1
    #: fault schedule to inject.  None is fault-free: the event loop runs
    #: with an empty schedule and the fast path stays eligible; fixed-seed
    #: outputs are bit-identical to a run with ``faults=FaultSchedule()``
    faults: Optional[FaultSchedule] = None
    #: recovery ladder for failed offload stages; requires ``faults``.
    #: None under a schedule is the no-policy baseline (failures -> lost)
    failure_policy: Optional[FailurePolicy] = None
    #: bounded-memory mode: fold completions into a streaming accumulator
    #: instead of materializing one record per request; the report becomes
    #: records-free (see :class:`repro.sim.metrics.StreamingStats`).
    #: Requires the fast path and is incompatible with telemetry and fault
    #: schedules.
    streaming: bool = False
    #: target requests per fast-path sweep window (memory/throughput
    #: trade-off; any value yields identical results)
    chunk_size: int = 65536
    #: reservoir-sampled records to keep on streaming runs (0 = none)
    max_records: int = 0
    #: latency histogram resolution: quantiles are exact within one bin
    hist_bin_s: float = 5e-4
    #: latencies at/above this land in the histogram overflow bucket
    hist_max_s: float = 30.0
    #: tumbling-window SLO aggregation (:class:`~repro.telemetry.windows.
    #: WindowConfig`); unlike per-request telemetry this works on *every*
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
        for name in _FINITE_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        for name in ("chunk_size", "max_records", "replications", "sim_workers"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.service_noise < 0:
            raise ConfigError("service_noise must be >= 0")
        if self.epsilon is not None and not (0.0 < self.epsilon < 1.0):
            raise ConfigError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.horizon_s <= 0:
            raise ConfigError("horizon must be positive")
        if not (0 <= self.warmup_s < self.horizon_s):
            raise ConfigError("warmup must lie in [0, horizon)")
        if self.arrival not in _ARRIVALS:
            raise ConfigError(f"arrival must be one of {_ARRIVALS}, got {self.arrival}")
        if self.burst_factor < 1.0:
            raise ConfigError("burst_factor must be >= 1")
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
        if self.hist_bin_s <= 0 or self.hist_max_s <= self.hist_bin_s:
            raise ConfigError(
                f"invalid histogram bins: hist_bin_s={self.hist_bin_s} "
                f"hist_max_s={self.hist_max_s}"
            )
        if self.streaming:
            if not self.fast_path:
                raise ConfigError("streaming requires the fast path")
            if self.telemetry:
                raise ConfigError(
                    "streaming is incompatible with per-request telemetry: "
                    "timelines and queue gauges sample on event boundaries "
                    "the chunked sweep does not visit.  Window-granularity "
                    "SLO metrics *are* streaming-compatible — set "
                    "windows=WindowConfig(...) instead of telemetry=True"
                )
            if self.faults is not None:
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


def _build_resources(
    tasks: Sequence[TaskSpec],
    plan: JointPlan,
    cluster: EdgeCluster,
    lm: LatencyModel,
    cfg: SimulationConfig,
) -> Tuple[
    Dict[str, FifoResource],
    Dict[str, FifoResource],
    Dict[str, LinkResource],
    Dict[str, LinkResource],
]:
    """FIFO resources of a sweep: shared devices + per-task server/link slices."""
    device_res: Dict[str, FifoResource] = {}
    for d in cluster.end_devices:
        device_res[d.name] = FifoResource(
            f"dev:{d.name}", lm.throughput(d), overhead_s=d.overhead_s
        )
    task_server_res: Dict[str, FifoResource] = {}
    task_uplink_res: Dict[str, LinkResource] = {}
    task_downlink_res: Dict[str, LinkResource] = {}
    for t in tasks:
        s = plan.assignment[t.name]
        if s is None:
            continue
        server = cluster.servers[s]
        link = cluster.link(t.device_name, server.name)
        x = plan.compute_shares[t.name]
        y = plan.bandwidth_shares[t.name]
        task_server_res[t.name] = FifoResource(
            f"srv:{t.name}", lm.throughput(server) * x, overhead_s=server.overhead_s
        )
        # full-duplex: each direction gets its own serialization queue
        for direction, store in (("up", task_uplink_res), ("down", task_downlink_res)):
            store[t.name] = LinkResource(
                f"link:{t.name}:{direction}",
                link.bandwidth_bps,
                rtt_s=link.rtt_s,
                share=y,
                trace=cfg.bandwidth_trace,
            )
    return device_res, task_server_res, task_uplink_res, task_downlink_res


def _utilizations(
    device_res: Dict[str, FifoResource],
    task_server_res: Dict[str, FifoResource],
    horizon_s: float,
) -> Dict[str, float]:
    utils = {r.name: r.utilization(horizon_s) for r in device_res.values()}
    for r in task_server_res.values():
        utils[r.name] = r.utilization(horizon_s)
    return utils


def simulate_plan(
    tasks: Sequence[TaskSpec],
    plan: JointPlan,
    cluster: EdgeCluster,
    config: Optional[SimulationConfig] = None,
    latency_model: Optional[LatencyModel] = None,
    recorder: Optional[TimelineRecorder] = None,
    plan_updates: Sequence[PlanUpdate] = (),
) -> SimulationReport:
    """Replay ``plan`` under stochastic load; return measured statistics.

    With ``config.telemetry`` (or an explicit ``recorder``), every request's
    lifecycle (enqueue → dequeue → exec-start → transfer → exit-taken →
    complete) lands in ``report.timeline`` and queue-depth / utilization
    gauges sampled on event boundaries land in ``report.registry``; such runs
    always use the event loop.  Otherwise ``config.fast_path`` (default)
    selects the vectorized sweep, which is bit-identical on a fixed seed.

    The event loop is :func:`repro.faults.runtime.simulate_with_faults`.
    With ``config.faults`` set, resources go down and recover per the
    schedule, failed offload stages walk the ``config.failure_policy``
    recovery ladder, and controller-issued ``plan_updates`` re-provision
    arrivals mid-run; without it the schedule is empty.
    """
    cfg = config or SimulationConfig()
    lm = latency_model or LatencyModel()
    if not tasks:
        raise ConfigError("no tasks to simulate")
    for t in tasks:
        if t.name not in plan.features:
            raise ConfigError(f"plan has no entry for task {t.name!r}")

    rec = recorder if recorder is not None else (TimelineRecorder() if cfg.telemetry else None)
    if plan_updates and cfg.faults is None:
        raise ConfigError("plan_updates require a fault schedule")
    if cfg.streaming and rec is not None:
        raise ConfigError(
            "streaming runs cannot attach a per-request telemetry recorder; "
            "use windows=WindowConfig(...) for streaming-compatible metrics"
        )
    if cfg.faults is not None or rec is not None or not cfg.fast_path:
        # the one event loop: a fault-free run is a run with an empty schedule
        from repro.faults.runtime import simulate_with_faults

        return simulate_with_faults(tasks, plan, cluster, cfg, lm, rec, plan_updates)

    resources = _build_resources(tasks, plan, cluster, lm, cfg)
    device_res, task_server_res, task_uplink_res, task_downlink_res = resources
    wm = (
        WindowedMetrics(cfg.windows, cfg.horizon_s)
        if cfg.windows is not None else None
    )

    stats = (
        StreamingStats(
            cfg.hist_bin_s, cfg.hist_max_s, cfg.max_records, seed=cfg.seed,
            windowed=wm,
        )
        if cfg.streaming else None
    )
    records, discarded, counters = sweep_pipeline(
        tasks, plan, cfg,
        device_res, task_server_res, task_uplink_res, task_downlink_res,
        stats=stats, windowed=wm,
    )
    utils = _utilizations(device_res, task_server_res, cfg.horizon_s)
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
    tasks, plan, cluster, cfg, latency_model, plan_updates = args
    return simulate_plan(
        tasks, plan, cluster, cfg, latency_model, plan_updates=plan_updates
    )


def run_replications(
    tasks: Sequence[TaskSpec],
    plan: JointPlan,
    cluster: EdgeCluster,
    config: SimulationConfig,
    latency_model: Optional[LatencyModel] = None,
    plan_updates: Sequence[PlanUpdate] = (),
) -> List[SimulationReport]:
    """Run ``config.replications`` independent simulations, optionally parallel.

    Replication ``r`` uses the derived seed stream
    ``derive_seed(config.seed, "replication", r)`` (replication 0 keeps the
    base seed, so a single replication reproduces :func:`simulate_plan`
    byte-for-byte).  With ``sim_workers > 1`` replications fan out over a
    process pool — results are collected by replication index, so the report
    list is identical to a serial run regardless of completion order.
    Telemetry runs stay serial: recorders hold per-process state that cannot
    cross the pool boundary.
    """
    cfgs = [_replication_config(config, r) for r in range(config.replications)]
    jobs = [
        (tasks, plan, cluster, c, latency_model, tuple(plan_updates)) for c in cfgs
    ]
    return _fan_out(jobs, min(config.sim_workers, len(jobs)), config.telemetry)


#: Failures that mean the process pool itself could not run (no fork or
#: semaphores in a sandbox, a killed worker, an unpicklable job).  Anything
#: else a job raises is a real error and propagates.
_POOL_FAILURES = (OSError, NotImplementedError, BrokenProcessPool, pickle.PicklingError)


def _fan_out(jobs, workers: int, telemetry: bool) -> List[SimulationReport]:
    """Run simulation jobs on a process pool, serially when unavailable.

    Each fallback to serial warns and counts ``sim.pool.fallbacks`` in the
    process-wide metrics registry.
    """
    if workers > 1 and not telemetry and len(jobs) > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(_replication_worker, jobs))
        except _POOL_FAILURES as exc:
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
    latency_model: Optional[LatencyModel] = None,
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
        (scaled, plan, cluster, _cell_config(config, c), latency_model, ())
        for c in range(cells)
    ]
    merged = merge_reports(_fan_out(jobs, min(config.sim_workers, cells), False))
    if merged.counters.requests == 0:
        raise SimulationError("no requests generated; horizon or rates too small")
    return merged
