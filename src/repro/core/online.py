"""Online re-optimization controller ("in the wild" operation).

The joint optimizer solves a *snapshot*; real deployments see bandwidth
drift, fades, and load changes.  :class:`OnlineController` wraps the solver
into the runtime loop the paper family's dynamic evaluations imply:

- it observes the current environment (per-link bandwidth, per-task arrival
  rates) through lightweight :class:`EnvironmentSample` updates;
- it re-solves only when the observation drifts materially from the
  conditions the active plan was solved for (relative-change trigger with
  hysteresis, so a noisy link doesn't cause re-plan thrash);
- candidate sets are built once and reused across re-solves, so a re-plan
  costs only the solve (sub-second at realistic sizes — experiment E9).

The controller is deliberately synchronous and deterministic: feed it
samples, it returns whether it re-planned and the active plan.  The
dynamic-bandwidth experiment (E11) and the
``examples/dynamic_network_adaptation.py`` walkthrough are exactly this loop
unrolled by hand; ablation bench A4 measures what the trigger thresholds buy.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.candidates import CandidateSet, build_candidates
from repro.core.joint import JointOptimizer, JointSolverConfig
from repro.core.objectives import Objective
from repro.core.plan import JointPlan, TaskSpec
from repro.core.sharding import ShardPlan
from repro.devices.cluster import EdgeCluster
from repro.errors import ConfigError
from repro.network.link import Link
from repro.network.topology import StarTopology
from repro.telemetry.drift import DriftConfig, ShardDriftMonitor


@dataclass(frozen=True)
class EnvironmentSample:
    """One observation of the runtime environment.

    ``bandwidth_bps`` maps (device_name, server_name) -> measured capacity;
    pairs omitted keep their previous value.  ``arrival_rates`` maps task
    name -> measured request rate; omitted tasks keep their spec rate.
    ``server_down`` / ``server_up`` report edge-server liveness transitions
    (health-check outcomes): a newly-down server that carries assigned tasks
    triggers an *immediate* plan repair, bypassing drift hysteresis.
    ``service_times_s`` maps task name -> measured mean service time; it does
    not feed the re-plan trigger (the solver models service time analytically)
    but it does feed the statistical drift monitor, which flags shards whose
    measured behaviour has shifted from the solved-for regime.
    """

    time_s: float
    bandwidth_bps: Dict[Tuple[str, str], float] = field(default_factory=dict)
    arrival_rates: Dict[str, float] = field(default_factory=dict)
    server_down: Tuple[str, ...] = ()
    server_up: Tuple[str, ...] = ()
    service_times_s: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ConfigError("sample time must be >= 0")
        for pair, bw in self.bandwidth_bps.items():
            if bw <= 0:
                raise ConfigError(f"non-positive bandwidth for {pair}")
        for name, rate in self.arrival_rates.items():
            if rate <= 0:
                raise ConfigError(f"non-positive arrival rate for {name}")
        for name, svc in self.service_times_s.items():
            if svc <= 0:
                raise ConfigError(f"non-positive service time for {name!r}")
        overlap = set(self.server_down) & set(self.server_up)
        if overlap:
            raise ConfigError(f"servers both down and up in one sample: {overlap}")


@dataclass(frozen=True)
class ControllerConfig:
    """Re-plan trigger tuning.

    A re-solve fires when any observed bandwidth or arrival rate deviates
    from the values the active plan was solved with by more than
    ``replan_threshold`` (relative), and at least ``min_replan_interval_s``
    has passed since the last re-plan (hysteresis against flapping).
    """

    replan_threshold: float = 0.3
    min_replan_interval_s: float = 1.0
    #: when a re-solve leaves deadline violations (e.g. survivors of a server
    #: failure are overloaded), route the task set through admission control
    #: and shed the rejected tasks (exposed via ``OnlineController.shed_tasks``)
    shed_on_overload: bool = False

    def __post_init__(self) -> None:
        if self.replan_threshold < 0:
            raise ConfigError("replan_threshold must be >= 0")
        if self.min_replan_interval_s < 0:
            raise ConfigError("min_replan_interval_s must be >= 0")


@dataclass
class ControllerEvent:
    """Record of one controller decision (for diagnostics/experiments)."""

    time_s: float
    replanned: bool
    reason: str
    objective: float


class OnlineController:
    """Re-plans a task set as the environment drifts."""

    def __init__(
        self,
        cluster: EdgeCluster,
        tasks: Sequence[TaskSpec],
        objective: Objective = Objective.AVG_LATENCY,
        solver_config: Optional[JointSolverConfig] = None,
        config: Optional[ControllerConfig] = None,
        candidates: Optional[Sequence[CandidateSet]] = None,
        seed: int = 0,
        drift: Optional[DriftConfig] = None,
        shard_plan: Optional[ShardPlan] = None,
        registry=None,
    ) -> None:
        if not tasks:
            raise ConfigError("controller needs at least one task")
        if shard_plan is not None and len(shard_plan.task_shard) != len(tasks):
            raise ConfigError(
                "shard_plan homes a different task set "
                f"({len(shard_plan.task_shard)} tasks, controller has {len(tasks)})"
            )
        self.config = config or ControllerConfig()
        self._objective = objective
        self._solver_config = solver_config or JointSolverConfig()
        self._seed = seed
        self._base_cluster = cluster
        self._tasks: List[TaskSpec] = list(tasks)
        self._candidates = (
            list(candidates)
            if candidates is not None
            else [build_candidates(t) for t in tasks]
        )
        # live environment state
        self._bandwidth: Dict[Tuple[str, str], float] = {
            k: l.bandwidth_bps for k, l in cluster.topology.links.items()
        }
        self._rates: Dict[str, float] = {t.name: t.arrival_rate for t in tasks}
        self._down_servers: set = set()
        #: tasks shed by the latest overload-repair solve (empty otherwise)
        self.shed_tasks: Tuple[str, ...] = ()
        # solved-against snapshots
        self._solved_bandwidth: Dict[Tuple[str, str], float] = {}
        self._solved_rates: Dict[str, float] = {}
        self._last_replan_s = -np.inf
        self.events: List[ControllerEvent] = []
        # statistical drift monitor (independent of the thresholded re-plan
        # trigger): flags *which shards* have left the solved-for regime
        self._shard_plan = shard_plan
        self._registry = registry
        # the last full sharded solve in base-cluster indexing — what an
        # incremental re-solve stitches its clean shards from; None whenever
        # the active plan did not come from a clean full-cluster sharded
        # solve (down servers, shedding, centralized solver)
        self._last_result = None
        self.drift_monitor: Optional[ShardDriftMonitor] = None
        if drift is not None:
            task_shard = {
                t.name: (shard_plan.task_shard[i] if shard_plan is not None else 0)
                for i, t in enumerate(tasks)
            }
            self.drift_monitor = ShardDriftMonitor(task_shard, drift, seed=seed)
        self._plan = self._solve(time_s=0.0, reason="initial solve")

    # -- public API ------------------------------------------------------------

    @property
    def plan(self) -> JointPlan:
        """The currently active joint plan."""
        return self._plan

    @property
    def replan_count(self) -> int:
        return sum(e.replanned for e in self.events) - 1  # exclude initial

    @property
    def drifted_shards(self) -> Tuple[int, ...]:
        """Shards the statistical drift monitor currently flags, sorted.

        Empty when drift detection is off (no ``DriftConfig`` given) or no
        stream has accumulated enough samples to shift verdict.  These are
        the shards worth routing through a targeted shard-local re-solve
        rather than a full re-plan.
        """
        if self.drift_monitor is None:
            return ()
        return self.drift_monitor.drifted_shards()

    def current_cluster(self) -> EdgeCluster:
        """The cluster patched with observed bandwidths, minus down servers.

        Raises :class:`~repro.errors.ConfigError` when every server is down —
        there is nothing left to re-plan over (callers should fall back to
        fully local operation).
        """
        topo = self._base_cluster.topology
        surviving = [
            s for s in self._base_cluster.servers if s.name not in self._down_servers
        ]
        if not surviving:
            raise ConfigError("all edge servers are down; nothing to re-plan over")
        alive = {s.name for s in surviving}
        links = {
            k: Link(self._bandwidth[k], rtt_s=l.rtt_s, name=l.name)
            for k, l in topo.links.items()
            if k[1] in alive
        }
        return EdgeCluster(
            list(self._base_cluster.end_devices),
            surviving,
            StarTopology(list(topo.device_names), [s.name for s in surviving], links),
        )

    def current_tasks(self) -> List[TaskSpec]:
        """Tasks patched with the latest observed arrival rates."""
        return [
            dataclasses.replace(t, arrival_rate=self._rates[t.name])
            for t in self._tasks
        ]

    def observe(self, sample: EnvironmentSample) -> bool:
        """Ingest one environment sample; returns True if a re-plan fired.

        Bandwidth/arrival drift goes through the thresholded, hysteresis-
        protected trigger.  A server-liveness transition does not: a newly
        down server carrying assigned tasks strands their offload path, so
        the repair solve fires immediately regardless of how recently the
        controller re-planned.
        """
        for pair, bw in sample.bandwidth_bps.items():
            if pair not in self._bandwidth:
                raise ConfigError(f"sample references unknown link {pair}")
            self._bandwidth[pair] = bw
        for name, rate in sample.arrival_rates.items():
            if name not in self._rates:
                raise ConfigError(f"sample references unknown task {name!r}")
            self._rates[name] = rate
        for name in sample.service_times_s:
            if name not in self._rates:
                raise ConfigError(f"sample references unknown task {name!r}")
        if self.drift_monitor is not None:
            for name, rate in sample.arrival_rates.items():
                self.drift_monitor.observe(name, arrival_rate=rate)
            for name, svc in sample.service_times_s.items():
                self.drift_monitor.observe(name, service_time_s=svc)
            if self._registry is not None:
                drifted = set(self.drift_monitor.drifted_shards())
                shards = (
                    range(self._shard_plan.num_shards)
                    if self._shard_plan is not None
                    else (0,)
                )
                for s in shards:
                    self._registry.gauge(f"shard.{s}.drifted").set(
                        1.0 if s in drifted else 0.0
                    )
        known = {s.name for s in self._base_cluster.servers}
        newly_down: List[str] = []
        for name in sample.server_down:
            if name not in known:
                raise ConfigError(f"sample references unknown server {name!r}")
            if name not in self._down_servers:
                self._down_servers.add(name)
                newly_down.append(name)
        recovered: List[str] = []
        for name in sample.server_up:
            if name not in known:
                raise ConfigError(f"sample references unknown server {name!r}")
            if name in self._down_servers:
                self._down_servers.remove(name)
                recovered.append(name)

        stranded = sorted(
            t
            for t, s in self._plan.assignment.items()
            if s is not None and self._base_cluster.servers[s].name in newly_down
        )
        if stranded:
            self._plan = self._solve(
                sample.time_s,
                f"server failure {sorted(newly_down)} strands {stranded}",
            )
            return True

        reason = self._drift_reason()
        if reason is None and recovered:
            reason = f"server recovery {sorted(recovered)}"
        if reason is None:
            self.events.append(
                ControllerEvent(sample.time_s, False, "within threshold", self._plan.objective_value)
            )
            return False
        if sample.time_s - self._last_replan_s < self.config.min_replan_interval_s:
            self.events.append(
                ControllerEvent(sample.time_s, False, f"hysteresis ({reason})", self._plan.objective_value)
            )
            return False
        self._plan = self._solve(sample.time_s, reason)
        return True

    def repair_update(self, time_s: float):
        """Package the active plan as a :class:`~repro.faults.policy.PlanUpdate`.

        The failure-aware simulator applies the update to arrivals from
        ``time_s`` onward; tasks shed by the latest overload repair ride
        along so the runtime drops them at admission.
        """
        from repro.faults.policy import PlanUpdate

        return PlanUpdate(time_s=time_s, plan=self._plan, shed_tasks=self.shed_tasks)

    # -- internals -----------------------------------------------------------

    def _drift_reason(self) -> Optional[str]:
        thr = self.config.replan_threshold
        for pair, bw in self._bandwidth.items():
            ref = self._solved_bandwidth.get(pair, bw)
            if abs(bw - ref) > thr * ref:
                return f"bandwidth drift on {pair}: {ref:.3g} -> {bw:.3g} B/s"
        for name, rate in self._rates.items():
            ref = self._solved_rates.get(name, rate)
            if abs(rate - ref) > thr * ref:
                return f"arrival drift on {name}: {ref:.3g} -> {rate:.3g} req/s"
        return None

    def _remap_servers(self, plan: JointPlan, cluster: EdgeCluster) -> JointPlan:
        """Translate ``plan``'s server indices from ``cluster`` (the surviving
        sub-cluster solved over) back to base-cluster indexing, which is what
        every consumer of :attr:`plan` (simulator, experiments) resolves
        against."""
        if [s.name for s in cluster.servers] == [
            s.name for s in self._base_cluster.servers
        ]:
            return plan
        to_base = {
            i: self._base_cluster.server_index(s.name)
            for i, s in enumerate(cluster.servers)
        }
        assignment = {
            name: (to_base[s] if s is not None else None)
            for name, s in plan.assignment.items()
        }
        return dataclasses.replace(plan, assignment=assignment)

    def _solve(self, time_s: float, reason: str) -> JointPlan:
        incremental = self._try_incremental(time_s, reason)
        if incremental is not None:
            return incremental
        cluster = self.current_cluster()
        tasks = self.current_tasks()
        result = JointOptimizer(
            cluster,
            objective=self._objective,
            config=self._solver_config,
        ).solve(tasks, candidates=self._candidates, seed=self._seed)
        plan = result.plan
        self.shed_tasks = ()
        if self.config.shed_on_overload and any(
            not (plan.latencies[t.name] <= t.deadline_s) for t in tasks
        ):
            plan = self._shed_overload(tasks, cluster, plan)
        plan = self._remap_servers(plan, cluster)
        self._last_result = (
            result
            if getattr(result, "shard_plan", None) is not None
            and not self._down_servers
            and not self.shed_tasks
            else None
        )
        self._solved_bandwidth = dict(self._bandwidth)
        self._solved_rates = dict(self._rates)
        self._last_replan_s = time_s
        self.events.append(ControllerEvent(time_s, True, reason, plan.objective_value))
        return plan

    def _try_incremental(self, time_s: float, reason: str) -> Optional[JointPlan]:
        """Targeted re-plan of drift-flagged shards, when that is sound.

        Fires only when the sharded solver is active, the previous plan came
        from a clean full-cluster sharded solve, the statistical drift
        monitor flags a non-empty *strict subset* of shards, and the trigger
        is environmental drift rather than a server-liveness transition.
        The flagged shards route through
        :func:`~repro.core.coordinator.resolve_dirty` — a per-shard delta
        (clean shards keep their plan by identity, re-priced under the
        observed environment) — and their drift streams re-calibrate.
        Anything else (global drift, faults, shedding) escalates to the full
        solve as before.
        """
        if (
            self._last_result is None
            or self.drift_monitor is None
            or self._solver_config.shards <= 1
            or self._down_servers
            or reason.startswith("server")
            or self.config.shed_on_overload
        ):
            return None
        dirty = self.drift_monitor.drifted_shards()
        k = self._last_result.shard_plan.num_shards
        if not dirty or len(dirty) >= k or any(not 0 <= s < k for s in dirty):
            return None
        from repro.core.coordinator import resolve_dirty

        result = resolve_dirty(
            self.current_tasks(),
            self.current_cluster(),
            self._last_result,
            dirty,
            objective=self._objective,
            config=self._solver_config,
            candidates=self._candidates,
            seed=self._seed,
        )
        for s in dirty:
            self.drift_monitor.reset_shard(s)
        self._last_result = result
        self.shed_tasks = ()
        self._solved_bandwidth = dict(self._bandwidth)
        self._solved_rates = dict(self._rates)
        self._last_replan_s = time_s
        self.events.append(
            ControllerEvent(
                time_s,
                True,
                f"incremental re-solve of shards {list(dirty)} ({reason})",
                result.plan.objective_value,
            )
        )
        return result.plan

    def _shed_overload(
        self, tasks: List[TaskSpec], cluster: EdgeCluster, plan: JointPlan
    ) -> JointPlan:
        """Route an overloaded task set through admission control.

        Rejected tasks are recorded in :attr:`shed_tasks` and keep local-only
        placeholder entries in the returned plan (their features are carried
        over from ``plan``), so downstream consumers still find every task.
        """
        from repro.core.admission import admit_tasks

        res = admit_tasks(
            tasks,
            cluster,
            candidates=self._candidates,
            solver_config=self._solver_config,
            seed=self._seed,
        )
        self.shed_tasks = tuple(t.name for t in res.rejected)
        if not self.shed_tasks or res.plan is None:
            return plan
        admitted = res.plan
        assignment = dict(admitted.assignment)
        features = dict(admitted.features)
        compute = dict(admitted.compute_shares)
        bandwidth = dict(admitted.bandwidth_shares)
        latencies = dict(admitted.latencies)
        for name in self.shed_tasks:
            assignment[name] = None
            features[name] = plan.features[name]
            compute[name] = 1.0
            bandwidth[name] = 1.0
            latencies[name] = float("inf")
        return JointPlan(
            assignment=assignment,
            features=features,
            compute_shares=compute,
            bandwidth_shares=bandwidth,
            latencies=latencies,
            objective_value=admitted.objective_value,
        )
