"""The discrete-event simulation loop, failure-aware.

This is the one event loop behind :func:`repro.sim.runner.simulate_plan`:
every run that cannot take the vectorized sweep (a fault schedule, an
attached telemetry recorder, or ``fast_path=False``) lands here.  A
fault-free run is a run with an empty schedule, and its report is
bit-identical to the sweep's on a fixed seed.  On top of the plain
device → uplink → server → downlink pipeline, it carries a
:class:`~repro.faults.injector.FaultInjector` driving the configured
:class:`~repro.faults.schedule.FaultSchedule`, per-stage failure detection
(down-at-submit, crash-during-service, wire loss, timeout), and the
:class:`~repro.faults.policy.FailurePolicy` recovery ladder (backoff retry
→ failover to a standby server slice → graceful local degradation → lost).

Because FIFO service times are known at submission, every stage's outcome is
decided deterministically *at submission time*: the earliest of
{crash-interrupt, timeout} — both computable from the static schedule and
the policy — wins against the nominal finish, and exactly one continuation
is scheduled.  No cancellation races, no sampling inside the loop beyond the
seed-derived loss/degradation draws, so fault runs replay bit-for-bit.

Mid-run plan repair arrives as :class:`~repro.faults.policy.PlanUpdate`
directives: arrivals from ``time_s`` onward launch on freshly provisioned
slices of the repaired plan (in-flight requests keep their old slices) or
are shed outright.  Every request terminates in exactly one of
{recorded, warmup-discarded, lost, shed}; the conservation identity is
checked before the report is returned.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.plan import JointPlan, SurgeryPlan, TaskSpec
from repro.devices.cluster import EdgeCluster
from repro.devices.latency import LatencyModel
from repro.errors import ConfigError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.policy import FailurePolicy, PlanUpdate
from repro.faults.schedule import FaultSchedule
from repro.models.multiexit import MultiExitModel
from repro.rng import derive, derive_from, derive_material
from repro.sim.engine import Simulator
from repro.sim.entities import Request, RequestRecord
from repro.sim.execution import jitter_demand, jitter_materials, realize_request
from repro.sim.metrics import MetricsCollector, SimCounters, SimulationReport
from repro.sim.queues import FifoResource, LinkResource
from repro.sim.sources import arrival_times
from repro.telemetry.timeline import TimelineRecorder
from repro.telemetry.windows import WindowedMetrics

__all__ = ["simulate_with_faults"]


@dataclass
class _Route:
    """One offload path: a server slice plus its two link directions."""

    server_name: str
    srv: FifoResource
    up: LinkResource
    down: LinkResource
    is_primary: bool

    @property
    def reachable(self) -> bool:
        return not (self.srv.is_down or self.up.is_down or self.down.is_down)


@dataclass
class _TaskRoutes:
    primary: _Route
    standby: Optional[_Route]


@dataclass(frozen=True)
class _DegradeProfile:
    """Precomputed graceful-degradation fallback for one (task, plan)."""

    #: position (within kept exits) of the deepest on-device exit, or -1
    #: when the plan keeps no on-device exit (full-local fallback instead)
    on_device_pos: int
    #: competence of that exit (correctness is re-sampled at it)
    competence: float


def _degrade_profile(model: MultiExitModel, splan: SurgeryPlan) -> _DegradeProfile:
    kept = list(splan.kept_exits)
    attach = model.exit_cut_indices[kept]
    on_device = np.flatnonzero(attach <= splan.partition_cut)
    if on_device.size == 0:
        return _DegradeProfile(on_device_pos=-1, competence=0.0)
    pos = int(on_device[-1])
    return _DegradeProfile(
        on_device_pos=pos, competence=float(model.competences[kept][pos])
    )


def simulate_with_faults(
    tasks: Sequence[TaskSpec],
    plan: JointPlan,
    cluster: EdgeCluster,
    cfg,  # SimulationConfig (typed loosely to avoid the import cycle)
    lm: LatencyModel,
    rec: Optional[TimelineRecorder],
    plan_updates: Sequence[PlanUpdate] = (),
) -> SimulationReport:
    """Run ``plan`` under ``cfg.faults`` with the ``cfg.failure_policy`` ladder.

    ``cfg.faults=None`` runs the plain event loop (an empty schedule).
    """
    schedule: FaultSchedule = cfg.faults or FaultSchedule()
    policy: Optional[FailurePolicy] = cfg.failure_policy

    updates = sorted(plan_updates, key=lambda u: u.time_s)
    plans: List[JointPlan] = [plan] + [u.plan for u in updates]
    shed_sets = [frozenset()] + [frozenset(u.shed_tasks) for u in updates]
    update_times = [u.time_s for u in updates]
    for p in plans:
        for t in tasks:
            if t.name not in p.features:
                raise ConfigError(f"plan has no entry for task {t.name!r}")

    reg = rec.registry if rec is not None else None
    counters = SimCounters(replications=1)
    sim = Simulator()
    if rec is not None:
        sim.on_event = lambda now, pending: rec.sample("sim.pending_events", now, pending)
    metrics = MetricsCollector(warmup_s=cfg.warmup_s)
    # windowed SLO aggregation works on fault runs too: completions feed the
    # met/miss counters, lost/shed/degraded outcomes annotate their windows
    wm = (
        WindowedMetrics(cfg.windows, cfg.horizon_s)
        if cfg.windows is not None else None
    )

    # -- resources ------------------------------------------------------------
    device_res: Dict[str, FifoResource] = {}
    for d in cluster.end_devices:
        device_res[d.name] = FifoResource(
            f"dev:{d.name}", lm.throughput(d), overhead_s=d.overhead_s, recorder=rec
        )
    # injector maps: every slice living on a server / behind a task's access
    # link, across all plan generations, so one crash takes them all down
    server_map: Dict[str, List] = {s.name: [] for s in cluster.servers}
    link_map: Dict[str, List] = {t.name: [] for t in tasks}

    def _make_route(t: TaskSpec, p: JointPlan, s: int, tag: str, primary: bool) -> _Route:
        server = cluster.servers[s]
        link = cluster.link(t.device_name, server.name)
        x = p.compute_shares[t.name]
        y = p.bandwidth_shares[t.name]
        srv = FifoResource(
            f"srv:{t.name}{tag}", lm.throughput(server) * x,
            overhead_s=server.overhead_s, recorder=rec,
        )
        up = LinkResource(
            f"link:{t.name}:up{tag}", link.bandwidth_bps, rtt_s=link.rtt_s,
            share=y, trace=cfg.bandwidth_trace, recorder=rec,
        )
        down = LinkResource(
            f"link:{t.name}:down{tag}", link.bandwidth_bps, rtt_s=link.rtt_s,
            share=y, trace=cfg.bandwidth_trace, recorder=rec,
        )
        server_map[server.name].append(srv)
        if primary:
            # link faults target the task's *primary* access path; a standby
            # route reaches a different server over a different link
            link_map[t.name].extend((up, down))
        return _Route(server.name, srv, up, down, is_primary=primary)

    # standby slices exist only where the policy can fail over to them, so
    # fault-free and no-failover reports list no unused ":fo" slices
    with_standby = (
        policy is not None and policy.failover and cluster.num_servers > 1
    )
    route_sets: List[Dict[str, _TaskRoutes]] = []
    degrade_profiles: List[Dict[str, _DegradeProfile]] = []
    for k, p in enumerate(plans):
        tag = "" if k == 0 else f":u{k}"
        routes: Dict[str, _TaskRoutes] = {}
        profiles: Dict[str, _DegradeProfile] = {}
        for t in tasks:
            profiles[t.name] = _degrade_profile(t.model, p.features[t.name].plan)
            s = p.assignment[t.name]
            if s is None:
                continue
            primary = _make_route(t, p, s, tag, primary=True)
            standby = None
            if with_standby:
                standby = _make_route(
                    t, p, (s + 1) % cluster.num_servers, tag + ":fo", primary=False
                )
            routes[t.name] = _TaskRoutes(primary, standby)
        route_sets.append(routes)
        degrade_profiles.append(profiles)

    # armed before arrivals: same-time fault transitions outrank stage events
    injector = FaultInjector(schedule, server_map, link_map, counters, recorder=rec)
    injector.arm(sim)

    exec_material = {t.name: derive_material(cfg.seed, "exec", t.name) for t in tasks}
    jitter_mats = (
        {t.name: jitter_materials(cfg.seed, t.name) for t in tasks}
        if cfg.service_noise > 0
        else None
    )
    detection_s = policy.detection_delay_s if policy is not None else 0.0
    # targets with any window of a kind: stages on every other target skip
    # the schedule scans (a fault-free run skips them all)
    lossy = {e.target for e in schedule if e.kind == "request_loss"}
    outage_links = {e.target for e in schedule if e.kind == "link_outage"}
    crash_servers = {e.target for e in schedule if e.kind == "server_crash"}

    def _stage_outcome(
        t_submit: float, done: float, crash_at: Optional[float]
    ) -> Optional[float]:
        """Failure instant of a submitted stage, or None on success.

        A crash strictly inside the service window always fails the stage
        (the work is interrupted no matter when the sender finds out,
        ``detection_s`` after the crash); a policy timeout fails it when the
        nominal finish lies beyond the deadline.  The earlier of the two
        failure instants wins.
        """
        if crash_at is None and policy is None:
            return None
        candidates = []
        if crash_at is not None:
            candidates.append(crash_at + detection_s)
        if policy is not None and done - t_submit > policy.stage_timeout_s:
            candidates.append(t_submit + policy.stage_timeout_s)
        return min(candidates) if candidates else None

    # -- request lifecycle ----------------------------------------------------
    class _Flight:
        """One request's walk through the pipeline and the recovery ladder.

        The stages are methods over per-request slots, so the continuations
        scheduled on the simulator hold the flight but the flight holds
        none of them: a retry loops back into an earlier stage without the
        reference cycle sibling closures would form, and a finished request
        is freed at once instead of by the cyclic garbage collector.
        """

        __slots__ = ("task", "req", "demand", "dres", "profile", "routes")

        def __init__(self, task, req, demand, dres, profile, routes) -> None:
            self.task = task
            self.req = req
            self.demand = demand
            self.dres = dres
            self.profile = profile
            self.routes = routes

        def finish(
            self,
            completion: float,
            dev_busy: float,
            srv_busy: float,
            net_busy: float,
            exit_position: int,
            offloaded: bool,
            correct: bool,
            degraded: bool,
        ) -> None:
            name, req = self.task.name, self.req
            if rec is not None:
                rec.event(completion, "exit_taken", name, req.req_id,
                          value=float(exit_position))
                rec.event(completion, "complete", name, req.req_id)
                rec.registry.histogram("sim.latency_ms").observe(
                    (completion - req.arrival_s) * 1e3
                )
            metrics.record(
                RequestRecord(
                    task_name=name,
                    req_id=req.req_id,
                    arrival_s=req.arrival_s,
                    completion_s=completion,
                    deadline_s=req.deadline_s,
                    exit_position=exit_position,
                    offloaded=offloaded,
                    correct=correct,
                    dev_busy_s=dev_busy,
                    srv_busy_s=srv_busy,
                    net_busy_s=net_busy,
                    degraded=degraded,
                )
            )
            if wm is not None and req.arrival_s >= cfg.warmup_s:
                wm.observe_one(
                    name,
                    completion,
                    completion - req.arrival_s,
                    completion <= req.deadline_s + 1e-12,
                )
                if degraded:
                    wm.mark(name, completion, "degraded")

        # -- recovery ladder ---------------------------------------------------
        def fail(self, at: float, dev_busy: float, attempt: int, reason: str) -> None:
            """Schedule the failure of the current attempt at ``at``."""
            sim.schedule_at(
                at, lambda: self.attempt_failed(at, dev_busy, attempt, reason)
            )

        def attempt_failed(
            self, at: float, dev_busy: float, attempt: int, reason: str
        ) -> None:
            name, req_id = self.task.name, self.req.req_id
            if rec is not None:
                rec.event(at, "timeout", name, req_id, resource=reason)
            if policy is not None and attempt < policy.max_retries:
                counters.retries += 1
                if rec is not None:
                    rec.event(at, "retry", name, req_id, value=float(attempt + 1))
                    rec.count("sim.retries")
                sim.schedule_at(
                    at + policy.backoff_s(attempt),
                    lambda: self.begin_offload(dev_busy, attempt + 1),
                )
                return
            if policy is not None and policy.degrade_local:
                sim.schedule_at(at, lambda: self.degrade(dev_busy))
                return
            counters.lost += 1
            if rec is not None:
                rec.event(at, "lost", name, req_id)
                rec.count("sim.lost")
            if wm is not None and self.req.arrival_s >= cfg.warmup_s:
                wm.mark(name, at, "lost")

        def degrade(self, dev_busy: float) -> None:
            now = sim.now
            task, req, profile, demand = self.task, self.req, self.profile, self.demand
            if profile.on_device_pos >= 0:
                # deepest on-device exit: backbone-to-cut and its branch were
                # already computed, so accepting its output costs nothing extra
                p_ok = float(
                    task.model.accuracy_model.correctness(
                        np.array([profile.competence]), np.array([req.difficulty])
                    )[0, 0]
                )
                p_ok = float(np.clip(p_ok, 0.01, 0.999))
                draw = derive(cfg.seed, "fault_degrade", task.name, req.req_id)
                self.complete(now, dev_busy, profile.on_device_pos,
                              bool(draw.random() < p_ok))
                return
            # no on-device exit kept: run the server-side remainder locally —
            # same exit, same correctness, the work just lands on the device
            start, done = self.dres.submit(now, demand.srv_flops)
            sim.schedule_at(
                done,
                lambda: self.complete(done, dev_busy + (done - start),
                                      demand.exit_position, demand.correct),
            )

        def complete(
            self, at: float, dev_busy: float, exit_position: int, correct: bool
        ) -> None:
            counters.degraded_completions += 1
            if rec is not None:
                rec.event(at, "degraded", self.task.name, self.req.req_id)
                rec.count("sim.degraded_completions")
            self.finish(at, dev_busy, 0.0, 0.0, exit_position,
                        offloaded=False, correct=correct, degraded=True)

        # -- offload attempt ---------------------------------------------------
        def begin_offload(self, dev_busy: float, attempt: int) -> None:
            routes = self.routes
            route = routes.primary
            if routes.standby is not None and not route.reachable:
                route = routes.standby
                counters.failovers += 1
                if rec is not None:
                    rec.event(sim.now, "failover", self.task.name, self.req.req_id,
                              resource=route.srv.name)
                    rec.count("sim.failovers")
            self.stage_uplink(route, dev_busy, attempt)

        def stage_uplink(self, route: _Route, dev_busy: float, attempt: int) -> None:
            now = sim.now
            lres = route.up
            if lres.is_down:
                self.fail(now + detection_s, dev_busy, attempt, "down")
                return
            name = self.task.name
            start, done = lres.submit(now, self.demand.up_bytes)
            if route.is_primary and name in lossy:
                p_loss = schedule.loss_probability(name, now)
                if p_loss > 0.0:
                    roll = derive(
                        cfg.seed, "fault_loss", name, self.req.req_id, attempt
                    ).random()
                    if roll < p_loss:
                        # bits left the device but never arrive; without a
                        # timeout the sender only "learns" at serialization end
                        at = (
                            now + policy.stage_timeout_s
                            if policy is not None
                            else done
                        )
                        self.fail(at, dev_busy, attempt, "wire_loss")
                        return
            crash = (
                schedule.next_failure_in("link_outage", name, now, done)
                if route.is_primary and name in outage_links
                else None
            )
            fail_at = _stage_outcome(now, done, crash)
            if fail_at is not None:
                self.fail(fail_at, dev_busy, attempt, "uplink")
                return
            if rec is not None:
                rec.event(start, "transfer_start", name, self.req.req_id,
                          resource=lres.name)
                rec.event(done, "transfer_end", name, self.req.req_id,
                          resource=lres.name)
            net1 = done - start
            sim.schedule_at(
                done, lambda: self.stage_server(route, dev_busy, net1, attempt)
            )

        def stage_server(
            self, route: _Route, dev_busy: float, net1: float, attempt: int
        ) -> None:
            now = sim.now
            sres = route.srv
            if sres.is_down:
                self.fail(now + detection_s, dev_busy, attempt, "down")
                return
            start, done = sres.submit(now, self.demand.srv_flops)
            crash = (
                schedule.next_failure_in("server_crash", route.server_name, now, done)
                if route.server_name in crash_servers
                else None
            )
            fail_at = _stage_outcome(now, done, crash)
            if fail_at is not None:
                self.fail(fail_at, dev_busy, attempt, "server")
                return
            if rec is not None:
                rec.event(start, "exec_start", self.task.name, self.req.req_id,
                          resource=sres.name)
            srv_busy = done - start
            sim.schedule_at(
                done,
                lambda: self.stage_downlink(route, dev_busy, net1, srv_busy, attempt),
            )

        def stage_downlink(
            self,
            route: _Route,
            dev_busy: float,
            net1: float,
            srv_busy: float,
            attempt: int,
        ) -> None:
            now = sim.now
            lres = route.down
            if lres.is_down:
                self.fail(now + detection_s, dev_busy, attempt, "down")
                return
            name, demand = self.task.name, self.demand
            start, done = lres.submit(now, demand.down_bytes)
            crash = (
                schedule.next_failure_in("link_outage", name, now, done)
                if route.is_primary and name in outage_links
                else None
            )
            fail_at = _stage_outcome(now, done, crash)
            if fail_at is not None:
                self.fail(fail_at, dev_busy, attempt, "downlink")
                return
            if rec is not None:
                rec.event(start, "transfer_start", name, self.req.req_id,
                          resource=lres.name)
                rec.event(done, "transfer_end", name, self.req.req_id,
                          resource=lres.name)
            net = net1 + (done - start)
            sim.schedule_at(
                done,
                lambda: self.finish(done, dev_busy, srv_busy, net,
                                    demand.exit_position, offloaded=True,
                                    correct=demand.correct, degraded=False),
            )

        def stage_device(self) -> None:
            name, req_id, dres, demand = (
                self.task.name, self.req.req_id, self.dres, self.demand
            )
            if rec is not None:
                rec.event(sim.now, "enqueue", name, req_id, resource=dres.name)
            start, done = dres.submit(sim.now, demand.dev_flops)
            if rec is not None:
                rec.event(start, "dequeue", name, req_id, resource=dres.name)
                rec.event(start, "exec_start", name, req_id, resource=dres.name)
            dev_busy = done - start
            if not demand.offloaded:
                sim.schedule_at(
                    done,
                    lambda: self.finish(done, dev_busy, 0.0, 0.0,
                                        demand.exit_position, offloaded=False,
                                        correct=demand.correct, degraded=False),
                )
                return
            sim.schedule_at(done, lambda: self.begin_offload(dev_busy, 0))

    def launch(task: TaskSpec, req: Request) -> None:
        k = bisect_right(update_times, req.arrival_s)
        if task.name in shed_sets[k]:
            counters.shed += 1
            if rec is not None:
                rec.event(req.arrival_s, "shed", task.name, req.req_id)
                rec.count("sim.shed")
            if wm is not None and req.arrival_s >= cfg.warmup_s:
                wm.mark(task.name, req.arrival_s, "shed")
            return
        feats = plans[k].features[task.name]
        rng = derive_from(exec_material[task.name], req.req_id)
        demand = realize_request(task.model, feats.plan, req.difficulty, rng, metrics=reg)
        if jitter_mats is not None:
            demand = jitter_demand(
                demand, jitter_mats[task.name], req.req_id, cfg.service_noise
            )
        routes = route_sets[k].get(task.name)
        if demand.offloaded and routes is None:
            raise SimulationError(
                f"{task.name}: offloading demand under a local-only assignment"
            )
        _Flight(
            task, req, demand, device_res[task.device_name],
            degrade_profiles[k][task.name], routes,
        ).stage_device()

    # -- arrivals -------------------------------------------------------------
    total = 0
    for t in tasks:
        times = arrival_times(
            t.arrival_rate, cfg.horizon_s, cfg.arrival, cfg.burst_factor,
            derive(cfg.seed, "arrivals", t.name),
        )
        diff_rng = derive(cfg.seed, "difficulty", t.name)
        difficulties = t.model.difficulty.sample(diff_rng, times.size)
        for i, (at, d) in enumerate(zip(times, difficulties)):
            req = Request(
                task_name=t.name,
                req_id=i,
                arrival_s=float(at),
                difficulty=float(np.clip(d, 0.0, 1.0)),
                deadline_s=float(at) + t.deadline_s,
            )
            sim.schedule_at(float(at), (lambda tt=t, rr=req: launch(tt, rr)))
            total += 1
    if total == 0:
        raise SimulationError("no requests generated; horizon or rates too small")

    sim.run()

    utils = {r.name: r.utilization(cfg.horizon_s) for r in device_res.values()}
    for routes in route_sets:
        for tr in routes.values():
            utils[tr.primary.srv.name] = tr.primary.srv.utilization(cfg.horizon_s)
            if tr.standby is not None:
                utils[tr.standby.srv.name] = tr.standby.srv.utilization(cfg.horizon_s)

    report = metrics.report(
        cfg.horizon_s,
        utils,
        timeline=rec.timeline if rec is not None else None,
        registry=reg,
    )
    counters.requests = total
    counters.records = len(metrics.records)
    counters.discarded_warmup = metrics.discarded
    counters.events = sim.events_processed
    report.counters = counters
    report.windowed = wm
    if not counters.conserved():
        raise SimulationError(
            f"request conservation violated: {counters.requests} launched != "
            f"{counters.records} recorded + {counters.discarded_warmup} warmup "
            f"+ {counters.lost} lost + {counters.shed} shed"
        )
    if reg is not None:
        counters.publish(reg)
    return report
