"""The discrete-event simulation loop, failure-aware.

This is the one event loop behind :func:`repro.sim.runner.simulate_plan`:
every run that cannot take the vectorized sweep (a fault schedule, the
empty one included, or an attached telemetry recorder) lands here.  A
fault-free run is a run with an empty schedule, and its report is
bit-identical to the sweep's on a fixed seed.

Requests are not realized here: each task's rows come from the sweep's
realizer (:class:`~repro.sim.execution.TaskRealizer`) before the run, cut at
every :class:`~repro.faults.policy.PlanUpdate` time so the requests arriving
under plan generation *k* take generation *k*'s realization table, and the
loop replays them request by request.  Arrivals reach the loop as one
column sorted by time (:meth:`~repro.sim.engine.Simulator.feed`), not as
heap events, so the heap holds only the requests in flight.  Completions
are logged as columns and written back into the rows, which become records
and the windowed SLO feed through the sweep's builder
(:func:`~repro.sim.execution.record_fields`), in completion order.

On top of the plain device → uplink → server → downlink pipeline, it carries
the :class:`~repro.faults.schedule.FaultSchedule` as data — resolved once
into the windows each resource holds and applies itself
(:func:`~repro.faults.schedule.resource_windows`), so the heap holds request
stages only — per-stage failure detection (down-at-submit,
crash-during-service, wire loss, timeout), and the
:class:`~repro.faults.policy.FailurePolicy` recovery ladder (backoff retry
→ failover to a standby server slice → graceful local degradation → lost).

Because FIFO service times are known at submission, every stage's outcome is
decided deterministically *at submission time*: the earliest of
{crash-interrupt, timeout} — both computable from the resource's windows and
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

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.plan import JointPlan, SurgeryPlan, TaskSpec
from repro.devices.cluster import EdgeCluster
from repro.errors import ConfigError, SimulationError
from repro.faults.policy import FailurePolicy, PlanUpdate
from repro.faults.schedule import FaultSchedule, resource_windows
from repro.models.multiexit import MultiExitModel
from repro.rng import derive
from repro.sim.engine import Simulator
from repro.sim.execution import (
    ARR, COLS, COMPLETION, CORRECT, DEV_FLOPS, DOWN_BYTES, OFF, POS,
    SRV_FLOPS, UP_BYTES, RealizationTable, TaskRealizer, build_records, record_fields,
    shared_table,
)
from repro.sim.metrics import SimCounters, SimulationReport
from repro.sim.queues import (
    NO_FAULTS, FifoResource, LinkResource, device_resources, slice_resources,
)
from repro.telemetry.timeline import TimelineRecorder
from repro.telemetry.trace import get_tracer
from repro.telemetry.windows import WindowedMetrics

__all__ = ["simulate_with_faults"]


@dataclass
class _Route:
    """One offload path: a server slice plus its two link directions."""

    srv: FifoResource
    up: LinkResource
    down: LinkResource
    #: the task's ``request_loss`` windows ``(start, end, p)``; primary
    #: routes only — loss, like link faults, hits the task's own access path
    loss: Tuple[Tuple[float, float, float], ...]

    def reachable(self, now: float) -> bool:
        return not (
            self.srv.is_down(now) or self.up.is_down(now) or self.down.is_down(now)
        )


def _loss_probability(windows: Tuple[Tuple[float, float, float], ...], t: float) -> float:
    """Per-attempt loss probability at ``t`` under ``windows``."""
    return next((p for start, end, p in windows if start <= t < end), 0.0)


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


def _arrival_feed(
    parts: Sequence[Tuple[int, int, np.ndarray, np.ndarray]],
    launch: Callable[[int, int, int], None],
) -> Tuple[np.ndarray, Callable[[int], None]]:
    """The event loop's arrival feed: times ascending and their ``fire``.

    ``parts`` holds ``(task, generation, request ids, arrival times)`` in
    scheduling order.  A stable sort by arrival time keeps that order among
    simultaneous arrivals; ``fire(c)`` launches the ``c``-th arrival with
    plain Python ints.  The columns live in ``fire`` alone, so they go when
    the simulator drops a drained feed.
    """
    tasks, gens, reqs, arrivals = zip(*parts)
    sizes = [a.size for a in arrivals]
    arrival = np.concatenate(arrivals)
    order = np.argsort(arrival, kind="stable")
    task = np.repeat(np.array(tasks, dtype=np.intp), sizes)[order]
    gen = np.repeat(np.array(gens, dtype=np.intp), sizes)[order]
    req = np.concatenate(reqs)[order]

    def fire(c: int) -> None:
        launch(task.item(c), gen.item(c), req.item(c))

    return arrival[order], fire


def simulate_with_faults(
    tasks: Sequence[TaskSpec],
    plan: JointPlan,
    cluster: EdgeCluster,
    cfg,  # SimulationConfig (typed loosely to avoid the import cycle)
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
    # windowed SLO aggregation works on fault runs too: completions feed the
    # met/miss counters, lost/shed/degraded outcomes annotate their windows
    wm = (
        WindowedMetrics(cfg.windows, cfg.horizon_s)
        if cfg.windows is not None else None
    )

    # -- faults ---------------------------------------------------------------
    # resolved once (unknown targets fail here, before the run starts); each
    # window's start, and its end unless permanent, counts as one event
    server_faults, link_faults, loss_windows = resource_windows(
        schedule, [s.name for s in cluster.servers], [t.name for t in tasks]
    )
    counters.faults_injected = len(schedule)
    transitions = 0
    for e in schedule:
        transitions += 1 if e.permanent else 2
        if rec is not None:
            rec.event(e.start_s, "fault_inject", e.target, -1, resource=e.kind,
                      value=e.severity)
            rec.count(f"sim.faults.{e.kind}")
            if not e.permanent:
                rec.event(e.end_s, "fault_recover", e.target, -1, resource=e.kind)

    # -- resources ------------------------------------------------------------
    device_res = device_resources(cluster, rec)

    def _make_route(t: TaskSpec, p: JointPlan, s: int, tag: str, primary: bool) -> _Route:
        # every slice on a server takes its windows; link faults and loss hit
        # the primary path only (a standby reaches another server's link)
        srv, up, down = slice_resources(
            t, p, s, cluster, tag, rec,
            server_faults[cluster.servers[s].name],
            link_faults[t.name] if primary else NO_FAULTS,
        )
        return _Route(srv, up, down, loss_windows.get(t.name, ()) if primary else ())

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

    detection_s = policy.detection_delay_s if policy is not None else 0.0

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

    # -- realized requests ----------------------------------------------------
    # Row j of ``task_rows[i]`` is task i's request j, realized before the run
    # (see the arrivals below); completions write their times and busy
    # columns back into it.  Difficulties stay beside the rows for the
    # degrade path.
    task_rows: List[Optional[np.ndarray]] = []
    task_difficulty: List[np.ndarray] = []
    # completion n's (task index, request id, degraded) is entry n of the
    # ``done_*`` columns, sized once the requests are realized
    n_done = 0

    # -- request lifecycle ----------------------------------------------------
    class _Flight:
        """One request's walk through the pipeline and the recovery ladder.

        ``row`` is the request's realized row as a list (its demands); the
        outcome is written back into ``task_rows``.  The stages are methods
        over per-request slots, so the continuations scheduled on the
        simulator hold the flight but the flight holds none of them: a retry
        loops back into an earlier stage without the reference cycle sibling
        closures would form, and a finished request is freed at once instead
        of by the cyclic garbage collector.
        """

        __slots__ = ("tidx", "req_id", "task", "row", "dres", "profile", "routes")

        def __init__(self, tidx, req_id, task, row, dres, profile, routes) -> None:
            self.tidx = tidx
            self.req_id = req_id
            self.task = task
            self.row = row
            self.dres = dres
            self.profile = profile
            self.routes = routes

        def finish(
            self,
            completion: float,
            dev_busy: float,
            srv_busy: float,
            net_busy: float,
            degraded: bool = False,
        ) -> None:
            nonlocal n_done
            name, req_id, row = self.task.name, self.req_id, self.row
            if rec is not None:
                rec.event(completion, "exit_taken", name, req_id, value=row[POS])
                rec.event(completion, "complete", name, req_id)
                rec.registry.histogram("sim.latency_ms").observe(
                    (completion - row[ARR]) * 1e3
                )
            task_rows[self.tidx][req_id, COMPLETION:] = (
                completion, dev_busy, net_busy, srv_busy
            )
            done_task[n_done] = self.tidx
            done_req[n_done] = req_id
            done_degraded[n_done] = degraded
            n_done += 1
            if degraded and wm is not None and row[ARR] >= cfg.warmup_s:
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
            name, req_id = self.task.name, self.req_id
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
            if wm is not None and self.row[ARR] >= cfg.warmup_s:
                wm.mark(name, at, "lost")

        def degrade(self, dev_busy: float) -> None:
            now = sim.now
            task, profile, row = self.task, self.profile, self.row
            if profile.on_device_pos >= 0:
                # deepest on-device exit: backbone-to-cut and its branch were
                # already computed, so accepting its output costs nothing extra
                difficulty = task_difficulty[self.tidx][self.req_id]
                p_ok = float(
                    task.model.accuracy_model.correctness(
                        np.array([profile.competence]), np.array([difficulty])
                    )[0, 0]
                )
                p_ok = float(np.clip(p_ok, 0.01, 0.999))
                draw = derive(cfg.seed, "fault_degrade", task.name, self.req_id)
                self.complete(now, dev_busy, profile.on_device_pos,
                              draw.random() < p_ok)
                return
            # no on-device exit kept: run the server-side remainder locally —
            # same exit, same correctness, the work just lands on the device
            start, done = self.dres.submit(now, row[SRV_FLOPS])
            sim.schedule_at(
                done,
                lambda: self.complete(done, dev_busy + (done - start),
                                      row[POS], row[CORRECT]),
            )

        def complete(
            self, at: float, dev_busy: float, exit_position: float, correct: float
        ) -> None:
            counters.degraded_completions += 1
            if rec is not None:
                rec.event(at, "degraded", self.task.name, self.req_id)
                rec.count("sim.degraded_completions")
            row = self.row
            row[POS], row[OFF], row[CORRECT] = float(exit_position), 0.0, float(correct)
            task_rows[self.tidx][self.req_id, POS:CORRECT + 1] = row[POS:CORRECT + 1]
            self.finish(at, dev_busy, 0.0, 0.0, degraded=True)

        # -- offload attempt ---------------------------------------------------
        def begin_offload(self, dev_busy: float, attempt: int) -> None:
            routes = self.routes
            route = routes.primary
            if routes.standby is not None and not route.reachable(sim.now):
                route = routes.standby
                counters.failovers += 1
                if rec is not None:
                    rec.event(sim.now, "failover", self.task.name, self.req_id,
                              resource=route.srv.name)
                    rec.count("sim.failovers")
            self.stage_uplink(route, dev_busy, attempt)

        def stage_uplink(self, route: _Route, dev_busy: float, attempt: int) -> None:
            now = sim.now
            lres = route.up
            if lres.is_down(now):
                self.fail(now + detection_s, dev_busy, attempt, "down")
                return
            name = self.task.name
            start, done = lres.submit(now, self.row[UP_BYTES])
            if route.loss:
                p_loss = _loss_probability(route.loss, now)
                if p_loss > 0.0:
                    roll = derive(
                        cfg.seed, "fault_loss", name, self.req_id, attempt
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
            fail_at = _stage_outcome(now, done, lres.next_crash(now, done))
            if fail_at is not None:
                self.fail(fail_at, dev_busy, attempt, "uplink")
                return
            if rec is not None:
                rec.event(start, "transfer_start", name, self.req_id,
                          resource=lres.name)
                rec.event(done, "transfer_end", name, self.req_id,
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
            if sres.is_down(now):
                self.fail(now + detection_s, dev_busy, attempt, "down")
                return
            start, done = sres.submit(now, self.row[SRV_FLOPS])
            fail_at = _stage_outcome(now, done, sres.next_crash(now, done))
            if fail_at is not None:
                self.fail(fail_at, dev_busy, attempt, "server")
                return
            if rec is not None:
                rec.event(start, "exec_start", self.task.name, self.req_id,
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
            if lres.is_down(now):
                self.fail(now + detection_s, dev_busy, attempt, "down")
                return
            name = self.task.name
            start, done = lres.submit(now, self.row[DOWN_BYTES])
            fail_at = _stage_outcome(now, done, lres.next_crash(now, done))
            if fail_at is not None:
                self.fail(fail_at, dev_busy, attempt, "downlink")
                return
            if rec is not None:
                rec.event(start, "transfer_start", name, self.req_id,
                          resource=lres.name)
                rec.event(done, "transfer_end", name, self.req_id,
                          resource=lres.name)
            net = net1 + (done - start)
            sim.schedule_at(done, lambda: self.finish(done, dev_busy, srv_busy, net))

        def stage_device(self) -> None:
            name, req_id, dres = self.task.name, self.req_id, self.dres
            if rec is not None:
                rec.event(sim.now, "enqueue", name, req_id, resource=dres.name)
            start, done = dres.submit(sim.now, self.row[DEV_FLOPS])
            if rec is not None:
                rec.event(start, "dequeue", name, req_id, resource=dres.name)
                rec.event(start, "exec_start", name, req_id, resource=dres.name)
            dev_busy = done - start
            if not self.row[OFF]:
                sim.schedule_at(done, lambda: self.finish(done, dev_busy, 0.0, 0.0))
                return
            sim.schedule_at(done, lambda: self.begin_offload(dev_busy, 0))

    def launch(i: int, k: int, req_id: int) -> None:
        task = tasks[i]
        if task.name in shed_sets[k]:
            now = sim.now
            counters.shed += 1
            if rec is not None:
                rec.event(now, "shed", task.name, req_id)
                rec.count("sim.shed")
            if wm is not None and now >= cfg.warmup_s:
                wm.mark(task.name, now, "shed")
            return
        row = task_rows[i][req_id].tolist()
        if reg is not None:
            reg.counter("sim.realized.requests").inc()
            reg.counter(f"sim.realized.exit{int(row[POS])}").inc()
            if row[OFF]:
                reg.counter("sim.realized.offloaded").inc()
        routes = route_sets[k].get(task.name)
        if row[OFF] and routes is None:
            raise SimulationError(
                f"{task.name}: offloading demand under a local-only assignment"
            )
        _Flight(
            i, req_id, task, row, device_res[task.device_name],
            degrade_profiles[k][task.name], routes,
        ).stage_device()

    # -- arrivals -------------------------------------------------------------
    # each task's requests are realized segment by segment, cut at every plan
    # update: the requests arriving under plan generation k take generation
    # k's realization table (shed segments keep only their arrivals).  The
    # (task, generation, request, arrival) columns are collected task by
    # task, generation by generation, in request order; one stable sort by
    # arrival time makes them the loop's feed, so arrivals at one instant
    # fire in that order and ahead of any request stage due then, the order
    # the sweep's records encode.
    tables: Dict[Tuple[int, SurgeryPlan], RealizationTable] = {}
    total = 0
    parts: List[Tuple[int, int, np.ndarray, np.ndarray]] = []
    for i, t in enumerate(tasks):
        realizer = TaskRealizer(t, cfg)
        rows_parts, diff_parts = [], []
        for k, p in enumerate(plans):
            t_end = update_times[k] if k < len(update_times) else cfg.horizon_s
            req_id, arrival, difficulty = realizer.draw(t_end)
            if t.name in shed_sets[k]:
                rows = np.zeros((arrival.size, len(COLS)))
                rows[:, ARR] = arrival
            else:
                table = shared_table(tables, t.model, p.features[t.name].plan)
                rows = realizer.rows(table, req_id, arrival, difficulty)
            parts.append((i, k, req_id, arrival))
            rows_parts.append(rows)
            diff_parts.append(difficulty)
        task_rows.append(np.concatenate(rows_parts))
        task_difficulty.append(np.concatenate(diff_parts))
        total += realizer.generated
    if total == 0:
        raise SimulationError("no requests generated; horizon or rates too small")

    done_task = np.empty(total, dtype=np.intp)
    done_req = np.empty(total, dtype=np.intp)
    done_degraded = np.empty(total, dtype=bool)
    sim.feed(*_arrival_feed(parts, launch))
    del parts  # the feed holds its own sorted columns
    sim.run()

    utils = {r.name: r.utilization(cfg.horizon_s) for r in device_res.values()}
    for routes in route_sets:
        for tr in routes.values():
            utils[tr.primary.srv.name] = tr.primary.srv.utilization(cfg.horizon_s)
            if tr.standby is not None:
                utils[tr.standby.srv.name] = tr.standby.srv.utilization(cfg.horizon_s)

    # completed rows in completion order; each task's rows go once gathered,
    # so they are never live beside all the gathered rows and the records
    task_difficulty.clear()
    task_of, req_of = done_task[:n_done], done_req[:n_done]
    done_rows = np.empty((n_done, len(COLS)))
    for i in range(len(task_rows)):
        sel = task_of == i
        done_rows[sel] = task_rows[i][req_of[sel]]
        task_rows[i] = None
    fields = record_fields(
        done_rows,
        task_of,
        [t.name for t in tasks],
        cfg.warmup_s,
        wm,
        degraded=done_degraded[:n_done],
    )
    del done_rows
    records = build_records(fields)
    with get_tracer().span("sim.report"):
        report = SimulationReport.from_records(
            records,
            cfg.horizon_s,
            utils,
            task_of.size - len(records),
            timeline=rec.timeline if rec is not None else None,
            registry=reg,
        )
    counters.requests = total
    counters.records = len(records)
    counters.discarded_warmup = report.discarded_warmup
    counters.events = sim.events_processed + transitions
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
