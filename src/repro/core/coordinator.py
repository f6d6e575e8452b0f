"""Hierarchical coordinator: parallel shard solves + cross-shard migration.

The second level of the sharded control plane (first level:
:mod:`repro.core.sharding`).  :func:`solve_sharded` runs one joint solve per
shard — each against a :class:`~repro.core.sharding.ShardView`, so shard
solves pay sub-problem cost for every superlinear piece of the centralized
solver (Hungarian matching, local-search sweeps, group member scans) — then
stitches the shard plans into one global solution and runs rounds of
**cross-shard migration**: a local-search move class that re-homes a task to
a server in a *foreign* shard when doing so improves the global objective by
more than a hysteresis margin.  Migration is what recovers (most of) the
coupling the partition severed: tasks homed to an overloaded shard can spill
onto under-used servers elsewhere.

Determinism contract (gated by ``perf_gate.py --suite shard``):

- Shard ``s`` solves with seed ``derive_seed(seed, "shard", s)`` for
  ``s > 0`` and the base seed for shard 0; all seeds are derived upfront in
  shard order, so results do not depend on execution order.
- Shard fan-out reuses the solver's one thread pool (``restart_workers``
  wide); when it runs shards in parallel, each shard runs its restarts
  serially — pools are never nested — and serial vs parallel fan-out is
  bit-identical because shards share nothing mutable.
- A 1-shard solve takes an early path that returns the shard result as-is:
  the view covers every server in order and homing is the identity, so it is
  bit-identical to the centralized solver (same descent, same refinement,
  same packaging).
- Because servers are partitioned, every share group (per-server compute,
  per-(device, server) link bandwidth) lives wholly inside one shard; the
  stitched global allocation is re-solved once from the stitched plan and
  matches the union of the shard solutions.

Migration prices each move with the same
:class:`~repro.core.allocation.GroupState` kernel as the shard solves' local
search.  :func:`resolve_dirty` re-plans a subset of shards through the same
shard fan-out, stitch and stats code as :func:`solve_sharded`.

Telemetry: shard ``s`` records on the stream block ``1 + s*(restarts+1)``
(solve root span) through ``(s+1)*(restarts+1)`` (its restarts), so parallel
shard traces merge deterministically; migration rounds are spans on the
coordinator's stream 0.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import GroupState
from repro.core.candidates import CandidateSet
from repro.core.joint import (
    JointOptimizer,
    JointResult,
    JointSolverConfig,
    package_plan,
    prepare_candidates,
)
from repro.core.objectives import Objective
from repro.core.plan import PlanFeatures, TaskSpec
from repro.core.sharding import (
    AffinityIndex,
    ShardPlan,
    ShardView,
    make_shard_plan,
)
from repro.devices.cluster import EdgeCluster
from repro.errors import ConfigError
from repro.profiling.counters import PerfCounters
from repro.rng import SeedLike, derive_seed
from repro.telemetry.trace import get_tracer


@dataclass
class ShardStats:
    """Diagnostics of one shard-local solve."""

    shard: int
    servers: Tuple[int, ...]
    num_tasks: int
    iterations: int = 0
    converged: bool = True
    objective: float = 0.0  # shard-local objective (penalty-free report)
    solve_s: float = 0.0


@dataclass
class ShardedResult(JointResult):
    """A :class:`JointResult` plus control-plane diagnostics.

    ``iterations`` is the max over shards, ``converged`` requires every shard
    converged *and* migration to have stopped before its round budget, and
    ``history`` is the global (penalty-surrogate) objective after assembly
    and after each migration round.
    """

    shard_plan: Optional[ShardPlan] = None
    shard_stats: List[ShardStats] = field(default_factory=list)
    migration_history: List[int] = field(default_factory=list)  # accepted/round

    def publish_health(self, registry, tasks: Optional[Sequence[TaskSpec]] = None) -> None:
        """Publish per-shard health gauges into a metrics registry.

        Emits ``shard.<s>.{tasks,objective,solve_s,iterations,migrations_in}``
        gauges for every shard, plus ``shard.migration.accepted`` /
        ``shard.migration.rounds`` for the coordinator as a whole.  When the
        solved-over ``tasks`` sequence is supplied (same order as the
        ``solve_sharded`` call), each shard additionally reports
        ``utilization`` (mean compute-share load over its servers) and
        ``violation_rate`` (fraction of homed tasks whose plan latency misses
        the deadline) — the signals ``repro monitor`` renders per shard and
        the drift monitor compares against.  Call once per result; the
        migration counter is cumulative across publishes.
        """
        if self.shard_plan is None:
            raise ConfigError("result has no shard plan to publish health for")
        homed: Dict[int, int] = {}
        for s in self.shard_plan.task_shard:
            homed[s] = homed.get(s, 0) + 1
        server_load: Dict[int, float] = {}
        miss_by_shard: Dict[int, int] = {}
        if tasks is not None:
            if len(tasks) != len(self.shard_plan.task_shard):
                raise ConfigError(
                    "tasks must be the sequence solve_sharded ran over "
                    f"({len(self.shard_plan.task_shard)} tasks, got {len(tasks)})"
                )
            for i, t in enumerate(tasks):
                srv = self.plan.assignment.get(t.name)
                if srv is not None:
                    server_load[srv] = server_load.get(srv, 0.0) + self.plan.compute_shares[t.name]
                if not (self.plan.latencies[t.name] <= t.deadline_s):
                    s = self.shard_plan.task_shard[i]
                    miss_by_shard[s] = miss_by_shard.get(s, 0) + 1
        for st in self.shard_stats:
            n = homed.get(st.shard, 0)
            prefix = f"shard.{st.shard}"
            registry.gauge(f"{prefix}.tasks").set(float(n))
            registry.gauge(f"{prefix}.objective").set(float(st.objective))
            registry.gauge(f"{prefix}.solve_s").set(float(st.solve_s))
            registry.gauge(f"{prefix}.iterations").set(float(st.iterations))
            registry.gauge(f"{prefix}.migrations_in").set(float(n - st.num_tasks))
            if tasks is not None:
                util = (
                    sum(server_load.get(srv, 0.0) for srv in st.servers) / len(st.servers)
                    if st.servers
                    else 0.0
                )
                registry.gauge(f"{prefix}.utilization").set(util)
                registry.gauge(f"{prefix}.violation_rate").set(
                    miss_by_shard.get(st.shard, 0) / n if n else 0.0
                )
        registry.counter("shard.migration.accepted").inc(sum(self.migration_history))
        registry.gauge("shard.migration.rounds").set(float(len(self.migration_history)))


def solve_sharded(
    tasks: Sequence[TaskSpec],
    cluster: EdgeCluster,
    objective: Objective = Objective.AVG_LATENCY,
    config: Optional[JointSolverConfig] = None,
    candidates: Optional[Sequence[CandidateSet]] = None,
    seed: SeedLike = None,
) -> ShardedResult:
    """Solve the joint problem through the sharded control plane.

    Partition → parallel shard solves → stitch → migration rounds.  Usually
    reached through ``JointOptimizer.solve`` with ``config.shards > 1``;
    calling it directly with ``shards=1`` runs the same machinery degenerate
    (one shard, no migration) and is bit-identical to the centralized solver.
    """
    t_start = time.perf_counter()
    cfg = config or JointSolverConfig()
    perf = PerfCounters()
    tracer = get_tracer()
    with tracer.span(
        "solve.sharded",
        {"tasks": len(tasks), "servers": cluster.num_servers, "shards": cfg.shards}
        if tracer.enabled
        else None,
    ) as root:
        candsets = prepare_candidates(tasks, cluster, cfg, candidates, perf)

        with tracer.span("solve.shard_plan"):
            # one affinity index serves the homing scores, every migration
            # screen, and (via its per-partition caches) any later
            # incremental re-solve (1-shard solves never need it)
            t_idx = time.perf_counter()
            affinity = (
                AffinityIndex(tasks, candsets, cluster)
                if cfg.shards > 1
                else None
            )
            shard_plan = make_shard_plan(
                tasks, candsets, cluster, cfg.shards, cfg.shard_by, affinity
            )
            if affinity is not None:
                perf.index_build_s += time.perf_counter() - t_idx
        k = shard_plan.num_shards

        shard_tasks = shard_plan.tasks_by_shard()
        shard_results = _solve_shards(
            tasks, candsets, cluster, shard_plan, shard_tasks, range(k),
            objective, cfg, seed, perf, root.span_id,
        )
        shard_stats = [
            _shard_stats(shard_plan, shard_tasks, s, r)
            for s, r in enumerate(shard_results)
        ]

        iterations = max((st.iterations for st in shard_stats), default=0)
        shards_converged = all(st.converged for st in shard_stats)
        candidate_counts: Dict[str, int] = {}
        for r in shard_results:
            if r is not None:
                candidate_counts.update(r.candidate_counts)

        if k == 1:
            # degenerate control plane: the view covers every server in
            # order, homing is the identity, migration has no foreign shard —
            # return the shard result as-is (bit-identical to centralized)
            res = shard_results[0]
            assert res is not None
            perf.solve_s = time.perf_counter() - t_start
            return ShardedResult(
                plan=res.plan,
                iterations=res.iterations,
                converged=res.converged,
                history=res.history,
                candidate_counts=res.candidate_counts,
                perf=perf,
                shard_plan=shard_plan,
                shard_stats=shard_stats,
                migration_history=[],
            )

        with tracer.span("solve.assemble"):
            candsets, plan_idx, assignment = _stitch(
                tasks, candsets,
                _shard_placements(tasks, shard_plan, shard_tasks, range(k), shard_results),
            )
            state = GroupState(
                tasks, candsets, cluster, assignment, plan_idx,
                objective=objective, include_queueing=cfg.include_queueing,
                risk=cfg.risk, counters=perf,
            )

        task_shard = list(shard_plan.task_shard)
        obj = state.objective()
        history = [obj]
        migration_history: List[int] = []
        # the screen's (template, home-shard) → best-foreign-server table is
        # built once per solve (the index caches it per partition) and stays
        # valid across every round: accepted migrations re-home tasks — an
        # O(1) patch of task_shard — but never move servers between shards,
        # and the bounds ignore the evolving allocation
        foreign_val, foreign_srv = affinity.foreign_mins(shard_plan.server_shards)
        tpl = np.asarray(affinity.template_of, dtype=np.int64)
        for rnd in range(cfg.migration_rounds):
            with tracer.span(
                "solve.migrate", {"round": rnd} if tracer.enabled else None
            ):
                accepted, obj = _migrate(
                    state, obj, cfg.migration_hysteresis, shard_plan, task_shard,
                    tpl, foreign_val, foreign_srv,
                )
            migration_history.append(accepted)
            perf.migration_rounds += 1
            perf.migrations += accepted
            history.append(obj)
            if accepted == 0:
                break
        migration_converged = (
            cfg.migration_rounds == 0
            or (bool(migration_history) and migration_history[-1] == 0)
            or len(migration_history) < cfg.migration_rounds
        )
        shard_plan = shard_plan.with_task_shard(task_shard)

        with tracer.span("solve.package"):
            jp = package_plan(
                tasks, candsets, state.plan_idx, state.allocation(), cluster,
                objective, include_queueing=cfg.include_queueing, counters=perf,
                risk=cfg.risk,
            )
        perf.solve_s = time.perf_counter() - t_start
        return ShardedResult(
            plan=jp,
            iterations=iterations,
            converged=shards_converged and migration_converged,
            history=history,
            candidate_counts=candidate_counts,
            perf=perf,
            shard_plan=shard_plan,
            shard_stats=shard_stats,
            migration_history=migration_history,
        )


def _solve_shards(
    tasks: Sequence[TaskSpec],
    candsets: Sequence[CandidateSet],
    cluster: EdgeCluster,
    shard_plan: ShardPlan,
    shard_tasks: Sequence[Sequence[int]],
    shard_ids: Sequence[int],
    objective: Objective,
    cfg: JointSolverConfig,
    seed: SeedLike,
    perf: PerfCounters,
    parent_span: Optional[int],
) -> List[Optional[JointResult]]:
    """Solve the listed shards, each against its server view; ``None`` for a
    shard with no tasks.

    Shard ``s`` solves with seed ``derive_seed(seed, "shard", s)`` (the base
    seed for shard 0), all derived up front in shard order.  The fan-out
    reuses the restart pool (``restart_workers`` wide): when it runs shards
    in parallel, each shard runs its restarts serially.  Shard ``s`` records
    telemetry on the stream block starting at ``1 + s * (restarts + 1)``.
    The shards' counters merge into ``perf`` in shard order.
    """
    tracer = get_tracer()
    seeds = {s: seed if s == 0 else derive_seed(seed, "shard", s) for s in shard_ids}
    workers = min(cfg.restart_workers, len(shard_ids))
    inner_cfg = replace(
        cfg,
        shards=1,
        nested_shards=0,  # recursion is one level deep: racks never re-shard
        restart_workers=1 if workers > 1 else cfg.restart_workers,
    )
    stride = cfg.restarts + 1

    def _run(s: int) -> Optional[JointResult]:
        ids = shard_tasks[s]
        if not ids:
            return None
        view = ShardView(cluster, shard_plan.server_shards[s])
        cfg_s = inner_cfg
        if cfg.nested_shards > 1 and view.num_servers > 1:
            # two-level sharding: this region's solve re-shards its view
            # into racks and runs the same coordinator one level down
            cfg_s = replace(inner_cfg, shards=min(cfg.nested_shards, view.num_servers))
        solver = JointOptimizer(
            view,
            objective=objective,
            config=cfg_s,
            stream_base=1 + s * stride,
        )
        with tracer.stream(1 + s * stride, parent=parent_span):
            return solver.solve(
                [tasks[i] for i in ids],
                candidates=[candsets[i] for i in ids],
                seed=seeds[s],
            )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run, shard_ids))
    else:
        results = [_run(s) for s in shard_ids]
    perf.merge(
        PerfCounters.merged(
            {s: r.perf for s, r in zip(shard_ids, results) if r is not None}
        )
    )
    perf.shard_solves += sum(1 for r in results if r is not None)
    return results


def _shard_stats(
    shard_plan: ShardPlan,
    shard_tasks: Sequence[Sequence[int]],
    s: int,
    res: Optional[JointResult],
) -> ShardStats:
    st = ShardStats(
        shard=s, servers=shard_plan.server_shards[s], num_tasks=len(shard_tasks[s])
    )
    if res is not None:
        st.iterations = res.iterations
        st.converged = res.converged
        st.objective = res.plan.objective_value
        st.solve_s = res.perf.solve_s
    return st


class _PositionResolver:
    """Amortized feature-position lookup across rebound candidate sets.

    The candidate pipeline rebinds one cached set per template to every
    task, so thousands of :class:`CandidateSet` objects share a handful of
    ``features`` *list* objects.  Indexing each distinct list once (keyed by
    list identity), by element identity and by value (:class:`PlanFeatures`
    is frozen, so hashable), makes a full-plan stitch O(tasks + templates ×
    candidates) instead of O(tasks × candidates), refined plans equal to an
    enumerated one included.  Resolution order: first identity match, else
    first equality match, else None (caller appends the refined feature
    row).
    """

    def __init__(self) -> None:
        # per features list: (identity map, value map), first position each
        self._maps: Dict[int, Tuple[Dict[int, int], Dict[PlanFeatures, int]]] = {}

    def resolve(self, cs: CandidateSet, feats) -> Optional[int]:
        key = id(cs.features)
        maps = self._maps.get(key)
        if maps is None:
            by_id: Dict[int, int] = {}
            by_value: Dict[PlanFeatures, int] = {}
            for j, f in enumerate(cs.features):
                by_id.setdefault(id(f), j)
                by_value.setdefault(f, j)
            self._maps[key] = maps = (by_id, by_value)
        by_id, by_value = maps
        j = by_id.get(id(feats))
        return j if j is not None else by_value.get(feats)


def _shard_placements(
    tasks: Sequence[TaskSpec],
    shard_plan: ShardPlan,
    shard_tasks: Sequence[Sequence[int]],
    shard_ids: Sequence[int],
    results: Sequence[Optional[JointResult]],
) -> Iterator[Tuple[int, Optional[int], PlanFeatures]]:
    """``(task, global server, features)`` of every task the shard results
    place; shard plans key tasks by name with shard-local server indices."""
    for s, res in zip(shard_ids, results):
        if res is None:
            continue
        server_ids = shard_plan.server_shards[s]
        for i in shard_tasks[s]:
            name = tasks[i].name
            local = res.plan.assignment[name]
            server = None if local is None else int(server_ids[local])
            yield i, server, res.plan.features[name]


def _stitch(
    tasks: Sequence[TaskSpec],
    candsets: Sequence[CandidateSet],
    placements: Iterable[Tuple[int, Optional[int], PlanFeatures]],
) -> Tuple[List[CandidateSet], List[int], List[Optional[int]]]:
    """Global ``(candsets, plan_idx, assignment)`` from per-task placements.

    Each chosen feature vector is located in the task's candidate set
    through a :class:`_PositionResolver` shared across every task of a
    template (O(tasks) overall), and appended when a shard solve's threshold
    refinement produced a plan outside the enumerated set.
    """
    out_sets = list(candsets)
    plan_idx: List[int] = [0] * len(tasks)
    assignment: List[Optional[int]] = [None] * len(tasks)
    positions = _PositionResolver()
    for i, server, feats in placements:
        assignment[i] = server
        j = positions.resolve(out_sets[i], feats)
        if j is None:
            cs = out_sets[i]
            out_sets[i] = cs.appended(feats)
            j = len(cs.features)
        plan_idx[i] = j
    return out_sets, plan_idx, assignment


def _migrate(
    state: GroupState,
    obj: float,
    hyst: float,
    shard_plan: ShardPlan,
    task_shard: List[int],
    tpl: np.ndarray,
    foreign_val: np.ndarray,
    foreign_srv: np.ndarray,
) -> Tuple[int, float]:
    """One round of cross-shard migration moves; returns (accepted, objective).

    Two stages, mirroring the local search's screen-then-verify shape:

    1. **Screen.**  Every task gets an optimistic lower bound on its latency
       at its best *foreign* server (full share, no queueing) straight from
       the :class:`AffinityIndex`'s per-(template, home shard) table, in one
       vectorized pass over the template array ``tpl``.  Tasks whose bound
       does not undercut their current latency by the hysteresis margin are
       dropped; survivors are ranked by bound gain (ties by task index, via
       a stable sort) and the top ``max(8, n // 64)`` proceed.
    2. **Verify.**  Each surviving (task, foreign server) move is priced
       exactly by :meth:`GroupState.trial` and committed iff the *global*
       objective improves by more than the hysteresis margin.

    Accepted moves update the incumbent immediately (greedy, in ranked
    order), re-homing the task to the target server's shard.
    """
    base_lat = state.latencies()

    # -- screen (vectorized) -------------------------------------------------
    home = np.asarray(task_shard, dtype=np.int64)
    fv = foreign_val[tpl, home]
    fs = foreign_srv[tpl, home]
    margin = hyst * np.maximum(np.abs(base_lat), 1e-12)
    idx = np.flatnonzero((fs >= 0) & (fv < base_lat - margin))
    budget = max(8, len(base_lat) // 64)
    if idx.size:
        gains = fv[idx] - base_lat[idx]
        take = idx[np.argsort(gains, kind="stable")[:budget]]
    else:
        take = idx
    trials = [(int(i), int(fs[i])) for i in take]

    # -- verify --------------------------------------------------------------
    accepted = 0
    for i, target in trials:
        if state.assignment[i] == target:
            continue
        move = state.trial(i, target)
        if move is not None and move.objective < obj - hyst * max(abs(obj), 1e-12):
            state.commit(move)
            obj = move.objective
            task_shard[i] = shard_plan.shard_of_server(target)
            accepted += 1
    return accepted, obj


def resolve_dirty(
    tasks: Sequence[TaskSpec],
    cluster: EdgeCluster,
    prior: ShardedResult,
    dirty_shards: Sequence[int],
    objective: Objective = Objective.AVG_LATENCY,
    config: Optional[JointSolverConfig] = None,
    candidates: Optional[Sequence[CandidateSet]] = None,
    seed: SeedLike = None,
) -> ShardedResult:
    """Incrementally re-solve only the *dirty* shards of a prior solve.

    The online controller's drift monitor flags the shards whose traffic
    moved (see :class:`~repro.telemetry.drift.ShardDriftMonitor`); this
    re-plans exactly those, keeps every clean shard's plan **by identity**
    from ``prior`` (same feature objects, same placements), re-solves the
    global shares in closed form, and re-packages — an O(dirty) control
    action instead of a full :func:`solve_sharded`.

    Contracts:

    - ``prior`` must come from a solve over the same ``tasks`` sequence
      (same order) on this cluster; the server partition and task homing are
      carried over unchanged.
    - Dirty shard ``s`` re-solves through the fan-out of a full solve, with
      the seed it would give it (``derive_seed(seed, "shard", s)``, base
      seed for shard 0) and the same nested re-sharding, so a re-solve with
      every shard dirty reproduces the fan-out of a fresh solve.
    - ``tasks`` are validated like a full solve's (names unique, devices in
      the cluster).
    - Cross-shard migration is **not** re-run: a delta re-plan deliberately
      leaves the homing alone.  When drift is global (every shard flagged,
      or servers changed), escalate to a full ``solve_sharded`` — the online
      controller does exactly that.

    The wall time lands in ``perf.resolve_dirty_s`` (and ``solve_s``);
    clean shards' :class:`ShardStats` are carried from ``prior``.
    """
    t_start = time.perf_counter()
    cfg = config or JointSolverConfig()
    if prior.shard_plan is None:
        raise ConfigError("prior result has no shard plan to re-solve from")
    shard_plan = prior.shard_plan
    k = shard_plan.num_shards
    if len(tasks) != len(shard_plan.task_shard):
        raise ConfigError(
            f"tasks must match the prior solve ({len(shard_plan.task_shard)} "
            f"tasks, got {len(tasks)})"
        )
    dirty = sorted({int(s) for s in dirty_shards})
    if not dirty:
        raise ConfigError("no dirty shards to re-solve")
    for s in dirty:
        if not (0 <= s < k):
            raise ConfigError(f"dirty shard {s} outside 0..{k - 1}")

    perf = PerfCounters()
    tracer = get_tracer()
    with tracer.span(
        "solve.resolve_dirty",
        {"tasks": len(tasks), "shards": k, "dirty": len(dirty)}
        if tracer.enabled
        else None,
    ) as root:
        candsets = prepare_candidates(tasks, cluster, cfg, candidates, perf)
        shard_tasks = shard_plan.tasks_by_shard()
        results = _solve_shards(
            tasks, candsets, cluster, shard_plan, shard_tasks, dirty,
            objective, cfg, seed, perf, root.span_id,
        )

        # stitch: clean shards by identity from the prior plan, dirty shards
        # from the fresh shard results
        dirty_set = set(dirty)
        clean = (
            (i, prior.plan.assignment[t.name], prior.plan.features[t.name])
            for i, t in enumerate(tasks)
            if shard_plan.task_shard[i] not in dirty_set
        )
        out_sets, plan_idx, assignment = _stitch(
            tasks, candsets,
            chain(clean, _shard_placements(tasks, shard_plan, shard_tasks, dirty, results)),
        )
        state = GroupState(
            tasks, out_sets, cluster, assignment, plan_idx,
            objective=objective, include_queueing=cfg.include_queueing,
            risk=cfg.risk, counters=perf,
        )
        jp = package_plan(
            tasks, out_sets, plan_idx, state.allocation(), cluster, objective,
            include_queueing=cfg.include_queueing, counters=perf,
            risk=cfg.risk,
        )

        stats_by_shard = {st.shard: st for st in prior.shard_stats}
        for s, res in zip(dirty, results):
            stats_by_shard[s] = _shard_stats(shard_plan, shard_tasks, s, res)
        shard_stats = [stats_by_shard[s] for s in sorted(stats_by_shard)]

        candidate_counts = dict(prior.candidate_counts)
        for res in results:
            if res is not None:
                candidate_counts.update(res.candidate_counts)

        elapsed = time.perf_counter() - t_start
        perf.resolve_dirty_s += elapsed
        perf.solve_s = elapsed
        return ShardedResult(
            plan=jp,
            iterations=max(
                (r.iterations for r in results if r is not None), default=0
            ),
            converged=prior.converged
            and all(r.converged for r in results if r is not None),
            history=[jp.objective_value],
            candidate_counts=candidate_counts,
            perf=perf,
            shard_plan=shard_plan,
            shard_stats=shard_stats,
            migration_history=[],
        )
