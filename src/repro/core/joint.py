"""The joint optimizer: block-coordinate descent over (surgery, allocation).

The two decision blocks are mutually dependent — the best surgery plan
depends on the shares a task gets, and the right shares depend on how much
work each plan ships to the edge — so the solver alternates:

1. **Surgery step.** Holding assignment + shares fixed, each task re-picks
   the latency-minimal plan from its (accuracy-feasible, dominance-pruned)
   candidate set.  One vectorized argmin per task.
2. **Allocation step.** Holding plans fixed, compute and bandwidth shares are
   re-solved in closed form (sqrt rule); every :data:`REASSIGN_EVERY`
   iterations the task→server matching is re-solved too, and the new
   matching is kept only if it improves the objective (hill-climbing
   safeguard).

Each accepted step weakly decreases the objective over a finite solution
space, so the iteration reaches a fixed point; ``tol`` stops it early when
relative improvement stalls.  ``restarts`` runs the whole descent from
perturbed initial assignments — each from its own deterministically spawned
random stream, optionally in parallel (``restart_workers``) — and returns
the best fixed point found.

**Hot path.**  Each descent holds its solution in its own
:class:`~repro.core.allocation.GroupState`.  The share problem decomposes
per server / per access link, so a surgery step or a local-search trial
move re-solves only the groups it touches and re-prices only their members.
Candidate sets come from a process-wide memoized pipeline (see
:func:`repro.core.candidates.build_candidates`).  Both optimizations are
bit-exact: a solve produces the same plan, shares, and objective as the
non-incremental code path.  :class:`~repro.profiling.counters.PerfCounters`
threaded through :class:`JointResult` counts the work actually done.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import (
    Allocation,
    GroupState,
    allocate_shares,
    assign_servers,
    solution_latencies,
)
from repro.core.candidates import (
    CandidateSet,
    build_candidates,
    candidate_cache_stats,
)
from repro.core.objectives import Objective
from repro.core.plan import JointPlan, TaskSpec
from repro.core.risk import RiskConfig
from repro.devices.cluster import EdgeCluster
from repro.errors import ConfigError, require_finite, require_int
from repro.profiling.counters import PerfCounters
from repro.rng import SeedLike, as_generator, spawn
from repro.telemetry.trace import Span, Tracer, get_tracer

#: The descent re-runs the task→server matching (and a local-search sweep)
#: every this many iterations.
REASSIGN_EVERY = 5


def package_plan(
    tasks: Sequence[TaskSpec],
    candsets: Sequence[CandidateSet],
    plan_idx: Sequence[int],
    alloc: "Allocation",
    cluster: EdgeCluster,
    objective: Objective,
    include_queueing: bool = True,
    counters: Optional[PerfCounters] = None,
    risk: Optional[RiskConfig] = None,
) -> JointPlan:
    """Package a solver state into a :class:`~repro.core.plan.JointPlan`.

    Reports *honest* latencies and objective — ``inf`` for queue-unstable
    tasks — regardless of the graded overload surrogate the search used
    internally.  Shared by the centralized solver and the sharded
    coordinator so both package identically.  An active ``risk`` config makes
    the packaged latencies the buffered ``μ + κ(ε)·σ`` values, so a plan
    whose latencies meet the deadlines is *certified* at tail level ``ε``.
    """
    lat = solution_latencies(
        tasks,
        candsets,
        plan_idx,
        alloc,
        cluster,
        include_queueing=include_queueing,
        risk=risk,
    )
    if counters is not None:
        counters.latency_evals += len(tasks)
    obj = objective.evaluate(lat, tasks)
    return JointPlan(
        assignment={t.name: alloc.assignment[i] for i, t in enumerate(tasks)},
        features={t.name: candsets[i].features[plan_idx[i]] for i, t in enumerate(tasks)},
        compute_shares={t.name: float(alloc.compute_shares[i]) for i, t in enumerate(tasks)},
        bandwidth_shares={t.name: float(alloc.bandwidth_shares[i]) for i, t in enumerate(tasks)},
        latencies={t.name: float(lat[i]) for i, t in enumerate(tasks)},
        objective_value=float(obj),
    )


def prepare_candidates(
    tasks: Sequence[TaskSpec],
    cluster: EdgeCluster,
    config: "JointSolverConfig",
    candidates: Optional[Sequence[CandidateSet]],
    counters: PerfCounters,
) -> List[CandidateSet]:
    """Validate ``tasks`` and return one candidate set per task.

    Raises :class:`ConfigError` on no tasks, duplicate task names, a device
    the cluster lacks, or a ``candidates`` list of the wrong length.  Without
    ``candidates`` the sets come from the memoized pipeline under
    ``config``'s grid, cut budget and cache switch (span
    ``solve.candidates``), and the cache traffic lands in ``counters``.
    Shared by the centralized solve and both sharded entry points.
    """
    if not tasks:
        raise ConfigError("no tasks to optimize")
    names = [t.name for t in tasks]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate task names: {names}")
    for t in tasks:
        cluster.by_name(t.device_name)  # validates membership
    if candidates is not None:
        if len(candidates) != len(tasks):
            raise ConfigError("candidates/tasks length mismatch")
        return list(candidates)
    with get_tracer().span("solve.candidates"):
        before = candidate_cache_stats()
        candsets = [
            build_candidates(
                t,
                threshold_grid=config.threshold_grid,
                max_cuts=config.max_cuts,
            )
            for t in tasks
        ]
        after = candidate_cache_stats()
    counters.candidate_cache_hits += after.hits - before.hits
    counters.candidate_cache_misses += after.misses - before.misses
    return candsets


@dataclass(frozen=True)
class JointSolverConfig:
    """Tunables of the BCD joint optimizer.

    ``shards > 1`` switches :meth:`JointOptimizer.solve` to the sharded
    control plane (:mod:`repro.core.coordinator`): the cluster's servers are
    partitioned per ``shard_by``, each shard is solved independently, and up
    to ``migration_rounds`` rounds of cross-shard migration re-home boundary
    tasks whose relative latency gain beats ``migration_hysteresis``.

    ``nested_shards > 1`` makes each shard's solve re-shard its own server
    view (two-level regions → racks), running the same migration machinery
    one level down.

    ``restart_workers`` is the width of the solver's *one* thread pool.  With
    ``shards == 1`` it fans out restarts; with ``shards > 1`` the same pool
    fans out shard solves and each shard runs its restarts serially — shard
    fan-out reuses the restart pool, pools are never nested (there is no
    separate ``shard_workers`` knob).
    """

    max_iterations: int = 50
    tol: float = 1e-4  # relative objective improvement to keep iterating
    local_search: bool = True  # per-task best-response reassignment sweeps
    refine_thresholds: bool = True  # per-exit threshold polish on the winner
    restarts: int = 1  # independent descents from perturbed starts
    restart_workers: int = 1  # threads in the solver pool (1 = serial)
    include_queueing: bool = True
    threshold_grid: Optional[Tuple[float, ...]] = None
    max_cuts: Optional[int] = None
    shards: int = 1  # server partitions solved independently (1 = centralized)
    shard_by: str = "contiguous"  # partition strategy (see core.sharding)
    migration_rounds: int = 3  # cross-shard re-homing rounds after shard solves
    migration_hysteresis: float = 1e-3  # relative gain a migration must beat
    nested_shards: int = 0  # >1: each shard re-shards its view (regions->racks)
    # chance-constrained mode: buffer every latency the solver sees to
    # μ + κ(ε)·σ (see repro.core.risk).  None (or buffer="none") keeps the
    # deterministic solver bit-identical.
    risk: Optional[RiskConfig] = None

    def __post_init__(self) -> None:
        from repro.core.sharding import SHARD_STRATEGIES

        for name, low in _INT_FIELDS:
            require_int(self, name)
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
        for name in ("tol", "migration_hysteresis"):
            require_finite(self, name)
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.shard_by not in SHARD_STRATEGIES:
            raise ConfigError(
                f"unknown shard_by {self.shard_by!r}; available {SHARD_STRATEGIES}"
            )


#: Integer fields of :class:`JointSolverConfig` and their lower bounds.
_INT_FIELDS = (
    ("max_iterations", 1),
    ("restarts", 1),
    ("restart_workers", 1),
    ("shards", 1),
    ("migration_rounds", 0),
    ("nested_shards", 0),
)


@dataclass
class JointResult:
    """Solver output: the plan plus convergence diagnostics."""

    plan: JointPlan
    iterations: int
    converged: bool
    history: List[float] = field(default_factory=list)  # objective per iteration
    candidate_counts: Dict[str, int] = field(default_factory=dict)
    perf: PerfCounters = field(default_factory=PerfCounters)


class JointOptimizer:
    """Joint model-surgery + resource-allocation solver for one cluster."""

    def __init__(
        self,
        cluster: EdgeCluster,
        objective: Objective = Objective.AVG_LATENCY,
        config: Optional[JointSolverConfig] = None,
        stream_base: int = 0,
    ) -> None:
        self.cluster = cluster
        self.objective = objective
        self.config = config or JointSolverConfig()
        # telemetry stream offset: restart r records on stream
        # ``stream_base + r + 1``.  The default 0 is the centralized layout;
        # the sharded coordinator gives shard s the disjoint block
        # ``s * (restarts + 1)`` so parallel shard solves never collide.
        self.stream_base = stream_base

    # -- public API -------------------------------------------------------------

    def solve(
        self,
        tasks: Sequence[TaskSpec],
        candidates: Optional[Sequence[CandidateSet]] = None,
        seed: SeedLike = None,
    ) -> JointResult:
        """Solve the joint problem for ``tasks``.

        Precomputed ``candidates`` (one set per task, same order) can be
        passed to amortize enumeration across repeated solves — e.g. the
        dynamic-bandwidth experiment re-solves every trace change-point.

        When the process tracer is enabled (``repro trace``), the solve
        records a span tree: ``solve`` → candidates / context / per-restart
        descend / refine / package (see DESIGN.md §9).  Disabled tracing adds
        no spans and no allocations.

        When ``config.shards > 1`` the solve is delegated to the sharded
        control plane (:func:`repro.core.coordinator.solve_sharded`), which
        returns a :class:`~repro.core.coordinator.ShardedResult` (a
        :class:`JointResult` plus shard/migration diagnostics).
        """
        if self.config.shards > 1:
            from repro.core.coordinator import solve_sharded

            return solve_sharded(
                tasks,
                self.cluster,
                objective=self.objective,
                config=self.config,
                candidates=candidates,
                seed=seed,
            )
        tracer = get_tracer()
        with tracer.span(
            "solve",
            {"tasks": len(tasks), "servers": self.cluster.num_servers}
            if tracer.enabled
            else None,
        ) as root:
            return self._solve(tasks, candidates, seed, tracer, root)

    def _solve(
        self,
        tasks: Sequence[TaskSpec],
        candidates: Optional[Sequence[CandidateSet]],
        seed: SeedLike,
        tracer: Tracer,
        root: Span,
    ) -> JointResult:
        t_start = time.perf_counter()
        perf = PerfCounters()
        candsets = prepare_candidates(tasks, self.cluster, self.config, candidates, perf)

        # one deterministic stream per restart: restart 0 reproduces the
        # single-restart descent exactly, and the spawned streams make the
        # result independent of whether restarts run serially or in parallel
        rng = as_generator(seed)
        restarts = self.config.restarts
        streams = [rng] if restarts == 1 else spawn(rng, restarts)
        restart_counters = [PerfCounters() for _ in range(restarts)]

        def _run(r: int) -> Tuple[float, GroupState, List[float], int, bool]:
            # telemetry stream base+r+1 == seed stream r; stream 0 is the
            # orchestrating thread, so restart spans merge deterministically
            # whether restarts run serially or on pool threads
            with tracer.stream(self.stream_base + r + 1, parent=root.span_id):
                with tracer.span("solve.descend", {"restart": r} if tracer.enabled else None):
                    return self._descend(
                        tasks, candsets, streams[r], perturb=(r > 0),
                        counters=restart_counters[r], tracer=tracer,
                    )

        workers = min(self.config.restart_workers, restarts)
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                outs = list(pool.map(_run, range(restarts)))
        else:
            outs = [_run(r) for r in range(restarts)]

        best: Optional[Tuple[float, GroupState, List[float], int, bool]] = None
        for out in outs:
            if best is None or out[0] < best[0]:
                best = out
        assert best is not None
        # merge per-restart counters in seed-stream order, so parallel and
        # serial runs report byte-identical work counts
        perf.merge(PerfCounters.merged(dict(enumerate(restart_counters))))
        perf.restarts += restarts

        obj, state, history, iters, converged = best
        # counts reflect the enumerated search space (before any refinement
        # appends the polished plan as an extra candidate)
        counts = {t.name: len(c) for t, c in zip(tasks, candsets)}
        if self.config.refine_thresholds:
            with tracer.span("solve.refine"):
                candsets, plan_idx, alloc, obj = self._refine(
                    tasks, list(candsets), state, obj, perf
                )
        else:
            plan_idx, alloc = state.plan_idx, state.allocation()
        with tracer.span("solve.package"):
            jp = self._package(tasks, candsets, plan_idx, alloc, obj, perf)
        perf.solve_s = time.perf_counter() - t_start
        return JointResult(
            plan=jp,
            iterations=iters,
            converged=converged,
            history=history,
            candidate_counts=counts,
            perf=perf,
        )

    # -- internals -----------------------------------------------------------

    def _descend(
        self,
        tasks: Sequence[TaskSpec],
        candsets: Sequence[CandidateSet],
        rng: np.random.Generator,
        perturb: bool,
        counters: PerfCounters,
        tracer: Optional[Tracer] = None,
    ) -> Tuple[float, GroupState, List[float], int, bool]:
        cfg = self.config
        if tracer is None:
            tracer = get_tracer()
        n = len(tasks)
        with tracer.span("solve.descend.init"):
            assignment = assign_servers(
                tasks, candsets, self.cluster, risk=cfg.risk
            )
            if perturb:
                # randomize a third of the assignments across servers/local
                m = self.cluster.num_servers
                for i in rng.choice(n, size=max(1, n // 3), replace=False):
                    choice = int(rng.integers(m + 1))
                    assignment[i] = None if choice == m else choice
            # plans bootstrap under optimistic full shares
            state = GroupState(
                tasks, candsets, self.cluster, assignment,
                objective=self.objective, include_queueing=cfg.include_queueing,
                risk=cfg.risk, counters=counters,
            )
            obj = state.objective()

        history = [obj]
        converged = False
        iters = 0
        for it in range(1, cfg.max_iterations + 1):
            iters = it
            # surgery step: plans re-picked under the current shares; only
            # the groups of tasks whose plan changed re-solve
            move = state.trial_plans(state.best_plans())
            if move.objective <= obj:
                state.commit(move)
                obj = move.objective

            # periodic re-assignment (accepted only on improvement)
            if it % REASSIGN_EVERY == 0:
                with tracer.span("solve.descend.reassign", {"iteration": it} if tracer.enabled else None):
                    cand = state.reassigned(assign_servers(
                        tasks, candsets, self.cluster, risk=cfg.risk,
                    ))
                    cand_obj = cand.objective()
                    if cand_obj < obj:
                        state, obj = cand, cand_obj
                if cfg.local_search:
                    with tracer.span("solve.descend.local_search", {"iteration": it} if tracer.enabled else None):
                        obj = self._local_search(state, obj)

            history.append(obj)
            prev = history[-2]
            stalled = prev == obj or (
                math.isfinite(prev)
                and math.isfinite(obj)
                and (prev - obj) <= cfg.tol * max(abs(prev), 1e-12)
            )
            if stalled:
                # before declaring convergence, give local search one shot at
                # escaping the fixed point (unless it just ran this iteration)
                if cfg.local_search and it % REASSIGN_EVERY != 0:
                    with tracer.span("solve.descend.local_search", {"iteration": it} if tracer.enabled else None):
                        new_obj = self._local_search(state, obj)
                    if new_obj < obj - cfg.tol * max(abs(obj), 1e-12):
                        obj = new_obj
                        history[-1] = obj
                        continue
                    obj = new_obj
                    history[-1] = obj
                converged = True
                break
        return obj, state, history, iters, converged

    def _refine(
        self,
        tasks: Sequence[TaskSpec],
        candsets: List[CandidateSet],
        state: GroupState,
        obj: float,
        counters: PerfCounters,
    ) -> Tuple[List[CandidateSet], List[int], Allocation, float]:
        """Per-exit threshold polish of the winning solution.

        Each task's chosen plan is refined by coordinate descent over a fine
        per-exit threshold grid (see :func:`repro.core.surgery.refine_thresholds`)
        under its final shares; shares are then re-solved once and the whole
        refined solution is accepted only if the global objective improves.
        """
        from repro.core.surgery import refine_thresholds

        plan_idx, alloc = state.plan_idx, state.allocation()
        new_candsets = list(candsets)
        new_idx = list(plan_idx)
        touched = False
        for i, task in enumerate(tasks):
            cs = candsets[i]
            feats = cs.features[plan_idx[i]]
            if len(feats.plan.kept_exits) <= 1:
                continue  # no early exits to tune
            s = alloc.assignment[i]
            refined_plan, refined_feats = refine_thresholds(
                task.model,
                feats.plan,
                state.devices[i],
                task.accuracy_floor,
                server=self.cluster.servers[s] if s is not None else None,
                link=state.link(i, s) if s is not None else None,
                compute_share=float(alloc.compute_shares[i]),
                bandwidth_share=float(alloc.bandwidth_shares[i]),
            )
            if refined_plan != feats.plan:
                new_candsets[i] = cs.appended(refined_feats)
                new_idx[i] = len(cs.features)
                touched = True
        if not touched:
            return candsets, plan_idx, alloc, obj
        # refined candidate sets differ from the ones the group state was
        # built over, so this one-off re-solve stays full
        new_alloc = allocate_shares(
            tasks, new_candsets, new_idx, alloc.assignment,
            self.cluster, self.objective,
        )
        counters.allocate_calls += 1
        new_obj = self._objective(tasks, new_candsets, new_idx, new_alloc, counters)
        if new_obj < obj:
            return new_candsets, new_idx, new_alloc, new_obj
        return candsets, plan_idx, alloc, obj

    def _local_search(self, state: GroupState, obj: float) -> float:
        """One sweep of single-task (server, plan) moves; returns the objective.

        For each task, every alternative placement (each server and local)
        is priced with the plan re-picked for it (:meth:`GroupState.trial`),
        and the best one is committed if it improves the *global* objective.
        Escapes assignment local optima the Hungarian step cannot see because
        it prices all tasks at once.
        """
        m = self.cluster.num_servers
        for i in range(len(state.tasks)):
            current = state.assignment[i]
            best, best_obj = None, obj
            for option in [None, *range(m)]:
                if option == current:
                    continue
                move = state.trial(i, option)
                if move is not None and move.objective < best_obj:
                    best, best_obj = move, move.objective
            if best is not None:
                state.commit(best)
                obj = best_obj
        return obj

    def _objective(
        self,
        tasks: Sequence[TaskSpec],
        candsets: Sequence[CandidateSet],
        plan_idx: Sequence[int],
        alloc: Allocation,
        counters: Optional[PerfCounters] = None,
    ) -> float:
        # internal search objective: graded overload surrogate, so descent
        # keeps a gradient even when every reachable solution is overloaded
        # (the packaged plan reports honest inf for unstable tasks)
        lat = solution_latencies(
            tasks,
            candsets,
            plan_idx,
            alloc,
            self.cluster,
            include_queueing=self.config.include_queueing,
            overload="penalty",
            risk=self.config.risk,
        )
        if counters is not None:
            counters.latency_evals += len(tasks)
        return self.objective.evaluate(lat, tasks)

    def _package(
        self,
        tasks: Sequence[TaskSpec],
        candsets: Sequence[CandidateSet],
        plan_idx: Sequence[int],
        alloc: Allocation,
        obj: float,
        counters: Optional[PerfCounters] = None,
    ) -> JointPlan:
        # honest latencies/objective (inf for unstable tasks) — the graded
        # surrogate in `obj` was only for steering the search
        return package_plan(
            tasks,
            candsets,
            plan_idx,
            alloc,
            self.cluster,
            self.objective,
            include_queueing=self.config.include_queueing,
            counters=counters,
            risk=self.config.risk,
        )
