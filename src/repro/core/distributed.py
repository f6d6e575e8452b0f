"""Distributed best-response offloading (the decentralized variant).

The centralized BCD solver assumes a coordinator that sees every task.  The
paper family's deployments also need a decentralized mechanism (LEIME's
"distributed offloading ... with close-to-optimal performance guarantee"):
each task is a selfish player choosing a *strategy* — (server or local,
surgery plan) — to minimize its own expected latency, given the congestion
the other players currently impose.

Congestion model: on each server, shares follow the same sqrt rule the
centralized allocator uses (this is what the platform would grant), so a
player evaluating a move computes the shares that *would* result if it
joined.  Because every improving move strictly decreases the mover's latency
and the share rule is symmetric, the finite strategy space admits a finite
improvement path; in practice a handful of rounds reach a pure Nash
equilibrium.  Experiment E8 measures its optimality gap against the
centralized solver and the exhaustive optimum; E17 uses it as the
decentralized arm of the control-plane comparison at 1k+ tasks.

**Scale.**  A player pricing an option only needs *its own* shares on the
target server/link, and the share problem decomposes per group, so players
price options through :class:`~repro.core.allocation.GroupState` — the
kernel the centralized solver's local search uses — whose pure
``shares_if_placed`` query re-solves only the O(|group|)-sized groups an
option touches, and whose ``move`` re-solves only the groups a player
leaves and joins.  One best-response round costs O(n · m · |group| + n · m
sweeps) instead of the O(n² · m) full re-solves of a naive implementation,
which is what makes 1k–10k-player games terminate in seconds.  Shares are
computed with the same float-operation order as
:func:`~repro.core.allocation.allocate_shares`, and the final report is a
fresh full solve, so equilibrium plans remain directly comparable with the
centralized solver's.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import GroupState, allocate_shares, solution_latencies
from repro.core.candidates import CandidateSet, build_candidates
from repro.core.objectives import Objective
from repro.core.plan import JointPlan, TaskSpec
from repro.devices.cluster import EdgeCluster
from repro.errors import ConfigError
from repro.rng import SeedLike, as_generator


@dataclass
class BestResponseResult:
    """Equilibrium plan plus game diagnostics."""

    plan: JointPlan
    rounds: int
    converged: bool  # True if a full round saw no improving move
    moves: int  # total accepted strategy changes
    history: List[float] = field(default_factory=list)  # objective after each round


def best_response_offloading(
    tasks: Sequence[TaskSpec],
    cluster: EdgeCluster,
    objective: Objective = Objective.AVG_LATENCY,
    candidates: Optional[Sequence[CandidateSet]] = None,
    max_rounds: int = 30,
    improvement_eps: float = 1e-6,
    include_queueing: bool = True,
    seed: SeedLike = None,
) -> BestResponseResult:
    """Run asynchronous best-response dynamics to a pure equilibrium.

    Players are visited in a random order each round (randomized scheduling
    avoids pathological cycling patterns).  A player's best response scans
    every (server, plan) pair — vectorized over plans per server — plus its
    best local-only plan, pricing each option's shares with
    :meth:`GroupState.shares_if_placed`; the round loop stops at the first
    round with no improving move.  Deterministic for a fixed seed.

    Raises :class:`ConfigError` unless ``max_rounds`` is a positive integer
    and ``improvement_eps`` a finite number ``>= 0``.
    """
    if not tasks:
        raise ConfigError("no tasks")
    if isinstance(max_rounds, bool) or not isinstance(max_rounds, numbers.Integral):
        raise ConfigError(f"max_rounds must be an integer, got {max_rounds!r}")
    if max_rounds < 1:
        raise ConfigError(f"max_rounds must be >= 1, got {max_rounds}")
    if (
        isinstance(improvement_eps, bool)
        or not isinstance(improvement_eps, numbers.Real)
        or not math.isfinite(improvement_eps)
        or improvement_eps < 0
    ):
        raise ConfigError(
            f"improvement_eps must be a finite number >= 0, got {improvement_eps!r}"
        )
    rng = as_generator(seed)
    n = len(tasks)
    m = cluster.num_servers
    if candidates is None:
        candsets = [build_candidates(t) for t in tasks]
    else:
        if len(candidates) != len(tasks):
            raise ConfigError("candidates/tasks length mismatch")
        candsets = list(candidates)

    # strategy state: (server or None, plan index); start all-local at the
    # locally-optimal plan, like a device fleet before any offloading.  The
    # graded overload surrogate keeps improvement dynamics meaningful even in
    # overloaded regimes (the final report below is honest)
    state = GroupState(
        tasks, candsets, cluster, [None] * n,
        objective=objective, include_queueing=include_queueing,
    )
    assignment, plan_idx = state.assignment, state.plan_idx  # live views

    history: List[float] = [state.objective()]
    moves = 0
    converged = False
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        improved_this_round = False
        for i in rng.permutation(n):
            i = int(i)
            cur_s = assignment[i]
            best_lat = state.price(
                i, cur_s, plan_idx[i],
                float(state.compute[i]), float(state.bandwidth[i]),
            )
            best_choice: Optional[Tuple[Optional[int], int]] = None
            # local option
            j_local = int(np.argmin(state.plan_latencies(i, None)))
            if cur_s is not None:
                lat_i = state.price(i, None, j_local, 1.0, 1.0)
                if lat_i < best_lat - improvement_eps:
                    best_lat, best_choice = lat_i, (None, j_local)
            for option in range(m):
                if option == cur_s:
                    continue
                # two-pass: pick the plan under the shares the current plan's
                # weight would be granted, then re-price under the picked
                # plan's own weight (plan weight feeds back into shares)
                x0, y0 = state.shares_if_placed(i, option, plan_idx[i])
                j = int(np.argmin(state.plan_latencies(i, option, x0, y0)))
                x, y = state.shares_if_placed(i, option, j)
                lat_i = state.price(i, option, j, x, y)
                if lat_i < best_lat - improvement_eps:
                    best_lat, best_choice = lat_i, (option, j)
            if best_choice is not None:
                state.move(i, *best_choice)
                moves += 1
                improved_this_round = True
        history.append(state.objective())
        if not improved_this_round:
            converged = True
            break

    # final report: a fresh full solve, honest latencies — directly
    # comparable with the centralized solver's packaged plans
    alloc = allocate_shares(tasks, candsets, plan_idx, assignment, cluster, objective)
    lat = solution_latencies(tasks, candsets, plan_idx, alloc, cluster, include_queueing)
    obj = objective.evaluate(lat, tasks)
    jp = JointPlan(
        assignment={t.name: assignment[i] for i, t in enumerate(tasks)},
        features={t.name: candsets[i].features[plan_idx[i]] for i, t in enumerate(tasks)},
        compute_shares={t.name: float(alloc.compute_shares[i]) for i, t in enumerate(tasks)},
        bandwidth_shares={t.name: float(alloc.bandwidth_shares[i]) for i, t in enumerate(tasks)},
        latencies={t.name: float(lat[i]) for i, t in enumerate(tasks)},
        objective_value=float(obj),
    )
    return BestResponseResult(
        plan=jp, rounds=rounds, converged=converged, moves=moves, history=history
    )
