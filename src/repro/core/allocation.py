"""Resource allocation: closed-form shares, server assignment, and the
shared solution-evaluation routine.

**Shares (KKT water-filling).**  Within one server, tasks ``i`` with expected
server work ``a_i`` (seconds at full speed) and weights ``w_i`` receive
compute shares minimizing ``sum_i w_i a_i / x_i`` subject to ``sum x_i <= 1``.
The Lagrangian stationarity condition gives ``x_i ∝ sqrt(w_i a_i)`` — the
classic square-root allocation (Cauchy–Schwarz shows optimality).  Bandwidth
shares on a contended access link follow the same rule with ``a_i`` replaced
by expected bytes.  Tasks with zero expected work on a resource receive a
full (unused) share of 1.

**Assignment (Hungarian).**  Tasks are matched to replicated "server slots"
(plus a private local-execution column per task) by a min-cost matching
(:func:`_min_cost_matching`, Crouse's shortest augmenting path) on a cost
matrix of best-candidate latencies under an equal-share estimate.  Slot
replication bounds how many tasks an assignment round can pile onto one
server; the joint optimizer's share re-solve then refines within each server.

**Move pricing.**  :class:`GroupState` holds one solution's per-server and
per-link member lists, its shares and its per-task search latencies, and
keeps them current under single-task moves and plan changes by re-solving
only the touched groups.  It is the one kernel through which the joint
optimizer's surgery step and local search, the coordinator's cross-shard
migration, the best-response game and the greedy baseline price a move;
:func:`allocate_shares` stays the full solve and its test oracle.

**Evaluation.**  :func:`solution_latencies` prices a complete solution —
used identically by the BCD solver, the best-response game, the exhaustive
optimum, and the experiment harness, so their objective values are directly
comparable.  It, the move pricing above and the candidate ranking all call
one latency model, :mod:`repro.core.latency`, whose scalar and vector forms
agree bit for bit.  Congestion is charged with a tandem-queue approximation:
each request stream flows through up to three stages (device compute, link,
server compute), each modeled as an independent M/G/1 queue — Poisson
input, service moments from the plan's realized-demand distribution
(multi-exit services are bimodal, which is why
:class:`~repro.core.plan.PlanFeatures` carries second moments).  The link
and server stages see the *thinned* stream (rate ``λ·p_offload``) with
demand moments conditioned on offloading.  Per-stage waits add; any stage
at utilization >= 1 renders the solution infeasible (``inf``).
Experiment E14 validates this against the discrete-event simulator.
"""

from __future__ import annotations

import copy
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.candidates import CandidateSet
from repro.core.latency import predicted_latency
from repro.core.objectives import Objective
from repro.core.plan import TaskSpec
from repro.devices.cluster import EdgeCluster
from repro.errors import ConfigError, InfeasibleError
from repro.network.link import Link
from repro.telemetry.trace import traced

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.risk import RiskConfig
    from repro.profiling.counters import PerfCounters


@dataclass
class Allocation:
    """Per-task server choice and resource shares."""

    assignment: List[Optional[int]]  # server index or None (local)
    compute_shares: np.ndarray
    bandwidth_shares: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.assignment)
        self.compute_shares = np.asarray(self.compute_shares, dtype=float)
        self.bandwidth_shares = np.asarray(self.bandwidth_shares, dtype=float)
        if self.compute_shares.shape != (n,) or self.bandwidth_shares.shape != (n,):
            raise ConfigError("share arrays must match assignment length")
        if np.any(self.compute_shares <= 0) or np.any(self.compute_shares > 1 + 1e-9):
            raise ConfigError(f"compute shares outside (0,1]: {self.compute_shares}")
        if np.any(self.bandwidth_shares <= 0) or np.any(
            self.bandwidth_shares > 1 + 1e-9
        ):
            raise ConfigError(f"bandwidth shares outside (0,1]: {self.bandwidth_shares}")


def power_shares(weights: np.ndarray, exponent: float = 0.5) -> np.ndarray:
    """Shares ``x_i ∝ weights_i**exponent`` summing to 1.

    ``exponent`` selects the fairness/efficiency point of a one-parameter
    allocation family (ablation A5):

    - ``0.0`` — equal shares regardless of demand (proportional fairness on
      shares; what a fair OS scheduler gives);
    - ``0.5`` — the KKT optimum of total weighted latency (the default; see
      :func:`sqrt_shares`);
    - ``1.0`` — shares proportional to demand, equalizing per-task latency
      contributions (max-min on latency).

    Zero-weight entries receive share 1 (they do not consume the resource).
    """
    if not (0.0 <= exponent <= 1.0):
        raise ConfigError(f"share exponent must be in [0,1], got {exponent}")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ConfigError(f"negative share weights: {w}")
    active = w > 0
    x = np.ones_like(w)
    if np.any(active):
        s = w[active] ** exponent
        x[active] = s / s.sum()
    return x


def sqrt_shares(weights: np.ndarray) -> np.ndarray:
    """Optimal shares ``x_i ∝ sqrt(weights_i)`` summing to 1.

    ``weights_i = w_i * a_i`` (importance × full-speed resource seconds);
    the ``exponent=0.5`` member of :func:`power_shares`, which Cauchy–Schwarz
    shows minimizes ``sum_i w_i a_i / x_i`` subject to ``sum x_i <= 1``.
    """
    return power_shares(weights, 0.5)


@traced("alloc.full_solve")
def allocate_shares(
    tasks: Sequence[TaskSpec],
    candsets: Sequence[CandidateSet],
    plan_idx: Sequence[int],
    assignment: Sequence[Optional[int]],
    cluster: EdgeCluster,
    objective: Objective = Objective.AVG_LATENCY,
    share_exponent: float = 0.5,
) -> Allocation:
    """Closed-form compute and bandwidth shares given plans + assignment.

    Compute shares are solved per server; bandwidth shares per access link
    (tasks on the same end device contending for the same radio).
    ``share_exponent`` selects the fairness/efficiency point — see
    :func:`power_shares` (0.5 = latency-optimal default).
    """
    n = len(tasks)
    if not (len(candsets) == len(plan_idx) == len(assignment) == n):
        raise ConfigError("tasks/candsets/plan_idx/assignment length mismatch")
    compute = np.ones(n)
    bandwidth = np.ones(n)

    # group by server for compute shares
    by_server: Dict[int, List[int]] = {}
    for i, s in enumerate(assignment):
        if s is not None:
            by_server.setdefault(s, []).append(i)
    for s, members in by_server.items():
        server = cluster.servers[s]
        rate = server.blended_flops
        weights = np.array(
            [
                objective.task_weight(tasks[i])
                * tasks[i].arrival_rate
                * candsets[i].srv_flops[plan_idx[i]]
                / rate
                for i in members
            ]
        )
        compute[members] = power_shares(weights, share_exponent)

    # group by (device, server) link for bandwidth shares
    by_link: Dict[Tuple[str, int], List[int]] = {}
    for i, s in enumerate(assignment):
        if s is not None:
            by_link.setdefault((tasks[i].device_name, s), []).append(i)
    for (dev_name, s), members in by_link.items():
        link = cluster.link(dev_name, cluster.servers[s].name)
        weights = np.array(
            [
                objective.task_weight(tasks[i])
                * tasks[i].arrival_rate
                * candsets[i].wire_bytes[plan_idx[i]]
                / link.bandwidth_bps
                for i in members
            ]
        )
        bandwidth[members] = power_shares(weights, share_exponent)

    return Allocation(list(assignment), compute, bandwidth)


def _joined(members: List[int], i: int) -> List[int]:
    """``members`` (ascending) with ``i`` in order: the list itself when it
    holds ``i``, else a copy."""
    k = bisect_left(members, i)
    if k < len(members) and members[k] == i:
        return members
    return members[:k] + [i] + members[k:]


def _left(members: List[int], i: int) -> List[int]:
    """A copy of ``members`` (ascending, holding ``i``) without ``i``."""
    k = bisect_left(members, i)
    return members[:k] + members[k + 1:]


#: ``(group key, ascending members, their shares)`` of one re-solved group
_Group = Tuple[object, List[int], np.ndarray]


@dataclass
class Move:
    """A priced change to a :class:`GroupState`; :meth:`GroupState.commit`
    installs it.

    ``objective`` is the search objective the state would have after the
    change.  The rest is what a commit writes: new placements and plans,
    each re-solved server and link group (member list and shares), and the
    re-priced latencies of the tasks in those groups.
    """

    objective: float
    placements: Dict[int, Optional[int]]
    plans: Dict[int, int]
    servers: List[_Group]
    links: List[_Group]
    repriced: np.ndarray
    latencies: np.ndarray


class GroupState:
    """One solution's placement, plans, sqrt-rule shares and per-task search
    latencies, kept current under single-task moves and plan changes.

    The share problem decomposes exactly: compute shares couple only the
    tasks on one server, bandwidth shares only the tasks on one (device,
    server) access link.  The state keeps each server's and each link's
    member list in ascending task order (what an index scan yields), so a
    change re-solves only the groups it touches, with the weight expressions
    and member order of :func:`allocate_shares`: every share equals a full
    solve's bit for bit.  Latencies carry the search's graded overload
    surrogate (``overload="penalty"``); a change re-prices only the members
    of the groups it touches, and :meth:`objective` returns the float
    :meth:`Objective.evaluate` returns over them.

    Every search prices moves here, each with its own accept rule: the joint
    optimizer's surgery step and local search, the coordinator's cross-shard
    migration, the best-response game and the greedy baseline.  Move
    pricing is :meth:`trial` (one task) or :meth:`trial_plans` (a surgery
    step); a trial leaves the state as it was, and :meth:`commit` installs a
    priced move.  :meth:`move` applies a change unpriced and leaves the
    touched latencies to be re-priced on the next read.

    ``plan_idx=None`` starts each task on its fastest plan at its placement
    under full shares.  Work lands in ``counters``: ``allocate_calls`` per
    share re-solve, ``allocate_group_solves`` per group in it,
    ``latency_evals`` per task re-priced and ``candidate_evals`` per
    candidate-set sweep.  A state is mutable and not thread-safe: every
    descent builds its own.
    """

    def __init__(
        self,
        tasks: Sequence[TaskSpec],
        candsets: Sequence[CandidateSet],
        cluster: EdgeCluster,
        assignment: Sequence[Optional[int]],
        plan_idx: Optional[Sequence[int]] = None,
        objective: Objective = Objective.AVG_LATENCY,
        include_queueing: bool = True,
        risk: Optional["RiskConfig"] = None,
        counters: Optional["PerfCounters"] = None,
    ) -> None:
        n = len(tasks)
        if len(candsets) != n or len(assignment) != n or (
            plan_idx is not None and len(plan_idx) != n
        ):
            raise ConfigError("tasks/candsets/plan_idx/assignment length mismatch")
        self.tasks = list(tasks)
        self.candsets = list(candsets)
        self.cluster = cluster
        self.include_queueing = include_queueing
        self.risk = risk
        self.counters = counters
        self.devices = [cluster.by_name(t.device_name) for t in self.tasks]
        self._dev = [t.device_name for t in self.tasks]
        # invariant factors of the share weights, multiplied in the order of
        # allocate_shares: (weight * rate) * work / capacity
        self._base_w = [objective.task_weight(t) * t.arrival_rate for t in self.tasks]
        self._srv_rate = [s.blended_flops for s in cluster.servers]
        # access links resolve on first use: hoisting devices × servers up
        # front is O(n·m) lookups, while a search prices only some pairs
        self._links: Dict[Tuple[str, int], Link] = {}
        self._evaluate = objective.evaluator(self.tasks)
        self.assignment: List[Optional[int]] = list(assignment)
        if plan_idx is None:
            plan_idx = self._fastest(np.ones(n), np.ones(n))
        self._load(plan_idx)

    def _load(self, plan_idx: Sequence[int]) -> None:
        """Full share solve of ``self.assignment`` under ``plan_idx``."""
        n = len(self.tasks)
        self.plan_idx = list(plan_idx)
        self.server_members: Dict[int, List[int]] = {}
        self.link_members: Dict[Tuple[str, int], List[int]] = {}
        for i, s in enumerate(self.assignment):
            if s is not None:
                self.server_members.setdefault(s, []).append(i)
                self.link_members.setdefault((self._dev[i], s), []).append(i)
        self.compute = np.ones(n)
        self.bandwidth = np.ones(n)
        for s, members in self.server_members.items():
            self.compute[members] = self._server_shares(s, members, self.plan_idx)
        for key, members in self.link_members.items():
            self.bandwidth[members] = self._link_shares(key, members, self.plan_idx)
        self._count(len(self.server_members) + len(self.link_members))
        self._lat = np.empty(n)
        self._stale = set(range(n))

    def reassigned(self, assignment: Sequence[Optional[int]]) -> "GroupState":
        """A new state over ``assignment`` with this state's plans, sharing
        its hoisted invariants."""
        other = copy.copy(self)
        other.assignment = list(assignment)
        other._load(self.plan_idx)
        return other

    # -- kernels ------------------------------------------------------------

    def _count(self, groups: int) -> None:
        if self.counters is not None:
            self.counters.allocate_calls += 1
            self.counters.allocate_group_solves += groups

    def _server_shares(
        self, s: int, members: List[int], plan: Sequence[int], i: int = -1, j: int = -1
    ) -> np.ndarray:
        """Compute shares of ``members`` on server ``s`` (task ``i`` on plan ``j``)."""
        rate = self._srv_rate[s]
        base_w, cs = self._base_w, self.candsets
        return sqrt_shares(np.array(
            [base_w[t] * cs[t].srv_flops[j if t == i else plan[t]] / rate for t in members]
        ))

    def _link_shares(
        self, key: Tuple[str, int], members: List[int], plan: Sequence[int],
        i: int = -1, j: int = -1,
    ) -> np.ndarray:
        """Bandwidth shares of ``members`` on link ``key`` (task ``i`` on plan ``j``)."""
        bw = self._link(key).bandwidth_bps
        base_w, cs = self._base_w, self.candsets
        return sqrt_shares(np.array(
            [base_w[t] * cs[t].wire_bytes[j if t == i else plan[t]] / bw for t in members]
        ))

    def _link(self, key: Tuple[str, int]) -> Link:
        link = self._links.get(key)
        if link is None:
            name, s = key
            link = self._links[key] = self.cluster.link(name, self.cluster.servers[s].name)
        return link

    def link(self, i: int, s: int) -> Link:
        """Task ``i``'s access link to server ``s``."""
        return self._link((self._dev[i], s))

    def _leave(self, i: int) -> Tuple[_Group, _Group]:
        """Task ``i``'s server and link groups without it, re-solved."""
        s = self.assignment[i]
        key = (self._dev[i], s)
        srv = _left(self.server_members[s], i)
        lnk = _left(self.link_members[key], i)
        return (
            (s, srv, self._server_shares(s, srv, self.plan_idx)),
            (key, lnk, self._link_shares(key, lnk, self.plan_idx)),
        )

    def _join(self, i: int, s: int, j: int) -> Tuple[_Group, _Group]:
        """Server ``s``'s and task ``i``'s link group to it with ``i`` added
        on plan ``j``, re-solved."""
        key = (self._dev[i], s)
        srv = _joined(self.server_members.get(s, []), i)
        lnk = _joined(self.link_members.get(key, []), i)
        return (
            (s, srv, self._server_shares(s, srv, self.plan_idx, i, j)),
            (key, lnk, self._link_shares(key, lnk, self.plan_idx, i, j)),
        )

    def _regroup(self, i: int, s: Optional[int], j: int) -> Tuple[List[_Group], List[_Group]]:
        """The groups task ``i`` leaves and joins moving to ``s`` on plan ``j``."""
        groups = []
        if self.assignment[i] is not None and self.assignment[i] != s:
            groups.append(self._leave(i))
        if s is not None:
            groups.append(self._join(i, s, j))
        self._count(2 * len(groups))
        return [g[0] for g in groups], [g[1] for g in groups]

    # -- queries ------------------------------------------------------------

    def plan_latencies(
        self, i: int, s: Optional[int], x: float = 1.0, y: float = 1.0
    ) -> np.ndarray:
        """Latency of each candidate plan of task ``i`` at ``s`` (``None``:
        local) under shares ``(x, y)``, queueing included if the state's is."""
        if self.counters is not None:
            self.counters.candidate_evals += 1
        rate = self.tasks[i].arrival_rate if self.include_queueing else None
        if s is None:
            return self.candsets[i].latencies(
                self.devices[i], arrival_rate=rate, risk=self.risk
            )
        return self.candsets[i].latencies(
            self.devices[i],
            server=self.cluster.servers[s],
            link=self.link(i, s),
            compute_share=x,
            bandwidth_share=y,
            arrival_rate=rate,
            risk=self.risk,
        )

    def best_plans(self) -> List[int]:
        """Each task's fastest plan at its current placement and shares."""
        return self._fastest(self.compute, self.bandwidth)

    def _fastest(self, x: np.ndarray, y: np.ndarray) -> List[int]:
        """Each task's fastest plan at its placement under per-task shares
        ``(x, y)``: what :meth:`plan_latencies` argmins, priced in one pass
        per candidate template, local and offloaded tasks apart."""
        groups: Dict[Tuple[int, bool], List[int]] = {}
        for i, s in enumerate(self.assignment):
            groups.setdefault((id(self.candsets[i].features), s is None), []).append(i)
        best = [0] * len(self.tasks)
        for (_, local), members in groups.items():
            cs = self.candsets[members[0]]
            devices = [self.devices[i] for i in members]
            rate = (
                [self.tasks[i].arrival_rate for i in members] if self.include_queueing else None
            )
            if local:
                lat = cs.latencies(devices, arrival_rate=rate, risk=self.risk)
            else:
                servers = [self.cluster.servers[self.assignment[i]] for i in members]
                lat = cs.latencies(
                    devices,
                    server=servers,
                    link=[self.link(i, self.assignment[i]) for i in members],
                    compute_share=x[members],
                    bandwidth_share=y[members],
                    arrival_rate=rate,
                    risk=self.risk,
                )
            for i, j in zip(members, np.argmin(lat, axis=1).tolist()):
                best[i] = j
        if self.counters is not None:
            self.counters.candidate_evals += len(self.tasks)
        return best

    def price(self, i: int, s: Optional[int], j: int, x: float, y: float) -> float:
        """Search latency of task ``i`` on plan ``j`` at ``s`` with shares ``(x, y)``."""
        server = link = None
        if s is not None:
            server, link = self.cluster.servers[s], self.link(i, s)
        return predicted_latency(
            self.candsets[i].features[j], self.devices[i], server, link, x, y,
            arrival_rate=self.tasks[i].arrival_rate if self.include_queueing else None,
            risk=self.risk,
        )

    def shares_if_placed(self, i: int, s: int, j: int) -> Tuple[float, float]:
        """Compute and bandwidth shares task ``i`` would get on plan ``j`` at
        server ``s``, every other task as it is.  Pure."""
        (_, srv, x), (_, lnk, y) = self._join(i, s, j)
        return float(x[bisect_left(srv, i)]), float(y[bisect_left(lnk, i)])

    def latencies(self) -> np.ndarray:
        """Per-task search latencies of the current state (do not modify)."""
        stale = self._stale
        if stale:
            for t in stale:
                self._lat[t] = self.price(
                    t, self.assignment[t], self.plan_idx[t],
                    float(self.compute[t]), float(self.bandwidth[t]),
                )
            if self.counters is not None:
                self.counters.latency_evals += len(stale)
            stale.clear()
        return self._lat

    def objective(self) -> float:
        """Search objective of the current state."""
        return self._evaluate(self.latencies())

    def allocation(self) -> Allocation:
        """The current placement and shares as an :class:`Allocation`."""
        return Allocation(list(self.assignment), self.compute.copy(), self.bandwidth.copy())

    # -- moves --------------------------------------------------------------

    def trial(self, i: int, s: Optional[int]) -> Optional[Move]:
        """Price moving task ``i`` from its placement to ``s`` (``None``: local).

        The groups ``i`` leaves and joins re-solve with its plan unchanged;
        those provisional shares pick its fastest plan at ``s``, and the
        joined groups re-solve again if the plan changed.  Only the members
        of the touched groups are re-priced.  Returns ``None`` when no plan
        of ``i`` has a finite latency at ``s``.
        """
        lat = self.latencies()
        j0 = self.plan_idx[i]
        servers, links = self._regroup(i, s, j0)
        x = y = 1.0
        if s is not None:
            (_, srv, xs), (_, lnk, ys) = servers[-1], links[-1]
            x, y = float(xs[bisect_left(srv, i)]), float(ys[bisect_left(lnk, i)])
        plan_lat = self.plan_latencies(i, s, x, y)
        j = int(np.argmin(plan_lat))
        if not np.isfinite(plan_lat[j]):
            return None
        if j != j0:
            if s is not None:
                servers[-1], links[-1] = self._join(i, s, j)
            self._count(2 if s is not None else 0)
        return self._price(lat, {i: s}, {i: j}, servers, links)

    def trial_plans(self, plan_idx: Sequence[int]) -> Move:
        """Price switching every task to ``plan_idx`` at its placement."""
        lat = self.latencies()
        plans = {t: j for t, j in enumerate(plan_idx) if j != self.plan_idx[t]}
        placed = [t for t in plans if self.assignment[t] is not None]
        servers = [
            (s, self.server_members[s], self._server_shares(s, self.server_members[s], plan_idx))
            for s in sorted({self.assignment[t] for t in placed})
        ]
        links = [
            (key, self.link_members[key], self._link_shares(key, self.link_members[key], plan_idx))
            for key in sorted({(self._dev[t], self.assignment[t]) for t in placed})
        ]
        self._count(len(servers) + len(links))
        return self._price(lat, {}, plans, servers, links)

    def _price(
        self,
        lat: np.ndarray,
        placements: Dict[int, Optional[int]],
        plans: Dict[int, int],
        servers: List[_Group],
        links: List[_Group],
    ) -> Move:
        """Re-price the tasks a change touches and score the objective."""
        x_of: Dict[int, float] = {}
        y_of: Dict[int, float] = {}
        for _, members, x in servers:
            x_of.update(zip(members, x.tolist()))
        for _, members, y in links:
            y_of.update(zip(members, y.tolist()))
        touched = set(x_of)
        touched.update(placements)
        touched.update(plans)
        idx = np.fromiter(touched, dtype=np.intp, count=len(touched))
        vals = np.empty(len(idx))
        for k, t in enumerate(touched):
            s = placements.get(t, self.assignment[t])
            j = plans.get(t, self.plan_idx[t])
            if s is None:
                vals[k] = self.price(t, None, j, 1.0, 1.0)
            else:
                y = y_of[t] if t in y_of else float(self.bandwidth[t])
                vals[k] = self.price(t, s, j, x_of[t], y)
        if self.counters is not None:
            self.counters.latency_evals += len(idx)
        saved = lat[idx]
        lat[idx] = vals
        obj = self._evaluate(lat)
        lat[idx] = saved
        return Move(obj, placements, plans, servers, links, idx, vals)

    def _apply(
        self,
        placements: Dict[int, Optional[int]],
        plans: Dict[int, int],
        servers: List[_Group],
        links: List[_Group],
    ) -> None:
        for t, s in placements.items():
            self.assignment[t] = s
            if s is None:
                self.compute[t] = self.bandwidth[t] = 1.0
        for t, j in plans.items():
            self.plan_idx[t] = j
        for groups, shares, changed in (
            (self.server_members, self.compute, servers),
            (self.link_members, self.bandwidth, links),
        ):
            for key, members, values in changed:
                if members:
                    groups[key] = members
                    shares[members] = values
                else:
                    groups.pop(key, None)

    def commit(self, move: Move) -> None:
        """Install a move priced by :meth:`trial` or :meth:`trial_plans`
        against the current state."""
        self._apply(move.placements, move.plans, move.servers, move.links)
        self._lat[move.repriced] = move.latencies

    def move(self, i: int, s: Optional[int], j: int) -> None:
        """Place task ``i`` at ``s`` on plan ``j`` without pricing the move."""
        servers, links = self._regroup(i, s, j)
        self._apply({i: s}, {i: j}, servers, links)
        self._stale.add(i)
        for _, members, _ in servers:
            self._stale.update(members)


def solution_latencies(
    tasks: Sequence[TaskSpec],
    candsets: Sequence[CandidateSet],
    plan_idx: Sequence[int],
    allocation: Allocation,
    cluster: EdgeCluster,
    include_queueing: bool = True,
    overload: str = "inf",
    risk: Optional["RiskConfig"] = None,
) -> np.ndarray:
    """Predicted expected latency per task for a complete solution.

    Includes per-stage M/G/1 waiting terms when ``include_queueing``
    (default) — see the module docstring.  Structurally infeasible choices
    (offloading plan with no server) are always ``inf``.  Queue-unstable
    choices (any stage utilization >= 1) are ``inf`` in the default
    ``overload="inf"`` mode — the honest report — or a large
    utilization-graded surrogate in ``overload="penalty"`` mode, which the
    iterative solvers use internally so that the search keeps a gradient even
    when every reachable solution is overloaded (degrade gracefully: shed the
    most load first).

    An active ``risk`` config buffers every latency to ``μ + κ(ε)·σ`` (see
    :mod:`repro.core.risk`); ``None`` or ``buffer="none"`` leaves the
    deterministic values bit-identical.
    """
    if overload not in ("inf", "penalty"):
        raise ConfigError(f"overload must be 'inf' or 'penalty', got {overload!r}")
    n = len(tasks)
    out = np.empty(n)
    for i, task in enumerate(tasks):
        out[i] = solution_latency_task(
            task,
            candsets[i],
            plan_idx[i],
            allocation.assignment[i],
            float(allocation.compute_shares[i]),
            float(allocation.bandwidth_shares[i]),
            cluster,
            include_queueing=include_queueing,
            overload=overload,
            risk=risk,
        )
    return out


def solution_latency_task(
    task: TaskSpec,
    cs: CandidateSet,
    j: int,
    s: Optional[int],
    x: float,
    y: float,
    cluster: EdgeCluster,
    include_queueing: bool = True,
    overload: str = "inf",
    risk: Optional["RiskConfig"] = None,
) -> float:
    """Predicted latency of one task — the per-task kernel of
    :func:`solution_latencies`.

    Resolves the task's device, server and access link, then prices plan
    ``j`` with :func:`repro.core.latency.predicted_latency` under shares
    ``x``/``y``.  ``overload`` is assumed pre-validated by the caller.
    """
    device = cluster.by_name(task.device_name)
    server = link = None
    if s is not None:
        server = cluster.servers[s]
        link = cluster.link(task.device_name, server.name)
    return predicted_latency(
        cs.features[j], device, server, link, x, y,
        arrival_rate=task.arrival_rate if include_queueing else None,
        risk=risk, overload=overload,
    )


def _min_cost_matching(cost: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Match every row of a wide cost matrix to a distinct column at least cost.

    Crouse's shortest augmenting path (D. F. Crouse, "On implementing 2D
    rectangular assignment algorithms", IEEE TAES 52(4), 2016): one Dijkstra
    search over reduced costs per row, then a dual update and an augment.
    This is a scalar port of SciPy's ``rectangular_lsap.cpp`` (the kernel of
    ``linear_sum_assignment``) that keeps its tie-breaking: ``remaining`` is
    filled in reverse column order, a column is taken on a strictly lower
    reduced cost or on an equal one if it is unassigned, taken columns are
    swap-removed, and reduced costs ``((min_val + c) - u[i]) - v[j]`` and
    the dual updates are evaluated as SciPy does.  Replicated server slots
    make exact ties common, so those rules decide which slot a task gets;
    tests/core/test_matching_oracle.py pins the result equal to SciPy's.
    A row is copied to a list when its scan needs it, so the port never
    holds more than one row of the matrix as Python floats.

    Returns ``(rows, cols)`` with ``rows = arange(nr)`` and ``cols[r]`` the
    column matched to row ``r``.  Raises :class:`ConfigError` on a tall or
    non-2-D matrix or a NaN or ``-inf`` entry, and :class:`InfeasibleError`
    when ``+inf`` entries leave no complete matching.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2:
        raise ConfigError(f"cost matrix must be 2-D, got shape {c.shape}")
    nr, nc = c.shape
    if nr > nc:
        raise ConfigError(f"cost matrix must not have more rows than columns, got {c.shape}")
    if not (c > -np.inf).all():
        raise ConfigError("cost matrix contains NaN or -inf")
    inf = float("inf")
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur in range(nr):
        # shortest augmenting path from row `cur` to an unassigned column;
        # `remaining` holds the columns not yet on the path tree
        remaining = list(range(nc - 1, -1, -1))
        spc = [inf] * nc  # shortest path cost per column
        seen_rows: List[int] = []
        seen_cols: List[int] = []
        min_val = 0.0
        i = cur
        sink = -1
        while sink == -1:
            seen_rows.append(i)
            ci, ui = c[i].tolist(), u[i]
            index, lowest = -1, inf
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                sj = spc[j]
                if r < sj:
                    path[j] = i
                    spc[j] = sj = r
                if sj < lowest or (sj == lowest and row4col[j] == -1):
                    lowest = sj
                    index = it
            min_val = lowest
            if min_val == inf:
                raise InfeasibleError("cost matrix admits no complete matching")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # dual update
        u[cur] += min_val
        for i in seen_rows[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - spc[j]
        # augment along the path
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.arange(nr), np.array(col4row, dtype=np.intp)


@traced("alloc.assign_servers")
def assign_servers(
    tasks: Sequence[TaskSpec],
    candsets: Sequence[CandidateSet],
    cluster: EdgeCluster,
    slots_per_server: Optional[int] = None,
    share_estimate: Optional[float] = None,
    risk: Optional["RiskConfig"] = None,
) -> List[Optional[int]]:
    """Initial task -> server assignment by min-cost matching.

    Cost of (task, server) = best candidate latency under an optimistic
    equal-share estimate; each task also gets a private "run locally" column
    priced at its best local-only latency (``inf`` if it has none).  Servers
    are replicated into ``slots_per_server`` columns (default: enough for all
    tasks to fit, +1 slack) so load spreads before share refinement.  An
    active ``risk`` config prices columns by buffered ``μ + κσ`` latencies so
    the matching already prefers low-variance placements.
    """
    n, m = len(tasks), cluster.num_servers
    if n == 0:
        return []
    if slots_per_server is None:
        slots_per_server = max(1, -(-n // m))  # ceil(n/m)
    if share_estimate is None:
        share_estimate = 1.0 / max(1, min(n, slots_per_server))

    cols = m * slots_per_server + n
    cost = np.full((n, cols), np.inf)
    servers = cluster.servers
    devices = [cluster.by_name(task.device_name) for task in tasks]
    templates: Dict[int, List[int]] = {}
    for i, task in enumerate(tasks):
        # the task's whole server row in one (m, |C|) pass
        lat = candsets[i].latencies(
            devices[i],
            server=servers,
            link=[cluster.link(task.device_name, server.name) for server in servers],
            compute_share=share_estimate,
            bandwidth_share=share_estimate,
            risk=risk,
        )
        cost[i, : m * slots_per_server] = np.repeat(lat.min(axis=1), slots_per_server)
        templates.setdefault(id(candsets[i].features), []).append(i)
    # private local columns, one (tasks, |C|) pass per candidate template
    for members in templates.values():
        lat = candsets[members[0]].latencies([devices[i] for i in members], risk=risk)
        cost[members, m * slots_per_server + np.array(members)] = lat.min(axis=1)

    # inf entries can leave no complete matching; use a huge finite cost
    finite_max = np.nanmax(np.where(np.isinf(cost), np.nan, cost))
    big = (finite_max if np.isfinite(finite_max) else 1.0) * 1e6 + 1e3
    cost_f = np.where(np.isinf(cost), big, cost)
    rows, cols_sel = _min_cost_matching(cost_f)
    assignment: List[Optional[int]] = [None] * n
    for r, c in zip(rows, cols_sel):
        if c < m * slots_per_server and cost[r, c] != np.inf:
            assignment[r] = int(c // slots_per_server)
        else:
            assignment[r] = None
    return assignment
