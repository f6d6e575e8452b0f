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

**Evaluation.**  :func:`solution_latencies` is the single source of truth for
"what latency does this complete solution predict" — used identically by the
BCD solver, the best-response game, the exhaustive optimum, and the
experiment harness, so their objective values are directly comparable.
Congestion is charged with a tandem-queue approximation: each request stream
flows through up to three stages (device compute, link, server compute), each
modeled as an independent M/G/1 queue — Poisson input, service moments from
the plan's realized-demand distribution (multi-exit services are bimodal,
which is why :class:`~repro.core.plan.PlanFeatures` carries second moments).
The link and server stages see the *thinned* stream (rate ``λ·p_offload``)
with demand moments conditioned on offloading.  Per-stage waits add; any
stage at utilization >= 1 renders the solution infeasible (``inf``).
Experiment E14 validates this against the discrete-event simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.candidates import CandidateSet
from repro.core.objectives import Objective
from repro.core.plan import TaskSpec
from repro.core.queueing import mg1_wait
from repro.devices.cluster import EdgeCluster
from repro.devices.latency import LatencyModel
from repro.errors import ConfigError, InfeasibleError, PlanError
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
    latency_model: LatencyModel,
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
        rate = latency_model.throughput(server)
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


class _LazyLinkBW(dict):
    """``(device_name, server_idx) -> bandwidth_bps``, fetched on first use."""

    def __init__(self, cluster: "EdgeCluster") -> None:
        super().__init__()
        self._cluster = cluster

    def __missing__(self, key: Tuple[str, int]) -> float:
        name, s = key
        bw = self._cluster.link(name, self._cluster.servers[s].name).bandwidth_bps
        self[key] = bw
        return bw


class IncrementalAllocator:
    """Share allocator with O(affected groups) incremental re-solves.

    The share problem decomposes exactly: compute shares couple only tasks on
    the same server, bandwidth shares only tasks on the same (device, server)
    access link.  A single-task move or plan change therefore invalidates at
    most two server groups and two link groups; every other task's shares are
    unchanged.  :meth:`update` exploits this, while :meth:`solve` is a full
    solve bit-identical to :func:`allocate_shares` (same grouping order, same
    weight expressions, same float operation order) for a fixed problem.

    The constructor hoists everything that is invariant across re-solves —
    per-task ``weight × arrival_rate`` products, server throughputs, and link
    bandwidths — so the per-trial cost in the joint optimizer's local search
    drops from O(n + groups) dictionary/cluster lookups to O(|group|).

    Instances are safe to share across parallel restart threads: the only
    post-construction mutation is the lazy link-bandwidth memo, whose entries
    are deterministic (a racing double-fetch writes the same value); per-call
    work counters are passed in explicitly.
    """

    def __init__(
        self,
        tasks: Sequence[TaskSpec],
        candsets: Sequence[CandidateSet],
        cluster: EdgeCluster,
        latency_model: LatencyModel,
        objective: Objective = Objective.AVG_LATENCY,
        share_exponent: float = 0.5,
    ) -> None:
        if len(candsets) != len(tasks):
            raise ConfigError("tasks/candsets length mismatch")
        self.tasks = list(tasks)
        self.candsets = list(candsets)
        self.cluster = cluster
        self.exponent = share_exponent
        self._n = len(self.tasks)
        # invariant per-task factors of the share weights, multiplied in the
        # same order as allocate_shares: (weight * rate) * work / capacity
        self._base_w = [objective.task_weight(t) * t.arrival_rate for t in self.tasks]
        self._srv_rate = [latency_model.throughput(s) for s in cluster.servers]
        self._dev_name = [t.device_name for t in self.tasks]
        # link bandwidths resolve lazily: hoisting all devices × servers
        # upfront is O(n·m) cluster lookups on big instances, while a solve
        # only ever touches the (device, assigned-server) pairs it visits —
        # hot-path hits stay plain dict lookups
        self._link_bw = _LazyLinkBW(cluster)

    # -- group kernels ------------------------------------------------------

    def _solve_server(
        self, s: int, members: List[int], plan_idx: Sequence[int], out: np.ndarray
    ) -> None:
        rate = self._srv_rate[s]
        weights = np.array(
            [
                self._base_w[i] * self.candsets[i].srv_flops[plan_idx[i]] / rate
                for i in members
            ]
        )
        out[members] = power_shares(weights, self.exponent)

    def _solve_link(
        self,
        dev_name: str,
        s: int,
        members: List[int],
        plan_idx: Sequence[int],
        out: np.ndarray,
    ) -> None:
        bw = self._link_bw[(dev_name, s)]
        weights = np.array(
            [
                self._base_w[i] * self.candsets[i].wire_bytes[plan_idx[i]] / bw
                for i in members
            ]
        )
        out[members] = power_shares(weights, self.exponent)

    # -- public API ---------------------------------------------------------

    def solve(
        self,
        plan_idx: Sequence[int],
        assignment: Sequence[Optional[int]],
        counters: Optional["PerfCounters"] = None,
    ) -> Allocation:
        """Full share solve — bit-identical to :func:`allocate_shares`."""
        n = self._n
        if not (len(plan_idx) == len(assignment) == n):
            raise ConfigError("plan_idx/assignment length mismatch")
        compute = np.ones(n)
        bandwidth = np.ones(n)
        by_server: Dict[int, List[int]] = {}
        by_link: Dict[Tuple[str, int], List[int]] = {}
        for i, s in enumerate(assignment):
            if s is not None:
                by_server.setdefault(s, []).append(i)
                by_link.setdefault((self._dev_name[i], s), []).append(i)
        for s, members in by_server.items():
            self._solve_server(s, members, plan_idx, compute)
        for (dev_name, s), members in by_link.items():
            self._solve_link(dev_name, s, members, plan_idx, bandwidth)
        if counters is not None:
            counters.allocate_calls += 1
            counters.allocate_group_solves += len(by_server) + len(by_link)
        return Allocation(list(assignment), compute, bandwidth)

    def update(
        self,
        base: Allocation,
        plan_idx: Sequence[int],
        assignment: Sequence[Optional[int]],
        changed: Sequence[int],
        counters: Optional["PerfCounters"] = None,
        members_by_server: Optional[Dict[Optional[int], List[int]]] = None,
    ) -> Allocation:
        """Shares for ``(plan_idx, assignment)``, reusing a solved ``base``.

        ``base`` must be a valid allocation for a state that differs from the
        requested one only in the placement and/or plan of the tasks listed in
        ``changed``.  Only the server and link groups containing a changed
        task (in either the old or the new state) are re-solved; every other
        share is carried over.  The result is bit-identical to a full
        :meth:`solve` of the new state.

        ``members_by_server`` may supply the server→tasks inverse of
        ``assignment`` (each list ascending, exactly the order an index scan
        would produce) so touched groups resolve without the O(tasks) member
        scans — the cross-shard migration loop at 100k tasks maintains this
        inverse incrementally.  Shares are bit-identical either way because
        member order (hence float summation order) is unchanged.
        """
        compute = base.compute_shares.copy()
        bandwidth = base.bandwidth_shares.copy()
        servers: Set[int] = set()
        links: Set[Tuple[str, int]] = set()
        for i in changed:
            compute[i] = 1.0
            bandwidth[i] = 1.0
            for s in (base.assignment[i], assignment[i]):
                if s is not None:
                    servers.add(s)
                    links.add((self._dev_name[i], s))
        for s in sorted(servers):
            if members_by_server is not None:
                members = members_by_server.get(s, [])
            else:
                members = [i for i, a in enumerate(assignment) if a == s]
            if members:
                self._solve_server(s, members, plan_idx, compute)
        for dev_name, s in sorted(links):
            if members_by_server is not None:
                members = [
                    i
                    for i in members_by_server.get(s, [])
                    if self._dev_name[i] == dev_name
                ]
            else:
                members = [
                    i
                    for i, a in enumerate(assignment)
                    if a == s and self._dev_name[i] == dev_name
                ]
            if members:
                self._solve_link(dev_name, s, members, plan_idx, bandwidth)
        if counters is not None:
            counters.allocate_calls += 1
            counters.allocate_group_solves += len(servers) + len(links)
        return Allocation(list(assignment), compute, bandwidth)


#: Surrogate latency (seconds per unit of bottleneck utilization) used in
#: "penalty" overload mode — must dwarf any real latency so penalized
#: solutions never beat stable ones, while still ordering overloaded
#: solutions by how overloaded they are.
OVERLOAD_PENALTY_S = 1e4


def solution_latencies(
    tasks: Sequence[TaskSpec],
    candsets: Sequence[CandidateSet],
    plan_idx: Sequence[int],
    allocation: Allocation,
    cluster: EdgeCluster,
    latency_model: LatencyModel,
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
            latency_model,
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
    latency_model: LatencyModel,
    include_queueing: bool = True,
    overload: str = "inf",
    device=None,
    risk: Optional["RiskConfig"] = None,
) -> float:
    """Predicted latency of one task — the per-task kernel of
    :func:`solution_latencies`.

    Exposed separately so incremental solvers can re-evaluate only the tasks
    whose server or link groups changed after a trial move, instead of the
    whole solution.  ``x``/``y`` are the task's compute and bandwidth shares;
    ``device`` may be passed to skip the ``cluster.by_name`` lookup.
    ``overload`` is assumed pre-validated by the caller.  An active ``risk``
    config returns the buffered latency ``μ + κ(ε)·σ``, mirroring (stage for
    stage) the vectorized :meth:`CandidateSet._latency_stds` bound.
    """
    f = cs.features[j]
    if device is None:
        device = cluster.by_name(task.device_name)
    lam = task.arrival_rate
    r_dev = latency_model.throughput(device)
    oh_d = device.overhead_s if f.dev_flops > 0 else 0.0
    t_dev = f.dev_flops / r_dev + oh_d
    wait = 0.0
    rho_max = lam * t_dev
    buffered = risk is not None and risk.active
    sigma = 0.0
    if buffered:
        from repro.core.risk import stage_std

        sigma = stage_std(
            f.dev_flops / r_dev, f.dev_flops_sq / r_dev**2, oh_d, 1.0, risk.rel_var
        )
    if include_queueing and t_dev > 0:
        # device stage: every request visits it
        s1 = t_dev
        s2 = (
            f.dev_flops_sq / r_dev**2
            + 2.0 * oh_d * f.dev_flops / r_dev
            + oh_d**2
        )
        wait = mg1_wait(lam, s1, max(s2, s1 * s1))
        if buffered:
            from repro.core.risk import wait_std

            sigma += wait_std(wait, s1)
    if s is None:
        if not f.is_local_only:
            return float(np.inf)
        latency = t_dev + wait
        if not np.isfinite(latency):
            latency = (
                t_dev + OVERLOAD_PENALTY_S * rho_max
                if overload == "penalty"
                else float(np.inf)
            )
        return latency + risk.kappa * sigma if buffered else latency
    server = cluster.servers[s]
    link = cluster.link(task.device_name, server.name)
    r_srv = latency_model.throughput(server) * x
    bw = link.bandwidth_bps * y
    t_srv = f.srv_flops / r_srv + f.p_offload * server.overhead_s
    t_link = f.wire_bytes / bw
    base = t_dev + t_srv + t_link + f.p_offload * link.rtt_s
    if buffered:
        from repro.core.risk import stage_std

        sigma += (
            stage_std(
                f.srv_flops / r_srv, f.srv_flops_sq / r_srv**2,
                server.overhead_s, f.p_offload, risk.rel_var,
            )
            + stage_std(
                f.wire_bytes / bw, f.wire_bytes_sq / bw**2,
                0.0, f.p_offload, risk.rel_var,
            )
            + stage_std(0.0, 0.0, link.rtt_s, f.p_offload, 0.0)
        )
    total_wait = wait
    if include_queueing and f.p_offload > 0:
        lam_off = lam * f.p_offload
        # server stage: thinned stream, conditional service moments
        m1 = (f.srv_flops / f.p_offload) / r_srv + server.overhead_s
        m2 = (
            (f.srv_flops_sq / f.p_offload) / r_srv**2
            + 2.0 * server.overhead_s * (f.srv_flops / f.p_offload) / r_srv
            + server.overhead_s**2
        )
        w_srv = mg1_wait(lam_off, m1, max(m2, m1 * m1))
        # link stage: deterministic conditional service (fixed boundary)
        l1 = (f.wire_bytes / f.p_offload) / bw
        l2 = (f.wire_bytes_sq / f.p_offload) / bw**2
        w_link = mg1_wait(lam_off, l1, max(l2, l1 * l1))
        total_wait = wait + f.p_offload * (w_srv + w_link)
        rho_max = max(rho_max, lam_off * m1, lam_off * l1)
        if buffered:
            from repro.core.risk import wait_std

            sigma += wait_std(w_srv, m1, f.p_offload) + wait_std(
                w_link, l1, f.p_offload
            )
    buf = risk.kappa * sigma if buffered else 0.0
    if np.isfinite(total_wait):
        return base + total_wait + buf
    if overload == "penalty":
        return base + OVERLOAD_PENALTY_S * rho_max + buf
    return float(np.inf)


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
    latency_model: LatencyModel,
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
    for i, task in enumerate(tasks):
        device = cluster.by_name(task.device_name)
        for s in range(m):
            server = cluster.servers[s]
            link = cluster.link(task.device_name, server.name)
            lat = candsets[i].latencies(
                device,
                latency_model,
                server=server,
                link=link,
                compute_share=share_estimate,
                bandwidth_share=share_estimate,
                risk=risk,
            )
            best = float(np.min(lat))
            for k in range(slots_per_server):
                cost[i, s * slots_per_server + k] = best
        # private local column
        local_lat = candsets[i].latencies(device, latency_model, risk=risk)
        cost[i, m * slots_per_server + i] = float(np.min(local_lat))

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
