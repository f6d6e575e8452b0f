"""Shard plans and shard-local cluster views (the partitioned control plane).

The centralized :class:`~repro.core.joint.JointOptimizer` owns every task and
server of one :class:`~repro.devices.cluster.EdgeCluster`; that caps a solve
at hundreds of tasks because its superlinear pieces (the Hungarian matching,
the local-search sweep) price all tasks against all servers at once.  The
sharded control plane splits the problem in two:

- a :class:`ShardPlan` partitions the servers into disjoint shards (by
  contiguous "region" blocks or interleaved for heterogeneity balance) and
  deterministically *homes* every task to exactly one shard;
- a :class:`ShardView` presents one shard's servers as a duck-typed
  sub-cluster — the same ``servers`` / ``by_name`` / ``link`` surface
  :class:`~repro.devices.cluster.EdgeCluster` exposes — so a shard-local
  solve runs against the subset **without copying or re-validating** the
  parent cluster (lookups delegate to the parent's already-validated maps).

Task homing is capacity-bounded best-affinity: each task ranks shards by the
best candidate latency any of the shard's servers could offer it (optimistic
full-share estimate, no queueing — a pure affinity screen), and takes the
best-ranked shard that still has room under a load cap proportional to the
shard's server count.  The screen is cached by (candidate-feature identity,
device/link fingerprint), so scenario-built instances — thousands of tasks
cycling a handful of templates — home in O(templates × servers) sweeps, not
O(tasks × servers).

Everything here is deterministic: same cluster, tasks, and knobs → the same
partition and the same homing, independent of dict iteration or thread
schedule.  The cross-shard coordinator (:mod:`repro.core.coordinator`) owns
re-homing tasks between shards after the initial solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.candidates import CandidateSet
from repro.core.plan import TaskSpec
from repro.devices.cluster import EdgeCluster
from repro.devices.device import DeviceSpec
from repro.errors import ConfigError
from repro.network.link import Link

#: Server-partition strategies understood by :func:`partition_servers`.
SHARD_STRATEGIES = ("contiguous", "interleave")


@dataclass(frozen=True)
class ShardPlan:
    """A partition of one cluster's servers plus a task→shard homing.

    Attributes
    ----------
    server_shards:
        Per shard, the tuple of *global* server indices it owns.  Shards are
        disjoint, non-empty, and together cover every server exactly once.
    task_shard:
        Per task (same order as the task list it was built for), the index
        of the shard the task is homed to.
    shard_by:
        The partition strategy that produced ``server_shards`` (see
        :data:`SHARD_STRATEGIES`); informational.
    """

    server_shards: Tuple[Tuple[int, ...], ...]
    task_shard: Tuple[int, ...]
    shard_by: str = "contiguous"

    def __post_init__(self) -> None:
        if not self.server_shards:
            raise ConfigError("shard plan needs at least one shard")
        seen: set = set()
        for shard in self.server_shards:
            if not shard:
                raise ConfigError("empty server shard")
            for s in shard:
                if s in seen:
                    raise ConfigError(f"server {s} appears in two shards")
                seen.add(s)
        if seen != set(range(len(seen))) or (seen and max(seen) != len(seen) - 1):
            raise ConfigError(
                f"server shards must partition 0..{len(seen) - 1}, got {sorted(seen)}"
            )
        k = len(self.server_shards)
        for t in self.task_shard:
            if not (0 <= t < k):
                raise ConfigError(f"task homed to unknown shard {t} (of {k})")
        # server -> shard inverse, built once so shard_of_server is O(1)
        # (the migration loop asks it per accepted move; a linear scan made
        # that O(servers) per move at 100k-task scale)
        shard_of = [0] * len(seen)
        for idx, shard in enumerate(self.server_shards):
            for s in shard:
                shard_of[s] = idx
        object.__setattr__(self, "_shard_of", tuple(shard_of))

    @property
    def num_shards(self) -> int:
        return len(self.server_shards)

    @property
    def num_servers(self) -> int:
        return sum(len(s) for s in self.server_shards)

    def tasks_by_shard(self) -> List[List[int]]:
        """Per shard, the task indices homed to it, ascending — one O(tasks)
        pass."""
        out: List[List[int]] = [[] for _ in range(self.num_shards)]
        for i, s in enumerate(self.task_shard):
            out[s].append(i)
        return out

    def shard_of_server(self, server: int) -> int:
        """The shard owning global server index ``server`` (O(1))."""
        if not (0 <= server < len(self._shard_of)):
            raise ConfigError(f"server {server} not in any shard")
        return self._shard_of[server]

    def with_task_shard(self, task_shard: Sequence[int]) -> "ShardPlan":
        """A copy with the homing replaced (after migration rounds)."""
        return ShardPlan(self.server_shards, tuple(task_shard), self.shard_by)


class ShardView:
    """One shard's servers presented as a sub-cluster, without copying.

    Exposes the subset of the :class:`~repro.devices.cluster.EdgeCluster`
    surface the solver stack reads — ``servers``, ``num_servers``,
    ``by_name``, ``link``, ``server_index`` — with server *positions*
    renumbered to the shard-local range ``0..len(shard)-1`` and name/link
    lookups delegated to the parent's validated maps.  A
    :class:`~repro.core.joint.JointOptimizer` built over a view therefore
    solves exactly the sub-problem of the shard's servers plus whatever
    tasks it is given, at sub-problem cost.

    ``to_global`` / ``to_local`` translate between shard-local server
    indices (what a shard solve's plan contains) and global indices (what
    the coordinator's merged plan contains).
    """

    __slots__ = ("parent", "server_ids", "servers", "_local_of")

    def __init__(self, parent: EdgeCluster, server_ids: Sequence[int]) -> None:
        m = parent.num_servers
        ids = tuple(int(s) for s in server_ids)
        if not ids:
            raise ConfigError("shard view needs at least one server")
        for s in ids:
            if not (0 <= s < m):
                raise ConfigError(f"server index {s} outside cluster (m={m})")
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate server indices in shard view: {ids}")
        self.parent = parent
        self.server_ids = ids
        self.servers = [parent.servers[s] for s in ids]
        self._local_of = {g: l for l, g in enumerate(ids)}

    @property
    def num_servers(self) -> int:
        return len(self.servers)

    @property
    def num_devices(self) -> int:
        return self.parent.num_devices

    @property
    def topology(self) -> object:
        """The parent's topology (row fingerprints stay valid on the subset).

        A device row over *all* parent servers fingerprints a superset of the
        view's columns, so equal parent rows imply equal view rows — the
        sparse affinity index's dedup stays sound when built over a view
        (nested sharding recurses through here).
        """
        return getattr(self.parent, "topology", None)

    def by_name(self, name: str) -> DeviceSpec:
        return self.parent.by_name(name)

    def link(self, device_name: str, server_name: str) -> Link:
        return self.parent.link(device_name, server_name)

    def server_index(self, name: str) -> int:
        for i, s in enumerate(self.servers):
            if s.name == name:
                return i
        raise ConfigError(f"unknown server {name!r} in shard view")

    def to_global(self, local: Optional[int]) -> Optional[int]:
        """Shard-local server index → global index (``None`` stays local)."""
        return None if local is None else self.server_ids[local]

    def to_local(self, global_idx: Optional[int]) -> Optional[int]:
        """Global server index → shard-local index (must be in this shard)."""
        if global_idx is None:
            return None
        try:
            return self._local_of[global_idx]
        except KeyError:
            raise ConfigError(
                f"server {global_idx} is not in this shard ({self.server_ids})"
            ) from None


def partition_servers(
    num_servers: int, shards: int, shard_by: str = "contiguous"
) -> Tuple[Tuple[int, ...], ...]:
    """Deterministically split ``0..num_servers-1`` into ``shards`` groups.

    ``"contiguous"`` cuts near-equal index blocks — the region/tier shape
    (servers provisioned together stay together).  ``"interleave"`` deals
    servers round-robin, spreading a heterogeneous speed mix evenly across
    shards.
    """
    if shard_by not in SHARD_STRATEGIES:
        raise ConfigError(
            f"unknown shard_by {shard_by!r}; available {SHARD_STRATEGIES}"
        )
    if shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards}")
    if shards > num_servers:
        raise ConfigError(
            f"cannot split {num_servers} servers into {shards} shards"
        )
    if shard_by == "interleave":
        return tuple(
            tuple(range(k, num_servers, shards)) for k in range(shards)
        )
    base, extra = divmod(num_servers, shards)
    out: List[Tuple[int, ...]] = []
    start = 0
    for k in range(shards):
        size = base + (1 if k < extra else 0)
        out.append(tuple(range(start, start + size)))
        start += size
    return tuple(out)


class AffinityIndex:
    """Template-deduplicated optimistic latency bounds ``B[template, server]``.

    The homing/migration screens need, for many (task, server) pairs, the
    best candidate latency a task could see on a server under a full-share,
    queueing-free estimate — a pure function of the task's candidate feature
    arrays, its device's speed fingerprint, and its per-server link row.
    Scenario-built instances repeat those per template (candidate sets from
    the memoized pipeline share one ``features`` list object; uniform star
    topologies share one ``Link``), so tasks are first collapsed to
    templates and the O(templates × servers) sweep matrix is computed once;
    every later screen is an array lookup.

    The build stays below O(tasks × servers): dedup keys use the topology's
    O(1) row fingerprint
    (:meth:`~repro.network.topology.StarTopology.row_key`) when one is
    available (else the per-server link-id row), a per-template
    ``(bound, server)``-sorted top-k shortlist is cut with
    ``np.argpartition`` (widened on boundary ties so order is exact), and
    :meth:`foreign_mins` walks the shortlist instead of re-reducing the
    matrix.  Every tie breaks by (value, index) order, so each answer equals
    a brute-force masked argmin over the bound matrix.

    The compressed template→tasks mapping (:attr:`template_tasks`) and the
    per-partition :meth:`foreign_mins` / :meth:`shard_orders` caches let one
    index serve homing, every migration round, and incremental re-solves
    without recomputation.
    """

    def __init__(
        self,
        tasks: Sequence[TaskSpec],
        candsets: Sequence[CandidateSet],
        cluster: EdgeCluster,
        mode: str = "sparse",
    ) -> None:
        if len(candsets) != len(tasks):
            raise ConfigError("tasks/candsets length mismatch")
        if mode != "sparse":
            # the keyword survives for callers that name the one build mode
            raise ConfigError(f"unknown affinity mode {mode!r}; only 'sparse'")
        m = cluster.num_servers
        keys: Dict[Tuple, int] = {}
        self.template_of: List[int] = []
        reps: List[int] = []
        row_key = getattr(getattr(cluster, "topology", None), "row_key", None)
        for i, t in enumerate(tasks):
            device = cluster.by_name(t.device_name)
            if row_key is not None:
                links_part: Hashable = row_key(t.device_name)
            else:
                links_part = tuple(
                    id(cluster.link(t.device_name, srv.name))
                    for srv in cluster.servers
                )
            key = (
                id(candsets[i].features),
                device.peak_flops,
                tuple(sorted(device.efficiency.items())),
                device.overhead_s,
                links_part,
            )
            tpl = keys.get(key)
            if tpl is None:
                tpl = len(reps)
                keys[key] = tpl
                reps.append(i)
            self.template_of.append(tpl)
        self.bounds = np.empty((len(reps), m))
        for tpl, i in enumerate(reps):
            device = cluster.by_name(tasks[i].device_name)
            for s in range(m):
                server = cluster.servers[s]
                link = cluster.link(tasks[i].device_name, server.name)
                self.bounds[tpl, s] = float(
                    np.min(candsets[i].latencies(device, server=server, link=link))
                )
        # compressed template -> tasks mapping (one O(tasks) pass); lets
        # screens iterate "all tasks of template t" without rescanning
        self.template_tasks: List[List[int]] = [[] for _ in reps]
        for i, tpl in enumerate(self.template_of):
            self.template_tasks[tpl].append(i)
        # per-partition caches (keyed by the server_shards tuple): the
        # foreign table and homing orders are pure functions of the
        # partition, so one solve — and any incremental re-solve after it —
        # computes each at most once
        self._foreign_cache: Dict[Tuple, Tuple[np.ndarray, np.ndarray]] = {}
        self._orders_cache: Dict[Tuple, np.ndarray] = {}
        self._prefix: Optional[np.ndarray] = None
        self._prefix_k: int = 0

    def _prefix_order(self, k: int) -> np.ndarray:
        """Per-template first-``k`` servers in exact ``(bound, index)`` order.

        ``np.argpartition`` cuts the k cheapest per row; rows where the k-th
        value ties with values outside the cut fall back to a full stable
        argsort, so the shortlist order always matches what a full
        ``sorted(..., key=(value, index))`` would produce.
        """
        m = self.bounds.shape[1]
        k = min(k, m)
        if self._prefix is not None and self._prefix_k >= k:
            return self._prefix[:, :k]
        if k >= m:
            order = np.argsort(self.bounds, axis=1, kind="stable")
        else:
            sel = np.argpartition(self.bounds, k - 1, axis=1)[:, :k]
            sel.sort(axis=1)  # ascending index, so a stable value-sort
            vals = np.take_along_axis(self.bounds, sel, axis=1)
            order = np.take_along_axis(
                sel, np.argsort(vals, axis=1, kind="stable"), axis=1
            )  # ...yields exact (value, index) order within the cut
            kth = vals.max(axis=1)
            ragged = (self.bounds <= kth[:, None]).sum(axis=1) > k
            if np.any(ragged):
                order[ragged] = np.argsort(
                    self.bounds[ragged], axis=1, kind="stable"
                )[:, :k]
        self._prefix = order
        self._prefix_k = k
        return order

    def shard_mins(
        self, server_shards: Sequence[Sequence[int]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per (template, shard): best bound over the shard's *own* servers
        and the (global) server achieving it."""
        cols = [np.asarray(tuple(shard)) for shard in server_shards]
        val = np.stack([self.bounds[:, c].min(axis=1) for c in cols], axis=1)
        srv = np.stack(
            [c[self.bounds[:, c].argmin(axis=1)] for c in cols], axis=1
        )
        return val, srv

    def shard_orders(self, server_shards: Sequence[Sequence[int]]) -> np.ndarray:
        """Per template, the shard preference order of :func:`home_tasks`.

        Row ``t`` is ``range(k)`` sorted by ``(shard_min[t, j], j)`` (a
        stable argsort), computed once per template instead of once per
        task.  Cached per partition.
        """
        pkey = tuple(tuple(s) for s in server_shards)
        cached = self._orders_cache.get(pkey)
        if cached is None:
            scores, _ = self.shard_mins(server_shards)
            cached = np.argsort(scores, axis=1, kind="stable")
            self._orders_cache[pkey] = cached
        return cached

    def foreign_mins(
        self, server_shards: Sequence[Sequence[int]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per (template, home shard): best bound over servers *outside* the
        shard and the server achieving it (migration's screen).

        Built at most once per partition (cached) and read off the top-k
        shortlist: the first shortlist entry outside the home shard, which
        exists within the first ``max_shard + 1`` entries because a shard
        holds at most ``max_shard`` servers.  A home shard with no foreign
        server gets ``(inf, -1)``.
        """
        server_shards = tuple(tuple(s) for s in server_shards)
        cached = self._foreign_cache.get(server_shards)
        if cached is not None:
            return cached
        num_templates, m = self.bounds.shape
        k = len(server_shards)
        shard_of = np.empty(m, dtype=np.int64)
        for sh, ids in enumerate(server_shards):
            shard_of[list(ids)] = sh
        max_shard = max(len(s) for s in server_shards)
        order = self._prefix_order(min(max_shard + 1, m))
        order_shard = shard_of[order]
        vals = np.full((num_templates, k), np.inf)
        srvs = np.full((num_templates, k), -1, dtype=np.int64)
        for tpl in range(num_templates):
            row_o = order[tpl]
            row_s = order_shard[tpl]
            first = int(row_o[0])
            s0 = int(row_s[0])
            # the global best server is foreign to every home shard but its
            # own; for that one home, the first entry from any other shard
            # is the answer (guaranteed inside the shortlist)
            vals[tpl, :] = self.bounds[tpl, first]
            srvs[tpl, :] = first
            vals[tpl, s0] = np.inf
            srvs[tpl, s0] = -1
            for pos in range(1, row_o.shape[0]):
                if int(row_s[pos]) != s0:
                    nxt = int(row_o[pos])
                    vals[tpl, s0] = self.bounds[tpl, nxt]
                    srvs[tpl, s0] = nxt
                    break
        self._foreign_cache[server_shards] = (vals, srvs)
        return vals, srvs


def home_tasks(
    tasks: Sequence[TaskSpec],
    candsets: Sequence[CandidateSet],
    cluster: EdgeCluster,
    server_shards: Sequence[Sequence[int]],
    affinity: Optional[AffinityIndex] = None,
) -> Tuple[int, ...]:
    """Capacity-bounded best-affinity homing of every task to one shard.

    Each task scores every shard by the best candidate latency any of the
    shard's servers offers under an optimistic full-share, queueing-free
    estimate (see :class:`AffinityIndex`), then takes its best-scoring shard
    whose load is still under ``ceil(n_tasks × shard_servers / total)``; if
    every preferred shard is full, the least-loaded shard (relative to its
    cap) takes the task.  Deterministic: tasks are visited in index order
    and ties break toward the lower shard index.

    Homing walks per-template preference orders with a monotone full-shard
    cursor instead of a per-task O(shards log shards) sort: caps are static
    and loads only grow, so a shard observed full stays full and the cursor
    never backtracks.
    """
    if len(candsets) != len(tasks):
        raise ConfigError("tasks/candsets length mismatch")
    n = len(tasks)
    m = cluster.num_servers
    k = len(server_shards)
    caps = [max(1, -(-n * len(shard) // m)) for shard in server_shards]
    loads = [0] * k
    index = affinity or AffinityIndex(tasks, candsets, cluster)

    out: List[int] = []
    orders = index.shard_orders(server_shards)
    template_of = index.template_of
    cursor = [0] * orders.shape[0]
    for i in range(n):
        tpl = template_of[i]
        order = orders[tpl]
        c = cursor[tpl]
        # skip shards that filled since this template last homed; every
        # skip is permanent, so total cursor motion is O(templates × k)
        while c < k and loads[order[c]] >= caps[order[c]]:
            c += 1
        cursor[tpl] = c
        if c < k:
            chosen = int(order[c])
        else:  # all caps hit (rounding): least relatively loaded
            chosen = min(range(k), key=lambda j: (loads[j] / caps[j], j))
        loads[chosen] += 1
        out.append(chosen)
    return tuple(out)


def make_shard_plan(
    tasks: Sequence[TaskSpec],
    candsets: Sequence[CandidateSet],
    cluster: EdgeCluster,
    shards: int,
    shard_by: str = "contiguous",
    affinity: Optional[AffinityIndex] = None,
) -> ShardPlan:
    """Partition the cluster's servers and home every task to a shard."""
    server_shards = partition_servers(cluster.num_servers, shards, shard_by)
    if shards == 1:
        # single shard: homing is trivial and the affinity sweep is skipped,
        # keeping the 1-shard path bit-identical (and cheap) vs centralized
        task_shard: Tuple[int, ...] = (0,) * len(tasks)
    else:
        task_shard = home_tasks(
            tasks, candsets, cluster, server_shards, affinity
        )
    return ShardPlan(server_shards, task_shard, shard_by)
