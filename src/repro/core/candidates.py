"""Candidate plan sets: array-of-structs view + dominance pruning.

A :class:`CandidateSet` packs a task's enumerated plan features into parallel
NumPy arrays so the joint optimizer evaluates *all* candidates under a given
allocation with a single vectorized expression, then argmins.

Pruning removes plans dominated in the 5-dimensional feature space
(dev_flops, srv_flops, wire_bytes, p_offload | accuracy): if plan B costs at
least as much as plan A on every resource and achieves no more accuracy, no
allocation can ever make B preferable, so B can be dropped *before* any
allocation is known.  This typically shrinks ~10^3 enumerated plans to a few
dozen undominated ones and is what keeps the joint solver fast.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.plan import PlanFeatures, SurgeryPlan, TaskSpec
from repro.core.surgery import (
    DEFAULT_MAX_CUTS,
    DEFAULT_THRESHOLD_GRID,
    enumerate_features,
    plan_latency,
)
from repro.devices.device import DeviceSpec
from repro.devices.latency import LatencyModel
from repro.errors import InfeasibleError, PlanError
from repro.network.link import Link

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.risk import RiskConfig

#: Parallel-array attributes of :class:`CandidateSet`, in construction order.
#: Derived sets are produced by slicing these (see :meth:`CandidateSet._take`)
#: instead of re-listing features and rebuilding every array from Python.
_ARRAY_FIELDS: Tuple[str, ...] = (
    "dev_flops",
    "srv_flops",
    "wire_bytes",
    "p_offload",
    "accuracy",
    "dev_flops_sq",
    "srv_flops_sq",
    "wire_bytes_sq",
)


@dataclass
class CandidateSet:
    """Parallel-array view over a task's candidate plans."""

    task: TaskSpec
    features: List[PlanFeatures]
    dev_flops: np.ndarray = field(init=False)
    srv_flops: np.ndarray = field(init=False)
    wire_bytes: np.ndarray = field(init=False)
    p_offload: np.ndarray = field(init=False)
    accuracy: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if not self.features:
            raise PlanError(f"{self.task.name}: empty candidate set")
        self.dev_flops = np.array([f.dev_flops for f in self.features])
        self.srv_flops = np.array([f.srv_flops for f in self.features])
        self.wire_bytes = np.array([f.wire_bytes for f in self.features])
        self.p_offload = np.array([f.p_offload for f in self.features])
        self.accuracy = np.array([f.accuracy for f in self.features])
        self.dev_flops_sq = np.array([f.dev_flops_sq for f in self.features])
        self.srv_flops_sq = np.array([f.srv_flops_sq for f in self.features])
        self.wire_bytes_sq = np.array([f.wire_bytes_sq for f in self.features])

    def __len__(self) -> int:
        return len(self.features)

    # -- transformations -----------------------------------------------------

    def _take(self, indices: Sequence[int]) -> "CandidateSet":
        """Derived set holding ``features[i] for i in indices``.

        Shares no mutable state with ``self``: the feature list is re-listed
        (cheap — it holds frozen objects) and every parallel array is sliced,
        skipping the per-feature Python attribute walk of ``__post_init__``.
        """
        idx = np.asarray(indices, dtype=int)
        if idx.size == 0:
            raise PlanError(f"{self.task.name}: empty candidate set")
        obj = object.__new__(CandidateSet)
        obj.task = self.task
        obj.features = [self.features[int(i)] for i in idx]
        for name in _ARRAY_FIELDS:
            setattr(obj, name, getattr(self, name)[idx])
        return obj

    def position_of(self, feats: PlanFeatures) -> Optional[int]:
        """Index of ``feats`` in this set, or ``None`` if absent.

        Identity is resolved through a lazily built id→index map (tasks of
        one template share a features list, so the map is built once per
        list, not once per lookup), then equality as a fallback — the same
        identity-then-equality semantics as a linear ``is`` scan followed by
        ``list.index``, at amortized O(1) instead of O(candidates).
        """
        cached = self.__dict__.get("_pos_by_id")
        if cached is None or cached[0] != len(self.features):
            pos: Dict[int, int] = {}
            for j, f in enumerate(self.features):
                pos.setdefault(id(f), j)
            cached = (len(self.features), pos)
            self.__dict__["_pos_by_id"] = cached
        j = cached[1].get(id(feats))
        if j is not None:
            return j
        try:
            return self.features.index(feats)
        except ValueError:
            return None

    def _with_task(self, task: TaskSpec) -> "CandidateSet":
        """Rebind a cached set to another task, sharing features and arrays.

        Safe because features are frozen and no caller mutates the parallel
        arrays (derived sets always copy via :meth:`_take`).
        """
        obj = object.__new__(CandidateSet)
        obj.task = task
        obj.features = self.features
        for name in _ARRAY_FIELDS:
            setattr(obj, name, getattr(self, name))
        return obj

    def filter_accuracy(self, floor: float) -> "CandidateSet":
        """Keep plans meeting the accuracy floor; raise if none do."""
        mask = self.accuracy >= floor - 1e-12
        if not mask.any():
            raise InfeasibleError(
                f"{self.task.name}: no plan reaches accuracy {floor:.3f} "
                f"(best attainable {float(self.accuracy.max()):.3f})"
            )
        return self._take(np.flatnonzero(mask))

    def local_only(self) -> "CandidateSet":
        """Subset of plans that never use a server."""
        mask = (self.p_offload <= 0.0) & (self.srv_flops <= 0.0)
        if not mask.any():
            raise InfeasibleError(f"{self.task.name}: no fully-local plan available")
        return self._take(np.flatnonzero(mask))

    def pruned(self) -> "CandidateSet":
        """Drop plans dominated on every resource at no accuracy gain.

        Plans are scanned by accuracy descending (stable), so dominators are
        examined first, and each is tested only against the plans kept so
        far — a plan dropped earlier never disqualifies a later one.  The
        kept-so-far costs live in one preallocated buffer, so memory is
        O(n) and each test is one vectorized pass over at most the kept set.
        """
        n = len(self.features)
        if n <= 1:
            return self._take(np.arange(n))
        cost = np.stack(
            [self.dev_flops, self.srv_flops, self.wire_bytes, self.p_offload], axis=1
        )
        acc = self.accuracy
        # a kept plan (ka, kc) dominates (a, c) when it weakly dominates on
        # accuracy and every resource and is strictly better somewhere
        cost_hi, cost_lo = cost + 1e-9, cost - 1e-9
        acc_lo, acc_hi = acc - 1e-12, acc + 1e-12
        kept = np.empty(n, dtype=np.intp)
        kacc = np.empty(n)
        kcost = np.empty((n, 4))
        k = 0
        for idx in np.argsort(-acc, kind="stable"):
            if k:
                ka, kc = kacc[:k], kcost[:k]
                if np.any(
                    (ka >= acc_lo[idx])
                    & np.all(kc <= cost_hi[idx], axis=1)
                    & ((ka > acc_hi[idx]) | np.any(kc < cost_lo[idx], axis=1))
                ):
                    continue
            kept[k], kacc[k], kcost[k] = idx, acc[idx], cost[idx]
            k += 1
        return self._take(np.sort(kept[:k]))

    def subsample(self, k: int) -> "CandidateSet":
        """Evenly thin the set to at most ``k`` plans (accuracy-ordered).

        Used where the candidate count itself is the complexity driver
        (exhaustive enumeration in experiment E8).  Keeps both accuracy
        extremes; deterministic.
        """
        if k < 1:
            raise PlanError(f"subsample size must be >= 1, got {k}")
        n = len(self.features)
        if n <= k:
            return self._take(np.arange(n))
        order = np.argsort(self.accuracy, kind="stable")
        picks = np.unique(np.linspace(0, n - 1, k).round().astype(int))
        return self._take(order[picks])

    # -- evaluation ------------------------------------------------------------

    def latencies(
        self,
        device: DeviceSpec,
        latency_model: LatencyModel,
        server: Optional[DeviceSpec] = None,
        link: Optional[Link] = None,
        compute_share: float = 1.0,
        bandwidth_share: float = 1.0,
        server_wait_s: float = 0.0,
        arrival_rate: Optional[float] = None,
        risk: Optional["RiskConfig"] = None,
    ) -> np.ndarray:
        """Expected latency of every candidate under one allocation.

        With ``server=None`` only local-only candidates get finite latency;
        offloading candidates are reported as ``inf``.  Passing
        ``arrival_rate`` adds the per-stage M/G/1 congestion terms (same
        model as :func:`repro.core.allocation.solution_latencies`), so the
        surgery step can reject plans whose bottleneck stage cannot sustain
        the task's stream (those come back ``inf``).

        With an active ``risk`` config the returned values are *buffered*
        latencies ``μ + κ(ε)·σ`` (see :mod:`repro.core.risk`), so ranking
        candidates by this vector certifies ``P[latency ≤ deadline] ≥ 1−ε``
        rather than ``E[latency] ≤ deadline``; an inactive or absent risk
        config leaves the deterministic path bit-identical.
        """
        r_dev = latency_model.throughput(device)
        if server is None:
            t = np.where(
                self.dev_flops > 0,
                self.dev_flops / r_dev + device.overhead_s,
                0.0,
            )
            uses = (self.p_offload > 0) | (self.srv_flops > 0)
            t = np.where(uses, np.inf, t)
        else:
            t = plan_latency(
                self.dev_flops,
                self.srv_flops,
                self.wire_bytes,
                self.p_offload,
                device,
                latency_model,
                server=server,
                link=link,
                compute_share=compute_share,
                bandwidth_share=bandwidth_share,
                server_wait_s=server_wait_s,
            )
        if arrival_rate is not None:
            t = t + self._queue_waits(
                arrival_rate, device, latency_model, server, link,
                compute_share, bandwidth_share,
            )
        if risk is not None and risk.active:
            t = t + risk.kappa * self._latency_stds(
                device, latency_model, server, link,
                compute_share, bandwidth_share, arrival_rate, risk,
            )
        return t

    #: Ranking penalty (seconds per unit of bottleneck utilization) applied
    #: to overloaded candidates instead of ``inf``.  When *no* stable plan
    #: exists, the graded penalty still orders candidates by how overloaded
    #: they are, so the optimizer degrades gracefully (shed the most load)
    #: rather than choosing arbitrarily among equally-infinite options.  The
    #: objective reported by :func:`solution_latencies` remains an honest
    #: ``inf`` for unstable solutions.
    OVERLOAD_PENALTY_S = 1e4

    def _queue_waits(
        self,
        lam: float,
        device: DeviceSpec,
        latency_model: LatencyModel,
        server: Optional[DeviceSpec],
        link: Optional[Link],
        compute_share: float,
        bandwidth_share: float,
    ) -> np.ndarray:
        """Vectorized per-stage M/G/1 waiting time per candidate.

        Overloaded candidates receive a finite, utilization-graded penalty
        (see :data:`OVERLOAD_PENALTY_S`) so ranking keeps a gradient.
        """
        from repro.core.queueing import mg1_wait_vec

        r_dev = latency_model.throughput(device)
        oh_d = np.where(self.dev_flops > 0, device.overhead_s, 0.0)
        s1 = self.dev_flops / r_dev + oh_d
        s2 = self.dev_flops_sq / r_dev**2 + 2 * oh_d * self.dev_flops / r_dev + oh_d**2
        wait = np.where(
            s1 > 0, mg1_wait_vec(np.full_like(s1, lam), s1, np.maximum(s2, s1 * s1)), 0.0
        )
        rho_max = lam * s1
        if server is not None and link is not None:
            r_srv = latency_model.throughput(server) * compute_share
            bw = link.bandwidth_bps * bandwidth_share
            p = self.p_offload
            with np.errstate(divide="ignore", invalid="ignore"):
                m1 = np.where(p > 0, (self.srv_flops / p) / r_srv + server.overhead_s, 0.0)
                m2 = np.where(
                    p > 0,
                    (self.srv_flops_sq / p) / r_srv**2
                    + 2 * server.overhead_s * (self.srv_flops / p) / r_srv
                    + server.overhead_s**2,
                    0.0,
                )
                l1 = np.where(p > 0, (self.wire_bytes / p) / bw, 0.0)
                l2 = np.where(p > 0, (self.wire_bytes_sq / p) / bw**2, 0.0)
            w_srv = mg1_wait_vec(lam * p, m1, np.maximum(m2, m1 * m1))
            w_link = mg1_wait_vec(lam * p, l1, np.maximum(l2, l1 * l1))
            wait = wait + p * (w_srv + w_link)
            rho_max = np.maximum(rho_max, np.maximum(lam * p * m1, lam * p * l1))
        return np.where(np.isfinite(wait), wait, self.OVERLOAD_PENALTY_S * rho_max)

    def _latency_stds(
        self,
        device: DeviceSpec,
        latency_model: LatencyModel,
        server: Optional[DeviceSpec],
        link: Optional[Link],
        compute_share: float,
        bandwidth_share: float,
        arrival_rate: Optional[float],
        risk: "RiskConfig",
    ) -> np.ndarray:
        """Per-candidate latency-std upper bound σ (buffered-mode only).

        Sub-additive sum of per-stage stds (exit-mix second moments +
        multiplicative service jitter, :func:`repro.core.risk.stage_std`)
        plus the queueing-delay surrogates (:func:`repro.core.risk.wait_std`)
        when ``arrival_rate`` is given — mirroring, stage for stage, the
        mean terms this set's :meth:`latencies` accumulates.  Only entered
        when the risk config is active, so the deterministic path never pays
        for it.
        """
        from repro.core.queueing import mg1_wait_vec
        from repro.core.risk import stage_std, wait_std

        rv = risk.rel_var
        r_dev = latency_model.throughput(device)
        oh_d = np.where(self.dev_flops > 0, device.overhead_s, 0.0)
        w_dev = self.dev_flops / r_dev
        w2_dev = self.dev_flops_sq / r_dev**2
        sigma = stage_std(w_dev, w2_dev, oh_d, 1.0, rv)
        lam = arrival_rate
        if lam is not None:
            s1 = w_dev + oh_d
            s2 = w2_dev + 2 * oh_d * w_dev + oh_d**2
            dev_wait = np.where(
                s1 > 0,
                mg1_wait_vec(np.full_like(s1, lam), s1, np.maximum(s2, s1 * s1)),
                0.0,
            )
            sigma = sigma + wait_std(dev_wait, s1)
        if server is not None and link is not None:
            p = self.p_offload
            r_srv = latency_model.throughput(server) * compute_share
            bw = link.bandwidth_bps * bandwidth_share
            w_srv = self.srv_flops / r_srv
            w_wire = self.wire_bytes / bw
            sigma = (
                sigma
                + stage_std(w_srv, self.srv_flops_sq / r_srv**2, server.overhead_s, p, rv)
                + stage_std(w_wire, self.wire_bytes_sq / bw**2, 0.0, p, rv)
                + stage_std(0.0, 0.0, link.rtt_s, p, 0.0)
            )
            if lam is not None:
                with np.errstate(divide="ignore", invalid="ignore"):
                    m1 = np.where(p > 0, (w_srv / p) + server.overhead_s, 0.0)
                    m2 = np.where(
                        p > 0,
                        (self.srv_flops_sq / p) / r_srv**2
                        + 2 * server.overhead_s * (w_srv / p)
                        + server.overhead_s**2,
                        0.0,
                    )
                    l1 = np.where(p > 0, w_wire / p, 0.0)
                    l2 = np.where(p > 0, (self.wire_bytes_sq / p) / bw**2, 0.0)
                srv_wait = mg1_wait_vec(lam * p, m1, np.maximum(m2, m1 * m1))
                link_wait = mg1_wait_vec(lam * p, l1, np.maximum(l2, l1 * l1))
                sigma = sigma + wait_std(srv_wait, m1, p) + wait_std(link_wait, l1, p)
        return sigma

    def best(
        self,
        device: DeviceSpec,
        latency_model: LatencyModel,
        server: Optional[DeviceSpec] = None,
        link: Optional[Link] = None,
        compute_share: float = 1.0,
        bandwidth_share: float = 1.0,
        server_wait_s: float = 0.0,
    ) -> tuple:
        """(index, latency) of the fastest candidate under one allocation."""
        lat = self.latencies(
            device,
            latency_model,
            server=server,
            link=link,
            compute_share=compute_share,
            bandwidth_share=bandwidth_share,
            server_wait_s=server_wait_s,
        )
        idx = int(np.argmin(lat))
        return idx, float(lat[idx])


# -- candidate pipeline cache --------------------------------------------------
#
# The enumerate -> filter_accuracy -> pruned pipeline is a pure function of
# (model, threshold_grid, max_cuts, quantization_levels, accuracy_floor,
# prune) — nothing task-specific beyond the floor enters it.  Experiments
# instantiate many tasks over a handful of model templates (E9 cycles 3
# templates over 64 tasks) and re-plan repeatedly (E11), so the pipeline is
# memoized per process: raw enumerations and derived (filtered + pruned)
# sets are cached per model and rebound to each task by array sharing.
# Models are weakly keyed so ad-hoc models do not pin their candidates.


@dataclass
class CandidateCacheStats:
    """Hit/miss counts of the :func:`build_candidates` pipeline cache."""

    hits: int = 0
    misses: int = 0


_cache_lock = threading.Lock()
_raw_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_derived_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_cache_stats = CandidateCacheStats()


def candidate_cache_stats() -> CandidateCacheStats:
    """Snapshot of the process-wide candidate-pipeline cache counters."""
    with _cache_lock:
        return CandidateCacheStats(_cache_stats.hits, _cache_stats.misses)


def clear_candidate_cache() -> None:
    """Drop all cached candidate pipelines and reset the counters."""
    with _cache_lock:
        _raw_cache.clear()
        _derived_cache.clear()
        _cache_stats.hits = 0
        _cache_stats.misses = 0


def build_candidates(
    task: TaskSpec,
    threshold_grid: Optional[Sequence[float]] = None,
    max_cuts: Optional[int] = None,
    prune: bool = True,
    quantization_levels: Optional[Sequence[str]] = None,
    cache: bool = True,
) -> CandidateSet:
    """Enumerate, accuracy-filter, and prune a task's candidate plans.

    Pass ``quantization_levels=repro.models.quantization.ALL_LEVELS`` to add
    the precision knob to the search space (default: fp32 only).

    Results are memoized per (model, grid, cuts, levels, floor, prune) —
    see the cache notes above; ``cache=False`` forces a fresh build.  Cached
    and fresh builds are bit-identical (the pipeline is deterministic).
    """
    grid = tuple(threshold_grid) if threshold_grid is not None else DEFAULT_THRESHOLD_GRID
    cuts = int(max_cuts) if max_cuts is not None else DEFAULT_MAX_CUTS
    levels = tuple(quantization_levels) if quantization_levels is not None else ("fp32",)
    raw_key = (grid, cuts, levels)
    derived_key = raw_key + (float(task.accuracy_floor), bool(prune))

    if cache:
        with _cache_lock:
            per_model = _derived_cache.get(task.model)
            tmpl = per_model.get(derived_key) if per_model is not None else None
            if tmpl is not None:
                _cache_stats.hits += 1
        if tmpl is not None:
            return tmpl._with_task(task)

    raw: Optional[CandidateSet] = None
    if cache:
        with _cache_lock:
            per_model_raw = _raw_cache.get(task.model)
            raw = per_model_raw.get(raw_key) if per_model_raw is not None else None
        if raw is not None:
            raw = raw._with_task(task)
    if raw is None:
        feats = enumerate_features(
            task.model, threshold_grid=grid, max_cuts=cuts, quantization_levels=levels
        )
        raw = CandidateSet(task, feats)
        if cache:
            with _cache_lock:
                _raw_cache.setdefault(task.model, {})[raw_key] = raw

    cs = raw.filter_accuracy(task.accuracy_floor)
    if prune:
        cs = cs.pruned()
    if cache:
        with _cache_lock:
            _cache_stats.misses += 1
            _derived_cache.setdefault(task.model, {})[derived_key] = cs
    return cs
