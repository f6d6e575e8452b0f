"""Candidate plan sets: a struct-of-arrays view + dominance pruning.

A :class:`CandidateSet` holds a task's candidate plan features as parallel
NumPy columns (one array per :data:`~repro.core.plan.FEATURE_COLUMNS` field)
so the joint optimizer evaluates *all* candidates under a given allocation
with one pass of the latency model's vector form
(:func:`repro.core.latency.predicted_latency_vec`), then argmins; one pass
can price the candidates for many placements at once.

Pruning removes plans dominated in the 5-dimensional feature space
(dev_flops, srv_flops, wire_bytes, p_offload | accuracy): if plan B costs at
least as much as plan A on every resource and achieves no more accuracy, no
allocation can ever make B preferable, so B can be dropped *before* any
allocation is known.  This typically shrinks ~10^3 enumerated plans to a few
dozen undominated ones and is what keeps the joint solver fast.

A set built from a :class:`~repro.core.plan.PlanTable` (the enumeration's
columnar output) filters, prunes and subsamples on the columns alone, and
builds :class:`~repro.core.plan.PlanFeatures` objects only for the rows that
survive, when :attr:`CandidateSet.features` is first read.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.latency import predicted_latency_vec
from repro.core.plan import FEATURE_COLUMNS, PlanFeatures, PlanTable, TaskSpec
from repro.core.surgery import (
    DEFAULT_MAX_CUTS,
    DEFAULT_THRESHOLD_GRID,
    _check_max_cuts,
    enumerate_features,
)
from repro.devices.device import DeviceSpec
from repro.errors import InfeasibleError, PlanError
from repro.network.link import Link

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.risk import RiskConfig


class CandidateSet:
    """Parallel-array view over a task's candidate plans.

    ``CandidateSet(task, features)`` takes a list of
    :class:`~repro.core.plan.PlanFeatures` or a
    :class:`~repro.core.plan.PlanTable`.  A table-backed set and every set
    derived from it share one row -> object memo, so a row read through two
    of them is one object.
    """

    __slots__ = ("task", "_features", "_rows") + FEATURE_COLUMNS

    def __init__(self, task: TaskSpec, features) -> None:
        if len(features) == 0:
            raise PlanError(f"{task.name}: empty candidate set")
        self.task = task
        if isinstance(features, PlanTable):
            self._features: Optional[List[PlanFeatures]] = None
            self._rows: Optional[Tuple[PlanTable, np.ndarray, Dict[int, PlanFeatures]]] = (
                features, np.arange(len(features)), {}
            )
            for name in FEATURE_COLUMNS:
                setattr(self, name, getattr(features, name))
            return
        self._features = features
        self._rows = None
        for name in FEATURE_COLUMNS:
            setattr(self, name, np.array([getattr(f, name) for f in self._features]))

    @property
    def features(self) -> List[PlanFeatures]:
        """The candidates' :class:`~repro.core.plan.PlanFeatures`, in array
        order (built on first read for a table-backed set)."""
        if self._features is None:
            source = self._rows
            if source is not None:  # else another thread has just built them
                table, rows, memo = source
                self._features = table.features(rows, memo)
                self._rows = None
        return self._features

    def __len__(self) -> int:
        return len(self.dev_flops)

    # -- transformations -----------------------------------------------------

    def _take(self, indices: Sequence[int]) -> "CandidateSet":
        """Derived set holding ``features[i] for i in indices``.

        Shares no mutable state with ``self``: every parallel array is
        sliced, and the feature list is re-listed (it holds frozen objects)
        or, for a table-backed set, left to be built from the kept rows.
        """
        idx = np.asarray(indices, dtype=int)
        if idx.size == 0:
            raise PlanError(f"{self.task.name}: empty candidate set")
        obj = object.__new__(CandidateSet)
        obj.task = self.task
        source = self._rows
        if source is not None:
            table, rows, memo = source
            obj._features, obj._rows = None, (table, rows[idx], memo)
        else:
            obj._features, obj._rows = [self._features[int(i)] for i in idx], None
        for name in FEATURE_COLUMNS:
            setattr(obj, name, getattr(self, name)[idx])
        return obj

    def _with_task(self, task: TaskSpec) -> "CandidateSet":
        """Rebind a cached set to another task, sharing features and arrays.

        Safe because features are frozen and no caller mutates the parallel
        arrays (derived sets always copy via :meth:`_take`).
        """
        obj = object.__new__(CandidateSet)
        obj.task = task
        obj._features, obj._rows = self.features, None
        for name in FEATURE_COLUMNS:
            setattr(obj, name, getattr(self, name))
        return obj

    def appended(self, feats: PlanFeatures) -> "CandidateSet":
        """This set with one more plan (a refinement's) at the end: the
        columns are copied and extended, not rebuilt from the features."""
        obj = object.__new__(CandidateSet)
        obj.task = self.task
        obj._features, obj._rows = self.features + [feats], None
        for name in FEATURE_COLUMNS:
            setattr(obj, name, np.append(getattr(self, name), getattr(feats, name)))
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

    def pruned(self) -> "CandidateSet":
        """Drop plans dominated on every resource at no accuracy gain.

        Plans are scanned by accuracy descending (stable), so dominators are
        examined first, and each is tested only against the plans kept so
        far — a plan dropped earlier never disqualifies a later one.  The
        kept-so-far costs live in one preallocated buffer, so memory is
        O(n) and each test is one vectorized pass over at most the kept set.
        """
        n = len(self)
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
        n = len(self)
        if n <= k:
            return self._take(np.arange(n))
        order = np.argsort(self.accuracy, kind="stable")
        picks = np.unique(np.linspace(0, n - 1, k).round().astype(int))
        return self._take(order[picks])

    # -- evaluation ------------------------------------------------------------

    def latencies(
        self,
        device: Union[DeviceSpec, Sequence[DeviceSpec]],
        server: Union[None, DeviceSpec, Sequence[DeviceSpec]] = None,
        link: Union[None, Link, Sequence[Link]] = None,
        compute_share: Union[float, Sequence[float]] = 1.0,
        bandwidth_share: Union[float, Sequence[float]] = 1.0,
        arrival_rate: Union[None, float, Sequence[float]] = None,
        risk: Optional["RiskConfig"] = None,
    ) -> np.ndarray:
        """Predicted latency of every candidate under one allocation
        (:func:`repro.core.latency.predicted_latency_vec`), or under k
        placements at once when any placement argument is a sequence
        (result ``(k, len(self))``).

        With ``server=None`` only local-only candidates get finite latency;
        offloading candidates are reported as ``inf``.  Passing
        ``arrival_rate`` adds the per-stage M/G/1 waits, overloaded stages
        graded by the ranking surrogate; an active ``risk`` config buffers
        every value to ``μ + κ(ε)·σ``, so ranking by this vector certifies
        ``P[latency ≤ deadline] ≥ 1−ε`` rather than ``E[latency] ≤ deadline``.
        """
        return predicted_latency_vec(
            self, device, server=server, link=link,
            compute_share=compute_share, bandwidth_share=bandwidth_share,
            arrival_rate=arrival_rate, risk=risk,
        )


# -- candidate pipeline cache --------------------------------------------------
#
# The enumerate -> filter_accuracy -> pruned pipeline is a pure function of
# (model, threshold_grid, max_cuts, quantization_levels, accuracy_floor,
# prune) — nothing task-specific beyond the floor enters it.  Experiments
# instantiate many tasks over a handful of model templates (E9 cycles 3
# templates over 64 tasks) and re-plan repeatedly (E11), so the pipeline is
# memoized per process, per model.  The raw cache holds each enumeration as
# columns only (a PlanTable: no per-plan object); the derived cache holds
# the filtered + pruned set, whose features are the only plan objects built,
# and rebinds it to each task by array sharing.  Models are weakly keyed so
# ad-hoc models do not pin their candidates.

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
    cuts = max_cuts if max_cuts is not None else DEFAULT_MAX_CUTS
    _check_max_cuts(cuts)
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

    table: Optional[PlanTable] = None
    if cache:
        with _cache_lock:
            per_model_raw = _raw_cache.get(task.model)
            table = per_model_raw.get(raw_key) if per_model_raw is not None else None
    if table is None:
        table = enumerate_features(
            task.model, threshold_grid=grid, max_cuts=cuts, quantization_levels=levels
        )
        if cache:
            with _cache_lock:
                _raw_cache.setdefault(task.model, {})[raw_key] = table

    cs = CandidateSet(task, table).filter_accuracy(task.accuracy_floor)
    if prune:
        cs = cs.pruned()
    cs.features  # build the survivors' objects: every rebound copy shares them
    if cache:
        with _cache_lock:
            _cache_stats.misses += 1
            _derived_cache.setdefault(task.model, {})[derived_key] = cs
    return cs
