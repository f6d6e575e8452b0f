"""Windowed metric aggregation: the streaming-compatible half of telemetry.

Per-request timelines (:mod:`repro.telemetry.timeline`) need the event loop —
gauges sample on event boundaries the chunked fast path never visits.  This
module provides the complement: **tumbling-window aggregates** whose state is
a handful of integer arrays, cheap enough to update from a million-request
streaming sweep and exact enough to drive SLO monitoring.  The per-window
latency histograms are stored sparsely — only non-zero ``(window, bin)``
cells, as sorted int64 keys ``window·n_bins + bin`` with their counts — so
their memory follows the cells the run actually fills, not the
``n_windows × n_bins`` plane.

Design contract (the basis of the gate's bit-identity check):

* All *integer* state — request counts, deadline-met counts, per-window
  latency-histogram bins, fault marks — is order-independent under addition,
  so the event loop (scalar observes in completion order) and the vectorized
  fast path (chunked column observes in stream order) produce **bit-identical**
  arrays for the same seeded workload.  Window and bin indices are computed
  with the same IEEE-754 double division + truncation in both paths.
  Negative or non-finite completion, mark and latency times are refused with
  :class:`~repro.errors.SimulationError` before any state changes.
* Float state (Kahan-compensated latency sums) is accumulation-order
  dependent at the ulp level and therefore *excluded* from
  :meth:`WindowedMetrics.fingerprint`; per-window maxima are order-independent
  and included.

:class:`KahanSum` and :class:`LatencyHistogram` started life in
``repro.sim.metrics`` (PR 5); they live here now so the sim can depend on
telemetry without a cycle, and are re-exported from their old home.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigError, SimulationError

#: fault-annotation kinds a window can be marked with (per completed-or-lost
#: request); these feed the SLO error budget alongside deadline misses
MARK_KINDS = ("lost", "shed", "degraded")

#: refuse WindowedMetrics instances whose histogram planes could exceed this
#: many int64 cells per task (planes store only non-zero cells, but
#: ``dense_hist`` expands the whole plane, so this bounds its worst case)
_MAX_CELLS_PER_TASK = 4_000_000


class KahanSum:
    """Neumaier-compensated running sum (order-stable, near-exact means)."""

    __slots__ = ("total", "_comp")

    def __init__(self) -> None:
        self.total = 0.0
        self._comp = 0.0

    def add(self, value: float) -> None:
        t = self.total + value
        if abs(self.total) >= abs(value):
            self._comp += (self.total - t) + value
        else:
            self._comp += (value - t) + self.total
        self.total = t

    @property
    def value(self) -> float:
        return self.total + self._comp


class LatencyHistogram:
    """Fixed-bin latency histogram with exact counts and running extremes.

    Bins are ``[k·bin_s, (k+1)·bin_s)`` over ``[0, max_s)``; latencies at or
    beyond ``max_s`` land in an overflow bucket whose exact maximum is
    tracked, so the histogram never loses counts.  Quantiles are reported as
    the upper edge of the bin holding the ceil-rank order statistic — exact
    within one ``bin_s`` of that order statistic.

    Only the occupied bin range is stored: ``counts[i]`` holds global bin
    ``lo + i``, and the range grows when an observed chunk or a merged
    histogram falls outside it.  Memory follows the latencies seen, not
    ``max_s``; counts, quantiles and merges equal those of the dense
    ``ceil(max_s / bin_s)``-bin layout.
    """

    __slots__ = (
        "bin_s", "max_s", "n_bins", "lo", "counts", "overflow", "min_s", "max_seen_s",
    )

    def __init__(self, bin_s: float = 5e-4, max_s: float = 30.0) -> None:
        if not (math.isfinite(bin_s) and math.isfinite(max_s)) or not (
            0 < bin_s < max_s
        ):
            raise SimulationError(f"invalid histogram bins: bin_s={bin_s} max_s={max_s}")
        self.bin_s = bin_s
        self.max_s = max_s
        self.n_bins = int(np.ceil(max_s / bin_s))
        self.lo = 0
        self.counts = np.zeros(0, dtype=np.int64)
        self.overflow = 0
        self.min_s = float("inf")
        self.max_seen_s = float("-inf")

    @property
    def count(self) -> int:
        return int(self.counts.sum()) + self.overflow

    def observe(self, latencies: np.ndarray) -> None:
        """Fold a chunk of latencies (seconds) into the histogram."""
        if latencies.size == 0:
            return
        lo_s, hi_s = _checked_range(latencies)
        self.min_s = min(self.min_s, lo_s)
        self.max_seen_s = max(self.max_seen_s, hi_s)
        idx = (latencies / self.bin_s).astype(np.int64)
        over = idx >= self.n_bins
        self.overflow += int(np.count_nonzero(over))
        inside = idx[~over]
        if inside.size:
            lo = int(inside.min())
            self.lo, self.counts = _add_columns(
                self.lo, self.counts, lo, np.bincount(inside - lo)
            )

    def quantile(self, q: float) -> float:
        """Latency of the ceil-rank order statistic at percentile ``q``.

        Returns the upper edge of that element's bin (exact running max for
        the overflow region), so the error versus the exact order statistic
        is at most ``bin_s``.
        """
        if not (0.0 <= q <= 100.0):
            raise SimulationError(f"quantile {q} outside [0, 100]")
        n = self.count
        if n == 0:
            return float("nan")
        rank = int(np.ceil((n - 1) * q / 100.0))  # 0-based ceil rank
        if rank >= n - self.overflow:  # lands in the overflow bucket
            return self.max_seen_s
        cum = np.cumsum(self.counts)
        b = int(np.searchsorted(cum, rank + 1, side="left"))
        return (self.lo + b + 1) * self.bin_s

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Exact accumulation of ``other`` (same binning) into ``self``."""
        if self.bin_s != other.bin_s or self.max_s != other.max_s:
            raise SimulationError(
                "cannot merge histograms with different binning: "
                f"({self.bin_s}, {self.max_s}) vs ({other.bin_s}, {other.max_s})"
            )
        self.lo, self.counts = _add_columns(self.lo, self.counts, other.lo, other.counts)
        self.overflow += other.overflow
        self.min_s = min(self.min_s, other.min_s)
        self.max_seen_s = max(self.max_seen_s, other.max_seen_s)
        return self


def _checked_range(values: np.ndarray, what: str = "latencies") -> Tuple[float, float]:
    """``(min, max)`` of a non-empty chunk of times, refusing negative and
    non-finite values before they are cast to window or bin indices."""
    lo, hi = float(values.min()), float(values.max())
    if not (0.0 <= lo and hi < math.inf):
        raise SimulationError(f"{what} must be finite and non-negative, got [{lo}, {hi}]")
    return lo, hi


def _checked_time(value: float, what: str) -> None:
    """Scalar form of :func:`_checked_range`."""
    if not 0.0 <= value < math.inf:
        raise SimulationError(f"{what} must be finite and non-negative, got {value}")


def _add_columns(
    lo: int, arr: np.ndarray, at: int, block: np.ndarray
) -> Tuple[int, np.ndarray]:
    """Add ``block`` into ``arr`` at global bin ``at``.

    ``arr`` holds the occupied global bins ``lo, lo + 1, ...``; it is
    widened (zero-filled, copied) when ``block`` falls outside it.  Returns
    the new ``(lo, arr)``.
    """
    width, have = block.size, arr.size
    if width == 0:
        return lo, arr
    if have == 0:
        return at, block.astype(np.int64)
    new_lo, new_hi = min(at, lo), max(at + width, lo + have)
    if new_lo != lo or new_hi != lo + have:
        grown = np.zeros(new_hi - new_lo, dtype=np.int64)
        grown[lo - new_lo:lo - new_lo + have] = arr
        lo, arr = new_lo, grown
    arr[at - lo:at - lo + width] += block
    return lo, arr


def _add_cells(
    keys: np.ndarray, cells: np.ndarray, new_keys: np.ndarray, new_cells: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Add the sorted, distinct ``new_keys`` cells into a sorted cell set.

    Appends when every new key lies past the last stored one (a forward
    stream of completions opens later windows); otherwise adds into the
    matching cells in place and inserts the rest.  Returns the new
    ``(keys, cells)``.
    """
    if not new_keys.size:
        return keys, cells
    if not keys.size or new_keys[0] > keys[-1]:
        return np.concatenate([keys, new_keys]), np.concatenate([cells, new_cells])
    pos = np.searchsorted(keys, new_keys)
    hit = pos < keys.size
    hit[hit] = keys[pos[hit]] == new_keys[hit]
    cells[pos[hit]] += new_cells[hit]
    if hit.all():
        return keys, cells
    miss = ~hit
    return (
        np.insert(keys, pos[miss], new_keys[miss]),
        np.insert(cells, pos[miss], new_cells[miss]),
    )


@dataclass(frozen=True)
class WindowConfig:
    """Tumbling-window layout for :class:`WindowedMetrics`.

    ``window_s`` is the tumbling-window width in simulated seconds; windows
    tile ``[0, horizon)`` and completions draining past the horizon clamp
    into the final window.  ``bin_s``/``max_s`` set the *per-window* latency
    histogram resolution — deliberately coarser than the global streaming
    histogram (default 5 ms bins up to 2 s → 400 bins) because every window
    of every task carries its own row of bins.
    """

    window_s: float = 1.0
    bin_s: float = 5e-3
    max_s: float = 2.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.window_s) and self.window_s > 0):
            raise ConfigError(f"window_s must be finite and > 0, got {self.window_s}")
        if not (math.isfinite(self.bin_s) and math.isfinite(self.max_s)) or not (
            0 < self.bin_s < self.max_s
        ):
            raise ConfigError(
                f"invalid window histogram bins: bin_s={self.bin_s} max_s={self.max_s}"
            )

    @property
    def num_bins(self) -> int:
        return int(np.ceil(self.max_s / self.bin_s))

    def num_windows(self, horizon_s: float) -> int:
        """Windows tiling ``[0, horizon)`` plus one clamp window for drain."""
        if not (math.isfinite(horizon_s) and horizon_s > 0):
            raise ConfigError(f"horizon must be finite and > 0, got {horizon_s}")
        return int(math.ceil(horizon_s / self.window_s)) + 1


class _TaskWindows:
    """Per-task window arrays plus the task's sparse histogram cells.

    ``keys`` holds, sorted, every non-zero cell ``window·n_bins + bin`` of
    the ``[n_windows, n_bins]`` histogram plane and ``cells`` its count.
    The scalar feed counts into one dense row for its current window,
    ``open_w``, which is folded into the cells when the feed moves to
    another window or the cells are read (a binary search per request
    would cost more than the rest of the update).
    """

    __slots__ = (
        "counts", "met", "lost", "shed", "degraded",
        "keys", "cells", "open_w", "open_row", "overflow",
        "lat_sum", "lat_comp", "lat_max",
    )

    def __init__(self, n_windows: int) -> None:
        self.counts = np.zeros(n_windows, dtype=np.int64)
        self.met = np.zeros(n_windows, dtype=np.int64)
        self.lost = np.zeros(n_windows, dtype=np.int64)
        self.shed = np.zeros(n_windows, dtype=np.int64)
        self.degraded = np.zeros(n_windows, dtype=np.int64)
        self.keys = np.zeros(0, dtype=np.int64)
        self.cells = np.zeros(0, dtype=np.int64)
        self.open_w = 0
        self.open_row: Optional[np.ndarray] = None
        self.overflow = np.zeros(n_windows, dtype=np.int64)
        self.lat_sum = np.zeros(n_windows, dtype=np.float64)
        self.lat_comp = np.zeros(n_windows, dtype=np.float64)
        self.lat_max = np.full(n_windows, float("-inf"), dtype=np.float64)


class WindowedMetrics:
    """Tumbling-window SLO aggregates with bounded memory.

    One instance covers one run: per task it keeps ``n_windows`` integer
    counters (completions, deadline-met, fault marks), the non-zero cells
    of its ``[n_windows, n_bins]`` latency-histogram plane
    (:meth:`dense_hist` expands them), and per-window Kahan latency sums.
    Updates come either one request at a time from the event loop
    (:meth:`observe_one`) or as NumPy columns from the fast-path sweeps
    (:meth:`observe`); both produce bit-identical integer state.

    Accumulators from independent replications or traffic cells
    :meth:`merge` exactly (integer adds, compensated float adds).
    """

    __slots__ = ("config", "horizon_s", "n_windows", "n_bins", "per_task")

    def __init__(self, config: WindowConfig, horizon_s: float) -> None:
        self.config = config
        self.horizon_s = float(horizon_s)
        self.n_windows = config.num_windows(horizon_s)
        self.n_bins = config.num_bins
        if self.n_windows * self.n_bins > _MAX_CELLS_PER_TASK:
            raise ConfigError(
                f"window layout needs {self.n_windows}x{self.n_bins} histogram "
                f"cells per task (> {_MAX_CELLS_PER_TASK}); widen window_s or "
                "coarsen bin_s to keep streaming memory bounded"
            )
        self.per_task: Dict[str, _TaskWindows] = {}

    # -- accumulation ---------------------------------------------------------

    def _ensure(self, task: str) -> _TaskWindows:
        tw = self.per_task.get(task)
        if tw is None:
            tw = self.per_task[task] = _TaskWindows(self.n_windows)
        return tw

    def _window_of(self, completion_s: float) -> int:
        w = int(completion_s / self.config.window_s)
        return w if w < self.n_windows else self.n_windows - 1

    def observe_one(
        self, task: str, completion_s: float, latency_s: float, met: bool
    ) -> None:
        """Fold one completed request (event-loop feed).

        The window index uses the same double division + truncation as the
        vectorized path, so the two stay bit-identical.
        """
        _checked_time(completion_s, "completion times")
        _checked_time(latency_s, "latencies")
        tw = self._ensure(task)
        w = self._window_of(completion_s)
        tw.counts[w] += 1
        if met:
            tw.met[w] += 1
        b = int(latency_s / self.config.bin_s)
        if b >= self.n_bins:
            tw.overflow[w] += 1
        else:
            if tw.open_row is None or w != tw.open_w:
                self._settle(tw)
                tw.open_w, tw.open_row = w, np.zeros(self.n_bins, dtype=np.int64)
            tw.open_row[b] += 1
        # Neumaier add into window w (scalar form of the chunked update)
        s = float(tw.lat_sum[w])
        t = s + latency_s
        if abs(s) >= abs(latency_s):
            tw.lat_comp[w] += (s - t) + latency_s
        else:
            tw.lat_comp[w] += (latency_s - t) + s
        tw.lat_sum[w] = t
        if latency_s > tw.lat_max[w]:
            tw.lat_max[w] = latency_s

    def observe(
        self,
        task: str,
        completion_s: np.ndarray,
        latency_s: np.ndarray,
        met: np.ndarray,
    ) -> None:
        """Fold a (already warmup-filtered) chunk of completions of one task."""
        if completion_s.size == 0:
            return
        _checked_range(completion_s, "completion times")
        _checked_range(latency_s)
        tw = self._ensure(task)
        nw, nb = self.n_windows, self.n_bins
        # clamp in floating point before the cast: truncation commutes with
        # the clamp, and no finite time overflows int64
        w = np.minimum(completion_s / self.config.window_s, nw - 1).astype(np.int64)
        tw.counts += np.bincount(w, minlength=nw)
        wm = w[met]
        if wm.size:
            tw.met += np.bincount(wm, minlength=nw)
        b = np.minimum(latency_s / self.config.bin_s, nb).astype(np.int64)
        over = b >= nb
        if over.any():
            tw.overflow += np.bincount(w[over], minlength=nw)
            inside = ~over
            key = w[inside] * nb + b[inside]
        else:
            key = w * nb + b
        if key.size:
            lo = int(key.min())
            flat = np.bincount(key - lo)
            nz = np.flatnonzero(flat)
            tw.keys, tw.cells = _add_cells(tw.keys, tw.cells, nz + lo, flat[nz])
        # per-window chunk partial sums, Kahan-folded into the running sums
        part = np.bincount(w, weights=latency_s, minlength=nw)
        touched = np.flatnonzero(part)
        if touched.size:
            s = tw.lat_sum[touched]
            v = part[touched]
            t = s + v
            big = np.abs(s) >= np.abs(v)
            tw.lat_comp[touched] += np.where(big, (s - t) + v, (v - t) + s)
            tw.lat_sum[touched] = t
        np.maximum.at(tw.lat_max, w, latency_s)

    def _settle(self, tw: _TaskWindows) -> None:
        """Fold the scalar feed's open window row into the sorted cells."""
        row = tw.open_row
        if row is not None:
            nz = np.flatnonzero(row)
            tw.keys, tw.cells = _add_cells(
                tw.keys, tw.cells, tw.open_w * self.n_bins + nz, row[nz]
            )
            tw.open_row = None

    def mark(self, task: str, time_s: float, kind: str) -> None:
        """Record a fault outcome (``lost``/``shed``/``degraded``) at ``time_s``.

        Lost and shed requests never complete, so they enter the SLO error
        budget through these marks instead of the miss counters; degraded
        completions are counted both as completions (via ``observe_one``) and
        annotated here.
        """
        if kind not in MARK_KINDS:
            raise ConfigError(f"unknown window mark kind {kind!r}; want {MARK_KINDS}")
        _checked_time(time_s, "mark times")
        tw = self._ensure(task)
        getattr(tw, kind)[self._window_of(time_s)] += 1

    # -- merge / identity -----------------------------------------------------

    def _check_layout(self, other: "WindowedMetrics") -> None:
        if (
            self.config != other.config
            or self.horizon_s != other.horizon_s
            or self.n_windows != other.n_windows
        ):
            raise SimulationError(
                "cannot merge windowed metrics with different layouts: "
                f"{self.config}/{self.horizon_s}s vs {other.config}/{other.horizon_s}s"
            )

    def merge(self, other: "WindowedMetrics") -> "WindowedMetrics":
        """Exact accumulation of ``other`` (same layout) into ``self``."""
        self._check_layout(other)
        for task, o in other.per_task.items():
            tw = self._ensure(task)
            tw.counts += o.counts
            tw.met += o.met
            tw.lost += o.lost
            tw.shed += o.shed
            tw.degraded += o.degraded
            tw.keys, tw.cells = _add_cells(tw.keys, tw.cells, *other.cells(task))
            tw.overflow += o.overflow
            v = o.lat_sum + o.lat_comp
            s = tw.lat_sum.copy()
            t = s + v
            big = np.abs(s) >= np.abs(v)
            tw.lat_comp += np.where(big, (s - t) + v, (v - t) + s)
            tw.lat_sum = t
            np.maximum(tw.lat_max, o.lat_max, out=tw.lat_max)
        return self

    def fingerprint(self) -> str:
        """SHA-256 over the order-independent state (ints + maxima).

        Equal fingerprints ⇒ bit-identical windowed SLO inputs.  Kahan sums
        are excluded (accumulation-order dependent at the ulp level).
        """
        h = hashlib.sha256()
        h.update(
            f"{self.config.window_s}:{self.config.bin_s}:{self.config.max_s}:"
            f"{self.horizon_s}:{self.n_windows}".encode()
        )
        for task in sorted(self.per_task):
            tw = self.per_task[task]
            h.update(task.encode())
            for arr in (tw.counts, tw.met, tw.lost, tw.shed, tw.degraded,
                        self.dense_hist(task), tw.overflow, tw.lat_max):
                h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    # -- aggregates -----------------------------------------------------------

    def tasks(self) -> List[str]:
        return sorted(self.per_task)

    @property
    def total_count(self) -> int:
        return sum(int(tw.counts.sum()) for tw in self.per_task.values())

    @property
    def total_met(self) -> int:
        return sum(int(tw.met.sum()) for tw in self.per_task.values())

    def cells(self, task: str) -> Tuple[np.ndarray, np.ndarray]:
        """``task``'s non-zero histogram cells: sorted keys
        ``window·n_bins + bin`` and their counts."""
        tw = self.per_task[task]
        self._settle(tw)
        return tw.keys, tw.cells

    def dense_hist(self, task: str) -> np.ndarray:
        """``task``'s full ``[n_windows, n_bins]`` histogram plane."""
        keys, cells = self.cells(task)
        dense = np.zeros(self.n_windows * self.n_bins, dtype=np.int64)
        dense[keys] = cells
        return dense.reshape(self.n_windows, self.n_bins)

    def window_counts(self, task: str) -> np.ndarray:
        return self.per_task[task].counts

    def window_met(self, task: str) -> np.ndarray:
        return self.per_task[task].met

    def window_errors(self, task: str) -> np.ndarray:
        """SLO errors per window: deadline misses + lost + shed requests."""
        tw = self.per_task[task]
        return (tw.counts - tw.met) + tw.lost + tw.shed

    def window_eligible(self, task: str) -> np.ndarray:
        """SLO denominator per window: completions + lost + shed requests."""
        tw = self.per_task[task]
        return tw.counts + tw.lost + tw.shed

    def window_mean_latency_s(self, task: str) -> np.ndarray:
        """Per-window mean latency (NaN where a window saw no completions)."""
        tw = self.per_task[task]
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(
                tw.counts > 0, (tw.lat_sum + tw.lat_comp) / tw.counts, np.nan
            )

    def window_quantile(self, task: str, q: float) -> np.ndarray:
        """Per-window ceil-rank latency quantile from the histogram plane.

        Upper bin edges (window maximum for overflow windows), NaN for empty
        windows — same contract as :meth:`LatencyHistogram.quantile`.
        """
        if not (0.0 <= q <= 100.0):
            raise SimulationError(f"quantile {q} outside [0, 100]")
        tw = self.per_task[task]
        keys, cells = self.cells(task)
        out = np.full(self.n_windows, np.nan)
        # window w's cells are the slice bounds[w]:bounds[w + 1] of the keys;
        # cum[k] counts every request in the first k cells
        bounds = np.searchsorted(keys // self.n_bins, np.arange(self.n_windows + 1))
        cum = np.concatenate([[0], np.cumsum(cells)])
        n_in = cum[bounds[1:]] - cum[bounds[:-1]]
        n = n_in + tw.overflow
        nonempty = np.flatnonzero(n)
        if nonempty.size == 0:
            return out
        rank = np.ceil((n[nonempty] - 1) * q / 100.0).astype(np.int64)
        inside = rank < n_in[nonempty]
        rows = nonempty[inside]
        # stored cells are non-zero, so cum rises strictly: the first prefix
        # covering the rank lies inside the window's own slice
        cell = np.searchsorted(cum, cum[bounds[rows]] + rank[inside] + 1, side="left") - 1
        out[rows] = (keys[cell] % self.n_bins + 1) * self.config.bin_s
        out[nonempty[~inside]] = tw.lat_max[nonempty[~inside]]
        return out

    def snapshot(self) -> Dict[str, object]:
        """JSON-able state for the metrics stream / dashboard."""
        tasks = {}
        for task in self.tasks():
            tw = self.per_task[task]
            n = tw.counts
            with np.errstate(invalid="ignore", divide="ignore"):
                miss = np.where(n > 0, (n - tw.met) / n, np.nan)
            tasks[task] = {
                "counts": tw.counts.tolist(),
                "met": tw.met.tolist(),
                "lost": tw.lost.tolist(),
                "shed": tw.shed.tolist(),
                "degraded": tw.degraded.tolist(),
                "miss_rate": [None if np.isnan(x) else float(x) for x in miss],
                "p99_s": [
                    None if np.isnan(x) else float(x)
                    for x in self.window_quantile(task, 99)
                ],
            }
        return {
            "window_s": self.config.window_s,
            "bin_s": self.config.bin_s,
            "max_s": self.config.max_s,
            "horizon_s": self.horizon_s,
            "n_windows": self.n_windows,
            "tasks": tasks,
        }
