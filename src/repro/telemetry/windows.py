"""Windowed metric aggregation: the streaming-compatible half of telemetry.

Per-request timelines (:mod:`repro.telemetry.timeline`) need the event loop —
gauges sample on event boundaries the chunked fast path never visits.  This
module provides the complement: **tumbling-window aggregates** whose state is
a handful of integer arrays, cheap enough to update from a million-request
streaming sweep and exact enough to drive SLO monitoring.  The state is
columnar: every per-window counter is one ``[n_tasks, n_windows]`` plane
with a row per task, so a task costs its plane rows and no per-task object.
The three fault-mark planes are allocated on the run's first mark of their
kind; until then they read as zeros, so a fault-free run holds none.
The per-window latency histograms are stored sparsely — each task's
non-zero ``(window, bin)`` cells, as sorted int32 keys
``window·n_bins + bin`` (the per-task cell guard keeps them below 2³¹;
:meth:`~TaskColumns.cells` reads them as int64) with their int64 counts — so
their memory follows the cells the run actually fills, not the
``n_windows × n_bins`` plane, and a fold copies only the folded task's
cells.  A streaming run's windowed state is therefore O(tasks × windows)
in planes plus O(filled cells).

Design contract (the basis of the gate's bit-identity check):

* All *integer* state — request counts, deadline-met counts, per-window
  latency-histogram bins, fault marks — is order-independent under addition,
  so any split of the same completions into chunks (one batch per task on
  record-backed runs, window by window on streaming runs) produces
  **bit-identical** arrays for the same seeded workload.
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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigError, SimulationError

#: fault-annotation kinds a window can be marked with (per completed-or-lost
#: request); these feed the SLO error budget alongside deadline misses
MARK_KINDS = ("lost", "shed", "degraded")

#: refuse WindowedMetrics instances whose histogram planes could exceed this
#: many int64 cells per task (planes store only non-zero cells, but
#: ``dense_hist`` expands the whole plane, so this bounds its worst case)
_MAX_CELLS_PER_TASK = 4_000_000
#: the largest histogram cell key: keys are stored as int32
MAX_CELL_KEY = int(np.iinfo(np.int32).max)
assert _MAX_CELLS_PER_TASK <= MAX_CELL_KEY  # window-histogram keys fit


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


#: Latency histogram resolution of streaming runs: quantiles are exact
#: within one bin.
HIST_BIN_S = 5e-4
#: Latencies at/above this land in the histogram's overflow bucket.
HIST_MAX_S = 30.0


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

    def __init__(self, bin_s: float = HIST_BIN_S, max_s: float = HIST_MAX_S) -> None:
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
        lo_s, hi_s = checked_range(latencies)
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
        bins = self.lo + np.arange(self.counts.size)
        return cell_quantiles(
            bins, self.counts, self.overflow, self.max_seen_s, self.bin_s, (q,)
        )[0]

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


def cell_quantiles(
    bins: np.ndarray, counts: np.ndarray, overflow: int, max_s: float, bin_s: float,
    qs: Sequence[float],
) -> List[float]:
    """Ceil-rank latency quantiles at each of ``qs`` (the contract of
    :meth:`LatencyHistogram.quantile`) over ``(bin, count)`` cells plus
    ``overflow`` latencies whose maximum is ``max_s``.

    ``bins`` must be sorted.  Zero counts and repeated bins (the cells of
    several tasks) are allowed: the first cell whose running count covers
    the rank lies in the same bin as it would in the summed dense layout.
    """
    for q in qs:
        if not (0.0 <= q <= 100.0):
            raise SimulationError(f"quantile {q} outside [0, 100]")
    cum = np.cumsum(counts)
    n = (int(cum[-1]) if cum.size else 0) + overflow
    if n == 0:
        return [float("nan")] * len(qs)
    out = []
    for q in qs:
        rank = int(np.ceil((n - 1) * q / 100.0))  # 0-based ceil rank
        if rank >= n - overflow:  # lands in the overflow bucket
            out.append(max_s)
        else:
            b = int(np.searchsorted(cum, rank + 1, side="left"))
            out.append((int(bins[b]) + 1) * bin_s)
    return out


def checked_range(values: np.ndarray, what: str = "latencies") -> Tuple[float, float]:
    """``(min, max)`` of a non-empty chunk of times, refusing negative and
    non-finite values before they are cast to window or bin indices."""
    lo, hi = float(values.min()), float(values.max())
    if not (0.0 <= lo and hi < math.inf):
        raise SimulationError(f"{what} must be finite and non-negative, got [{lo}, {hi}]")
    return lo, hi


def _checked_time(value: float, what: str) -> None:
    """Scalar form of :func:`checked_range`."""
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


def add_cells(
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


def kahan_fold(
    total: np.ndarray, comp: np.ndarray, at, value: Union[float, np.ndarray]
) -> None:
    """Elementwise :meth:`KahanSum.add` of ``value`` into ``total[at]``,
    with ``comp[at]`` holding the compensation; the same operations in the
    same order as the scalar sum, so the same bits."""
    s = total[at]
    t = s + value
    big = np.abs(s) >= np.abs(value)
    comp[at] += np.where(big, (s - t) + value, (value - t) + s)
    total[at] = t


#: the cells of a task with none yet: shared, read-only empty arrays (int32
#: keys, int64 counts)
_NO_KEYS = np.zeros(0, dtype=np.int32)
_NO_CELLS = np.zeros(0, dtype=np.int64)
_NO_KEYS.flags.writeable = _NO_CELLS.flags.writeable = False


class TaskColumns:
    """Per-task state as columns: the storage of the streaming accumulators.

    Each task owns one row, numbered in first-seen order, of every array
    named in ``_COLUMNS`` (``[capacity, *width]`` arrays; the capacity
    doubles as tasks arrive) and one entry of two per-task lists: its
    sparse cells' sorted non-zero int32 keys (at most :data:`MAX_CELL_KEY`;
    :meth:`cells` reads them as int64) and their int64 counts.  The int64
    columns named in ``_LAZY_COLUMNS`` are allocated on their first write
    (:meth:`_lazy`); until then every row of one reads as zeros.  A task
    thus costs its column rows and its cells, with no per-task object, and
    a fold into one task copies only that task's cells.
    """

    __slots__ = ("_rows", "_keys", "_cells")

    #: ``(attribute, fill)`` of every column: the value a new row starts at
    #: (an int fill makes an int64 column, a float fill a float64 one)
    _COLUMNS: Tuple[Tuple[str, Union[int, float]], ...] = ()
    #: int64 columns (fill 0) that stay ``None`` until first written
    _LAZY_COLUMNS: Tuple[str, ...] = ()

    def _init_columns(self, *width: int) -> None:
        #: task name -> row of every column and of the cell lists
        self._rows: Dict[str, int] = {}
        self._keys: List[np.ndarray] = []
        self._cells: List[np.ndarray] = []
        for name, fill in self._COLUMNS:
            dtype = np.float64 if isinstance(fill, float) else np.int64
            setattr(self, name, np.full((0, *width), fill, dtype=dtype))
        for name in self._LAZY_COLUMNS:
            setattr(self, name, None)

    def _row(self, task: str) -> int:
        """``task``'s row, added (columns at their fill, no cells) if new."""
        r = self._rows.get(task)
        if r is None:
            r = self._rows[task] = len(self._rows)
            if r == getattr(self, self._COLUMNS[0][0]).shape[0]:
                fills = [*self._COLUMNS, *((n, 0) for n in self._LAZY_COLUMNS)]
                for name, fill in fills:
                    old = getattr(self, name)
                    if old is None:
                        continue
                    grown = np.full((max(2 * r, 1), *old.shape[1:]), fill, dtype=old.dtype)
                    grown[:r] = old
                    setattr(self, name, grown)
            self._keys.append(_NO_KEYS)
            self._cells.append(_NO_CELLS)
        return r

    def _lazy(self, name: str) -> np.ndarray:
        """Lazy column ``name``, allocated (zeros, current capacity) if unwritten."""
        col = getattr(self, name)
        if col is None:
            col = np.zeros(getattr(self, self._COLUMNS[0][0]).shape, dtype=np.int64)
            setattr(self, name, col)
        return col

    def _lazy_row(self, name: str, r: int) -> np.ndarray:
        """Row ``r`` of lazy column ``name``: zeros while it is unwritten."""
        col = getattr(self, name)
        if col is None:
            return np.zeros(getattr(self, self._COLUMNS[0][0]).shape[1:], dtype=np.int64)
        return col[r]

    def _fold_cells(self, r: int, keys: np.ndarray) -> None:
        """Count the (non-empty) ``keys`` into row ``r``'s cells."""
        lo = int(keys.min())
        flat = np.bincount(keys - lo)
        nz = np.flatnonzero(flat)
        self._keys[r], self._cells[r] = add_cells(
            self._keys[r], self._cells[r], (nz + lo).astype(np.int32), flat[nz]
        )

    def _merge_rows(self, other: "TaskColumns") -> np.ndarray:
        """Add ``other``'s integer columns and cells into this instance.

        Returns, for each of ``other``'s rows in order, its row here; the
        float columns (sums, maxima) are the caller's to merge.
        """
        rows = np.array([self._row(task) for task in other._rows], dtype=np.intp)
        for name, fill in self._COLUMNS:
            if not isinstance(fill, float):
                getattr(self, name)[rows] += getattr(other, name)[: rows.size]
        for name in self._LAZY_COLUMNS:
            theirs = getattr(other, name)
            if theirs is not None:
                self._lazy(name)[rows] += theirs[: rows.size]
        for r, o in zip(rows.tolist(), range(rows.size)):
            self._keys[r], self._cells[r] = add_cells(
                self._keys[r], self._cells[r], other._keys[o], other._cells[o]
            )
        return rows

    def tasks(self) -> List[str]:
        """Names of the tasks seen, sorted."""
        return sorted(self._rows)

    def cells(self, task: str) -> Tuple[np.ndarray, np.ndarray]:
        """``task``'s non-zero histogram cells: sorted int64 keys and their counts."""
        r = self._rows[task]
        return self._keys[r].astype(np.int64, copy=False), self._cells[r]


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


class WindowedMetrics(TaskColumns):
    """Tumbling-window SLO aggregates with bounded memory.

    One instance covers one run.  Its state is columnar: each task owns one
    row (rows numbered in first-seen order) of ``[n_tasks, n_windows]``
    planes — completions, deadline-met, histogram overflow, Kahan latency
    sums and maxima, and the fault marks once a run marks that kind — plus
    the non-zero cells of its ``[n_windows, n_bins]`` latency-histogram
    plane, keyed ``window·n_bins + bin`` (:meth:`dense_hist` expands them).
    A task costs its plane rows and its cells, with no per-task object; a
    fold touches only the folded task's cells.
    Completions arrive as NumPy columns (:meth:`observe`) from both
    simulator engines; fault outcomes one at a time (:meth:`mark`).

    Accumulators from independent replications or traffic cells
    :meth:`merge` exactly (integer adds, compensated float adds).
    """

    #: the ``[n_tasks, n_windows]`` planes
    _COLUMNS = (
        ("_counts", 0), ("_met", 0), ("_overflow", 0),
        ("_lat_sum", 0.0), ("_lat_comp", 0.0), ("_lat_max", -np.inf),
    )
    #: the fault-mark planes, allocated on a run's first mark of their kind
    _LAZY_COLUMNS = tuple("_" + kind for kind in MARK_KINDS)

    __slots__ = (
        "config", "horizon_s", "n_windows", "n_bins", *(n for n, _ in _COLUMNS),
        *_LAZY_COLUMNS,
    )

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
        self._init_columns(self.n_windows)

    # -- accumulation ---------------------------------------------------------

    def _window_of(self, completion_s: float) -> int:
        w = int(completion_s / self.config.window_s)
        return w if w < self.n_windows else self.n_windows - 1

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
        checked_range(completion_s, "completion times")
        checked_range(latency_s)
        r = self._row(task)
        nw, nb = self.n_windows, self.n_bins
        # clamp in floating point before the cast: truncation commutes with
        # the clamp, and no finite time overflows int64
        w = np.minimum(completion_s / self.config.window_s, nw - 1).astype(np.int64)
        self._counts[r] += np.bincount(w, minlength=nw)
        wm = w[met]
        if wm.size:
            self._met[r] += np.bincount(wm, minlength=nw)
        b = np.minimum(latency_s / self.config.bin_s, nb).astype(np.int64)
        over = b >= nb
        if over.any():
            self._overflow[r] += np.bincount(w[over], minlength=nw)
            inside = ~over
            key = w[inside] * nb + b[inside]
        else:
            key = w * nb + b
        if key.size:
            self._fold_cells(r, key)
        # per-window chunk partial sums, Kahan-folded into the running sums
        part = np.bincount(w, weights=latency_s, minlength=nw)
        touched = np.flatnonzero(part)
        if touched.size:
            kahan_fold(self._lat_sum[r], self._lat_comp[r], touched, part[touched])
        np.maximum.at(self._lat_max[r], w, latency_s)

    def mark(self, task: str, time_s: float, kind: str) -> None:
        """Record a fault outcome (``lost``/``shed``/``degraded``) at ``time_s``.

        Lost and shed requests never complete, so they enter the SLO error
        budget through these marks instead of the miss counters; degraded
        completions are counted both as completions (via :meth:`observe`) and
        annotated here.
        """
        if kind not in MARK_KINDS:
            raise ConfigError(f"unknown window mark kind {kind!r}; want {MARK_KINDS}")
        _checked_time(time_s, "mark times")
        r = self._row(task)
        self._lazy("_" + kind)[r, self._window_of(time_s)] += 1

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
        rows = self._merge_rows(other)
        m = rows.size
        kahan_fold(self._lat_sum, self._lat_comp, rows, other._lat_sum[:m] + other._lat_comp[:m])
        self._lat_max[rows] = np.maximum(self._lat_max[rows], other._lat_max[:m])
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
        for task in self.tasks():
            r = self._rows[task]
            h.update(task.encode())
            lost, shed, degraded = (self._lazy_row(n, r) for n in self._LAZY_COLUMNS)
            for arr in (self._counts[r], self._met[r], lost, shed, degraded,
                        self.dense_hist(task), self._overflow[r], self._lat_max[r]):
                h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    # -- aggregates -----------------------------------------------------------
    #
    # Per-window accessors return views of ``task``'s plane rows; a task
    # never observed or marked raises KeyError.

    @property
    def total_count(self) -> int:
        return int(self._counts[: len(self._rows)].sum())

    @property
    def total_met(self) -> int:
        return int(self._met[: len(self._rows)].sum())

    def dense_hist(self, task: str) -> np.ndarray:
        """``task``'s full ``[n_windows, n_bins]`` histogram plane."""
        keys, cells = self.cells(task)
        dense = np.zeros(self.n_windows * self.n_bins, dtype=np.int64)
        dense[keys] = cells
        return dense.reshape(self.n_windows, self.n_bins)

    def window_counts(self, task: str) -> np.ndarray:
        return self._counts[self._rows[task]]

    def window_met(self, task: str) -> np.ndarray:
        return self._met[self._rows[task]]

    def window_errors(self, task: str) -> np.ndarray:
        """SLO errors per window: deadline misses + lost + shed requests."""
        r = self._rows[task]
        return (self._counts[r] - self._met[r]) + self._dropped(r)

    def window_eligible(self, task: str) -> np.ndarray:
        """SLO denominator per window: completions + lost + shed requests."""
        r = self._rows[task]
        return self._counts[r] + self._dropped(r)

    def _dropped(self, r: int) -> np.ndarray:
        """Row ``r``'s lost + shed requests per window."""
        return self._lazy_row("_lost", r) + self._lazy_row("_shed", r)

    def window_mean_latency_s(self, task: str) -> np.ndarray:
        """Per-window mean latency (NaN where a window saw no completions)."""
        r = self._rows[task]
        counts = self._counts[r]
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(
                counts > 0, (self._lat_sum[r] + self._lat_comp[r]) / counts, np.nan
            )

    def window_quantile(self, task: str, q: float) -> np.ndarray:
        """Per-window ceil-rank latency quantile from the histogram plane.

        Upper bin edges (window maximum for overflow windows), NaN for empty
        windows — same contract as :meth:`LatencyHistogram.quantile`.
        """
        if not (0.0 <= q <= 100.0):
            raise SimulationError(f"quantile {q} outside [0, 100]")
        r = self._rows[task]
        keys, cells = self.cells(task)
        out = np.full(self.n_windows, np.nan)
        # window w's cells are the slice bounds[w]:bounds[w + 1] of the keys;
        # cum[k] counts every request in the first k cells
        bounds = np.searchsorted(keys // self.n_bins, np.arange(self.n_windows + 1))
        cum = np.concatenate([[0], np.cumsum(cells)])
        n_in = cum[bounds[1:]] - cum[bounds[:-1]]
        n = n_in + self._overflow[r]
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
        out[nonempty[~inside]] = self._lat_max[r, nonempty[~inside]]
        return out

    def snapshot(self) -> Dict[str, object]:
        """JSON-able state for the metrics stream / dashboard."""
        tasks = {}
        for task in self.tasks():
            r = self._rows[task]
            n, met = self._counts[r], self._met[r]
            with np.errstate(invalid="ignore", divide="ignore"):
                miss = np.where(n > 0, (n - met) / n, np.nan)
            tasks[task] = {
                "counts": n.tolist(),
                "met": met.tolist(),
                **{kind: self._lazy_row("_" + kind, r).tolist() for kind in MARK_KINDS},
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
