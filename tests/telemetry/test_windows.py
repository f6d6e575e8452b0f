"""Windowed SLO aggregation: layout, scalar ≡ vectorized feeds, exact merge.

Contracts under test (see DESIGN.md §9):

- the scalar event-loop feed (``observe_one``) and the vectorized fast-path
  feed (``observe``) produce **bit-identical** integer state for the same
  observations, in any order — the basis of the obs gate's fingerprint check;
- accumulators merge exactly (integer adds, compensated float adds) and
  refuse mismatched layouts;
- memory is bounded up front: a layout wider than the per-task cell guard is
  rejected at construction, not discovered at request 900k.
"""

import numpy as np
import pytest

from repro.errors import ConfigError, SimulationError
from repro.telemetry.windows import (
    MARK_KINDS,
    KahanSum,
    WindowConfig,
    WindowedMetrics,
)


def _filled(seed: int, n: int = 500, horizon: float = 10.0) -> WindowedMetrics:
    """A WindowedMetrics filled from a seeded synthetic workload."""
    rng = np.random.default_rng(seed)
    wm = WindowedMetrics(WindowConfig(window_s=1.0), horizon)
    comp = np.sort(rng.uniform(0.0, horizon + 2.0, n))  # some drain past horizon
    lat = rng.exponential(0.05, n)
    met = lat <= 0.08
    wm.observe("t0", comp, lat, met)
    wm.observe("t1", comp[: n // 2], lat[: n // 2] * 3.0, met[: n // 2])
    return wm


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(window_s=0.0),
            dict(window_s=-1.0),
            dict(bin_s=0.0),
            dict(bin_s=0.5, max_s=0.5),  # max_s must exceed bin_s
            dict(window_s=float("nan")),
            dict(window_s=float("inf")),
            dict(bin_s=float("nan")),
            dict(max_s=float("nan")),
            dict(max_s=float("inf")),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            WindowConfig(**kwargs)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
    def test_non_finite_horizon(self, horizon):
        with pytest.raises(ConfigError):
            WindowedMetrics(WindowConfig(), horizon)

    def test_layout(self):
        cfg = WindowConfig(window_s=1.0, bin_s=5e-3, max_s=2.0)
        assert cfg.num_bins == 400
        # 10 tiling windows + 1 clamp window for drain past the horizon
        assert cfg.num_windows(10.0) == 11
        assert cfg.num_windows(9.5) == 11  # ceil
        with pytest.raises(ConfigError):
            cfg.num_windows(0.0)

    def test_cell_guard_rejects_unbounded_layouts(self):
        with pytest.raises(ConfigError, match="histogram cells per task"):
            WindowedMetrics(WindowConfig(window_s=1e-3, bin_s=1e-4, max_s=2.0), 100.0)


class TestFeedsIdentity:
    def test_scalar_equals_vectorized(self):
        rng = np.random.default_rng(7)
        n = 400
        comp = np.sort(rng.uniform(0.0, 12.0, n))
        lat = rng.exponential(0.05, n)
        met = lat <= 0.07
        cfg = WindowConfig(window_s=0.5)
        vec = WindowedMetrics(cfg, 10.0)
        vec.observe("t", comp, lat, met)
        one = WindowedMetrics(cfg, 10.0)
        for c, l, m in zip(comp, lat, met):
            one.observe_one("t", float(c), float(l), bool(m))
        assert one.fingerprint() == vec.fingerprint()
        np.testing.assert_array_equal(one.per_task["t"].counts, vec.per_task["t"].counts)
        np.testing.assert_array_equal(one.dense_hist("t"), vec.dense_hist("t"))
        # Kahan sums agree to float tolerance (excluded from the fingerprint)
        np.testing.assert_allclose(
            one.window_mean_latency_s("t"), vec.window_mean_latency_s("t"),
            rtol=1e-12, equal_nan=True,
        )

    def test_order_independent_integer_state(self):
        rng = np.random.default_rng(3)
        n = 300
        comp = rng.uniform(0.0, 8.0, n)
        lat = rng.exponential(0.04, n)
        met = lat <= 0.05
        cfg = WindowConfig()
        a = WindowedMetrics(cfg, 8.0)
        a.observe("t", comp, lat, met)
        perm = rng.permutation(n)
        b = WindowedMetrics(cfg, 8.0)
        b.observe("t", comp[perm], lat[perm], met[perm])
        assert a.fingerprint() == b.fingerprint()

    def test_chunked_equals_one_shot(self):
        rng = np.random.default_rng(5)
        n = 256
        comp = np.sort(rng.uniform(0.0, 6.0, n))
        lat = rng.exponential(0.03, n)
        met = lat <= 0.05
        cfg = WindowConfig(window_s=0.25)
        whole = WindowedMetrics(cfg, 6.0)
        whole.observe("t", comp, lat, met)
        chunked = WindowedMetrics(cfg, 6.0)
        for lo in range(0, n, 37):
            sl = slice(lo, lo + 37)
            chunked.observe("t", comp[sl], lat[sl], met[sl])
        assert whole.fingerprint() == chunked.fingerprint()

    def test_drain_past_horizon_clamps_to_last_window(self):
        wm = WindowedMetrics(WindowConfig(window_s=1.0), 4.0)
        wm.observe_one("t", 99.0, 0.01, True)  # far past the horizon
        assert wm.per_task["t"].counts[-1] == 1
        assert wm.per_task["t"].counts[:-1].sum() == 0


class TestCompactPlanes:
    """Planes hold only their non-zero cells, yet read as the dense layout."""

    @staticmethod
    def _workload(seed: int, n: int = 300):
        rng = np.random.default_rng(seed)
        comp = np.sort(rng.uniform(0.0, 9.0, n))
        lat = np.concatenate([rng.uniform(0.05, 0.25, n - 3), [2.5, 0.001, 1.99]])
        return comp, lat, lat <= 0.2

    def test_scalar_vectorized_and_merge_planes_equal(self):
        comp, lat, met = self._workload(11)
        cfg = WindowConfig(window_s=1.0)
        one = WindowedMetrics(cfg, 8.0)
        for c, l, m in zip(comp, lat, met):
            one.observe_one("t", float(c), float(l), bool(m))
        vec = WindowedMetrics(cfg, 8.0)
        vec.observe("t", comp, lat, met)
        merged = WindowedMetrics(cfg, 8.0)
        shuffled = WindowedMetrics(cfg, 8.0)  # scalar feed revisiting windows
        perm = np.random.default_rng(2).permutation(lat.size)
        for part in np.array_split(perm, 5):
            cell = WindowedMetrics(cfg, 8.0)
            cell.observe("t", comp[part], lat[part], met[part])
            merged.merge(cell)
        for i in perm.tolist():
            shuffled.observe_one("t", float(comp[i]), float(lat[i]), bool(met[i]))
        dense = one.dense_hist("t")
        assert dense.shape == (one.n_windows, one.n_bins)
        np.testing.assert_array_equal(vec.dense_hist("t"), dense)
        np.testing.assert_array_equal(merged.dense_hist("t"), dense)
        assert one.fingerprint() == vec.fingerprint() == merged.fingerprint()
        assert shuffled.fingerprint() == one.fingerprint()
        # every feed stores exactly the non-zero cells of the plane, in order
        keys = np.flatnonzero(dense)
        assert 0 < keys.size < dense.size
        for wm in (one, vec, merged, shuffled):
            got_keys, got_cells = wm.cells("t")
            np.testing.assert_array_equal(got_keys, keys)
            np.testing.assert_array_equal(got_cells, dense.ravel()[keys])

    def test_window_quantile_matches_dense_plane(self):
        comp, lat, met = self._workload(12)
        lat[lat < 0.05] = 0.3  # keep bin 0 empty: no window's cells start there
        wm = WindowedMetrics(WindowConfig(window_s=1.0), 8.0)
        wm.observe("t", comp, lat, met)
        dense, tw = wm.dense_hist("t"), wm.per_task["t"]
        assert not dense[:, 0].any()
        np.testing.assert_array_equal(wm.cells("t")[0], np.flatnonzero(dense))
        for q in (0.0, 50.0, 99.0, 100.0):
            got = wm.window_quantile("t", q)
            for w in range(wm.n_windows):
                n = int(dense[w].sum() + tw.overflow[w])
                if n == 0:
                    assert np.isnan(got[w])
                    continue
                rank = int(np.ceil((n - 1) * q / 100.0))
                cum = np.cumsum(dense[w])
                if rank >= cum[-1]:
                    assert got[w] == tw.lat_max[w]
                else:
                    b = int(np.searchsorted(cum, rank + 1, side="left"))
                    assert got[w] == (b + 1) * wm.config.bin_s

    def test_fingerprint_hashes_dense_layout(self):
        # digests recorded when every plane was stored densely
        assert _filled(0).fingerprint() == (
            "6335adc36e717e5f14433d8bca1b0f0a2620174f0d7c3429cf61343013c55627"
        )
        wm = WindowedMetrics(WindowConfig(window_s=1.0), 4.0)
        wm.observe("t", np.array([0.5, 1.5]), np.array([3.0, 4.0]), np.zeros(2, bool))
        assert wm.fingerprint() == (
            "9a1ec8747e1e7f8db1bee7a1dda61c2052cb9aa81fd6438892f5663e734f6fbf"
        )

    def test_all_overflow_task_has_no_columns(self):
        wm = WindowedMetrics(WindowConfig(window_s=1.0), 4.0)
        wm.observe("t", np.array([0.5, 1.5]), np.array([3.0, 4.0]), np.zeros(2, bool))
        keys, cells = wm.cells("t")
        assert keys.size == cells.size == 0
        assert not wm.dense_hist("t").any()
        np.testing.assert_array_equal(wm.window_quantile("t", 50)[:2], [3.0, 4.0])

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
    def test_bad_latency_rejected(self, bad):
        wm = WindowedMetrics(WindowConfig(), 4.0)
        with pytest.raises(SimulationError, match="non-negative"):
            wm.observe("t", np.array([1.0, 2.0]), np.array([0.1, bad]), np.ones(2, bool))
        with pytest.raises(SimulationError, match="non-negative"):
            wm.observe_one("t", 1.0, bad, True)
        assert wm.total_count == 0

    @pytest.mark.parametrize("bad", [-1.5, float("nan"), float("inf"), float("-inf")])
    def test_bad_completion_and_mark_times_rejected(self, bad):
        """A negative time must not index from the end of the window arrays."""
        wm = WindowedMetrics(WindowConfig(window_s=1.0), 4.0)
        assert wm.n_windows == 5
        with pytest.raises(SimulationError, match="completion times"):
            wm.observe_one("t", bad, 0.1, True)
        with pytest.raises(SimulationError, match="completion times"):
            wm.observe("t", np.array([1.0, bad]), np.array([0.1, 0.1]), np.ones(2, bool))
        for kind in MARK_KINDS:
            with pytest.raises(SimulationError, match="mark times"):
                wm.mark("t", bad, kind)
        assert wm.per_task == {}

    def test_huge_finite_times_clamp_alike(self):
        """Times far past any int64 index clamp the same way in both feeds."""
        cfg = WindowConfig(window_s=1.0)
        one, vec = WindowedMetrics(cfg, 4.0), WindowedMetrics(cfg, 4.0)
        comp, lat = np.array([1e300, 2.5]), np.array([0.01, 1e300])
        for c, l in zip(comp, lat):
            one.observe_one("t", float(c), float(l), False)
        vec.observe("t", comp, lat, np.zeros(2, bool))
        assert one.fingerprint() == vec.fingerprint()
        np.testing.assert_array_equal(vec.per_task["t"].counts, [0, 0, 1, 0, 1])
        np.testing.assert_array_equal(vec.per_task["t"].overflow, [0, 0, 1, 0, 0])
        assert vec.cells("t")[0].tolist() == [4 * vec.n_bins + 2]

    def test_out_of_order_chunks_insert_cells(self):
        """Chunks that revisit earlier windows merge into the stored cells."""
        comp, lat, met = self._workload(13)
        cfg = WindowConfig(window_s=1.0)
        whole = WindowedMetrics(cfg, 8.0)
        whole.observe("t", comp, lat, met)
        backwards = WindowedMetrics(cfg, 8.0)
        for part in reversed(np.array_split(np.arange(comp.size), 7)):
            backwards.observe("t", comp[part], lat[part], met[part])
        for got, want in zip(backwards.cells("t"), whole.cells("t")):
            np.testing.assert_array_equal(got, want)
        assert backwards.fingerprint() == whole.fingerprint()


class TestMarksAndAggregates:
    def test_marks_feed_error_budget(self):
        wm = WindowedMetrics(WindowConfig(window_s=1.0), 4.0)
        wm.observe_one("t", 0.5, 0.01, True)
        wm.mark("t", 0.6, "lost")
        wm.mark("t", 0.7, "shed")
        wm.mark("t", 0.8, "degraded")
        assert wm.window_errors("t")[0] == 2  # lost + shed; degraded annotates
        assert wm.window_eligible("t")[0] == 3  # completion + lost + shed
        with pytest.raises(ConfigError, match="mark kind"):
            wm.mark("t", 0.0, "exploded")
        assert set(MARK_KINDS) == {"lost", "shed", "degraded"}

    def test_quantiles_and_snapshot(self):
        wm = _filled(0)
        p99 = wm.window_quantile("t0", 99)
        counts = wm.window_counts("t0")
        assert np.isnan(p99[counts == 0]).all()
        assert (p99[counts > 0] > 0).all()
        with pytest.raises(SimulationError):
            wm.window_quantile("t0", 101)
        snap = wm.snapshot()
        assert snap["n_windows"] == wm.n_windows
        t0 = snap["tasks"]["t0"]
        assert len(t0["counts"]) == wm.n_windows
        assert sum(t0["counts"]) == int(counts.sum())
        # snapshot is JSON-able (None for NaN, plain lists)
        import json

        json.dumps(snap)


class TestMerge:
    def test_merge_is_exact(self):
        a, b = _filled(1), _filled(2)
        pooled = WindowedMetrics(a.config, a.horizon_s).merge(a).merge(b)
        for task in ("t0", "t1"):
            np.testing.assert_array_equal(
                pooled.per_task[task].counts,
                a.per_task[task].counts + b.per_task[task].counts,
            )
            np.testing.assert_array_equal(
                pooled.dense_hist(task), a.dense_hist(task) + b.dense_hist(task)
            )
        assert pooled.total_count == a.total_count + b.total_count
        assert pooled.total_met == a.total_met + b.total_met

    def test_merge_rejects_layout_mismatch(self):
        a = WindowedMetrics(WindowConfig(window_s=1.0), 10.0)
        with pytest.raises(SimulationError, match="different layouts"):
            a.merge(WindowedMetrics(WindowConfig(window_s=0.5), 10.0))
        with pytest.raises(SimulationError, match="different layouts"):
            a.merge(WindowedMetrics(WindowConfig(window_s=1.0), 20.0))


class TestKahan:
    def test_compensated_sum_beats_naive(self):
        ks = KahanSum()
        vals = [1e16, 1.0, -1e16, 1.0]
        naive = 0.0
        for v in vals:
            ks.add(v)
            naive += v
        assert ks.value == 2.0
        assert naive != 2.0  # the case compensation exists for
