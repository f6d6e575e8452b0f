"""SLO monitors: target resolution, burn-rate alerting, report determinism.

The multi-window multi-burn-rate alert must fire on a sustained error cliff,
stay silent on a single-window blip (the slow window suppresses it), and be
a pure function of the windowed integer state so its fingerprint is stable.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.telemetry.slo import SLOPolicy, SLOTarget, evaluate_slos
from repro.telemetry.windows import WindowConfig, WindowedMetrics


def _feed(wm, task, window, n, met_frac):
    """Put n completions into one window, met_frac of them meeting deadline."""
    n_met = int(round(n * met_frac))
    t = (window + 0.5) * wm.config.window_s
    comp = np.full(n, t)
    lat = np.full(n, 0.01)
    met = np.zeros(n, dtype=bool)
    met[:n_met] = True
    wm.observe(task, comp, lat, met)


class TestPolicy:
    def test_target_validation(self):
        with pytest.raises(ConfigError, match="non-empty task pattern"):
            SLOTarget(task="", target=0.9)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ConfigError, match="in \\(0, 1\\)"):
                SLOTarget(target=bad)

    def test_policy_validation(self):
        with pytest.raises(ConfigError, match="at least one target"):
            SLOPolicy(targets=())
        with pytest.raises(ConfigError, match="fast_windows"):
            SLOPolicy(fast_windows=0)
        with pytest.raises(ConfigError, match="fast_windows"):
            SLOPolicy(fast_windows=5, slow_windows=3)
        with pytest.raises(ConfigError, match="burn-rate"):
            SLOPolicy(fast_burn=0.0)

    def test_resolve_first_match_wins(self):
        policy = SLOPolicy(
            targets=(
                SLOTarget(task="cam*", target=0.999),
                SLOTarget(task="*", target=0.95),
            )
        )
        assert policy.resolve("cam3") == 0.999
        assert policy.resolve("drone1") == 0.95
        # catch-all first would shadow the specific class
        shadowed = SLOPolicy(
            targets=(SLOTarget(task="*", target=0.95), SLOTarget(task="cam*", target=0.999))
        )
        assert shadowed.resolve("cam3") == 0.95

    def test_unmatched_tasks_skipped(self):
        wm = WindowedMetrics(WindowConfig(window_s=1.0), 5.0)
        _feed(wm, "cam0", 0, 10, 1.0)
        _feed(wm, "drone0", 0, 10, 1.0)
        report = evaluate_slos(wm, SLOPolicy(targets=(SLOTarget(task="cam*", target=0.9),)))
        assert set(report.per_task) == {"cam0"}


class TestEvaluation:
    def test_healthy_run_is_ok(self):
        wm = WindowedMetrics(WindowConfig(window_s=1.0), 10.0)
        for w in range(10):
            _feed(wm, "t", w, 200, 1.0)
        report = evaluate_slos(wm, SLOPolicy(targets=(SLOTarget(target=0.99),)))
        t = report.per_task["t"]
        assert report.ok and t.ok and t.status == "OK"
        assert t.achieved == 1.0 and t.budget_spent == 0.0 and not t.alerts

    def test_sustained_cliff_pages(self):
        # 99% target → 1% budget.  A sustained 50% miss rate burns at 50x,
        # far above both the 14.4x fast and 6x slow thresholds once the
        # trailing windows fill with the cliff.
        wm = WindowedMetrics(WindowConfig(window_s=1.0), 40.0)
        for w in range(20):
            _feed(wm, "t", w, 100, 1.0)
        for w in range(20, 40):
            _feed(wm, "t", w, 100, 0.5)
        report = evaluate_slos(wm, SLOPolicy(targets=(SLOTarget(target=0.99),)))
        t = report.per_task["t"]
        assert t.alerts and t.status == "PAGE"
        assert not report.ok
        assert all(a.window >= 20 for a in t.alerts)
        assert report.alerts() == t.alerts

    def test_single_window_blip_does_not_page(self):
        # One bad window out of 40: the fast burn spikes but the 30-window
        # slow burn stays dilute, so no alert — that is the whole point of
        # the two-window recipe.
        wm = WindowedMetrics(WindowConfig(window_s=1.0), 40.0)
        for w in range(40):
            _feed(wm, "t", w, 100, 0.5 if w == 10 else 1.0)
        report = evaluate_slos(wm, SLOPolicy(targets=(SLOTarget(target=0.99),)))
        t = report.per_task["t"]
        assert not t.alerts
        assert t.status == "BURN"  # budget overspent overall, but no page
        assert t.fast_burn.max() > report.policy.fast_burn

    def test_window_pair_sets_what_pages(self):
        # the blip above pages once both trailing windows are one window
        # long: the slow window's length is what dilutes a blip
        wm = WindowedMetrics(WindowConfig(window_s=1.0), 40.0)
        for w in range(40):
            _feed(wm, "t", w, 100, 0.5 if w == 10 else 1.0)
        policy = SLOPolicy(targets=(SLOTarget(target=0.99),), fast_windows=1, slow_windows=1)
        t = evaluate_slos(wm, policy).per_task["t"]
        assert [a.window for a in t.alerts] == [10]

    def test_losses_and_sheds_burn_budget(self):
        wm = WindowedMetrics(WindowConfig(window_s=1.0), 4.0)
        _feed(wm, "t", 0, 98, 1.0)
        wm.mark("t", 0.5, "lost")
        wm.mark("t", 0.5, "shed")
        report = evaluate_slos(wm, SLOPolicy(targets=(SLOTarget(target=0.99),)))
        t = report.per_task["t"]
        assert t.eligible == 100 and t.errors == 2
        assert t.achieved == pytest.approx(0.98)
        assert t.budget_spent == pytest.approx(2.0)

    def test_empty_chunk_registers_nothing(self):
        # Empty chunks are a no-op: no per-task state is allocated, so idle
        # task classes cost no memory and produce no SLO rows.
        wm = WindowedMetrics(WindowConfig(window_s=1.0), 4.0)
        wm.observe("t", np.empty(0), np.empty(0), np.empty(0, dtype=bool))
        assert wm.tasks() == []
        assert evaluate_slos(wm).per_task == {}

    def test_zero_traffic_windows_burn_nothing(self):
        # Traffic only in window 0: the later trailing windows see zero
        # eligible requests and must report burn 0.0, not NaN.
        wm = WindowedMetrics(WindowConfig(window_s=1.0), 10.0)
        _feed(wm, "t", 0, 50, 0.5)
        t = evaluate_slos(wm, SLOPolicy(targets=(SLOTarget(target=0.99),))).per_task["t"]
        assert np.isfinite(t.fast_burn).all() and np.isfinite(t.slow_burn).all()
        assert t.fast_burn[5] == 0.0  # fast window slid past the traffic
        assert t.eligible == 50 and t.errors == 25


class TestReport:
    def _report(self):
        wm = WindowedMetrics(WindowConfig(window_s=1.0), 20.0)
        for w in range(20):
            _feed(wm, "t0", w, 100, 0.95 if w >= 15 else 1.0)
            _feed(wm, "t1", w, 50, 1.0)
        return evaluate_slos(wm, SLOPolicy(targets=(SLOTarget(target=0.99),)))

    def test_fingerprint_deterministic(self):
        assert self._report().fingerprint() == self._report().fingerprint()

    def test_fingerprint_sees_state(self):
        a = self._report()
        b = self._report()
        b.per_task["t0"].errors += 1
        assert a.fingerprint() != b.fingerprint()

    def test_as_dict_and_format(self):
        import json

        report = self._report()
        d = report.as_dict()
        assert set(d["tasks"]) == {"t0", "t1"}
        entry = d["tasks"]["t0"]
        assert set(entry) >= {
            "target", "eligible", "errors", "achieved", "budget_spent", "status", "alerts",
        }
        json.dumps(d)
        text = report.format()
        assert "t0" in text and "t1" in text and "status" in text
