"""Experiment registry and fast-experiment smoke runs.

Slow simulator-heavy experiments are exercised by the benchmark suite; here
we smoke-run the fast ones with reduced knobs and verify their invariants.
"""

import math

import pytest

from repro.errors import ConfigError
from repro.experiments import EXPERIMENTS, run_experiment


class TestRegistry:
    def test_all_eighteen_plus_ablations_registered(self):
        assert {f"E{i}" for i in range(1, 19)} <= set(EXPERIMENTS)
        assert {f"A{i}" for i in range(1, 5)} <= set(EXPERIMENTS)

    def test_unknown_id_raises(self):
        with pytest.raises(ConfigError):
            run_experiment("E99")

    def test_case_insensitive(self):
        r = run_experiment(
            "e1", models=("alexnet",), devices=("raspberry_pi4",)
        )
        assert r.exp_id == "E1"


class TestE1:
    def test_profiles_and_boundaries(self):
        r = run_experiment("E1", models=("alexnet",), devices=("raspberry_pi4", "edge_gpu"))
        assert len(r.rows) == 2
        sizes = r.extras["boundaries"]["alexnet"]
        # non-monotone boundary sizes: min interior << input
        assert sizes[1:-1].min() < sizes[0]

    def test_format_renders(self):
        r = run_experiment("E1", models=("alexnet",), devices=("edge_gpu",))
        assert "alexnet" in r.format()


class TestE2:
    def test_shapes(self):
        r = run_experiment(
            "E2", model_name="resnet18", bandwidths_mbps=(1.0, 10.0, 100.0)
        )
        s = r.extras["series"]
        # device-only is bandwidth-independent
        assert len(set(round(v, 9) for v in s["device_only"])) == 1
        # edge improves with bandwidth
        assert s["edge_only"][-1] < s["edge_only"][0]
        # joint dominates at every point
        for i in range(3):
            assert s["joint"][i] <= min(
                s["device_only"][i], s["edge_only"][i], s["neurosurgeon"][i]
            ) + 1e-9


class TestE3:
    def test_latency_monotone_in_floor(self):
        r = run_experiment(
            "E3", models=("resnet18",), floors=(0.55, 0.62, 0.68)
        )
        frontier = r.extras["frontier"]["resnet18"]
        floors = sorted(frontier)
        lats = [frontier[f] for f in floors if math.isfinite(frontier[f])]
        assert all(b >= a - 1e-9 for a, b in zip(lats, lats[1:]))


class TestE7:
    def test_monotone_histories(self):
        r = run_experiment("E7", num_tasks=4)
        hist = [h for h in r.extras["bcd_history"] if math.isfinite(h)]
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
        assert r.extras["bcd_converged"]


class TestE8:
    def test_defaults_complete(self):
        """Instance 5 of the default draw has no feasible plan: it gets a
        marked row and stays out of the gap means."""
        r = run_experiment("E8")
        assert [row[0] for row in r.rows] == [0, 1, 2, 3, 4, 5, "mean"]
        assert r.extras["infeasible"] == 1
        assert r.rows[5][2] == "infeasible"
        assert len(r.extras["gaps_bcd"]) == len(r.extras["gaps_br"]) == 5
        assert any("1 of 6 instances infeasible" in n for n in r.notes)
        assert math.isfinite(r.rows[-1][4]) and math.isfinite(r.rows[-1][6])


class TestE9:
    def test_runs_small(self):
        r = run_experiment("E9", sizes=((4, 2),))
        assert len(r.rows) == 1
        assert r.rows[0][3] < 30.0  # solve time


class TestE17:
    def test_three_arms_on_small_instance(self):
        r = run_experiment("E17", sizes=((48, 6, 3),))
        arms = {row[3] for row in r.rows}
        assert arms == {"centralized", "sharded", "decentralized"}
        # finite objectives in every arm, sharded within the regression band
        for row in r.rows:
            assert math.isfinite(row[5]) and row[5] > 0
        assert r.extras["regression_pct"]["48x6"] <= 5.0
        assert "control plane" in r.title


class TestE16:
    def test_ladder_recovers_what_static_loses(self):
        r = run_experiment("E16", num_tasks=4, horizon_s=8.0)
        by_mode = {row[0]: row for row in r.rows}
        assert set(by_mode) == {"static", "failover", "failover+repair"}
        lost = r.headers.index("lost")
        static_lost = by_mode["static"][lost]
        assert static_lost > 0
        assert by_mode["failover"][lost] == 0
        # the tail columns ride along: p999 >= p99, p99_sat is "k/n"
        p99 = r.headers.index("p99_ms")
        p999 = r.headers.index("p999_ms")
        for row in r.rows:
            assert row[p999] >= row[p99]
        assert by_mode["static"][r.headers.index("p99_sat")].endswith("/4")
        counters = r.extras["counters"]
        assert counters["failover"]["retries"] + counters["failover"]["failovers"] > 0
        assert r.extras["crashed_server"]
        assert "resilience" in r.title


class TestE18:
    def test_calibration_on_reduced_horizon(self):
        r = run_experiment(
            "E18", num_tasks=4, epsilons=(0.05,), load_scales=(0.6, 1.2),
            horizon_s=10.0, warmup_s=1.0,
        )
        assert len(r.rows) == 2
        assert r.extras["calibration_ok"]
        for cell in r.extras["cells"]:
            assert cell["buffered_violation"] <= cell["epsilon"] + 1e-12
            # buffered certification is (weakly) more selective than mean-based
            assert cell["buffered_certified"] <= cell["deterministic_certified"]
        assert "chance-constrained" in r.title
