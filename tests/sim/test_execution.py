"""Per-request plan realization."""

import numpy as np
import pytest

from repro.core.plan import SurgeryPlan
from repro.core.surgery import evaluate_plan
from repro.rng import derive
from repro.sim import SimulationConfig
from repro.sim.execution import (
    ARR, COLS, COMPLETION, CORRECT, DEADLINE, DEV_FLOPS, DOWN_BYTES, OFF, POS,
    REQ, SRV_FLOPS, UP_BYTES, RealizationTable, TaskRealizer, build_records,
    record_fields,
)
from repro.telemetry.windows import WindowConfig, WindowedMetrics
from tests.arrivals import ARRIVALS, arrival_process


def plan_with_exits(model, cut=None):
    n = len(model.backbone.cut_points)
    return SurgeryPlan(
        kept_exits=(1, model.num_exits - 1),
        thresholds=(0.7, 0.0),
        partition_cut=n - 1 if cut is None else cut,
    )


def position(model, plan, difficulty):
    return int(RealizationTable(model, plan).positions(np.array([difficulty]))[0])


def demand(model, plan, difficulty):
    """Realized demands of one input: ``(position, dev, srv, up, down, offloaded)``."""
    table = RealizationTable(model, plan)
    pos = position(model, plan, difficulty)
    return (
        pos, table.dev_flops[pos], table.srv_flops[pos], table.up_bytes[pos],
        table.down_bytes[pos], bool(table.offloaded[pos]),
    )


class TestSampleExit:
    def test_easy_input_exits_early(self, me_resnet18):
        plan = plan_with_exits(me_resnet18)
        assert position(me_resnet18, plan, 0.0) == 0

    def test_hard_input_reaches_final(self, me_resnet18):
        plan = plan_with_exits(me_resnet18)
        assert position(me_resnet18, plan, 1.0) == len(plan.kept_exits) - 1

    def test_exit_monotone_in_difficulty(self, me_resnet18):
        plan = SurgeryPlan(
            kept_exits=(0, 1, 2, 3, 4),
            thresholds=(0.7, 0.7, 0.7, 0.7, 0.0),
            partition_cut=len(me_resnet18.backbone.cut_points) - 1,
        )
        table = RealizationTable(me_resnet18, plan)
        exits = table.positions(np.linspace(0, 1, 21)).tolist()
        assert exits == sorted(exits)


class TestRealizeRequest:
    def test_local_plan_never_offloads(self, me_resnet18):
        plan = plan_with_exits(me_resnet18)  # cut at sink
        for d in (0.1, 0.5, 0.9):
            _, _, srv, up, _, offloaded = demand(me_resnet18, plan, d)
            assert not offloaded
            assert srv == 0 and up == 0

    def test_full_offload_ships_input(self, me_resnet18):
        plan = SurgeryPlan(
            kept_exits=(me_resnet18.num_exits - 1,), thresholds=(0.0,), partition_cut=0
        )
        _, dev, _, up, down, offloaded = demand(me_resnet18, plan, 0.5)
        assert offloaded
        assert up == me_resnet18.input_bytes
        assert down == me_resnet18.result_bytes
        assert dev == 0

    def test_exit_before_cut_stays_local(self, me_resnet18):
        # cut after exit 1's attach point: easy inputs exit locally
        attach = int(me_resnet18.exit_cut_indices[1])
        plan = SurgeryPlan(
            kept_exits=(1, me_resnet18.num_exits - 1),
            thresholds=(0.7, 0.0),
            partition_cut=attach,
        )
        assert not demand(me_resnet18, plan, 0.0)[-1]
        assert demand(me_resnet18, plan, 1.0)[-1]

    def test_expectation_matches_features(self, me_resnet18):
        """Averaging realized demands over sampled difficulties reproduces the
        plan's analytic PlanFeatures — the sim and optimizer agree on what a
        plan costs."""
        n = len(me_resnet18.backbone.cut_points)
        plan = SurgeryPlan(
            kept_exits=(1, 3, 4), thresholds=(0.8, 0.8, 0.0), partition_cut=n // 3
        )
        feats = evaluate_plan(me_resnet18, plan)
        table = RealizationTable(me_resnet18, plan)
        ds = me_resnet18.difficulty.sample(np.random.default_rng(42), 20000)
        pos = table.positions(ds)
        assert table.dev_flops[pos].mean() == pytest.approx(feats.dev_flops, rel=0.03)
        assert table.srv_flops[pos].mean() == pytest.approx(feats.srv_flops, rel=0.05)
        wire = table.up_bytes[pos] + table.down_bytes[pos]
        assert wire.mean() == pytest.approx(feats.wire_bytes, rel=0.05)
        assert table.offloaded[pos].mean() == pytest.approx(feats.p_offload, abs=0.02)

    def test_correctness_rate_matches_accuracy(self, me_resnet18):
        n = len(me_resnet18.backbone.cut_points)
        plan = SurgeryPlan(
            kept_exits=(1, 4), thresholds=(0.8, 0.0), partition_cut=n - 1
        )
        feats = evaluate_plan(me_resnet18, plan)
        table = RealizationTable(me_resnet18, plan)
        rng = np.random.default_rng(7)
        ds = me_resnet18.difficulty.sample(rng, 20000)
        p = table.p_correct(table.positions(ds), ds)
        assert np.mean(rng.random(ds.size) < p) == pytest.approx(feats.accuracy, abs=0.02)

    def test_correctness_is_the_requests_first_exec_uniform(self, small_tasks):
        """Request ``i`` is correct iff its own derived ``exec`` stream's first
        uniform falls below its correctness probability."""
        task = small_tasks[0]
        cfg = SimulationConfig(horizon_s=20.0, seed=5)
        table = RealizationTable(task.model, plan_with_exits(task.model))
        req_id, arrival, difficulty = TaskRealizer(task, cfg).draw(cfg.horizon_s)
        rows = TaskRealizer(task, cfg).realize(table, cfg.horizon_s)
        p = table.p_correct(table.positions(difficulty), difficulty)
        for i in range(rows.shape[0]):
            u = derive(cfg.seed, "exec", task.name, int(req_id[i])).random()
            assert rows[i, CORRECT] == float(u < p[i])


class TestTaskRealizer:
    def _cfg(self, **kw):
        return SimulationConfig(horizon_s=30.0, seed=3, **kw)

    def _table(self, task, cut=None):
        return RealizationTable(task.model, plan_with_exits(task.model, cut))

    @pytest.mark.parametrize("arrival", ARRIVALS)
    def test_rows_independent_of_window_cuts(self, small_tasks, arrival):
        task = small_tasks[0]
        cfg = self._cfg(service_noise=0.2)
        table = self._table(task)
        with arrival_process(arrival):
            whole = TaskRealizer(task, cfg).realize(table, cfg.horizon_s)
            realizer = TaskRealizer(task, cfg)
            cut = np.concatenate(
                [realizer.realize(table, t) for t in (0.0, 1.3, 1.3, 7.7, 29.0, 30.0)]
            )
        assert whole.shape[0] > 0
        np.testing.assert_array_equal(whole, cut)
        np.testing.assert_array_equal(whole[:, REQ], np.arange(whole.shape[0]))
        np.testing.assert_array_equal(whole[:, DEADLINE], whole[:, ARR] + task.deadline_s)
        assert not whole[:, COMPLETION:].any()  # left for the engines

    def test_switching_tables_changes_only_the_demands(self, small_tasks):
        """A mid-stream plan switch realizes the same requests (arrivals,
        difficulties, draws) under the new plan's table."""
        task = small_tasks[0]
        cfg = self._cfg()
        local = self._table(task)
        offload = self._table(task, cut=0)
        a = TaskRealizer(task, cfg).realize(local, cfg.horizon_s)
        b = TaskRealizer(task, cfg).realize(offload, cfg.horizon_s)
        realizer = TaskRealizer(task, cfg)
        mixed = np.concatenate(
            [realizer.realize(local, 12.0), realizer.realize(offload, cfg.horizon_s)]
        )
        early = a[:, ARR] < 12.0
        np.testing.assert_array_equal(mixed[early], a[early])
        np.testing.assert_array_equal(mixed[~early], b[~early])
        assert not a[:, OFF].any() and b[:, OFF].all()

    def test_draw_then_rows_equals_realize(self, small_tasks):
        task = small_tasks[1]
        cfg = self._cfg(service_noise=0.1)
        table = self._table(task, cut=1)
        realizer = TaskRealizer(task, cfg)
        req_id, arrival, difficulty = realizer.draw(cfg.horizon_s)
        assert np.all((difficulty >= 0.0) & (difficulty <= 1.0))
        np.testing.assert_array_equal(
            realizer.rows(table, req_id, arrival, difficulty),
            TaskRealizer(task, cfg).realize(table, cfg.horizon_s),
        )

    def test_jitter_is_mean_one_and_per_stage(self, small_tasks):
        task = small_tasks[0]
        table = self._table(task, cut=1)
        plain = TaskRealizer(task, self._cfg()).realize(table, 30.0)
        noisy = TaskRealizer(task, self._cfg(service_noise=0.3)).realize(table, 30.0)
        demands = (DEV_FLOPS, SRV_FLOPS, UP_BYTES, DOWN_BYTES)
        for col in demands:
            on = plain[:, col] > 0
            ratio = noisy[on, col] / plain[on, col]
            assert ratio.size and not np.allclose(ratio, 1.0)
            assert ratio.mean() == pytest.approx(1.0, abs=0.1)
        same = [c for c in range(len(COLS)) if c not in demands]
        np.testing.assert_array_equal(plain[:, same], noisy[:, same])


def records(*args, **kw):
    return build_records(record_fields(*args, **kw))


class TestBuildRecords:
    def _rows(self, spec):
        # task, req_id, arrival, completion, position, offloaded, correct
        rows = np.zeros((len(spec), len(COLS)))
        for i, (_, req, arr, comp, pos, off, ok) in enumerate(spec):
            rows[i, [REQ, ARR, DEADLINE, COMPLETION, POS, OFF, CORRECT]] = (
                req, arr, arr + 0.1, comp, pos, off, ok
            )
        return rows, np.array([s[0] for s in spec], dtype=np.intp)

    def test_warmup_order_and_fields(self):
        rows, task = self._rows([
            (1, 0, 0.5, 0.7, 1, 1, 1),  # warmup
            (0, 3, 1.5, 1.55, 0, 0, 0),
            (1, 1, 1.2, 1.4, 1, 1, 1),  # misses its deadline
        ])
        recs = records(rows, task, ["a", "b"], 1.0)
        assert [(r.task_name, r.req_id) for r in recs] == [("a", 3), ("b", 1)]
        assert recs[0].met_deadline and not recs[1].met_deadline
        assert recs[1].offloaded and recs[1].correct and recs[1].exit_position == 1
        assert all(type(r.arrival_s) is float for r in recs)
        by_completion = records(
            rows, task, ["a", "b"], 1.0,
            order=lambda r, t: np.argsort(-r[:, COMPLETION]),
        )
        assert [r.req_id for r in by_completion] == [3, 1]
        flagged = records(
            rows, task, ["a", "b"], 0.0, degraded=np.array([False, True, False])
        )
        assert [r.degraded for r in flagged] == [False, True, False]

    def test_windowed_feed_equals_one_batch_per_task(self):
        rows, task = self._rows([
            (0, 1, 0.2, 0.9, 0, 0, 1),
            (1, 0, 0.1, 1.6, 0, 0, 1),
            (0, 0, 0.1, 0.3, 0, 0, 1),
        ])
        wm = WindowedMetrics(WindowConfig(window_s=1.0, bin_s=0.1, max_s=2.0), 2.0)
        record_fields(rows, task, ["a", "b"], 0.0, windowed=wm)
        want = WindowedMetrics(wm.config, 2.0)
        comp = np.array([0.3, 0.9])  # task a in request order
        want.observe("a", comp, comp - np.array([0.1, 0.2]), np.array([False, False]))
        want.observe("b", np.array([1.6]), np.array([1.6]) - 0.1, np.array([False]))
        assert wm.fingerprint() == want.fingerprint()

    def test_completion_before_arrival_raises(self):
        from repro.errors import SimulationError

        rows, task = self._rows([(0, 0, 1.0, 0.5, 0, 0, 1)])
        with pytest.raises(SimulationError, match="completes before it arrives"):
            record_fields(rows, task, ["a"], 0.0)

