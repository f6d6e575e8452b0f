"""The vectorized fast path must be bit-identical to the event loop."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.joint import JointOptimizer
from repro.core.candidates import build_candidates
from repro.core.plan import TaskSpec
from repro.faults import FaultSchedule
from repro.faults import runtime as runtime_mod
from repro.rng import derive
from repro.sim import execution, fastpath
from repro.sim import runner as runner_mod
from repro.sim.runner import SimulationConfig, simulate_plan
from repro.sim.sources import arrival_times
from repro.telemetry.timeline import TimelineRecorder
from repro.telemetry.trace import Tracer, get_tracer, set_tracer
from repro.telemetry.windows import WindowConfig
from tests.arrivals import ARRIVALS, arrival_process


@pytest.fixture(scope="module")
def solved(small_cluster, small_tasks, small_candidates):
    return JointOptimizer(small_cluster).solve(
        small_tasks, candidates=small_candidates, seed=0
    ).plan


@pytest.fixture(scope="module")
def interleaved(small_cluster, me_resnet18, me_alexnet):
    """Four tasks on two devices in interleaved task order."""
    tasks = [
        TaskSpec(f"i{k}", model, dev, deadline_s=0.3, accuracy_floor=floor,
                 arrival_rate=rate)
        for k, (model, dev, floor, rate) in enumerate([
            (me_resnet18, "dev0", 0.6, 3.0),
            (me_alexnet, "dev1", 0.5, 2.0),
            (me_alexnet, "dev0", 0.5, 2.5),
            (me_resnet18, "dev1", 0.6, 1.5),
        ])
    ]
    cands = [build_candidates(t) for t in tasks]
    plan = JointOptimizer(small_cluster).solve(tasks, candidates=cands, seed=0).plan
    return tasks, plan


def assert_reports_identical(a, b):
    assert len(a.records) == len(b.records)
    assert a.records == b.records  # dataclass equality: every field, every request
    assert a.utilizations == b.utilizations
    assert a.discarded_warmup == b.discarded_warmup
    assert a.counters == b.counters
    np.testing.assert_array_equal(a.latencies(), b.latencies())


class TestBitIdentity:
    """Fast path ≡ event loop at the default window (one window per run)."""

    #: ``SimulationConfig.chunk_size`` of the fast-path arm (None = default)
    chunk_size = None

    def fast_cfg(self, **kw):
        if self.chunk_size is not None:
            kw["chunk_size"] = self.chunk_size
        return SimulationConfig(**kw)

    @pytest.mark.parametrize("arrival", ARRIVALS)
    def test_arrival_modes(self, small_cluster, small_tasks, solved, arrival):
        kw = dict(horizon_s=8.0, warmup_s=1.0, seed=11)
        with arrival_process(arrival):
            fast = simulate_plan(small_tasks, solved, small_cluster, self.fast_cfg(**kw))
            event = simulate_plan(
                small_tasks, solved, small_cluster,
                SimulationConfig(faults=FaultSchedule(), **kw),
            )
        assert_reports_identical(fast, event)

    def test_shared_device_ties(self, small_cluster, me_resnet18, me_alexnet):
        """Deterministic arrivals on one shared device: maximal time ties.

        Both tasks run on ``dev0`` at the same rate, so every arrival
        instant is shared; the sweep's submission order must reproduce the
        event loop's (arrival time, schedule order) tie-break exactly.
        """
        tasks = [
            TaskSpec("s0", me_resnet18, "dev0", deadline_s=0.3, accuracy_floor=0.6,
                     arrival_rate=4.0),
            TaskSpec("s1", me_alexnet, "dev0", deadline_s=0.3, accuracy_floor=0.5,
                     arrival_rate=4.0),
        ]
        cands = [build_candidates(t) for t in tasks]
        plan = JointOptimizer(small_cluster).solve(tasks, candidates=cands, seed=0).plan
        kw = dict(horizon_s=6.0, warmup_s=0.5, seed=13)
        with arrival_process("deterministic"):
            fast = simulate_plan(tasks, plan, small_cluster, self.fast_cfg(**kw))
            event = simulate_plan(
                tasks, plan, small_cluster, SimulationConfig(faults=FaultSchedule(), **kw)
            )
        assert fast.total_requests > 0
        assert_reports_identical(fast, event)

    def test_interleaved_shared_devices(self, small_cluster, interleaved):
        """Two devices shared by interleaved tasks: ``[dev0, dev1, dev0, dev1]``.

        Each device's submissions merge tasks that are not adjacent in task
        order, so the device sweep and the per-task advance must still see
        the event loop's (arrival time, schedule order) tie-break.
        """
        tasks, plan = interleaved
        kw = dict(horizon_s=6.0, warmup_s=0.5, seed=17)
        with arrival_process("deterministic"):
            fast = simulate_plan(tasks, plan, small_cluster, self.fast_cfg(**kw))
            event = simulate_plan(
                tasks, plan, small_cluster, SimulationConfig(faults=FaultSchedule(), **kw)
            )
        assert {r.task_name for r in fast.records} == {t.name for t in tasks}
        assert_reports_identical(fast, event)


class TestBitIdentityWindowed(TestBitIdentity):
    """The same identities with ~7 requests per sweep window.

    Completions then leave the stage buffers across dozens of window
    boundaries, so record order holds only because the sweep restores the
    event loop's completion order at the end.
    """

    chunk_size = 7


class TestDispatch:
    def test_fast_path_engages_by_default(self, small_cluster, small_tasks, solved, monkeypatch):
        """Default runs never construct the event-loop simulator."""

        class Boom:
            def __init__(self):
                raise AssertionError("event loop constructed on the fast path")

        monkeypatch.setattr(runtime_mod, "Simulator", Boom)
        rep = simulate_plan(
            small_tasks, solved, small_cluster, SimulationConfig(horizon_s=6.0, seed=14)
        )
        assert rep.total_requests > 0
        with pytest.raises(AssertionError):
            simulate_plan(
                small_tasks, solved, small_cluster,
                SimulationConfig(horizon_s=6.0, seed=14, faults=FaultSchedule()),
            )

    def test_telemetry_forces_event_loop(self, small_cluster, small_tasks, solved, monkeypatch):
        """Runs with a timeline recorder never take the sweep (gauges need events)."""

        def boom(*a, **k):
            raise AssertionError("fast path taken on a telemetry run")

        monkeypatch.setattr(runner_mod, "sweep_pipeline", boom)
        rep = simulate_plan(
            small_tasks, solved, small_cluster,
            SimulationConfig(horizon_s=6.0, seed=15), recorder=TimelineRecorder(),
        )
        assert rep.timeline is not None
        assert rep.registry is not None

    def test_fast_path_counters_match_event_loop(self, small_cluster, small_tasks, solved):
        """The equivalent event count is what the loop actually executes."""
        cfg = SimulationConfig(horizon_s=8.0, seed=16)
        fast = simulate_plan(small_tasks, solved, small_cluster, cfg)
        event = simulate_plan(
            small_tasks, solved, small_cluster,
            SimulationConfig(horizon_s=8.0, seed=16, faults=FaultSchedule()),
        )
        assert fast.counters.events == event.counters.events
        assert fast.counters.requests == event.counters.requests
        assert fast.counters.events > 0


def test_realization_tables_shared_per_model_plan(
    small_cluster, small_tasks, solved, monkeypatch
):
    """Tasks with the same model and surgery plan share one table."""
    twins = [dataclasses.replace(t, name=t.name + "b") for t in small_tasks]
    tasks = list(small_tasks) + twins
    fields = ("assignment", "features", "compute_shares", "bandwidth_shares", "latencies")

    def with_twins(by_task):
        return {**by_task, **{t.name + "b": by_task[t.name] for t in small_tasks}}

    plan = dataclasses.replace(solved, **{f: with_twins(getattr(solved, f)) for f in fields})
    built = []
    real = execution.RealizationTable

    def counting(model, surgery):
        built.append((model, surgery))
        return real(model, surgery)

    monkeypatch.setattr(execution, "RealizationTable", counting)
    kw = dict(horizon_s=6.0, warmup_s=0.5, seed=21)
    fast = simulate_plan(tasks, plan, small_cluster, SimulationConfig(**kw))
    assert [m for m, _ in built] == [t.model for t in small_tasks]
    event = simulate_plan(
        tasks, plan, small_cluster, SimulationConfig(faults=FaultSchedule(), **kw)
    )
    assert [m for m, _ in built] == [t.model for t in small_tasks] * 2
    assert {r.task_name for r in fast.records} == {t.name for t in tasks}
    assert_reports_identical(fast, event)


class TestStageBuffer:
    """Flushed rows must not stay reachable through the buffer's carry-over."""

    @staticmethod
    def _batch(keys):
        rows = np.zeros((len(keys), len(fastpath.COLS)))
        rows[:, fastpath.DEV_DONE] = keys
        return rows

    def test_full_flush_keeps_nothing(self):
        buf = fastpath._StageBuffer(fastpath.DEV_DONE)
        batch = self._batch([0.3, 0.1, 0.2])
        out = buf.push_flush(batch, np.inf)
        np.testing.assert_array_equal(out[:, fastpath.DEV_DONE], [0.1, 0.2, 0.3])
        assert buf.rows.shape[0] == 0
        # an empty view would still pin the merged batch through ``.base``
        assert buf.rows.base is None
        assert not np.shares_memory(buf.rows, batch)
        assert not np.shares_memory(buf.rows, out)

    def test_carry_over_is_owned_and_sorted(self):
        buf = fastpath._StageBuffer(fastpath.DEV_DONE)
        batch = self._batch([0.5, 0.1, 0.9, 0.2])
        out = buf.push_flush(batch, 0.4)
        np.testing.assert_array_equal(out[:, fastpath.DEV_DONE], [0.1, 0.2])
        np.testing.assert_array_equal(buf.rows[:, fastpath.DEV_DONE], [0.5, 0.9])
        assert buf.rows.base is None
        assert not np.shares_memory(buf.rows, batch)
        assert not np.shares_memory(buf.rows, out)
        # an empty push drains the carry-over in order
        rest = buf.push_flush(self._batch([]), np.inf)
        np.testing.assert_array_equal(rest[:, fastpath.DEV_DONE], [0.5, 0.9])
        assert buf.rows.shape[0] == 0


def test_record_backed_arrivals_past_one_stream_block(small_cluster, small_tasks, solved):
    """Records carry ``arrival_times`` bit for bit past one stream piece.

    A Poisson stream draws its gaps in 8192-gap pieces and carries the
    running sum across them, so runs with >8192 arrivals per task still see
    the one-shot arrivals — and a streaming run equals the record-backed one.
    """
    busy = [
        dataclasses.replace(t, arrival_rate=t.arrival_rate * 1000)
        for t in small_tasks
    ]
    cfg = SimulationConfig(horizon_s=4.0, warmup_s=0.0, seed=3)
    rep = simulate_plan(busy, solved, small_cluster, cfg)
    for t in busy:
        want = arrival_times(t.arrival_rate, cfg.horizon_s, derive(cfg.seed, "arrivals", t.name))
        got = sorted(r.arrival_s for r in rep.records if r.task_name == t.name)
        np.testing.assert_array_equal(got, want)
    assert max(t.arrival_rate for t in busy) * cfg.horizon_s > 8192
    wcfg = dataclasses.replace(cfg, windows=WindowConfig(window_s=0.5))
    records = simulate_plan(busy, solved, small_cluster, wcfg)
    stream = simulate_plan(
        busy, solved, small_cluster,
        dataclasses.replace(wcfg, streaming=True, chunk_size=5000),
    )
    assert stream.counters == records.counters
    assert stream.windowed.fingerprint() == records.windowed.fingerprint()
    for name, s in stream.per_task.items():
        r = records.per_task[name]
        assert (s.count, s.miss_rate, s.accuracy, s.offload_fraction) == (
            r.count, r.miss_rate, r.accuracy, r.offload_fraction
        )
        assert s.max_latency_s == r.max_latency_s


def test_record_order_key():
    """Completion ties resolve down the scheduling chain, then (task, req_id).

    Offloaded: server finish → uplink delivery → device finish → arrival;
    a local completion keys on its arrival, which outranks none of the
    offloaded rows' earlier server finishes here.
    """
    inf = np.inf
    # task, req_id, offloaded, arrival, dev_done, up_done, srv_done
    spec = np.array([
        (0, 0, 0, 0.50, 0.60, -inf, -inf),  # local: keys on arrival
        (1, 5, 1, 0.10, 0.20, 0.30, 0.40),
        (1, 3, 1, 0.10, 0.15, 0.20, 0.40),  # earlier uplink delivery
        (0, 9, 1, 0.10, 0.20, 0.30, 0.40),  # full tie with row 1: task 0 first
        (1, 7, 1, 0.05, 0.10, 0.30, 0.40),  # earlier device finish
        (1, 2, 1, 0.10, 0.20, 0.30, 0.40),  # full tie with row 1: lower req_id
    ])
    rows = np.zeros((len(spec), len(fastpath.COLS)))
    rows[:, fastpath.COMPLETION] = 1.0
    layout = [
        fastpath.REQ, fastpath.OFF, fastpath.ARR,
        fastpath.DEV_DONE, fastpath.UP_DONE, fastpath.SRV_DONE,
    ]
    rows[:, layout] = spec[:, 1:]
    task = spec[:, 0].astype(np.intp)
    assert fastpath._record_order(rows, task).tolist() == [2, 4, 3, 5, 1, 0]


def _stream_digest(rep) -> str:
    """sha256 over everything the sink's observe order can reach.

    The reservoir sample follows the global accumulation order; per-task and
    per-window Kahan sums follow each task's chunk order.
    """
    h = hashlib.sha256()
    h.update(repr([dataclasses.astuple(r) for r in rep.records]).encode())
    h.update(rep.summary().encode())
    h.update(repr(rep.mean_latency_s).encode())
    for name in sorted(rep.per_task):
        h.update(repr(rep.per_task[name].mean_latency_s).encode())
        h.update(rep.windowed.window_mean_latency_s(name).tobytes())
    h.update(rep.windowed.fingerprint().encode())
    return h.hexdigest()


#: digests recorded before the sweep realized one device group at a time
_INTERLEAVED_DIGESTS = {
    None: "e49f22b702e31b45dc6a7f1b5805f2bb481f7d27cee177b724ecfb9cb2d13ba3",
    7: "83f39bed55700ba59de9e4bba1335cd51d4bb833dfaf69d285b41d9a78f0aef6",
}


@pytest.mark.parametrize("chunk_size", sorted(_INTERLEAVED_DIGESTS, key=str))
def test_interleaved_streaming_observe_order(small_cluster, interleaved, chunk_size):
    """The streaming sink sees completions in the same order as always.

    A reservoir smaller than the completions evicts by accumulation order,
    so any change to the order of ``sink.observe`` calls changes the digest.
    """
    tasks, plan = interleaved
    kw = dict(
        horizon_s=8.0, warmup_s=0.5, seed=19, streaming=True, max_records=24,
        windows=WindowConfig(window_s=1.0),
    )
    if chunk_size is not None:
        kw["chunk_size"] = chunk_size
    rep = simulate_plan(tasks, plan, small_cluster, SimulationConfig(**kw))
    assert len(rep.records) == 24
    assert rep.total_requests > 24
    assert any(r.offloaded for r in rep.records)
    assert _stream_digest(rep) == _INTERLEAVED_DIGESTS[chunk_size]


def test_sweep_spans(interleaved, small_cluster):
    """One ``sim.window`` span per realization window under ``sim.sweep``;
    their ``requests`` add up to the run's, and ``live_streams`` counts the
    most task streams alive at once.  Tracing off records nothing."""
    tasks, plan = interleaved
    cfg = SimulationConfig(horizon_s=6.0, warmup_s=0.5, seed=2, streaming=True, chunk_size=9)
    previous = get_tracer()
    tracer = set_tracer(Tracer(enabled=True))
    try:
        # one window: each stream goes once its task has advanced, so at
        # most dev1's two streams and dev0's parked second task are alive
        simulate_plan(tasks, plan, small_cluster, dataclasses.replace(cfg, chunk_size=10**6))
        (one,) = [s for s in tracer.drain() if s.name == "sim.window"]
        assert one.attrs["live_streams"] == 3
        rep = simulate_plan(tasks, plan, small_cluster, cfg)
        spans = tracer.drain()
        tracer.disable()
        simulate_plan(tasks, plan, small_cluster, cfg)
        assert tracer.drain() == []
    finally:
        set_tracer(previous)
    sweep = [s for s in spans if s.name == "sim.sweep"]
    windows = [s for s in spans if s.name == "sim.window"]
    report = [s for s in spans if s.name == "sim.report"]
    assert len(sweep) == len(report) == 1 and sweep[0].attrs == {"tasks": 4}
    assert report[0].parent_id is None
    rate = sum(t.arrival_rate for t in tasks)
    assert len(windows) == int(np.ceil(cfg.horizon_s / (cfg.chunk_size / rate)))
    assert all(w.parent_id == sweep[0].span_id for w in windows)
    assert sum(w.attrs["requests"] for w in windows) == rep.counters.requests
    # every stream lives from the first window to its last
    assert {w.attrs["live_streams"] for w in windows} == {len(tasks)}
