"""Windowed SLO metrics across simulation engines: identity + error surface.

Contracts under test (see DESIGN.md §9):

- ``SimulationConfig(windows=...)`` works on *every* engine — event loop,
  record-backed and streaming fast path, sharded cell fan-out — with
  **bit-identical** windowed integer state and SLO reports on a fixed seed;
- merged reports refuse to mix windowed and window-free members (all-or-none);
- the streaming error surface is precise: per-request timelines stay
  unsupported with a message that points at the windowed alternative, while
  ``windows=`` runs are accepted.
"""

import pytest

from repro.core.joint import JointOptimizer
from repro.errors import ConfigError, SimulationError
from repro.sim import SimulationConfig, merge_reports, run_cells
from repro.sim.runner import simulate_plan
from repro.telemetry.timeline import TimelineRecorder
from repro.telemetry.slo import SLOPolicy, SLOTarget, evaluate_slos
from repro.telemetry.windows import WindowConfig

WINDOWS = WindowConfig(window_s=0.5)


@pytest.fixture(scope="module")
def solved(small_cluster, small_tasks, small_candidates):
    return JointOptimizer(small_cluster).solve(
        small_tasks, candidates=small_candidates, seed=0
    ).plan


def _cfg(**overrides) -> SimulationConfig:
    kw = dict(horizon_s=8.0, warmup_s=1.0, seed=11, windows=WINDOWS)
    kw.update(overrides)
    return SimulationConfig(**kw)


def _slo(report):
    return evaluate_slos(
        report.windowed, SLOPolicy(targets=(SLOTarget(target=0.9),))
    )


class TestCrossEngineIdentity:
    """One workload, three engines, one windowed fingerprint."""

    def test_event_loop_fast_path_streaming_identical(
        self, small_cluster, small_tasks, solved
    ):
        fast = simulate_plan(small_tasks, solved, small_cluster, _cfg())
        event = simulate_plan(
            small_tasks, solved, small_cluster, _cfg(fast_path=False)
        )
        stream = simulate_plan(
            small_tasks, solved, small_cluster,
            _cfg(streaming=True, chunk_size=64),
        )
        fp = fast.windowed.fingerprint()
        assert event.windowed.fingerprint() == fp
        assert stream.windowed.fingerprint() == fp
        # ... and the derived SLO reports are bit-identical too
        slo_fp = _slo(fast).fingerprint()
        assert _slo(event).fingerprint() == slo_fp
        assert _slo(stream).fingerprint() == slo_fp

    def test_chunk_size_invariant(self, small_cluster, small_tasks, solved):
        fps = {
            simulate_plan(
                small_tasks, solved, small_cluster,
                _cfg(streaming=True, chunk_size=cs),
            ).windowed.fingerprint()
            for cs in (7, 64, 10**9)
        }
        assert len(fps) == 1

    def test_single_cell_reproduces_plain_streaming(
        self, small_cluster, small_tasks, solved
    ):
        plain = simulate_plan(
            small_tasks, solved, small_cluster, _cfg(streaming=True)
        )
        celled = run_cells(
            small_tasks, solved, small_cluster, _cfg(streaming=True), cells=1
        )
        assert celled.windowed.fingerprint() == plain.windowed.fingerprint()
        assert _slo(celled).fingerprint() == _slo(plain).fingerprint()

    def test_cell_fan_out_conserves_windowed_totals(
        self, small_cluster, small_tasks, solved
    ):
        merged = run_cells(
            small_tasks, solved, small_cluster, _cfg(streaming=True), cells=3
        )
        assert merged.windowed is not None
        assert merged.windowed.total_count == merged.counters.records

    def test_windows_off_costs_nothing(self, small_cluster, small_tasks, solved):
        report = simulate_plan(
            small_tasks, solved, small_cluster, _cfg(windows=None)
        )
        assert report.windowed is None


class TestMergeSurface:
    def test_mixed_merge_rejected(self, small_cluster, small_tasks, solved):
        with_w = simulate_plan(
            small_tasks, solved, small_cluster, _cfg(streaming=True)
        )
        without = simulate_plan(
            small_tasks, solved, small_cluster,
            _cfg(streaming=True, windows=None),
        )
        with pytest.raises(SimulationError, match="windowed and window-free"):
            merge_reports([with_w, without])


class TestStreamingErrorSurface:
    """Satellite: the streaming-telemetry restriction is precise, not blanket."""

    def test_per_request_telemetry_error_names_the_alternative(self):
        # the message must say WHY (event-boundary sampling) and point at the
        # supported windowed path, not just refuse
        with pytest.raises(ConfigError, match="windows=WindowConfig"):
            _cfg(streaming=True, telemetry=True)
        with pytest.raises(ConfigError, match="event boundaries"):
            _cfg(streaming=True, telemetry=True)

    def test_explicit_recorder_rejected_with_windowed_hint(
        self, small_cluster, small_tasks, solved
    ):
        with pytest.raises(ConfigError, match="windows=WindowConfig"):
            simulate_plan(
                small_tasks, solved, small_cluster,
                _cfg(streaming=True),
                recorder=TimelineRecorder(),
            )

    def test_windowed_streaming_is_supported(
        self, small_cluster, small_tasks, solved
    ):
        # the supported branch of the restriction: window-granularity metrics
        # on a streaming run construct and populate without complaint
        report = simulate_plan(
            small_tasks, solved, small_cluster, _cfg(streaming=True)
        )
        assert report.windowed is not None
        assert report.windowed.total_count == report.counters.records
