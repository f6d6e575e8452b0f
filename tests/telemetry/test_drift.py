"""Drift detection: seeded determinism, test power, shard lifting.

Power note for the permutation test: with ``permutations`` P the
smallest achievable p-value is 1/(P+1), and a perfect two-window split of
2·w distinct samples has exact p ≈ 2/C(2w, w).  At alpha=0.01 that means
``window=4`` can *never* fire (p ≈ 0.029 regardless of P) — the scenarios
below use window ≥ 6 and P ≥ 200 so a real shift is actually detectable.
The two-window test is also *transient*: once the full history sits at the
new level the windows re-agree, so assertions run mid-transition.
"""

import pytest

from repro.errors import ConfigError
from repro.telemetry.drift import DriftConfig, DriftDetector, ShardDriftMonitor


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(window=1),
            dict(permutations=0),
            dict(alpha=0.0),
            dict(alpha=1.0),
            dict(min_rel_shift=-0.1),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            DriftConfig(**kwargs)


class TestPermutation:
    CFG = DriftConfig(window=6, permutations=400, alpha=0.01, min_rel_shift=0.1)

    @staticmethod
    def _drive(det, key, scale=1.0):
        base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0]
        verdicts = []
        for v in base * 2 + [25.0, 24.8, 25.2, 25.1, 24.9, 25.0]:
            verdicts.append(det.update(key, v * scale))
        return verdicts

    def test_detects_shift_and_is_seed_deterministic(self):
        a = self._drive(DriftDetector(self.CFG, seed=42), "s")
        b = self._drive(DriftDetector(self.CFG, seed=42), "s")
        assert a == b
        assert any(a)  # the 2.5x shift fires at some point in the transition

    def test_detects_level_shift_mid_transition(self):
        det = DriftDetector(self.CFG, seed=0)
        # noisy-but-stable fill, then a 2.5x jump
        base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0]
        for v in base * 2:
            det.update("s", v)
        assert not "s" in det.drifted()
        fired = False
        for v in [25.0, 24.8, 25.2, 25.1, 24.9, 25.0]:
            fired = det.update("s", v) or fired
            if fired:
                break
        assert fired and "s" in det.drifted()
        assert det.score("s") > 1.0 - self.CFG.alpha
        assert det.drifted() == ("s",)

    def test_verdicts_independent_of_stream_interleaving(self):
        # the RNG is derived per (seed, key, sample-count): feeding a second
        # stream in between must not change the first stream's verdicts
        solo = DriftDetector(self.CFG, seed=7)
        solo_verdicts = self._drive(solo, "a")
        mixed = DriftDetector(self.CFG, seed=7)
        base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0]
        seq = base * 2 + [25.0, 24.8, 25.2, 25.1, 24.9, 25.0]
        mixed_verdicts = []
        for v in seq:
            mixed.update("b", 3.0)  # interleaved unrelated stream
            mixed_verdicts.append(mixed.update("a", v))
        assert mixed_verdicts == solo_verdicts

    def test_underpowered_window_cannot_fire(self):
        # window=4 → exact p floor ≈ 2/C(8,4) ≈ 0.029 > alpha=0.01: even an
        # arbitrarily large shift must not alarm.  Guards against silently
        # shipping configs that look strict but are structurally deaf.
        cfg = DriftConfig(window=4, permutations=2000, alpha=0.01)
        det = DriftDetector(cfg, seed=0)
        for v in [10.0, 10.2, 9.8, 10.1] * 2 + [1000.0, 999.0, 1001.0, 1000.5]:
            det.update("s", v)
        assert not "s" in det.drifted()

    def test_permutations_bound_the_smallest_p_value(self):
        # P relabelings give p >= 1/(P+1): at P=50 that floor (~0.02) sits
        # above alpha, so the shift that fires at P=400 cannot fire
        coarse = DriftDetector(DriftConfig(window=6, permutations=50, alpha=0.01), seed=42)
        assert any(self._drive(DriftDetector(self.CFG, seed=42), "s"))
        assert not any(self._drive(coarse, "s"))

    def test_rel_floor_suppresses_wobble(self):
        # shifts below min_rel_shift of the reference mean never alarm, even
        # against a constant reference that any relabeling would separate
        det = DriftDetector(self.CFG, seed=0)
        for _ in range(2 * self.CFG.window):
            det.update("s", 100.0)
        for _ in range(self.CFG.window):
            det.update("s", 100.5)  # 0.5% shift, floor is 10%
        assert not "s" in det.drifted()
        assert det.score("s") == 0.0

    def test_reset_forgets(self):
        det = DriftDetector(self.CFG, seed=0)
        for v in [10.0] * 12 + [25.0] * 6:
            det.update("s", v)
        assert "s" in det.drifted()
        det.reset("s")
        assert not "s" in det.drifted() and det.drifted() == ()


class TestShardMonitor:
    CFG = DriftConfig(window=6, permutations=400, alpha=0.01)

    def test_needs_mapping(self):
        with pytest.raises(ConfigError, match="task->shard"):
            ShardDriftMonitor({}, self.CFG)

    def test_flags_only_perturbed_shard(self):
        # two shards, two tasks each; perturb only shard 1's arrival rates
        # 2.5x and assert mid-transition that shard 1 — and only shard 1 —
        # is flagged.  This is the seeded scenario from the acceptance
        # criteria.
        mapping = {"t0": 0, "t1": 0, "t2": 1, "t3": 1}
        mon = ShardDriftMonitor(mapping, self.CFG, seed=3)
        base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0]
        for v in base * 2:
            for task in mapping:
                mon.observe(task, arrival_rate=v, service_time_s=0.02)
        assert mon.drifted_shards() == ()
        for v in [25.0, 24.8, 25.2, 25.1, 24.9, 25.0]:
            for task in mapping:
                rate = v if mapping[task] == 1 else v / 2.5
                mon.observe(task, arrival_rate=rate, service_time_s=0.02)
            if mon.drifted_shards():
                break
        assert mon.drifted_shards() == (1,)
        assert all(s.startswith(("t2/", "t3/")) for s in mon.detector.drifted())
        mon.reset_shard(1)
        assert mon.drifted_shards() == ()

    def test_unknown_task_ignored(self):
        mon = ShardDriftMonitor({"t0": 0}, self.CFG)
        for v in [1.0] * 12 + [99.0] * 6:
            mon.observe("ghost", arrival_rate=v)
        assert mon.detector.drifted() == ()
