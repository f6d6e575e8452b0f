"""Environment drift detection: which shards need a re-solve?

ROADMAP's "shard-level incremental re-solve" needs a trigger: a cheap, online
signal that some shard's environment (arrival rates, service times) has moved
away from what its plan was solved against.  This module provides it as a
**seeded, deterministic windowed mean-shift test**: per monitored stream it
compares the mean of the most recent ``window`` samples against the mean of
the ``window`` samples before them.

The test is a seeded permutation test: the observed mean shift is compared
against the shift distribution under random relabelings of the pooled
two-window sample.  The RNG is derived per ``(seed, key, sample_count)`` via
:func:`repro.rng.derive`, so verdicts depend only on the data and the seed —
never on update interleaving across streams.  A relative floor
(``min_rel_shift``) keeps ulp-level wobble around a stable mean from ever
alarming.  :class:`ShardDriftMonitor` lifts stream verdicts to shard
granularity through the control plane's task→shard homing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.rng import derive


@dataclass(frozen=True)
class DriftConfig:
    """Windowed mean-shift test parameters."""

    #: samples per comparison window (reference + recent = 2·window history)
    window: int = 8
    #: permutation relabelings per test
    permutations: int = 128
    #: permutation-test significance level
    alpha: float = 0.01
    #: ignore shifts smaller than this fraction of the reference mean
    min_rel_shift: float = 0.1

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ConfigError(f"drift window must be >= 2, got {self.window}")
        if self.permutations < 1:
            raise ConfigError("permutations must be >= 1")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.min_rel_shift < 0:
            raise ConfigError("min_rel_shift must be >= 0")


class DriftDetector:
    """Online mean-shift detector over named sample streams.

    Feed scalar observations with :meth:`update`; a stream's verdict firms up
    once it has ``2·window`` samples and refreshes with every new one.
    """

    def __init__(
        self, config: Optional[DriftConfig] = None, seed: int = 0
    ) -> None:
        self.config = config or DriftConfig()
        self.seed = seed
        self._history: Dict[str, Deque[float]] = {}
        self._seen: Dict[str, int] = {}
        self._flagged: Dict[str, bool] = {}
        self._score: Dict[str, float] = {}

    def update(self, key: str, value: float) -> bool:
        """Fold one sample into stream ``key``; returns its current verdict."""
        cfg = self.config
        hist = self._history.get(key)
        if hist is None:
            hist = self._history[key] = deque(maxlen=2 * cfg.window)
            self._seen[key] = 0
            self._flagged[key] = False
            self._score[key] = 0.0
        hist.append(float(value))
        self._seen[key] += 1
        if len(hist) < 2 * cfg.window:
            return False
        data = np.asarray(hist, dtype=np.float64)
        ref, recent = data[: cfg.window], data[cfg.window:]
        mu_ref = float(ref.mean())
        shift = abs(float(recent.mean()) - mu_ref)
        floor = cfg.min_rel_shift * abs(mu_ref)
        if shift <= floor:
            self._flagged[key] = False
            self._score[key] = 0.0
            return False
        # seeded per-(key, sample-count) stream: verdicts are independent
        # of how updates across keys interleave
        rng = derive(self.seed, "drift", key, self._seen[key])
        m = cfg.window
        exceed = 0
        for _ in range(cfg.permutations):
            perm = rng.permutation(data)
            d = abs(float(perm[m:].mean()) - float(perm[:m].mean()))
            if d >= shift:
                exceed += 1
        p = (exceed + 1) / (cfg.permutations + 1)
        score = 1.0 - p
        drifted = p < cfg.alpha
        self._flagged[key] = drifted
        self._score[key] = score
        return drifted

    def score(self, key: str) -> float:
        """Latest drift score: 1 − p of the stream's last permutation test."""
        return self._score.get(key, 0.0)

    def drifted(self) -> Tuple[str, ...]:
        """Streams currently flagged, sorted for determinism."""
        return tuple(sorted(k for k, v in self._flagged.items() if v))

    def reset(self, key: Optional[str] = None) -> None:
        """Forget history (after a re-solve): one stream, or all of them."""
        keys = [key] if key is not None else list(self._history)
        for k in keys:
            self._history.pop(k, None)
            self._seen.pop(k, None)
            self._flagged.pop(k, None)
            self._score.pop(k, None)


class ShardDriftMonitor:
    """Lift per-task drift verdicts to control-plane shard granularity.

    ``task_shard`` maps task name → home shard index (from
    :attr:`repro.core.sharding.ShardPlan.task_shard` and the solve's task
    order).  Each task contributes two streams — arrival rate and mean
    service time — and a shard is flagged while any of its tasks' streams
    are.
    """

    def __init__(
        self,
        task_shard: Mapping[str, int],
        config: Optional[DriftConfig] = None,
        seed: int = 0,
    ) -> None:
        if not task_shard:
            raise ConfigError("shard drift monitor needs a task->shard mapping")
        self.task_shard = dict(task_shard)
        self.detector = DriftDetector(config, seed=seed)

    def observe(
        self,
        task: str,
        arrival_rate: Optional[float] = None,
        service_time_s: Optional[float] = None,
    ) -> None:
        """Fold one environment sample for ``task`` (unknown tasks ignored)."""
        if task not in self.task_shard:
            return
        if arrival_rate is not None:
            self.detector.update(f"{task}/rate", arrival_rate)
        if service_time_s is not None:
            self.detector.update(f"{task}/service", service_time_s)

    def drifted_shards(self) -> Tuple[int, ...]:
        """Shards holding at least one drifted task stream, sorted."""
        shards = {
            self.task_shard[key.rsplit("/", 1)[0]]
            for key in self.detector.drifted()
        }
        return tuple(sorted(shards))

    def reset_shard(self, shard: int) -> None:
        """Forget history of every stream homed on ``shard`` (post re-solve)."""
        for task, s in self.task_shard.items():
            if s == shard:
                self.detector.reset(f"{task}/rate")
                self.detector.reset(f"{task}/service")
