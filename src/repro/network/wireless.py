"""Time-varying wireless bandwidth models.

Real deployments (the "in the wild" part of this paper family) see link
capacity fluctuate; the dynamic-environment experiment (E11) drives the
simulator with these traces and measures how much re-optimization recovers.

Two standard generators:

- :class:`GaussMarkovBandwidth` — an AR(1) (Ornstein-Uhlenbeck-like) process
  reverting to a mean rate; models slow fading / congestion drift.
- :class:`MarkovBandwidth` — a continuous-time Markov chain over discrete
  quality states (e.g. good/degraded/bad Wi-Fi), producing piecewise-constant
  traces with abrupt drops.

Both emit a :class:`BandwidthTrace`: a step function ``bandwidth(t)`` that is
cheap to query from the simulator's event loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.rng import SeedLike, as_generator


@dataclass(frozen=True)
class BandwidthTrace:
    """Piecewise-constant bandwidth over time.

    ``times[i]`` is the start of segment i (``times[0]`` must be 0); the
    bandwidth in effect for ``t in [times[i], times[i+1])`` is ``values[i]``,
    and ``values[-1]`` holds forever after the last breakpoint.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size == 0:
            raise ConfigError("trace times/values must be equal-length 1-D arrays")
        if t[0] != 0.0:
            raise ConfigError(f"trace must start at t=0, got {t[0]}")
        if np.any(np.diff(t) <= 0):
            raise ConfigError("trace times must be strictly increasing")
        if np.any(v <= 0):
            raise ConfigError("trace bandwidths must be positive")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def bandwidth(self, t: float) -> float:
        """Bandwidth (bytes/s) in effect at time ``t`` (>= 0)."""
        if t < 0:
            raise ConfigError(f"negative time {t}")
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return float(self.values[idx])

    def mean(self) -> float:
        """Time-average bandwidth over the trace's covered span."""
        if self.times.size == 1:
            return float(self.values[0])
        durations = np.diff(self.times)
        return float(np.dot(self.values[:-1], durations) / durations.sum())


@dataclass(frozen=True)
class GaussMarkovBandwidth:
    """AR(1) bandwidth process sampled on a fixed step grid.

    ``b[k+1] = mean + memory * (b[k] - mean) + sigma * sqrt(1-memory^2) * N(0,1)``
    clipped to ``[floor, cap]``.  ``memory`` in [0,1): 0 = i.i.d., ->1 = slow drift.
    """

    mean_bps: float
    sigma_bps: float
    memory: float = 0.9
    step_s: float = 1.0
    floor_bps: float = 0.1e6 / 8
    cap_bps: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mean_bps <= 0 or self.sigma_bps < 0:
            raise ConfigError("mean must be positive, sigma non-negative")
        if not (0.0 <= self.memory < 1.0):
            raise ConfigError(f"memory must be in [0,1), got {self.memory}")
        if self.step_s <= 0:
            raise ConfigError("step must be positive")
        if self.floor_bps <= 0:
            raise ConfigError("floor must be positive")

    def generate(self, horizon_s: float, seed: SeedLike = None) -> BandwidthTrace:
        """Sample a trace covering ``[0, horizon_s]``."""
        if horizon_s <= 0:
            raise ConfigError("horizon must be positive")
        rng = as_generator(seed)
        n = int(np.ceil(horizon_s / self.step_s)) + 1
        noise = rng.standard_normal(n) * self.sigma_bps * np.sqrt(
            1.0 - self.memory**2
        )
        vals = np.empty(n)
        vals[0] = self.mean_bps
        for k in range(1, n):
            vals[k] = self.mean_bps + self.memory * (vals[k - 1] - self.mean_bps) + noise[k]
        cap = self.cap_bps if self.cap_bps is not None else np.inf
        vals = np.clip(vals, self.floor_bps, cap)
        times = np.arange(n) * self.step_s
        return BandwidthTrace(times=times, values=vals)


@dataclass(frozen=True)
class MarkovBandwidth:
    """Continuous-time Markov chain over discrete link-quality states."""

    state_bps: Sequence[float] = (50e6 / 8, 10e6 / 8, 1e6 / 8)
    mean_holding_s: Sequence[float] = (20.0, 8.0, 3.0)

    def __post_init__(self) -> None:
        if len(self.state_bps) != len(self.mean_holding_s) or not self.state_bps:
            raise ConfigError("state_bps and mean_holding_s must be equal-length, non-empty")
        if any(b <= 0 for b in self.state_bps) or any(h <= 0 for h in self.mean_holding_s):
            raise ConfigError("states and holding times must be positive")

    def generate(self, horizon_s: float, seed: SeedLike = None) -> BandwidthTrace:
        """Sample a piecewise-constant trace: uniform next-state, exp holding."""
        if horizon_s <= 0:
            raise ConfigError("horizon must be positive")
        rng = as_generator(seed)
        n_states = len(self.state_bps)
        times = [0.0]
        state = int(rng.integers(n_states))
        values = [float(self.state_bps[state])]
        t = 0.0
        while t < horizon_s:
            t += float(rng.exponential(self.mean_holding_s[state]))
            if t >= horizon_s:
                break
            if n_states > 1:
                nxt = int(rng.integers(n_states - 1))
                state = nxt if nxt < state else nxt + 1
            times.append(t)
            values.append(float(self.state_bps[state]))
        return BandwidthTrace(times=np.array(times), values=np.array(values))
