"""Strategy comparison helpers: speedups and crossover detection."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigError


def speedup(baseline_latency: float, optimized_latency: float) -> float:
    """Ratio ``baseline / optimized`` (>1 means the optimized method wins)."""
    if baseline_latency < 0 or optimized_latency <= 0:
        raise ConfigError(
            f"invalid latencies: baseline={baseline_latency}, optimized={optimized_latency}"
        )
    return baseline_latency / optimized_latency


def crossover_point(
    x: Sequence[float], series_a: Sequence[float], series_b: Sequence[float]
) -> Optional[float]:
    """x-value where series A stops/starts beating series B, or None.

    Finds the first sign change of (A - B) along increasing ``x`` and
    linearly interpolates the crossing.  Used to report e.g. the bandwidth at
    which edge execution overtakes local execution (experiment E2).
    """
    xv = np.asarray(x, dtype=float)
    a = np.asarray(series_a, dtype=float)
    b = np.asarray(series_b, dtype=float)
    if not (xv.shape == a.shape == b.shape) or xv.ndim != 1 or xv.size < 2:
        raise ConfigError("crossover_point needs equal-length 1-D series, size >= 2")
    if np.any(np.diff(xv) <= 0):
        raise ConfigError("x must be strictly increasing")
    finite = np.isfinite(a) & np.isfinite(b)
    if finite.sum() < 2:
        return None
    xv, a, b = xv[finite], a[finite], b[finite]
    diff = a - b
    sign = np.sign(diff)
    for i in range(1, sign.size):
        if sign[i] != sign[i - 1] and sign[i - 1] != 0:
            # linear interpolation of the zero crossing
            x0, x1 = xv[i - 1], xv[i]
            d0, d1 = diff[i - 1], diff[i]
            if d1 == d0:
                return float(x0)
            return float(x0 + (x1 - x0) * (-d0) / (d1 - d0))
    return None
