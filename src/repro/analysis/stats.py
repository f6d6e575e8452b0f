"""Statistical utilities for experiment reporting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ConfigError
from repro.rng import SeedLike, as_generator


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    n: int
    mean: float
    std: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float


def summarize(samples: np.ndarray) -> Summary:
    """Summary statistics of a 1-D sample."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ConfigError("summarize needs a non-empty 1-D sample")
    return Summary(
        n=int(x.size),
        mean=float(x.mean()),
        std=float(x.std(ddof=1)) if x.size > 1 else 0.0,
        p50=float(np.percentile(x, 50)),
        p95=float(np.percentile(x, 95)),
        p99=float(np.percentile(x, 99)),
        minimum=float(x.min()),
        maximum=float(x.max()),
    )


def mean_ci(samples: np.ndarray, confidence: float = 0.95) -> Tuple[float, float, float]:
    """(mean, lo, hi) Student-t confidence interval for the mean."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ConfigError("mean_ci needs a non-empty 1-D sample")
    if not (0.0 < confidence < 1.0):
        raise ConfigError(f"confidence must be in (0,1), got {confidence}")
    m = float(x.mean())
    if x.size == 1:
        return m, m, m
    from scipy.special import stdtrit

    se = float(x.std(ddof=1) / np.sqrt(x.size))
    # stdtrit(df, q) is Student's t quantile, the kernel of scipy.stats.t.ppf.
    half = float(stdtrit(x.size - 1, 0.5 + confidence / 2.0)) * se
    return m, m - half, m + half


def jain_index(values: np.ndarray) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)`` in (0, 1].

    1 = perfectly equal; 1/n = one value dominates.  Used on per-task
    latencies (after normalizing by deadline where appropriate) to score how
    evenly an allocation treats tasks — ablation A5.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ConfigError("jain_index needs a non-empty 1-D sample")
    if np.any(x < 0):
        raise ConfigError("jain_index needs non-negative values")
    denom = x.size * float(np.sum(x * x))
    if denom == 0:
        return 1.0
    return float(np.sum(x) ** 2 / denom)


def bootstrap_ci(
    samples: np.ndarray,
    statistic=np.mean,
    confidence: float = 0.95,
    n_boot: int = 2000,
    seed: SeedLike = None,
) -> Tuple[float, float, float]:
    """(point, lo, hi) percentile-bootstrap interval for any statistic."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ConfigError("bootstrap_ci needs a non-empty 1-D sample")
    if not (0.0 < confidence < 1.0):
        raise ConfigError(f"confidence must be in (0,1), got {confidence}")
    rng = as_generator(seed)
    idx = rng.integers(0, x.size, size=(n_boot, x.size))
    boots = np.apply_along_axis(statistic, 1, x[idx])
    alpha = (1.0 - confidence) / 2.0
    return (
        float(statistic(x)),
        float(np.percentile(boots, 100 * alpha)),
        float(np.percentile(boots, 100 * (1 - alpha))),
    )
