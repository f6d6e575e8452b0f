"""Latency regression: fit ``latency = a * flops + b`` per efficiency class.

Systems that cannot profile every candidate configuration fit linear
per-class latency models from a sample of layers (this is how Neurosurgeon
extrapolates to unseen layer shapes).  The fit is ordinary least squares with
a non-negativity clamp — a negative intercept would predict negative
latencies for small layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.errors import ProfileError
from repro.profiling.tables import ProfileTable


@dataclass(frozen=True)
class LatencyRegression:
    """Per-class linear latency predictors ``a * flops + b``.

    ``rel_std`` carries one relative service-time spread per class
    (``sqrt(Σ var) / Σ mean`` over the class's rows, 0.0 for deterministic
    profiles), so variance extrapolates alongside the mean: a layer's std is
    its predicted mean times the class's measured coefficient of variation.
    """

    coefficients: Dict[str, Tuple[float, float]]  # class -> (a, b)
    r2: Dict[str, float]
    rel_std: Dict[str, float] = field(default_factory=dict)

    def predict(self, layer_class: str, flops: float) -> float:
        if layer_class not in self.coefficients:
            raise ProfileError(f"no regression for layer class {layer_class!r}")
        a, b = self.coefficients[layer_class]
        return max(0.0, a * flops + b)


def fit_latency_regression(table: ProfileTable) -> LatencyRegression:
    """Fit one (slope, intercept) pair per efficiency class in ``table``.

    Classes with a single sample get a zero-intercept slope fit; classes with
    zero total FLOPs are skipped.
    """
    groups: Dict[str, list] = {}
    for r in table.rows:
        if r.flops > 0:
            groups.setdefault(r.layer_class, []).append(
                (r.flops, r.latency_s, r.latency_var_s2)
            )
    if not groups:
        raise ProfileError(f"profile {table.model_name} has no nonzero-FLOPs rows")
    coeffs: Dict[str, Tuple[float, float]] = {}
    r2: Dict[str, float] = {}
    rel_std: Dict[str, float] = {}
    for cls, pts in groups.items():
        x = np.array([p[0] for p in pts], dtype=float)
        y = np.array([p[1] for p in pts], dtype=float)
        v = np.array([p[2] for p in pts], dtype=float)
        y_total = float(y.sum())
        rel_std[cls] = float(np.sqrt(v.sum()) / y_total) if y_total > 0 else 0.0
        if x.size == 1 or np.allclose(x, x[0]):
            a = float(y.mean() / x.mean())
            b = 0.0
        else:
            A = np.stack([x, np.ones_like(x)], axis=1)
            sol, *_ = np.linalg.lstsq(A, y, rcond=None)
            a, b = float(sol[0]), float(max(sol[1], 0.0))
        pred = a * x + b
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        coeffs[cls] = (a, b)
        r2[cls] = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return LatencyRegression(coefficients=coeffs, r2=r2, rel_std=rel_std)
