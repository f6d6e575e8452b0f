"""Model × device profiler.

The "measurement" of a layer is its FLOPs over the device's achieved rate on
that layer's efficiency class — no invocation overhead, which is paid per
model segment, not per layer.
"""

from __future__ import annotations

import math

import numpy as np

from repro.devices.device import DeviceSpec
from repro.errors import ProfileError
from repro.models.graph import ModelGraph
from repro.models.layers import Conv2D, Dense, DepthwiseConv2D, Layer
from repro.profiling.tables import LayerProfile, ProfileTable
from repro.rng import SeedLike, as_generator

#: Compute-bound layer types -> efficiency class; every other layer
#: (activations, norms, pooling, merges, reshapes) is memory-bound.
_LAYER_CLASS = {Conv2D: "conv", DepthwiseConv2D: "depthwise", Dense: "dense"}


def layer_class_of(layer: Layer) -> str:
    """Efficiency class for a layer instance."""
    for typ, cls in _LAYER_CLASS.items():
        if isinstance(layer, typ):
            return cls
    return "memory"


def layer_time(layer: Layer, flops: float, device: DeviceSpec) -> float:
    """Seconds for one layer at its class-specific efficiency on ``device``."""
    if flops <= 0:
        return 0.0
    return flops / device.effective_flops(layer_class_of(layer))


def profile_model(
    model: ModelGraph,
    device: DeviceSpec,
    noise: float = 0.0,
    seed: SeedLike = None,
    repeats: int = 1,
) -> ProfileTable:
    """Produce the per-layer latency table of ``model`` on ``device``.

    ``noise`` adds multiplicative log-normal measurement jitter (sigma as a
    fraction, e.g. 0.05 for ~5%) — profiles on real hardware are never exact,
    and the risk buffer (:func:`repro.core.risk.profile_service_noise`)
    reads that spread back.

    Each row also carries the service-time variance ``latency_var_s2``.
    With ``repeats=1`` (the default single measurement, draws unchanged from
    earlier releases) the variance is the analytic one of the log-normal
    jitter model, ``t²·e^{σ²}·(e^{σ²} − 1)``; with ``repeats > 1`` the
    profiler takes that many independent noisy measurements per layer and
    reports their mean and unbiased sample variance — the
    repeated-measurement path a real-hardware harness would use.  Noise-free
    profiles have zero variance either way.
    """
    if repeats < 1:
        raise ProfileError(f"repeats must be >= 1, got {repeats}")
    rng = as_generator(seed) if noise > 0 else None
    rows = []
    for name in model.topological_order:
        layer = model.layer(name)
        flops = model.flops_of(name)
        t = layer_time(layer, flops, device)
        var = 0.0
        if rng is not None and t > 0:
            if repeats > 1:
                samples = t * rng.lognormal(mean=0.0, sigma=noise, size=repeats)
                var = float(np.var(samples, ddof=1))
                t = float(samples.mean())
            else:
                # one draw cannot estimate spread; report the model's analytic
                # variance around the nominal time instead
                e = math.exp(noise**2)
                var = t * t * e * (e - 1.0)
                t *= float(rng.lognormal(mean=0.0, sigma=noise))
        rows.append(
            LayerProfile(
                layer_name=name,
                layer_type=type(layer).__name__,
                layer_class=layer_class_of(layer),
                flops=flops,
                output_bytes=model.output_bytes_of(name),
                latency_s=t,
                latency_var_s2=var,
            )
        )
    return ProfileTable(model_name=model.name, device_name=device.name, rows=rows)
