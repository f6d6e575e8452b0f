"""Offline profiling: per-layer latency tables and latency regression.

Neurosurgeon-class systems are driven by offline per-layer profiles measured
on each device.  Here the "measurement" is the analytic per-layer predictor
(:func:`repro.profiling.profiler.layer_time`), optionally with
multiplicative measurement noise so regression-fitting code paths are
exercised realistically.
"""

from repro.profiling.counters import PerfCounters
from repro.profiling.profiler import profile_model
from repro.profiling.regression import LatencyRegression, fit_latency_regression
from repro.profiling.tables import LayerProfile, ProfileTable

__all__ = [
    "LatencyRegression",
    "LayerProfile",
    "PerfCounters",
    "ProfileTable",
    "fit_latency_regression",
    "profile_model",
]
