"""Offline profiling: per-layer latency tables and work counters.

Neurosurgeon-class systems are driven by offline per-layer profiles measured
on each device.  Here the "measurement" is the analytic per-layer predictor
(:func:`repro.profiling.profiler.layer_time`), optionally with
multiplicative measurement noise.
"""

from repro.profiling.counters import PerfCounters
from repro.profiling.profiler import profile_model
from repro.profiling.tables import LayerProfile, ProfileTable

__all__ = [
    "LayerProfile",
    "PerfCounters",
    "ProfileTable",
    "profile_model",
]
