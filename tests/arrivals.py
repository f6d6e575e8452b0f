"""Evenly spaced arrivals for engine tie-break tests.

The simulator realizes Poisson arrivals only, and independent Poisson
streams never share an instant.  The engines still order simultaneous
events — the sweep replays the event loop's (arrival time, task order)
tie-break — so the tests that pin that order swap in this stream, under
which tasks at one rate share every arrival instant.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.sim import execution

#: the arrival processes engine tests run under
ARRIVALS = ("poisson", "deterministic")


class EvenStream:
    """Arrival ``k`` at ``k / rate`` (``k >= 1``) before the horizon, read
    window by window like :class:`~repro.sim.sources.PoissonStream`."""

    def __init__(self, rate: float, horizon_s: float, seed=None) -> None:
        del seed
        times = np.arange(1, int(horizon_s * rate) + 2) / rate
        self._times = times[times < horizon_s]
        self._next = 0
        self.horizon_s = horizon_s

    def take_until(self, t_end: float) -> np.ndarray:
        end = int(np.searchsorted(self._times, min(t_end, self.horizon_s), side="left"))
        out, self._next = self._times[self._next:end], max(self._next, end)
        return out


@contextlib.contextmanager
def arrival_process(kind: str):
    """Run the simulator under ``kind`` arrivals, one of :data:`ARRIVALS`."""
    if kind not in ARRIVALS:
        raise ValueError(f"unknown arrival process {kind!r}")
    with pytest.MonkeyPatch.context() as mp:
        if kind == "deterministic":
            mp.setattr(execution, "arrival_stream", EvenStream)
        yield
