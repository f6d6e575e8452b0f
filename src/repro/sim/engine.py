"""Minimal deterministic discrete-event engine.

A binary-heap event loop with a monotonically increasing sequence number as
tie-breaker, so simultaneous events fire in scheduling order and runs are
bit-for-bit reproducible.  Events are plain callbacks; entities close over
whatever state they need.

For observability, an optional :attr:`Simulator.on_event` hook fires after
every processed event with ``(now, pending)`` — the telemetry layer uses it
to sample gauges on event boundaries.  It is ``None`` by default and the
loop pays a single identity check per event when unset.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError

_heappush = heapq.heappush
_heappop = heapq.heappop

EventFn = Callable[[], None]

#: Post-event observer signature: ``(simulation_now_s, pending_events)``.
EventObserver = Callable[[float, int], None]


class Simulator:
    """Event loop: ``schedule`` callbacks, then ``run``."""

    def __init__(self, on_event: Optional[EventObserver] = None) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: List[Tuple[float, int, EventFn]] = []
        self._processed = 0
        self.on_event = on_event

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._processed

    @property
    def pending(self) -> int:
        return len(self._heap)

    def schedule(self, delay: float, fn: EventFn) -> None:
        """Schedule ``fn`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6g}s in the past")
        self.schedule_at(self._now + delay, fn)

    def schedule_at(self, time: float, fn: EventFn) -> None:
        """Schedule ``fn`` at absolute simulation time ``time``."""
        if time < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule at t={time:.6g} before now={self._now:.6g}"
            )
        _heappush(self._heap, (max(time, self._now), self._seq, fn))
        self._seq += 1

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Process events in time order.

        Stops when the heap empties, when the next event is after ``until``
        (clock advances to ``until``), or when ``max_events`` is exceeded
        (raises — a runaway model is a bug, not a result).

        The loop is split on whether an :attr:`on_event` observer is
        installed, hoisting that check (and the heap-op attribute lookups)
        out of the per-event path; installing or removing the observer
        mid-run (no caller does) would take effect on the next ``run``.
        """
        heap = self._heap
        pop = _heappop
        observer = self.on_event
        processed = self._processed
        try:
            if observer is None:
                while heap:
                    t, _, fn = heap[0]
                    if until is not None and t > until:
                        self._now = until
                        return self._now
                    pop(heap)
                    self._now = t
                    fn()
                    processed += 1
                    if processed > max_events:
                        raise SimulationError(
                            f"exceeded {max_events} events; runaway model?"
                        )
            else:
                while heap:
                    t, _, fn = heap[0]
                    if until is not None and t > until:
                        self._now = until
                        return self._now
                    pop(heap)
                    self._now = t
                    fn()
                    processed += 1
                    observer(self._now, len(heap))
                    if processed > max_events:
                        raise SimulationError(
                            f"exceeded {max_events} events; runaway model?"
                        )
        finally:
            self._processed = processed
        if until is not None:
            self._now = max(self._now, until)
        return self._now
