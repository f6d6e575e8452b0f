"""Minimal deterministic discrete-event engine.

A binary-heap event loop with a monotonically increasing sequence number as
tie-breaker, so simultaneous events fire in scheduling order and runs are
bit-for-bit reproducible.  Events are plain callbacks; entities close over
whatever state they need.

Exogenous arrivals need not sit in the heap: :meth:`Simulator.feed` hands
the loop a column of arrival times, sorted ascending, and a ``fire(index)``
callback, and :meth:`Simulator.run` merges that column with the heap.  A fed
arrival ranks ahead of every heap event at the same instant, and fed
arrivals at one instant fire in column order, so a fed run fires exactly
what a run that scheduled every arrival first, in column order, would; the
loop then holds only the arrivals' times, not one heap entry (and callback)
per arrival.

For observability, an optional :attr:`Simulator.on_event` hook fires after
every processed event, fed arrivals included, with ``(now, pending)``, where
``pending`` counts the heap's events plus the fed arrivals not yet fired —
the telemetry layer uses it to sample gauges on event boundaries.  It is
``None`` by default and the loop pays a single identity check per event
when unset.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError

_heappush = heapq.heappush
_heappop = heapq.heappop

EventFn = Callable[[], None]

#: Fed-arrival callback: receives the arrival's index in the fed column.
ArrivalFn = Callable[[int], None]

#: Post-event observer signature: ``(simulation_now_s, pending_events)``.
EventObserver = Callable[[float, int], None]

_NO_ARRIVALS = np.empty(0)


class Simulator:
    """Event loop: ``schedule`` callbacks (and ``feed`` arrivals), then ``run``."""

    def __init__(self, on_event: Optional[EventObserver] = None) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: List[Tuple[float, int, EventFn]] = []
        self._processed = 0
        self._arrivals: np.ndarray = _NO_ARRIVALS
        self._fire: Optional[ArrivalFn] = None
        self._fired = 0
        self.on_event = on_event

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Events fired so far, fed arrivals included."""
        return self._processed

    @property
    def pending(self) -> int:
        """Heap events plus fed arrivals not yet fired."""
        return len(self._heap) + self._arrivals.size - self._fired

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

    def feed(self, times: Sequence[float], fire: ArrivalFn) -> None:
        """Fire ``fire(c)`` at ``times[c]`` for every ``c``, during :meth:`run`.

        ``times`` must be ascending and not before :attr:`now`.  Arrival
        ``c`` fires before the heap's earliest event iff ``times[c]`` is not
        later than it, so ties go to the feed and the run equals one that
        had scheduled every arrival, in index order, ahead of the heap's
        events.  One feed at a time: a new feed needs the last one drained.
        """
        if self._fired < self._arrivals.size:
            raise SimulationError("the previous arrival feed has not drained")
        arr = np.array(times, dtype=float)
        if arr.ndim != 1:
            raise SimulationError("arrival times must be one column")
        if arr.size and not (arr[0] >= self._now and np.all(arr[1:] >= arr[:-1])):
            raise SimulationError(
                f"arrival times must be ascending from now={self._now:.6g}"
            )
        self._arrivals, self._fire, self._fired = arr, fire, 0

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Process events and fed arrivals in time order.

        Stops when the heap and the feed are empty, when the next event is
        after ``until`` (clock advances to ``until``), or when
        ``max_events`` is exceeded (raises — a runaway model is a bug, not
        a result).

        The observer, the feed and the heap-op lookups are read once per
        ``run``, so installing or removing the observer mid-run (no caller
        does) would take effect on the next ``run``.  A drained feed is
        dropped, releasing whatever its ``fire`` holds.
        """
        heap = self._heap
        pop = _heappop
        observer = self.on_event
        arrivals, fire = self._arrivals, self._fire
        n = arrivals.size
        c = self._fired
        # next arrival's time as a Python float, so ``now`` stays one
        nxt = arrivals.item(c) if c < n else 0.0
        processed = self._processed
        try:
            while True:
                if heap and (c == n or heap[0][0] < nxt):
                    t, _, fn = heap[0]
                    if until is not None and t > until:
                        self._now = until
                        return self._now
                    pop(heap)
                    self._now = t
                    fn()
                elif c < n:
                    if until is not None and nxt > until:
                        self._now = until
                        return self._now
                    self._now = nxt
                    c += 1
                    self._fired = c
                    nxt = arrivals.item(c) if c < n else 0.0
                    fire(c - 1)
                else:
                    # drained: drop the feed (and whatever ``fire`` holds)
                    self._arrivals, self._fire, self._fired = _NO_ARRIVALS, None, 0
                    break
                processed += 1
                if observer is not None:
                    observer(self._now, len(heap) + n - c)
                if processed > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; runaway model?"
                    )
        finally:
            self._processed = processed
        if until is not None:
            self._now = max(self._now, until)
        return self._now
