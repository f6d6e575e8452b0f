"""Per-request simulator event timelines.

The discrete-event simulator, given a :class:`TimelineRecorder`, emits one
:class:`TimelineEvent` per lifecycle transition of every request::

    enqueue -> dequeue -> exec_start -> transfer_start/transfer_end
            -> exit_taken -> complete

plus per-resource queue-depth / utilization gauge samples taken on event
boundaries (those land in the :class:`~repro.telemetry.metrics.MetricsRegistry`,
not here).  A :class:`Timeline` is an append-only event log with query
helpers and a Perfetto renderer: each task becomes a track, each request a
nested slice from ``enqueue`` to ``complete`` with instant markers for the
intermediate transitions.

:class:`TimelineRecorder` bundles a timeline with a metrics registry behind
one nullable handle, so instrumented simulator code does a single ``if rec is
not None`` check per emission point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.metrics import MetricsRegistry

__all__ = ["EVENT_KINDS", "Timeline", "TimelineEvent", "TimelineRecorder"]

#: The lifecycle vocabulary, in canonical order of occurrence.  The second
#: group covers failure-aware runs (:mod:`repro.faults`): fault window
#: transitions (``fault_inject`` / ``fault_recover``, ``req_id`` -1,
#: recorded when the run starts) and per-request recovery outcomes.
EVENT_KINDS = (
    "enqueue",
    "dequeue",
    "exec_start",
    "transfer_start",
    "transfer_end",
    "exit_taken",
    "complete",
    "fault_inject",
    "fault_recover",
    "timeout",
    "retry",
    "failover",
    "degraded",
    "lost",
    "shed",
)


@dataclass(frozen=True)
class TimelineEvent:
    """One lifecycle transition of one request."""

    t_s: float
    kind: str  # one of EVENT_KINDS
    task: str
    req_id: int
    resource: str = ""  # resource name (dev:..., srv:..., link:...)
    value: Optional[float] = None  # kind-specific payload (e.g. exit index)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "t_s": self.t_s,
            "kind": self.kind,
            "task": self.task,
            "req_id": self.req_id,
            "resource": self.resource,
            "value": self.value,
        }


@dataclass
class Timeline:
    """Append-only, time-ordered-on-read log of simulator events."""

    events: List[TimelineEvent] = field(default_factory=list)

    def add(
        self,
        t_s: float,
        kind: str,
        task: str,
        req_id: int,
        resource: str = "",
        value: Optional[float] = None,
    ) -> None:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown timeline event kind {kind!r}")
        self.events.append(TimelineEvent(t_s, kind, task, req_id, resource, value))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # -- queries ------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Event count per kind (canonical kind order)."""
        out = {k: 0 for k in EVENT_KINDS}
        for e in self.events:
            out[e.kind] += 1
        return {k: v for k, v in out.items() if v}

    # -- export -------------------------------------------------------------

    def perfetto_events(self, pid: int = 2) -> List[Dict[str, Any]]:
        """Chrome trace-event JSON payload for the simulator timeline.

        Tasks map to thread tracks of a ``simulator`` process; each request
        renders as one complete slice (enqueue -> complete) and every
        intermediate transition as an instant event on the same track.
        """
        if not self.events:
            return []
        tasks = sorted({e.task for e in self.events})
        tid = {name: i for i, name in enumerate(tasks)}
        events: List[Dict[str, Any]] = [
            {"ph": "M", "pid": pid, "name": "process_name", "args": {"name": "simulator"}}
        ]
        for name in tasks:
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tid[name],
                    "name": "thread_name",
                    "args": {"name": f"task {name}"},
                }
            )
        # one slice per request from enqueue to complete
        bounds: Dict[Tuple[str, int], Dict[str, float]] = {}
        for e in self.events:
            key = (e.task, e.req_id)
            if e.kind == "enqueue":
                bounds.setdefault(key, {})["start"] = e.t_s
            elif e.kind == "complete":
                bounds.setdefault(key, {})["end"] = e.t_s
        for (task, req_id), be in sorted(bounds.items()):
            if "start" in be and "end" in be:
                events.append(
                    {
                        "ph": "X",
                        "pid": pid,
                        "tid": tid[task],
                        "name": f"req {req_id}",
                        "ts": be["start"] * 1e6,
                        "dur": max(be["end"] - be["start"], 0.0) * 1e6,
                        "args": {"task": task, "req_id": req_id},
                    }
                )
        for e in self.events:
            if e.kind in ("enqueue", "complete"):
                continue
            args: Dict[str, Any] = {"req_id": e.req_id, "resource": e.resource}
            if e.value is not None:
                args["value"] = e.value
            events.append(
                {
                    "ph": "i",
                    "s": "t",  # thread-scoped instant
                    "pid": pid,
                    "tid": tid[e.task],
                    "name": e.kind,
                    "ts": e.t_s * 1e6,
                    "args": args,
                }
            )
        return events


class TimelineRecorder:
    """Nullable handle bundling a timeline and a metrics registry.

    Simulator components receive ``Optional[TimelineRecorder]``; a single
    ``is not None`` check guards every emission point, so disabled runs pay
    nothing.
    """

    __slots__ = ("timeline", "registry")

    def __init__(
        self,
        timeline: Optional[Timeline] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.timeline = timeline if timeline is not None else Timeline()
        self.registry = registry if registry is not None else MetricsRegistry()

    def event(
        self,
        t_s: float,
        kind: str,
        task: str,
        req_id: int,
        resource: str = "",
        value: Optional[float] = None,
    ) -> None:
        self.timeline.add(t_s, kind, task, req_id, resource, value)

    def sample(self, name: str, t_s: float, value: float) -> None:
        """Record a gauge sample (queue depth, utilization) at ``t_s``."""
        self.registry.gauge(name).set(value, t=t_s)

    def count(self, name: str, amount: int = 1) -> None:
        self.registry.counter(name).inc(amount)
