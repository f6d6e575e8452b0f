"""Deterministic fault schedules: what breaks, when, and how badly.

A :class:`FaultSchedule` is a static, validated list of :class:`FaultEvent`
windows fixed before the simulation starts — faults are part of the
experiment's configuration, not sampled on the fly, so a fixed seed replays
the exact same outage pattern across policies, replications, and
serial/parallel fan-outs.  :func:`sample_fault_schedule` derives a random
schedule from a seed via the library's deterministic RNG tree for chaos
sweeps.

Event semantics by kind (``target`` names the affected entity):

- ``server_crash`` — edge server ``target`` is down during ``[start, end)``;
  queued/in-flight work on its slices is abandoned at ``start``.
- ``link_outage`` — task ``target``'s access link is down during
  ``[start, end)`` (both directions).
- ``link_degrade`` — task ``target``'s link runs at ``severity`` × nominal
  bandwidth during the window (``0 < severity < 1``).
- ``server_slowdown`` — server ``target`` is a straggler: ``severity`` ×
  nominal rate during the window.
- ``request_loss`` — each offload attempt of task ``target`` started inside
  the window is lost in the network with probability ``severity``.

A run resolves its schedule once, with :func:`resource_windows`, into plain
per-resource data: every slice on a server (standby and plan-update slices
included) holds that server's windows, a task's primary uplink and downlink
hold the task's link windows, and ``request_loss`` windows stay per task.
No window becomes a simulator event: the resources apply their own windows
lazily (:mod:`repro.sim.queues`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import FaultError
from repro.rng import derive
from repro.sim.queues import FaultWindows

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "resource_windows",
    "sample_fault_schedule",
]

#: Recognized fault kinds (see module docstring for semantics).
FAULT_KINDS = (
    "server_crash",
    "link_outage",
    "link_degrade",
    "server_slowdown",
    "request_loss",
)

#: Kinds that take a resource *down* (vs. merely slowing/lossy ones).
_OUTAGE_KINDS = frozenset({"server_crash", "link_outage"})
_SPEED_KINDS = frozenset({"link_degrade", "server_slowdown"})


@dataclass(frozen=True)
class FaultEvent:
    """One fault window: ``kind`` hits ``target`` during ``[start_s, end_s)``.

    ``end_s`` may be ``math.inf`` for a permanent fault (no recovery).
    ``severity`` is kind-specific: remaining speed fraction for
    degrade/slowdown, loss probability for ``request_loss``, ignored (1.0)
    for outages.
    """

    kind: str
    target: str
    start_s: float
    end_s: float
    severity: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(f"unknown fault kind {self.kind!r}; known {FAULT_KINDS}")
        if not self.target:
            raise FaultError("fault event needs a target name")
        if self.start_s < 0:
            raise FaultError(f"fault start {self.start_s} must be >= 0")
        if not self.end_s > self.start_s:
            raise FaultError(
                f"fault window [{self.start_s}, {self.end_s}) is empty or inverted"
            )
        if self.kind in _SPEED_KINDS and not (0.0 < self.severity < 1.0):
            raise FaultError(
                f"{self.kind} severity {self.severity} must be in (0,1) "
                "(remaining speed fraction)"
            )
        if self.kind == "request_loss" and not (0.0 < self.severity <= 1.0):
            raise FaultError(
                f"request_loss severity {self.severity} must be in (0,1] "
                "(per-attempt loss probability)"
            )

    @property
    def permanent(self) -> bool:
        return math.isinf(self.end_s)


@dataclass(frozen=True)
class FaultSchedule:
    """Validated, time-sorted collection of fault windows.

    Windows of the same ``(kind, target)`` pair must not overlap — each
    resource holds its windows as one sorted, non-overlapping sequence per
    kind (:func:`resource_windows`), and overlapping windows would make its
    down/up (or slow/normal) transitions ambiguous.
    """

    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.start_s, e.kind, e.target))
        )
        object.__setattr__(self, "events", ordered)
        last_end: dict = {}
        for e in ordered:
            key = (e.kind, e.target)
            if key in last_end and e.start_s < last_end[key]:
                raise FaultError(
                    f"overlapping {e.kind} windows on {e.target!r} "
                    f"(second starts at t={e.start_s:.6g} before "
                    f"t={last_end[key]:.6g})"
                )
            last_end[key] = e.end_s

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def crash_recover(
        cls, server: str, crash_s: float, down_s: float
    ) -> "FaultSchedule":
        """Single crash of ``server`` at ``crash_s``, recovering ``down_s`` later."""
        if down_s <= 0:
            raise FaultError(f"down duration {down_s} must be positive")
        return cls(
            events=(FaultEvent("server_crash", server, crash_s, crash_s + down_s),)
        )


def resource_windows(
    schedule: FaultSchedule, servers: Iterable[str], tasks: Iterable[str]
) -> Tuple[
    Dict[str, FaultWindows],
    Dict[str, FaultWindows],
    Dict[str, Tuple[Tuple[float, float, float], ...]],
]:
    """Resolve ``schedule`` into per-resource windows, once per run.

    Returns ``(by_server, by_link, loss)``: the :class:`~repro.sim.queues.
    FaultWindows` of each server in ``servers`` and of each task's access
    link in ``tasks``, and each ``request_loss`` target's windows
    ``(start, end, probability)``, all in schedule order (sorted, and
    non-overlapping per kind).  An unknown server or task link raises
    :class:`FaultError`; ``request_loss`` needs no resource.
    """
    by_server = {s: ([], []) for s in servers}
    by_link = {t: ([], []) for t in tasks}
    loss: Dict[str, list] = {}
    for e in schedule:
        if e.kind == "request_loss":
            loss.setdefault(e.target, []).append((e.start_s, e.end_s, e.severity))
            continue
        on_server = e.kind.startswith("server")
        windows = (by_server if on_server else by_link).get(e.target)
        if windows is None:
            what = "server" if on_server else "task link"
            raise FaultError(f"{e.kind} targets unknown {what} {e.target!r}")
        if e.kind in _OUTAGE_KINDS:
            windows[0].append((e.start_s, e.end_s))
        else:
            windows[1].append((e.start_s, e.end_s, e.severity))
    return (
        {k: FaultWindows(tuple(d), tuple(s)) for k, (d, s) in by_server.items()},
        {k: FaultWindows(tuple(d), tuple(s)) for k, (d, s) in by_link.items()},
        {k: tuple(v) for k, v in loss.items()},
    )


def sample_fault_schedule(
    seed: int,
    horizon_s: float,
    servers: Sequence[str],
    tasks: Iterable[str] = (),
    crash_rate_per_min: float = 1.0,
    mean_down_s: float = 2.0,
    slowdown_prob: float = 0.25,
    slowdown_severity: float = 0.5,
    loss_prob: float = 0.0,
) -> FaultSchedule:
    """Derive a random fault schedule from ``seed`` (chaos sweeps).

    Crash arrivals per server are Poisson at ``crash_rate_per_min``; down
    times are exponential with mean ``mean_down_s`` (truncated so windows on
    the same server never overlap).  Each server independently suffers a
    mid-horizon slowdown with probability ``slowdown_prob``; each task's
    link drops requests at ``loss_prob`` over the middle half of the horizon
    when ``loss_prob > 0``.  Everything flows through the deterministic RNG
    tree, so a fixed seed yields a fixed schedule.
    """
    if horizon_s <= 0:
        raise FaultError("horizon must be positive")
    events: List[FaultEvent] = []
    for s in servers:
        rng = derive(seed, "faults", "server", s)
        t = 0.0
        rate_s = crash_rate_per_min / 60.0
        while rate_s > 0:
            t += rng.exponential(1.0 / rate_s)
            if t >= horizon_s:
                break
            down = min(rng.exponential(mean_down_s), horizon_s)
            events.append(FaultEvent("server_crash", s, t, t + down))
            t += down + 1e-9  # strictly after recovery: windows cannot overlap
        if rng.random() < slowdown_prob:
            start = float(rng.uniform(0.25, 0.6)) * horizon_s
            end = min(start + float(rng.uniform(0.1, 0.3)) * horizon_s, horizon_s)
            events.append(
                FaultEvent("server_slowdown", s, start, end, slowdown_severity)
            )
    if loss_prob > 0:
        for name in tasks:
            events.append(
                FaultEvent(
                    "request_loss",
                    name,
                    0.25 * horizon_s,
                    0.75 * horizon_s,
                    loss_prob,
                )
            )
    return FaultSchedule(events=tuple(events))
