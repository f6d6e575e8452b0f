"""FIFO resources: compute queues and fixed-rate links.

Both resources serialize jobs in submission order.  Because service times are
computable at start-of-service, the implementation tracks a single
``busy_until`` horizon instead of an explicit queue — submission returns the
(start, finish) pair and the caller schedules its continuation at ``finish``.
A link serves at its bandwidth share's fixed rate, the deterministic
transfer time the optimizer's M/G/1 terms assume; bandwidth changes reach
the system as re-plans over a changed cluster, not inside a run.

Both resources accept an optional
:class:`~repro.telemetry.timeline.TimelineRecorder`; with one attached they
track in-flight job counts and sample ``sim.queue_depth.<name>`` /
``sim.utilization.<name>`` gauges at every submission boundary.  Without a
recorder (the default) none of that bookkeeping runs.

**Fault windows** (:func:`repro.faults.schedule.resource_windows`): a
resource is built with its own sorted ``down`` windows ``(start, end)`` and
``speed`` windows ``(start, end, factor)`` and applies them lazily — in
``submit``, ``is_down``, ``next_crash`` and ``utilization``, whose time
arguments never decrease.  Transitions at or before that time apply in time
order, so a resource is down at a crash instant and up at a recovery
instant.  A crash abandons queued/in-flight work: the busy horizon is
clamped to it and the unserved residual leaves ``busy_time``; a recovery
restarts the queue at the recovery instant.  Submitting to a downed resource
raises :class:`~repro.errors.ResourceUnavailableError` (the failure-aware
request path checks ``is_down`` first).  A speed factor scales the rate of
jobs *submitted* while its window is open.  Without windows the arithmetic
is bit-identical to a resource that never heard of faults.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FaultError, ResourceUnavailableError, SimulationError
from repro.telemetry.timeline import TimelineRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.plan import JointPlan, TaskSpec
    from repro.devices.cluster import EdgeCluster


class FaultWindows(NamedTuple):
    """One resource's windows, each kind sorted and non-overlapping:
    outages ``(start, end)`` (``end`` may be ``inf``) and slowdowns
    ``(start, end, factor)``."""

    down: Tuple[Tuple[float, float], ...] = ()
    speed: Tuple[Tuple[float, float, float], ...] = ()


NO_FAULTS = FaultWindows()


class _Resource:
    """What compute and link queues share: the busy horizon, recorder
    gauges and lazily applied fault windows.  Resources are slotted (no
    instance ``__dict__``): a fleet run builds several per task."""

    __slots__ = (
        "name", "recorder", "_busy_until", "busy_time", "_inflight", "down", "speed",
        "_faulty", "_next_down", "_down_end", "_next_speed",
    )

    def __init__(
        self,
        name: str,
        recorder: Optional[TimelineRecorder],
        down: Sequence[Tuple[float, float]],
        speed: Sequence[Tuple[float, float, float]],
    ) -> None:
        self.name = name
        self.recorder = recorder
        self._busy_until = 0.0
        self.busy_time = 0.0  # total service time (utilization accounting)
        # finish times of jobs in flight, kept only for a recorder's gauges
        self._inflight: Optional[List[float]] = [] if recorder is not None else None
        for kind, windows in (("down", down), ("slowed", speed)):
            last = -math.inf
            for start, end, *factor in windows:
                if not end > start:
                    raise FaultError(f"{self.name}: window [{start}, {end}) is empty or inverted")
                if start < last:
                    raise FaultError(
                        f"{self.name}: window at t={start:.6g} opens while already "
                        f"{kind} until t={last:.6g}"
                    )
                if factor and not factor[0] > 0:
                    raise FaultError(f"{self.name}: speed factor must be positive")
                last = end
        self.down, self.speed = tuple(down), tuple(speed)
        self._faulty = bool(down or speed)
        self._next_down = 0  # first down window whose crash has not applied
        self._down_end: Optional[float] = None  # end of the open outage
        self._next_speed = 0  # first speed window not yet closed

    def _observe(self, now: float, finish: float) -> None:
        rec, inflight = self.recorder, self._inflight
        assert rec is not None and inflight is not None
        inflight.append(finish)
        self._inflight = inflight = [f for f in inflight if f > now]
        rec.sample(f"sim.queue_depth.{self.name}", now, len(inflight))
        if now > 0:
            rec.sample(f"sim.utilization.{self.name}", now, min(1.0, self.busy_time / now))

    def _settle(self, now: float) -> None:
        """Apply every crash and recovery at or before ``now``, in time
        order; a permanent outage never recovers, not even at ``inf``."""
        end = self._down_end
        if end is not None:
            if now < end or end == math.inf:
                return
            self._down_end = None
            self._busy_until = max(self._busy_until, end)
        windows, i = self.down, self._next_down
        while i < len(windows) and windows[i][0] <= now:
            start, end = windows[i]
            i += 1
            if self._busy_until > start:  # crash: abandon queued work
                self.busy_time -= self._busy_until - start
                self._busy_until = start
            if now < end or end == math.inf:
                self._down_end = end
                break
            self._busy_until = max(self._busy_until, end)
        self._next_down = i

    def is_down(self, now: float) -> bool:
        if self._faulty:
            self._settle(now)
        return self._down_end is not None

    def next_crash(self, now: float, until: float) -> Optional[float]:
        """Earliest outage start strictly inside ``(now, until)``: a job
        served over that span is interrupted by it."""
        if self._faulty:
            self._settle(now)
            i = self._next_down
            if i < len(self.down) and now < self.down[i][0] < until:
                return self.down[i][0]
        return None

    def _admit(self, now: float) -> float:
        """Speed factor of a job submitted at ``now``; raises while down."""
        self._settle(now)
        if self._down_end is not None:
            raise ResourceUnavailableError(
                f"{self.name}: submit at t={now:.6g} while down until "
                f"t={self._down_end:.6g}"
            )
        windows, i = self.speed, self._next_speed
        while i < len(windows) and windows[i][1] <= now:
            i += 1
        self._next_speed = i
        return windows[i][2] if i < len(windows) and windows[i][0] <= now else 1.0

    def utilization(self, horizon_s: float) -> float:
        """Fraction of ``[0, horizon]`` spent serving, once every window
        has applied (the end of the run)."""
        if horizon_s <= 0:
            raise SimulationError("horizon must be positive")
        self._settle(math.inf)
        return min(1.0, self.busy_time / horizon_s)


#: chained-sweep tuning: segments at least this long count as "saturated";
#: two consecutive shorter segments hand the remainder to the scalar loop
_CHAIN_MIN_SEGMENT = 4096
#: cumsum window per chained attempt (bounds worst-case re-scan cost)
_CHAIN_WINDOW = 65536


def _chained_sweep(
    now: np.ndarray, svc: np.ndarray, busy: float
) -> Tuple[np.ndarray, np.ndarray, float]:
    """FIFO busy-chain recurrence over jobs in submission order.

    Computes ``start_i = max(now_i, busy_{i-1}); busy_i = start_i + svc_i``
    with float arithmetic **bit-identical** to the sequential loop: while the
    resource stays continuously busy the recurrence is a running sum, and
    ``np.cumsum`` performs the identical sequence of additions (seeded by
    prepending the segment's start), so whole busy segments vectorize.  The
    segment boundary test (``now_j > busy_{j-1}``) uses those exact values,
    so segmentation decisions can never diverge from the loop.  Saturated
    sweeps (one long busy segment — the regime the streaming simulator
    targets) collapse to a handful of cumsum passes; when segments turn
    short (lightly loaded queue, where vectorization cannot win) the
    remainder falls back to the scalar loop.
    """
    n = now.shape[0]
    starts = np.empty(n, dtype=np.float64)
    finishes = np.empty(n, dtype=np.float64)
    i = 0
    short_segments = 0
    while i < n and short_segments < 2:
        start0 = busy if busy > now[i] else now[i]
        hi = min(n, i + _CHAIN_WINDOW)
        chain = np.cumsum(np.concatenate(([start0], svc[i:hi])))[1:]
        breaks = np.flatnonzero(now[i + 1 : hi] > chain[:-1])
        k = (int(breaks[0]) + 1) if breaks.size else (hi - i)
        starts[i] = start0
        starts[i + 1 : i + k] = chain[: k - 1]
        finishes[i : i + k] = chain[:k]
        busy = float(chain[k - 1])
        i += k
        short_segments = 0 if k >= _CHAIN_MIN_SEGMENT else short_segments + 1
    if i < n:
        now_tail = now[i:].tolist()
        svc_tail = svc[i:].tolist()
        for j, (t, s) in enumerate(zip(now_tail, svc_tail), start=i):
            start = busy if busy > t else t
            busy = start + s
            starts[j] = start
            finishes[j] = busy
    return starts, finishes, busy


def _sequential_total(initial: float, values: np.ndarray) -> float:
    """``((initial + v0) + v1) + ...`` — the scalar accumulation order."""
    if values.size == 0:
        return initial
    return float(np.cumsum(np.concatenate(([initial], values)))[-1])


class FifoResource(_Resource):
    """Single FIFO server with a fixed service rate (FLOP/s or B/s)."""

    __slots__ = ("rate", "overhead_s", "jobs")

    def __init__(
        self,
        name: str,
        rate: float,
        overhead_s: float = 0.0,
        recorder: Optional[TimelineRecorder] = None,
        down: Sequence[Tuple[float, float]] = (),
        speed: Sequence[Tuple[float, float, float]] = (),
    ) -> None:
        if rate <= 0:
            raise SimulationError(f"{name}: rate must be positive")
        if overhead_s < 0:
            raise SimulationError(f"{name}: overhead must be >= 0")
        super().__init__(name, recorder, down, speed)
        self.rate = rate
        self.overhead_s = overhead_s
        self.jobs = 0

    def submit(self, now: float, amount: float) -> Tuple[float, float]:
        """Enqueue ``amount`` of work at time ``now``; return (start, finish).

        Zero-amount jobs pass through instantly without paying overhead.
        """
        if amount < 0:
            raise SimulationError(f"{self.name}: negative work {amount}")
        if now < 0:
            raise SimulationError(f"{self.name}: negative submit time")
        factor = self._admit(now) if self._faulty else 1.0
        if amount == 0:
            return now, now
        start = max(now, self._busy_until)
        service = amount / (self.rate * factor) + self.overhead_s
        finish = start + service
        self._busy_until = finish
        self.busy_time += service
        self.jobs += 1
        if self.recorder is not None:
            self._observe(now, finish)
        return start, finish

    def sweep(self, times: np.ndarray, amounts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Batch :meth:`submit` over jobs already in submission order.

        Performs the identical float arithmetic and state updates as ``len(times)``
        sequential :meth:`submit` calls — bit-for-bit, including the
        zero-amount pass-through — in one lean recurrence loop.  Only valid
        without a recorder (the event loop owns gauge sampling).
        """
        if self.recorder is not None:  # pragma: no cover - guarded by caller
            raise SimulationError(f"{self.name}: sweep requires no recorder")
        if self._faulty:  # pragma: no cover - fault runs force the event loop
            raise SimulationError(f"{self.name}: sweep is incompatible with faults")
        times = np.asarray(times, dtype=np.float64)
        amounts = np.asarray(amounts, dtype=np.float64)
        if np.any(amounts < 0):
            bad = float(amounts[amounts < 0][0])
            raise SimulationError(f"{self.name}: negative work {bad}")
        if np.any(times < 0):
            raise SimulationError(f"{self.name}: negative submit time")
        starts = np.empty(times.shape[0], dtype=np.float64)
        finishes = np.empty(times.shape[0], dtype=np.float64)
        nz = np.flatnonzero(amounts > 0)
        if nz.size < times.shape[0]:  # zero-amount jobs pass through instantly
            zero = amounts == 0
            starts[zero] = times[zero]
            finishes[zero] = times[zero]
        if nz.size:
            svc = amounts[nz] / self.rate + self.overhead_s
            s_nz, f_nz, busy = _chained_sweep(times[nz], svc, self._busy_until)
            starts[nz] = s_nz
            finishes[nz] = f_nz
            self._busy_until = busy
            self.busy_time = _sequential_total(self.busy_time, svc)
            self.jobs += int(nz.size)
        return starts, finishes


class LinkResource(_Resource):
    """FIFO link serving at ``share × bandwidth_bps``."""

    __slots__ = ("bandwidth_bps", "rtt_s", "share", "transfers")

    def __init__(
        self,
        name: str,
        bandwidth_bps: float,
        rtt_s: float = 0.0,
        share: float = 1.0,
        recorder: Optional[TimelineRecorder] = None,
        down: Sequence[Tuple[float, float]] = (),
        speed: Sequence[Tuple[float, float, float]] = (),
    ) -> None:
        if bandwidth_bps <= 0:
            raise SimulationError(f"{name}: bandwidth must be positive")
        if not (0.0 < share <= 1.0 + 1e-12):
            raise SimulationError(f"{name}: share must be in (0,1]")
        if rtt_s < 0:
            raise SimulationError(f"{name}: rtt must be >= 0")
        super().__init__(name, recorder, down, speed)
        self.bandwidth_bps = bandwidth_bps
        self.rtt_s = rtt_s
        self.share = share
        self.transfers = 0

    def submit(self, now: float, nbytes: float) -> Tuple[float, float]:
        """Enqueue a transfer; returns (start, delivery) where delivery
        includes one-way propagation (rtt/2).

        Propagation does **not** occupy the channel: the link is free for the
        next transfer as soon as serialization ends (bits in flight don't
        block the sender).  Zero-byte transfers complete instantly.
        """
        if nbytes < 0:
            raise SimulationError(f"{self.name}: negative transfer {nbytes}")
        factor = self._admit(now) if self._faulty else 1.0
        if nbytes == 0:
            return now, now
        start = max(now, self._busy_until)
        serialized = start + nbytes / (self.bandwidth_bps * self.share * factor)
        self._busy_until = serialized
        self.busy_time += serialized - start
        self.transfers += 1
        if self.recorder is not None:
            self._observe(now, serialized)
        return start, serialized + self.rtt_s / 2.0

    def sweep(self, times: np.ndarray, nbytes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Batch :meth:`submit` over transfers already in submission order.

        Same float arithmetic and state updates as sequential :meth:`submit`
        calls; returns (starts, deliveries).  Only valid without a recorder.
        """
        if self.recorder is not None:  # pragma: no cover - guarded by caller
            raise SimulationError(f"{self.name}: sweep requires no recorder")
        if self._faulty:  # pragma: no cover - fault runs force the event loop
            raise SimulationError(f"{self.name}: sweep is incompatible with faults")
        times = np.asarray(times, dtype=np.float64)
        nbytes = np.asarray(nbytes, dtype=np.float64)
        if np.any(nbytes < 0):
            bad = float(nbytes[nbytes < 0][0])
            raise SimulationError(f"{self.name}: negative transfer {bad}")
        starts = np.empty(times.shape[0], dtype=np.float64)
        deliveries = np.empty(times.shape[0], dtype=np.float64)
        half_rtt = self.rtt_s / 2.0
        nz = np.flatnonzero(nbytes > 0)
        if nz.size < times.shape[0]:  # zero-byte transfers complete instantly
            zero = nbytes == 0
            starts[zero] = times[zero]
            deliveries[zero] = times[zero]
        if nz.size:
            svc = nbytes[nz] / (self.bandwidth_bps * self.share)
            s_nz, serialized, busy = _chained_sweep(times[nz], svc, self._busy_until)
            starts[nz] = s_nz
            deliveries[nz] = serialized + half_rtt
            self._busy_until = busy
            self.busy_time = _sequential_total(self.busy_time, serialized - s_nz)
            self.transfers += int(nz.size)
        return starts, deliveries


def device_resources(
    cluster: "EdgeCluster", recorder: Optional[TimelineRecorder] = None
) -> Dict[str, FifoResource]:
    """One FIFO compute resource per end device, shared by all its tasks."""
    return {
        d.name: FifoResource(f"dev:{d.name}", float(d.blended_flops),
                             overhead_s=d.overhead_s, recorder=recorder)
        for d in cluster.end_devices
    }


def slice_resources(
    task: "TaskSpec",
    plan: "JointPlan",
    server_idx: int,
    cluster: "EdgeCluster",
    tag: str = "",
    recorder: Optional[TimelineRecorder] = None,
    server_faults: FaultWindows = NO_FAULTS,
    link_faults: FaultWindows = NO_FAULTS,
) -> Tuple[FifoResource, LinkResource, LinkResource]:
    """``task``'s (server, uplink, downlink) slices on server ``server_idx``.

    The server slice runs at the plan's share of the server's rate; each
    link direction is its own queue at the plan's bandwidth share (full
    duplex).  Rates, bandwidth and share are coerced to plain ``float``
    (plan shares may be NumPy scalars), bit-identical in value.
    """
    server = cluster.servers[server_idx]
    link = cluster.link(task.device_name, server.name)
    srv = FifoResource(
        f"srv:{task.name}{tag}",
        float(server.blended_flops * plan.compute_shares[task.name]),
        overhead_s=server.overhead_s, recorder=recorder, **server_faults._asdict(),
    )
    up, down = (
        LinkResource(
            f"link:{task.name}:{direction}{tag}", float(link.bandwidth_bps),
            rtt_s=link.rtt_s, share=float(plan.bandwidth_shares[task.name]),
            recorder=recorder, **link_faults._asdict(),
        )
        for direction in ("up", "down")
    )
    return srv, up, down
