"""Arrival processes for request streams.

Every source yields strictly increasing arrival times until a horizon.
Poisson is the default (and what the analytic queueing terms assume); MMPP
adds burstiness for robustness experiments; deterministic and trace sources
support closed-form sanity checks and replay.

Each generated process has one generator, its :class:`ArrivalStream`:
``generate`` and :func:`arrival_times` drain the stream to the horizon, and
both simulator engines read it window by window (:func:`arrival_stream`),
so every consumer sees the same arrivals bit for bit.

A stream holds only the window in flight: each refill draws about what the
requested window needs (at most :attr:`ArrivalStream.BLOCK` values), and
the arrivals past the window end are kept as an owned copy, so a live
stream pins at most one refill's leftover, never a whole refill.  Piece
sizes never change the values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigError
from repro.rng import SeedLike, as_generator


def oneshot_block(rate: float, horizon_s: float) -> int:
    """The expected arrival count over ``horizon_s`` plus 20% and a margin:
    the gaps per summation block of a Poisson stream (one block usually
    covers the horizon) and the size of a refill that usually covers a
    window of that length."""
    return max(16, int(rate * horizon_s * 1.2) + 16)


class _Process:
    """An arrival process: :meth:`stream` yields it window by window, and
    :meth:`generate` is that stream drained to the horizon."""

    def stream(self, horizon_s: float, seed: SeedLike = None) -> "ArrivalStream":
        raise NotImplementedError  # pragma: no cover - abstract

    def generate(self, horizon_s: float, seed: SeedLike = None) -> np.ndarray:
        return self.stream(horizon_s, seed).take_until(horizon_s)


@dataclass(frozen=True)
class PoissonArrivals(_Process):
    """Homogeneous Poisson process with mean rate ``rate`` (req/s)."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigError(f"Poisson rate must be positive, got {self.rate}")

    def stream(self, horizon_s: float, seed: SeedLike = None) -> "PoissonStream":
        return PoissonStream(self.rate, horizon_s, seed)


@dataclass(frozen=True)
class DeterministicArrivals(_Process):
    """Evenly spaced arrivals (period = 1/rate), starting at one period."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigError(f"rate must be positive, got {self.rate}")

    def stream(self, horizon_s: float, seed: SeedLike = None) -> "DeterministicStream":
        return DeterministicStream(self.rate, horizon_s, seed)


@dataclass(frozen=True)
class MMPPArrivals(_Process):
    """2-state Markov-modulated Poisson process (bursty arrivals).

    Alternates between a low-rate and a high-rate phase with exponential
    holding times; overall mean rate is the holding-time-weighted average.
    """

    low_rate: float
    high_rate: float
    mean_low_s: float = 5.0
    mean_high_s: float = 1.0

    def __post_init__(self) -> None:
        if self.low_rate <= 0 or self.high_rate <= 0:
            raise ConfigError("MMPP rates must be positive")
        if self.high_rate < self.low_rate:
            raise ConfigError("high_rate must be >= low_rate")
        if self.mean_low_s <= 0 or self.mean_high_s <= 0:
            raise ConfigError("MMPP holding times must be positive")

    def stream(self, horizon_s: float, seed: SeedLike = None) -> "MMPPStream":
        return MMPPStream(self, horizon_s, seed)


def _process(rate: float, arrival: str, burst_factor: float) -> _Process:
    """The arrival process of one request stream of mean ``rate``.

    For ``"mmpp"`` the low rate is solved so the long-run mean matches
    ``rate`` at a high phase of ``burst_factor × rate``.
    """
    if arrival == "poisson":
        return PoissonArrivals(rate)
    if arrival == "deterministic":
        return DeterministicArrivals(rate)
    if arrival != "mmpp":
        raise ConfigError(f"unknown arrival process {arrival!r}")
    high = rate * burst_factor
    mean_low_s, mean_high_s = 5.0, 1.0
    low = (rate * (mean_low_s + mean_high_s) - high * mean_high_s) / mean_low_s
    low = max(low, rate * 0.05)
    return MMPPArrivals(low, high, mean_low_s, mean_high_s)


def arrival_stream(
    rate: float,
    horizon_s: float,
    arrival: str = "poisson",
    burst_factor: float = 4.0,
    seed: SeedLike = None,
) -> "ArrivalStream":
    """Arrivals of one request stream of mean ``rate``, window by window.

    Both simulator engines realize requests from this stream.  Consuming it
    window by window yields the same arrivals for any window boundaries, and
    those equal :func:`arrival_times` bit for bit.
    """
    return _process(rate, arrival, burst_factor).stream(horizon_s, seed)


def arrival_times(
    rate: float,
    horizon_s: float,
    arrival: str = "poisson",
    burst_factor: float = 4.0,
    seed: SeedLike = None,
) -> np.ndarray:
    """Every arrival of :func:`arrival_stream` before the horizon, at once."""
    return _process(rate, arrival, burst_factor).generate(horizon_s, seed)


class ArrivalStream:
    """Incremental arrival generation, the one generator of each process.

    :meth:`take_until` returns the arrivals in ``[previous boundary,
    t_end)`` and can be called with increasing boundaries until the
    horizon.  The arrivals do not depend on the boundaries because NumPy
    ``Generator`` draws are stream-sequential — splitting one
    ``rng.exponential(size=n)`` call into several smaller calls consumes the
    identical underlying bit stream and yields the identical values — and
    every running sum is carried across refills.

    Subclasses implement :meth:`_refill`, which returns the next piece of
    arrivals (possibly empty), sized for the window ending at ``t_end``,
    and sets ``_exhausted`` once no arrival before the horizon is left.
    The arrivals past ``t_end`` wait in ``_buffer``, an owned copy, so the
    stream keeps no refill alive once its window is taken.
    """

    #: largest refill in values; any value yields the same arrivals, this
    #: one caps a refill of a high-rate stream or a long window
    BLOCK = 8192

    def __init__(self, horizon_s: float) -> None:
        if horizon_s <= 0:
            raise ConfigError("horizon must be positive")
        self.horizon_s = horizon_s
        self._buffer = np.empty(0, dtype=np.float64)
        self._cursor = 0.0  # previous window boundary
        self._exhausted = False

    def _refill(self, t_end: float) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def take_until(self, t_end: float) -> np.ndarray:
        """Arrivals in ``[previous boundary, min(t_end, horizon))``."""
        if t_end < self._cursor:
            raise ConfigError(
                f"window end {t_end:.6g} precedes cursor {self._cursor:.6g}"
            )
        t_end = min(t_end, self.horizon_s)
        parts = [self._buffer] if self._buffer.size else []
        last = self._buffer[-1] if self._buffer.size else -np.inf
        while not self._exhausted and last < t_end:
            piece = self._refill(t_end)
            if piece.size:
                parts.append(piece)
                last = piece[-1]
        if len(parts) > 1:
            buf = np.concatenate(parts)
        else:
            buf = parts[0] if parts else self._buffer
        split = int(np.searchsorted(buf, t_end, side="left"))
        self._buffer = buf[split:].copy()  # a view would pin all of buf
        self._cursor = t_end
        return buf[:split]


class PoissonStream(ArrivalStream):
    """Poisson arrivals: cumulative sums of exponential gaps.

    Gaps are summed in blocks of :func:`oneshot_block` gaps over the
    horizon, each block starting from the previous block's last arrival,
    and a block is drawn in pieces — about the window's expected count,
    at most :attr:`BLOCK` gaps — with its running sum carried from piece to
    piece, so a piece's sums are the sequential sums of the whole block,
    and the arrivals are the same for any piece size.
    """

    def __init__(self, rate: float, horizon_s: float, seed: SeedLike = None) -> None:
        if rate <= 0:
            raise ConfigError(f"Poisson rate must be positive, got {rate}")
        super().__init__(horizon_s)
        self.rate = rate
        self._block = oneshot_block(rate, horizon_s)
        self._rng = as_generator(seed)
        self._start = 0.0  # the current block's origin
        self._left = 0  # gaps of the current block not drawn yet
        self._sum = 0.0  # running gap sum of the current block
        self._last = 0.0  # last generated arrival

    def _refill(self, t_end: float) -> np.ndarray:
        if self._left == 0:
            # a new block starts from the last arrival
            self._start, self._left, self._sum = self._last, self._block, 0.0
        size = min(self.BLOCK, self._left, oneshot_block(self.rate, t_end - self._last))
        gaps = self._rng.exponential(1.0 / self.rate, size=size)
        self._left -= gaps.size
        # the carried sum joins the first gap: cumsum then adds in the same
        # order as one cumsum over the whole block
        gaps[0] += self._sum
        sums = np.cumsum(gaps)
        self._sum = float(sums[-1])
        times = self._start + sums
        self._last = float(times[-1])
        self._exhausted = self._last >= self.horizon_s
        if self._exhausted:
            # draw out the block: the stream then consumes whole blocks, so
            # its generator ends where the one-shot's does, whatever the windows
            while self._left:
                self._left -= self._rng.exponential(size=min(self.BLOCK, self._left)).size
        return times


class DeterministicStream(ArrivalStream):
    """Arrival ``k`` at ``k / rate`` (pure arithmetic, no RNG)."""

    def __init__(self, rate: float, horizon_s: float, seed: SeedLike = None) -> None:
        del seed
        if rate <= 0:
            raise ConfigError(f"rate must be positive, got {rate}")
        super().__init__(horizon_s)
        self.rate = rate
        self._next = 1  # next arrival index (arrival k occurs at k/rate)

    def _refill(self, t_end: float) -> np.ndarray:
        period = 1.0 / self.rate
        last = int(np.floor(self.horizon_s / period))
        # through the first index at or past t_end, at least one arrival
        want = max(int(t_end * self.rate) + 2, self._next + 1)
        hi = min(self._next + self.BLOCK, want, last + 1)
        times = np.arange(self._next, hi) * period
        self._next = hi
        self._exhausted = hi > last
        return times[times < self.horizon_s]


class MMPPStream(ArrivalStream):
    """:class:`MMPPArrivals`, one phase per refill.

    Each phase draws one exponential holding time, then per-arrival gaps
    one at a time, discarding the overshoot draw that crosses the phase
    boundary.  A phase is the unit of its draws, so a refill is one whole
    phase whatever the window (phases last seconds, not windows).
    """

    def __init__(self, process: MMPPArrivals, horizon_s: float, seed: SeedLike = None) -> None:
        super().__init__(horizon_s)
        self.process = process
        self._rng = as_generator(seed)
        self._t = 0.0
        self._high = bool(self._rng.integers(2))

    def _refill(self, t_end: float) -> np.ndarray:
        del t_end
        p = self.process
        out = []
        # one phase per refill: the arrivals of a phase share one rate
        hold = float(
            self._rng.exponential(p.mean_high_s if self._high else p.mean_low_s)
        )
        phase_end = min(self._t + hold, self.horizon_s)
        rate = p.high_rate if self._high else p.low_rate
        tt = self._t
        while True:
            tt += float(self._rng.exponential(1.0 / rate))
            if tt >= phase_end:
                break
            out.append(tt)
        self._t = phase_end
        self._high = not self._high
        self._exhausted = self._t >= self.horizon_s
        return np.array(out, dtype=np.float64)


@dataclass(frozen=True)
class TraceArrivals:
    """Replay explicit arrival timestamps (strictly increasing)."""

    times: Sequence[float]

    def __post_init__(self) -> None:
        arr = np.asarray(self.times, dtype=float)
        if arr.ndim != 1:
            raise ConfigError("trace must be 1-D")
        if arr.size and (np.any(arr < 0) or np.any(np.diff(arr) <= 0)):
            raise ConfigError("trace times must be non-negative, strictly increasing")

    def generate(self, horizon_s: float, seed: SeedLike = None) -> np.ndarray:
        arr = np.asarray(self.times, dtype=float)
        return arr[arr < horizon_s]
