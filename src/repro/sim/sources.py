"""Poisson request arrivals, the process the analytic queueing terms assume.

Each task's requests arrive as a homogeneous Poisson process at its rate,
generated by one :class:`PoissonStream`: :func:`arrival_times` drains the
stream to the horizon, and both simulator engines read it window by window
(:func:`arrival_stream`), so every consumer sees the same arrivals bit for
bit.

A stream holds only the window in flight: each refill draws about what the
requested window needs (at most :attr:`PoissonStream.BLOCK` gaps), and the
arrivals past the window end are kept as an owned copy, so a live stream
pins at most one refill's leftover, never a whole refill.  Piece sizes
never change the values, and a stream draws no gap past the refill that
crosses its horizon.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.rng import SeedLike, as_generator


def oneshot_block(rate: float, horizon_s: float) -> int:
    """The expected arrival count over ``horizon_s`` plus 20% and a margin:
    the gaps per summation block of a Poisson stream (one block usually
    covers the horizon) and the size of a refill that usually covers a
    window of that length."""
    return max(16, int(rate * horizon_s * 1.2) + 16)


def arrival_stream(rate: float, horizon_s: float, seed: SeedLike = None) -> "PoissonStream":
    """Poisson arrivals at ``rate`` until ``horizon_s``, window by window.

    Both simulator engines realize requests from this stream.  Consuming it
    window by window yields the same arrivals for any window boundaries, and
    those equal :func:`arrival_times` bit for bit.
    """
    return PoissonStream(rate, horizon_s, seed)


def arrival_times(rate: float, horizon_s: float, seed: SeedLike = None) -> np.ndarray:
    """Every arrival of :func:`arrival_stream` before the horizon, at once."""
    return PoissonStream(rate, horizon_s, seed).take_until(horizon_s)


class PoissonStream:
    """Incremental Poisson arrivals: cumulative sums of exponential gaps.

    :meth:`take_until` returns the arrivals in ``[previous boundary,
    t_end)`` and can be called with increasing boundaries until the
    horizon.  The arrivals do not depend on the boundaries because NumPy
    ``Generator`` draws are stream-sequential — splitting one
    ``rng.exponential(size=n)`` call into several smaller calls consumes the
    identical underlying bit stream and yields the identical values — and
    every running sum is carried across refills.

    Gaps are summed in blocks of :func:`oneshot_block` gaps over the
    horizon, each block starting from the previous block's last arrival,
    and a block is drawn in pieces — about the window's expected count,
    at most :attr:`BLOCK` gaps — with its running sum carried from piece to
    piece, so a piece's sums are the sequential sums of the whole block,
    and the arrivals are the same for any piece size.  The arrivals past
    ``t_end`` wait in ``_buffer``, an owned copy, so the stream keeps no
    refill alive once its window is taken.
    """

    #: largest refill in gaps; any value yields the same arrivals, this
    #: one caps a refill of a high-rate stream or a long window
    BLOCK = 8192

    def __init__(self, rate: float, horizon_s: float, seed: SeedLike = None) -> None:
        if rate <= 0:
            raise ConfigError(f"Poisson rate must be positive, got {rate}")
        if horizon_s <= 0:
            raise ConfigError("horizon must be positive")
        self.rate = rate
        self.horizon_s = horizon_s
        self._block = oneshot_block(rate, horizon_s)
        self._rng = as_generator(seed)
        self._buffer = np.empty(0, dtype=np.float64)
        self._cursor = 0.0  # previous window boundary
        self._exhausted = False  # an arrival at or past the horizon is drawn
        self._start = 0.0  # the current block's origin
        self._left = 0  # gaps of the current block not drawn yet
        self._sum = 0.0  # running gap sum of the current block
        self._last = 0.0  # last generated arrival

    def _refill(self, t_end: float) -> np.ndarray:
        """The next piece of arrivals, sized for the window ending at ``t_end``."""
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
        return times

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
