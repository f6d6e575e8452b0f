"""Span arithmetic and summary statistics for the pipeline benchmark.

Standard library only: ``run.py`` and the tests import this
without the library on the path.

Spans are any objects with ``name``, ``span_id``, ``parent_id``,
``start_s`` and ``end_s`` attributes (the library's
:class:`repro.telemetry.trace.Span`).  Shard solves run on pool threads,
so sibling spans may overlap in time: every "covered" time here is the
length of a *union* of intervals, never a plain sum.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]


def union_length(intervals: Iterable[Interval]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    total = 0.0
    cur_lo: Optional[float] = None
    cur_hi = 0.0
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_lo is None or lo > cur_hi:
            if cur_lo is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return total


def self_time(parent: Interval, children: Iterable[Interval]) -> float:
    """``parent``'s duration minus the part of it its children cover.

    Children are clipped to the parent's interval first, so a child that
    (through clock granularity) pokes past its parent cannot drive the
    result negative.
    """
    lo, hi = parent
    clipped = [(max(a, lo), min(b, hi)) for a, b in children]
    return max(hi - lo - union_length(clipped), 0.0)


def children_of(spans: Sequence) -> Dict[Tuple[int, int], List]:
    """Map each span id to the spans whose ``parent_id`` names it."""
    out: Dict[Tuple[int, int], List] = {}
    for s in spans:
        if s.parent_id is not None:
            out.setdefault(tuple(s.parent_id), []).append(s)
    return out


def interval(span) -> Interval:
    return (span.start_s, span.end_s)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0
