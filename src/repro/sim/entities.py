"""Simulation entities: the per-request completion record, and the columnar
table that holds a run's completed requests.

Both engines hand their completions over as NumPy columns
(:func:`repro.sim.execution.record_fields`); a :class:`RecordTable` keeps
them as columns from the engine to the report and builds
:class:`RequestRecord` objects only when one is asked for.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, List, Union

import numpy as np


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """Completion record written by the simulator for one request."""

    task_name: str
    req_id: int
    arrival_s: float
    completion_s: float
    deadline_s: float
    exit_position: int
    offloaded: bool
    correct: bool
    dev_busy_s: float
    srv_busy_s: float
    net_busy_s: float
    #: completed via graceful degradation (local early exit after the edge
    #: became unreachable) rather than along the planned path
    degraded: bool = False

    @property
    def latency_s(self) -> float:
        return self.completion_s - self.arrival_s

    @property
    def met_deadline(self) -> bool:
        return self.completion_s <= self.deadline_s + 1e-12

    @property
    def queueing_s(self) -> float:
        """Time spent waiting (latency minus busy time on all resources)."""
        busy = self.dev_busy_s + self.srv_busy_s + self.net_busy_s
        return max(0.0, self.latency_s - busy)


#: :class:`RecordTable`'s value columns — every :class:`RequestRecord` field
#: after ``task_name``, in field order — and their dtypes
COLUMNS = tuple(f.name for f in fields(RequestRecord)[1:])
_DTYPES = (
    np.int64, np.float64, np.float64, np.float64, np.int64, bool, bool,
    np.float64, np.float64, np.float64, bool,
)

#: records built per step when iterating (bounds the transient Python lists)
_RECORD_BLOCK = 4096


class RecordTable(Sequence):
    """Completed requests of one run as read-only columns.

    ``task`` indexes ``names``; the other columns are :data:`COLUMNS`.  The
    table is an immutable sequence of :class:`RequestRecord`: indexing and
    iteration build records on demand (iteration a block at a time),
    slicing gives a table over column views, ``==`` against a table or a
    list compares record by record, and pickling sends the arrays.  The
    column properties :attr:`latency_s`, :attr:`met_deadline` and
    :attr:`queueing_s` do :class:`RequestRecord`'s float ops elementwise, so
    aggregates over them are bit-identical to a per-record computation.
    """

    __slots__ = ("names", "task") + COLUMNS

    def __init__(
        self,
        names: Iterable[str],
        task,
        req_id,
        arrival_s,
        completion_s,
        deadline_s,
        exit_position,
        offloaded,
        correct,
        dev_busy_s,
        srv_busy_s,
        net_busy_s,
        degraded=None,
    ) -> None:
        task = np.asarray(task, dtype=np.intp)
        if degraded is None:
            degraded = np.zeros(task.size, dtype=bool)
        values = (
            req_id, arrival_s, completion_s, deadline_s, exit_position, offloaded,
            correct, dev_busy_s, srv_busy_s, net_busy_s, degraded,
        )
        self.names = tuple(names)
        for name, value, dtype in zip(("task",) + COLUMNS, (task,) + values, (np.intp,) + _DTYPES):
            # a view, so freezing it leaves the caller's array writeable
            col = np.asarray(value, dtype=dtype).view()
            if col.shape != task.shape or col.ndim != 1:
                raise ValueError(
                    f"column {name!r} has shape {col.shape}, expected {task.shape}"
                )
            col.flags.writeable = False
            setattr(self, name, col)

    @classmethod
    def from_records(cls, records: Iterable[RequestRecord]) -> "RecordTable":
        """The table of ``records`` (task names in first-appearance order);
        a table is returned as is."""
        if isinstance(records, RecordTable):
            return records
        records = list(records)
        index: dict = {}
        task = [index.setdefault(r.task_name, len(index)) for r in records]
        return cls(index, task, *([getattr(r, c) for r in records] for c in COLUMNS))

    @classmethod
    def concat(cls, tables: Iterable["RecordTable"]) -> "RecordTable":
        """The tables' records one after another (names merged in order)."""
        tables = list(tables)
        if not tables:
            return cls.from_records(())
        index: dict = {}
        for t in tables:
            for name in t.names:
                index.setdefault(name, len(index))
        task = [
            np.array([index[n] for n in t.names], dtype=np.intp)[t.task] for t in tables
        ]
        return cls(
            index,
            np.concatenate(task),
            *(np.concatenate([getattr(t, c) for t in tables]) for c in COLUMNS),
        )

    # -- derived columns (RequestRecord's properties, elementwise) -----------

    @property
    def latency_s(self) -> np.ndarray:
        return self.completion_s - self.arrival_s

    @property
    def met_deadline(self) -> np.ndarray:
        return self.completion_s <= self.deadline_s + 1e-12

    @property
    def queueing_s(self) -> np.ndarray:
        q = self.latency_s - (self.dev_busy_s + self.srv_busy_s + self.net_busy_s)
        return np.where(q > 0.0, q, 0.0)  # max(0.0, q), NaN and -0.0 included

    def task_names(self) -> np.ndarray:
        """Each record's task name (an object column)."""
        return np.array(self.names, dtype=object)[self.task]

    # -- sequence protocol ----------------------------------------------------

    def __len__(self) -> int:
        return self.task.size

    def _build(self, lo: int, hi: int) -> List[RequestRecord]:
        names = self.names
        return list(map(
            RequestRecord,
            [names[t] for t in self.task[lo:hi].tolist()],
            *(getattr(self, c)[lo:hi].tolist() for c in COLUMNS),
        ))

    def __iter__(self) -> Iterator[RequestRecord]:
        for lo in range(0, len(self), _RECORD_BLOCK):
            yield from self._build(lo, lo + _RECORD_BLOCK)

    def __getitem__(self, i) -> Union[RequestRecord, "RecordTable"]:
        if isinstance(i, slice):
            return RecordTable(
                self.names, self.task[i], *(getattr(self, c)[i] for c in COLUMNS)
            )
        n = len(self)
        i = operator.index(i)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"record index {i} out of range for {n} records")
        return self._build(i, i + 1)[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, RecordTable):
            if len(self) != len(other):
                return False
            same_tasks = (
                np.array_equal(self.task, other.task)
                if self.names == other.names
                else bool(np.all(self.task_names() == other.task_names()))
            )
            return same_tasks and all(
                np.array_equal(getattr(self, c), getattr(other, c)) for c in COLUMNS
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __reduce__(self):
        return (RecordTable, (self.names, self.task, *(getattr(self, c) for c in COLUMNS)))

    def __repr__(self) -> str:
        return f"RecordTable({len(self)} records, tasks={list(self.names)})"
