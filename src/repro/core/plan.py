"""Plan data model: tasks, surgery plans, features, and joint solutions.

**The linearity property.**  Fix a surgery plan (kept exits E, thresholds θ,
partition cut c) for a task on device D considering server S over link L.
Let ``p_k`` be the exit probabilities induced by θ.  The expected end-to-end
latency decomposes as::

    E[T] = E[F_dev] / R_dev            (device compute)
         + OH_dev                      (one device invocation)
         + p_off * (rtt + OH_srv)      (network round trip + server dispatch)
         + E[B_up] / (BW * y)          (bytes on the wire at bandwidth share y)
         + E[F_srv] / (R_srv * x)      (server compute at compute share x)

where ``E[F_dev]``, ``E[F_srv]``, ``E[B_up]`` (= p_off·(boundary + result
bytes)) and ``p_off`` (probability the sample crosses the network) depend
*only* on the plan — never on x, y, or which server is chosen.  A candidate
plan is therefore fully described by the 5-tuple stored in
:class:`PlanFeatures`; re-evaluating latency when the allocator changes
shares or servers is a handful of multiplies.  This is what lets the joint
optimizer sweep thousands of (plan, allocation) combinations per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.devices.device import DeviceSpec
from repro.errors import PlanError
from repro.models.multiexit import MultiExitModel


@dataclass(frozen=True)
class TaskSpec:
    """One latency-sensitive inference task (a user / stream / sensor).

    Parameters
    ----------
    name:
        Unique task identifier.
    model:
        The task's multi-exit DNN.
    device_name:
        The end device this task originates on (must exist in the cluster).
    deadline_s:
        End-to-end latency requirement.
    accuracy_floor:
        Minimum acceptable expected accuracy in (0, 1].
    arrival_rate:
        Mean request rate (req/s) of this task's stream; drives queueing
        terms and the simulator's arrival process.
    weight:
        Relative importance in weighted-latency objectives (default 1).
    """

    name: str
    model: MultiExitModel
    device_name: str
    deadline_s: float = 0.1
    accuracy_floor: float = 0.6
    arrival_rate: float = 5.0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.deadline_s) and self.deadline_s > 0):
            raise PlanError(f"{self.name}: deadline must be finite and positive")
        if not (0.0 < self.accuracy_floor <= 1.0):
            raise PlanError(f"{self.name}: accuracy floor must be in (0,1]")
        if not (math.isfinite(self.arrival_rate) and self.arrival_rate > 0):
            raise PlanError(f"{self.name}: arrival rate must be finite and positive")
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise PlanError(f"{self.name}: weight must be finite and positive")


@dataclass(frozen=True, slots=True)
class SurgeryPlan:
    """A concrete surgical configuration of one task's model.

    Attributes
    ----------
    kept_exits:
        Indices into ``model.exits`` of the exits that remain after surgery,
        strictly increasing; the final exit's index must be last.
    thresholds:
        Confidence threshold per kept exit (same length); last must be 0.
    partition_cut:
        Index into the backbone's ``cut_points``: layers at cut index <=
        ``partition_cut`` run on the device, the rest on the server.  0 means
        "cut after the input" (full offload); the last index means fully
        local execution.
    """

    kept_exits: Tuple[int, ...]
    thresholds: Tuple[float, ...]
    partition_cut: int
    #: precision level ("fp32" | "fp16" | "int8"); see repro.models.quantization
    quantization: str = "fp32"

    def __post_init__(self) -> None:
        from repro.models.quantization import LEVELS

        if self.quantization not in LEVELS:
            raise PlanError(
                f"unknown quantization {self.quantization!r}; available {sorted(LEVELS)}"
            )
        if len(self.kept_exits) != len(self.thresholds):
            raise PlanError(
                f"kept_exits/thresholds length mismatch: "
                f"{self.kept_exits} vs {self.thresholds}"
            )
        if not self.kept_exits:
            raise PlanError("a plan must keep at least the final exit")
        ke = list(self.kept_exits)
        if ke != sorted(set(ke)):
            raise PlanError(f"kept_exits must be strictly increasing: {ke}")
        if self.thresholds[-1] != 0.0:
            raise PlanError("final kept exit must have threshold 0")
        for t in self.thresholds:
            if not (0.0 <= t < 1.0):
                raise PlanError(f"threshold {t} outside [0,1)")
        if self.partition_cut < 0:
            raise PlanError(f"negative partition cut {self.partition_cut}")

    def validate_against(self, model: MultiExitModel) -> None:
        """Check indices are consistent with a specific model."""
        n_exits = model.num_exits
        if self.kept_exits[-1] != n_exits - 1:
            raise PlanError(
                f"plan must keep the final exit (index {n_exits - 1}), "
                f"kept {self.kept_exits}"
            )
        if any(k < 0 or k >= n_exits for k in self.kept_exits):
            raise PlanError(f"exit index out of range: {self.kept_exits}")
        n_cuts = len(model.backbone.cut_points)
        if self.partition_cut >= n_cuts:
            raise PlanError(
                f"partition cut {self.partition_cut} out of range (< {n_cuts})"
            )


@dataclass(frozen=True, slots=True)
class PlanFeatures:
    """Allocation-independent cost/quality summary of one surgery plan.

    All expectations are per request.  See the module docstring for how
    latency is reconstructed from these numbers.
    """

    plan: SurgeryPlan
    dev_flops: float  # E[FLOPs executed on the end device]
    srv_flops: float  # E[FLOPs executed on the server]
    wire_bytes: float  # E[bytes crossing the network, both directions]
    p_offload: float  # P(request crosses the network)
    accuracy: float  # expected (exit-rate weighted) accuracy
    exit_probs: Tuple[float, ...] = ()  # per kept exit, diagnostics
    # second moments (E[X^2], unconditional) — drive the M/G/1 congestion
    # terms; multi-exit service times are bimodal, so these matter
    dev_flops_sq: float = 0.0
    srv_flops_sq: float = 0.0
    wire_bytes_sq: float = 0.0

    def __post_init__(self) -> None:
        if min(self.dev_flops, self.srv_flops, self.wire_bytes) < 0:
            raise PlanError("negative expected cost in plan features")
        if not (0.0 - 1e-12 <= self.p_offload <= 1.0 + 1e-12):
            raise PlanError(f"p_offload {self.p_offload} outside [0,1]")
        if not (0.0 < self.accuracy <= 1.0):
            raise PlanError(f"accuracy {self.accuracy} outside (0,1]")
        for m1, m2, label in (
            (self.dev_flops, self.dev_flops_sq, "dev"),
            (self.srv_flops, self.srv_flops_sq, "srv"),
            (self.wire_bytes, self.wire_bytes_sq, "wire"),
        ):
            if m2 < 0:
                raise PlanError(f"negative second moment ({label})")
            # E[X^2] >= E[X]^2 must hold; zero means "not provided"
            if m2 > 0 and m2 < m1 * m1 * (1 - 1e-9):
                raise PlanError(f"impossible moments for {label}: {m1}, {m2}")

    @property
    def is_local_only(self) -> bool:
        """True when no request of this plan ever touches a server."""
        return self.p_offload <= 0.0 and self.srv_flops <= 0.0


#: The numeric fields of :class:`PlanFeatures`, in declaration order: the
#: columns of a :class:`PlanTable` and of a candidate set.
FEATURE_COLUMNS: Tuple[str, ...] = (
    "dev_flops",
    "srv_flops",
    "wire_bytes",
    "p_offload",
    "accuracy",
    "dev_flops_sq",
    "srv_flops_sq",
    "wire_bytes_sq",
)


def suspect_rows(columns: Dict[str, np.ndarray]) -> np.ndarray:
    """Rows of feature ``columns`` that may fail :class:`PlanFeatures`' checks.

    The same comparisons as ``PlanFeatures.__post_init__``, one array pass
    per check.  A superset: rows holding NaN are included (the scalar checks
    let some through), so building each returned row's object raises
    exactly where the object constructor would.
    """
    dev, srv, wire = columns["dev_flops"], columns["srv_flops"], columns["wire_bytes"]
    p, acc = columns["p_offload"], columns["accuracy"]
    ok = (
        (np.minimum(np.minimum(dev, srv), wire) >= 0)
        & (0.0 - 1e-12 <= p) & (p <= 1.0 + 1e-12)
        & (0.0 < acc) & (acc <= 1.0)
    )
    for m1, m2 in (
        (dev, columns["dev_flops_sq"]),
        (srv, columns["srv_flops_sq"]),
        (wire, columns["wire_bytes_sq"]),
    ):
        ok &= (m2 >= 0) & ~((m2 > 0) & (m2 < m1 * m1 * (1 - 1e-9)))
    return np.flatnonzero(~ok)


class PlanTable:
    """A model's enumerated surgery plans as columns, one row per plan.

    Each row holds the :data:`FEATURE_COLUMNS` as float64 columns and a
    compact plan index: ``group`` (a kept-exits × thresholds pair), ``cut``
    (the partition cut) and ``level`` (an index into ``levels``, the
    precision names).  ``groups[g]`` is ``(kept_exits, thresholds,
    exit_probs)``, stored once for all of the group's rows.

    No :class:`PlanFeatures` object is held.  :meth:`features` builds the
    objects of chosen rows; indexing and iteration build them on demand, so
    a table reads like the list of features it encodes.
    """

    __slots__ = FEATURE_COLUMNS + ("groups", "levels", "group", "cut", "level")

    def __init__(
        self,
        groups: Sequence[Tuple[Tuple[int, ...], Tuple[float, ...], Tuple[float, ...]]],
        levels: Sequence[str],
        group: np.ndarray,
        cut: np.ndarray,
        level: np.ndarray,
        columns: Dict[str, np.ndarray],
    ) -> None:
        self.groups = tuple(groups)
        self.levels = tuple(levels)
        self.group, self.cut, self.level = group, cut, level
        for name in FEATURE_COLUMNS:
            setattr(self, name, columns[name])

    def __len__(self) -> int:
        return len(self.group)

    def __getitem__(self, key: Union[int, slice]):
        rows = range(len(self))[key]
        if isinstance(key, slice):
            return self.features(rows)
        return self.features([rows])[0]

    def __iter__(self) -> Iterator[PlanFeatures]:
        return iter(self.features(range(len(self))))

    def features(
        self, rows: Iterable[int], memo: Optional[Dict[int, PlanFeatures]] = None
    ) -> List[PlanFeatures]:
        """The :class:`PlanFeatures` of ``rows``, in order.

        ``memo`` (row -> object) is read before building and filled after,
        so sets that share one memo share one object per row.
        """
        rows = np.asarray(rows, dtype=np.intp)
        cols = [getattr(self, name)[rows].tolist() for name in FEATURE_COLUMNS]
        groups, levels = self.groups, self.levels
        out: List[PlanFeatures] = []
        for r, g, c, lv, dev, srv, wire, p, acc, dev_sq, srv_sq, wire_sq in zip(
            rows.tolist(), self.group[rows].tolist(), self.cut[rows].tolist(),
            self.level[rows].tolist(), *cols,
        ):
            f = memo.get(r) if memo is not None else None
            if f is None:
                kept, thresholds, probs = groups[g]
                f = PlanFeatures(
                    plan=SurgeryPlan(
                        kept_exits=kept,
                        thresholds=thresholds,
                        partition_cut=c,
                        quantization=levels[lv],
                    ),
                    dev_flops=dev,
                    srv_flops=srv,
                    wire_bytes=wire,
                    p_offload=p,
                    accuracy=acc,
                    exit_probs=probs,
                    dev_flops_sq=dev_sq,
                    srv_flops_sq=srv_sq,
                    wire_bytes_sq=wire_sq,
                )
                if memo is not None:
                    memo[r] = f
            out.append(f)
        return out


@dataclass(frozen=True)
class JointPlan:
    """A solved instance: per-task surgery + allocation decisions.

    Attributes
    ----------
    assignment:
        task name -> server index (or ``None`` for local-only execution).
    features:
        task name -> chosen :class:`PlanFeatures`.
    compute_shares / bandwidth_shares:
        task name -> share in (0, 1] of the assigned server / access link
        (1.0 and unused for local-only tasks).
    latencies:
        task name -> predicted expected end-to-end latency (s).
    objective_value:
        Value of the objective this plan was optimized for.
    """

    assignment: Dict[str, Optional[int]]
    features: Dict[str, PlanFeatures]
    compute_shares: Dict[str, float]
    bandwidth_shares: Dict[str, float]
    latencies: Dict[str, float]
    objective_value: float

    def summary(self) -> str:
        """One line per task for logs and examples."""
        lines = []
        for name in sorted(self.latencies):
            srv = self.assignment[name]
            srv_s = f"srv{srv}" if srv is not None else "local"
            f = self.features[name]
            lines.append(
                f"{name:>10s} -> {srv_s:<6s} cut@{f.plan.partition_cut:<3d} "
                f"exits={list(f.plan.kept_exits)} thr={[round(t, 2) for t in f.plan.thresholds]} "
                f"x={self.compute_shares[name]:.2f} y={self.bandwidth_shares[name]:.2f} "
                f"lat={self.latencies[name] * 1e3:7.2f}ms acc={f.accuracy:.3f}"
            )
        return "\n".join(lines)
