"""Per-request plan realization: difficulty -> exit -> resource demands.

The optimizer works with expectations; the simulator needs the *realized*
behaviour of each sampled input.  Both simulator engines realize requests
here, as rows of one float64 matrix (:data:`COLS`):

- :class:`TaskRealizer` draws one task's arrivals
  (:func:`~repro.sim.sources.arrival_stream`), difficulties (one derived,
  stream-sequential generator), correctness and jitter uniforms
  (counter-based, addressed by request id), window by window, so the rows
  do not depend on how the horizon is cut;
- :class:`RealizationTable` maps a difficulty to its exit position (an exit
  fires iff the difficulty is below its cutoff, the threshold semantics of
  :mod:`repro.models.exits`) and the position to the demands, with the same
  cumulative branch costs and partition accounting as
  :func:`repro.core.surgery.evaluate_plan` — averaging realized demands over
  the difficulty distribution reproduces the plan's
  :class:`~repro.core.plan.PlanFeatures` (a property test pins this);
- :func:`record_fields` and :func:`build_records` turn completed rows into
  the run's :class:`~repro.sim.entities.RecordTable` — one column per
  record field, no per-request object — and the windowed SLO feed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.plan import SurgeryPlan, TaskSpec
from repro.errors import SimulationError
from repro.models.exits import GATE_SHARPNESS, difficulty_cutoffs
from repro.models.multiexit import MultiExitModel
from repro.rng import derive, derive_material
from repro.rng_vec import first_uniforms
from repro.sim.entities import RecordTable
from repro.sim.sources import arrival_stream
from repro.telemetry.windows import WindowedMetrics

#: per-request columns of one realized row; all float64, so a batch of
#: requests (and every stage buffer of the sweep) is one ``(n, len(COLS))``
#: matrix.  The first ten are realized; the engines fill in the rest.
COLS = (
    "req_id", "arrival", "deadline", "position", "offloaded", "correct",
    "dev_flops", "up_bytes", "srv_flops", "down_bytes",
    "dev_done", "up_done", "srv_done", "completion",
    "dev_busy", "net_busy", "srv_busy",
)
(
    REQ, ARR, DEADLINE, POS, OFF, CORRECT,
    DEV_FLOPS, UP_BYTES, SRV_FLOPS, DOWN_BYTES,
    DEV_DONE, UP_DONE, SRV_DONE, COMPLETION,
    DEV_BUSY, NET_BUSY, SRV_BUSY,
) = range(len(COLS))

#: Jittered pipeline stages, in submission order.  Each (task, stage) pair
#: owns one derived RNG material; request ``req_id`` draws its per-stage
#: factors counter-style from those materials, so the draws do not depend
#: on the evaluation order.
JITTER_STAGES = ("dev", "srv", "up", "down")


def jitter_materials(seed: int, task_name: str) -> Dict[str, List[int]]:
    """Per-stage child-seed materials for one task's service-time jitter."""
    return {
        st: derive_material(seed, "jitter", task_name, st) for st in JITTER_STAGES
    }


def jitter_factors(
    material: List[int], req_ids: np.ndarray, sigma: float
) -> np.ndarray:
    """Mean-one log-normal jitter factors for a batch of request ids.

    Factor ``exp(σ·Φ⁻¹(u) − σ²/2)`` where ``u`` is the request's first
    uniform on the stage's derived stream — multiplicative noise with
    ``E[factor] = 1``, so jittered demands stay centred on the optimizer's
    expectations and ``log`` relative spread matches the solver's
    ``service_noise`` σ exactly.
    """
    from scipy.special import ndtri

    u = first_uniforms(material, np.asarray(req_ids))
    return np.exp(sigma * ndtri(u) - 0.5 * sigma * sigma)


class RealizationTable:
    """Per-(model, plan) realization precompute.

    Demands depend on the sampled difficulty only through the taken exit
    position, so one plan admits a table of per-position demands plus the
    exit cutoffs; realizing a batch is then an ``argmax`` over cutoffs, a
    table gather, and one vectorized correctness draw.
    """

    def __init__(self, model: MultiExitModel, plan: SurgeryPlan) -> None:
        from repro.models.quantization import quantization_level

        plan.validate_against(model)
        self.model = model
        self.plan = plan
        lvl = quantization_level(plan.quantization)
        kept = list(plan.kept_exits)
        comp = model.competences[kept]
        self.cutoffs = difficulty_cutoffs(comp, np.asarray(plan.thresholds), GATE_SHARPNESS)
        self.competences = comp

        c = plan.partition_cut
        cut_flops = model.cut_flops
        cut_bytes = model.cut_bytes
        attach = model.exit_cut_indices[kept]
        backbone = np.array([model.exits[k].backbone_flops for k in kept], dtype=float)
        branch = np.array([model.exits[k].branch_flops for k in kept], dtype=float)
        on_device = attach <= c

        n_pos = len(kept)
        self.dev_flops = np.empty(n_pos)
        self.srv_flops = np.empty(n_pos)
        self.up_bytes = np.empty(n_pos)
        self.down_bytes = np.empty(n_pos)
        self.offloaded = np.empty(n_pos, dtype=bool)
        self.accuracy_delta = lvl.accuracy_delta
        for pos in range(n_pos):
            offloaded = int(attach[pos]) > c
            dev_backbone = min(float(backbone[pos]), float(cut_flops[c]))
            srv_backbone = max(float(backbone[pos]) - float(cut_flops[c]), 0.0)
            dev_branch = float(np.sum(np.where(on_device[: pos + 1], branch[: pos + 1], 0.0)))
            srv_branch = float(np.sum(np.where(on_device[: pos + 1], 0.0, branch[: pos + 1])))
            self.dev_flops[pos] = (dev_backbone + dev_branch) / lvl.compute_speedup
            self.srv_flops[pos] = (
                srv_backbone + (srv_branch if offloaded else 0.0)
            ) / lvl.compute_speedup
            self.up_bytes[pos] = float(cut_bytes[c]) * lvl.wire_scale if offloaded else 0.0
            self.down_bytes[pos] = (
                float(model.result_bytes) * lvl.wire_scale if offloaded else 0.0
            )
            self.offloaded[pos] = offloaded

    def positions(self, difficulties: np.ndarray) -> np.ndarray:
        """Exit position (within the kept exits) of each difficulty: the
        first kept exit whose cutoff the difficulty does not exceed (the
        final exit's cutoff is infinite, so it always fires)."""
        fires = difficulties[:, None] <= self.cutoffs[None, :]
        return np.argmax(fires, axis=1)

    def p_correct(self, positions: np.ndarray, difficulties: np.ndarray) -> np.ndarray:
        """Clipped per-request correctness probability at the taken exits.

        Same elementwise ops as ``accuracy_model.correctness`` on the
        (competence, difficulty) pairs, computed directly instead of through
        its broadcasting (n, n) matrix.
        """
        from repro.models.accuracy import DIFFICULTY_SENSITIVITY, sigmoid

        probs = sigmoid(
            DIFFICULTY_SENSITIVITY * (self.competences[positions] - difficulties)
        )
        return np.clip(probs + self.accuracy_delta, 0.01, 0.999)


def shared_table(
    tables: Dict[Tuple[int, SurgeryPlan], RealizationTable],
    model: MultiExitModel,
    plan: SurgeryPlan,
) -> RealizationTable:
    """``model``'s read-only table for ``plan``, built once per ``tables``:
    tasks with the same model and surgery plan share it."""
    key = (id(model), plan)
    table = tables.get(key)
    if table is None:
        table = tables[key] = RealizationTable(model, plan)
    return table


class TaskRealizer:
    """One task's request stream, realized window by window.

    :meth:`draw` takes the next window's arrivals, request ids and clipped
    difficulties; :meth:`rows` realizes them under one plan's
    :class:`RealizationTable`.  Arrivals and difficulties are
    stream-sequential and the correctness and jitter uniforms counter-based,
    so the rows do not depend on the window boundaries — nor on which
    table realizes which window, which is how a run switches plans
    mid-stream.
    """

    __slots__ = (
        "task", "arrivals", "diff_rng", "exec_material", "sigma", "jitter", "generated",
    )

    def __init__(self, task: TaskSpec, cfg) -> None:
        self.task = task
        self.arrivals = arrival_stream(
            task.arrival_rate, cfg.horizon_s, derive(cfg.seed, "arrivals", task.name)
        )
        self.diff_rng = derive(cfg.seed, "difficulty", task.name)
        self.exec_material = derive_material(cfg.seed, "exec", task.name)
        self.sigma = cfg.service_noise
        # per-(task, stage) jitter streams, applied to the demand columns
        self.jitter: List[Tuple[int, List[int]]] = []
        if self.sigma > 0:
            mats = jitter_materials(cfg.seed, task.name)
            self.jitter = [
                (DEV_FLOPS, mats["dev"]), (SRV_FLOPS, mats["srv"]),
                (UP_BYTES, mats["up"]), (DOWN_BYTES, mats["down"]),
            ]
        self.generated = 0

    def draw(self, t_end: float):
        """``(req_id, arrival, difficulty)`` of the requests arriving
        between the previous call's ``t_end`` and this one's."""
        arrival = self.arrivals.take_until(t_end)
        m = arrival.size
        difficulty = np.clip(self.task.model.difficulty.sample(self.diff_rng, m), 0.0, 1.0)
        req_id = np.arange(self.generated, self.generated + m, dtype=np.int64)
        self.generated += m
        return req_id, arrival, difficulty

    def rows(
        self,
        table: RealizationTable,
        req_id: np.ndarray,
        arrival: np.ndarray,
        difficulty: np.ndarray,
    ) -> np.ndarray:
        """Realized rows of drawn requests under ``table``'s plan."""
        pos = table.positions(difficulty)
        rows = np.zeros((arrival.size, len(COLS)))
        rows[:, REQ] = req_id
        rows[:, ARR] = arrival
        rows[:, DEADLINE] = arrival + self.task.deadline_s
        rows[:, POS] = pos
        rows[:, OFF] = table.offloaded[pos]
        rows[:, CORRECT] = (
            first_uniforms(self.exec_material, req_id) < table.p_correct(pos, difficulty)
        )
        rows[:, DEV_FLOPS] = table.dev_flops[pos]
        rows[:, UP_BYTES] = table.up_bytes[pos]
        rows[:, SRV_FLOPS] = table.srv_flops[pos]
        rows[:, DOWN_BYTES] = table.down_bytes[pos]
        for col, material in self.jitter:
            rows[:, col] *= jitter_factors(material, req_id, self.sigma)
        return rows

    def realize(self, table: RealizationTable, t_end: float) -> np.ndarray:
        """Rows of the requests arriving in the next window."""
        return self.rows(table, *self.draw(t_end))


def record_fields(
    rows: np.ndarray,
    task: np.ndarray,
    names: Sequence[str],
    warmup_s: float,
    windowed: Optional[WindowedMetrics] = None,
    order: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    degraded: Optional[np.ndarray] = None,
) -> list:
    """The record fields of completed rows, and their windowed SLO feed.

    ``task`` holds each row's index into ``names``.  Rows arriving before
    ``warmup_s`` are dropped; the rest yield ``[names, task index,
    *columns]`` — :class:`~repro.sim.entities.RecordTable`'s constructor
    arguments, one column per :class:`~repro.sim.entities.RequestRecord`
    field after the task — in ``order(rows, task)`` (the rows' own order
    when ``order`` is None).  ``windowed``, if given, receives each task's
    completions in request order — one whole-horizon batch per task, so
    both engines feed it the same float accumulation order.  ``degraded``
    flags rows completed by graceful degradation.  The columns hold no
    reference to ``rows``, so a caller can free the rows before
    :func:`build_records` makes the table.
    """
    late = rows[:, COMPLETION] < rows[:, ARR]
    if np.any(late):
        bad = int(np.argmax(late))
        raise SimulationError(
            f"request {names[task[bad]]}#{int(rows[bad, REQ])} "
            "completes before it arrives"
        )
    # orders over every row, then filtered: the kept rows keep their
    # relative order, and no filtered copy of the rows is made
    keep = rows[:, ARR] >= warmup_s
    if windowed is not None:
        by_req = np.lexsort((rows[:, REQ], task))
        by_req = by_req[keep[by_req]]
        bounds = np.searchsorted(task[by_req], np.arange(len(names) + 1))
        for i, name in enumerate(names):
            sel = by_req[bounds[i] : bounds[i + 1]]
            comp = rows[sel, COMPLETION]
            windowed.observe(
                name,
                comp,
                comp - rows[sel, ARR],
                comp <= rows[sel, DEADLINE] + 1e-12,
            )
    perm = order(rows, task) if order is not None else np.arange(rows.shape[0])
    perm = perm[keep[perm]]
    fields = [
        tuple(names),
        task[perm],
        rows[perm, REQ].astype(np.int64),
        rows[perm, ARR],
        rows[perm, COMPLETION],
        rows[perm, DEADLINE],
        rows[perm, POS].astype(np.int64),
        rows[perm, OFF] > 0,
        rows[perm, CORRECT] > 0,
        rows[perm, DEV_BUSY],
        rows[perm, SRV_BUSY],
        rows[perm, NET_BUSY],
    ]
    if degraded is not None:
        fields.append(degraded[perm])
    return fields


def build_records(fields: list) -> RecordTable:
    """The :class:`~repro.sim.entities.RecordTable` of :func:`record_fields`'
    columns."""
    return RecordTable(*fields)
