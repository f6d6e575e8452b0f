"""The predicted-latency model: what a plan costs under its shares.

One prediction drives the joint optimization: a plan's latency under a
concrete allocation (device, server, access link, compute and bandwidth
shares).  The surgery step ranks a task's candidates by it and the
allocation step prices complete solutions with it, so it lives here once,
in two forms that share every expression:

- :func:`predicted_latency_vec` prices a whole candidate set (anything with
  the :class:`~repro.core.candidates.CandidateSet` feature arrays) in one
  array pass, under one placement or under k of them at once (a ``(k, 1)``
  column per placement parameter against the candidate axis);
- :func:`predicted_latency` prices one :class:`~repro.core.plan.PlanFeatures`
  on Python floats, for the per-task loops of move pricing, solution
  evaluation and threshold refinement.

The two are twins: for the same inputs the scalar result equals the vector
entry bit for bit (``tests/property/test_latency_model.py``), so the plan a
search ranks best is priced with the same float.

**Terms.**  The mean μ is :func:`plan_latency`: device compute (plus its
dispatch overhead when the plan runs work locally), then for offloaded
mass server compute, RTT plus server overhead, and wire time.  With an
``arrival_rate`` each stage adds its M/G/1 wait — device stage on the full
stream, server and link stages on the thinned stream ``λ·p_offload`` with
conditional service moments (:mod:`repro.core.allocation` describes the
tandem model).  A stage at utilization >= 1 makes the wait ``inf``;
``overload="penalty"`` replaces it by :data:`OVERLOAD_PENALTY_S` times the
bottleneck utilization, ``overload="inf"`` keeps ``inf``.  An active
``risk`` config adds ``κ(ε)·σ``, where σ sums the stage stds and the
waits' surrogate stds (:mod:`repro.core.risk`), the latter computed from
the same waits μ carries.

Placement is given by ``server``: ``None`` is local execution, where plans
that offload anything price ``inf``; otherwise ``server`` and ``link`` are
the task's server and its access link to it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from repro.core.plan import PlanFeatures
from repro.core.queueing import mg1_wait, mg1_wait_vec
from repro.core.risk import stage_std, wait_std
from repro.devices.device import DeviceSpec
from repro.errors import PlanError
from repro.network.link import Link

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.candidates import CandidateSet
    from repro.core.risk import RiskConfig

#: Surrogate latency (seconds per unit of bottleneck utilization) charged in
#: ``overload="penalty"`` mode instead of an infinite wait.  It dwarfs any
#: real latency, so penalized plans never beat stable ones, while still
#: ordering overloaded plans by how overloaded they are: when no stable plan
#: exists the search sheds the most load rather than choosing arbitrarily
#: among equally infinite options.
OVERLOAD_PENALTY_S = 1e4


def _per_row(value, attr: Optional[str] = None):
    """One placement's parameter as is, or several placements' (a sequence)
    as a ``(k, 1)`` column that broadcasts against the candidate axis.
    ``attr`` reads that attribute of the object, or of each one."""
    if isinstance(value, (list, tuple, np.ndarray)):
        if attr is not None:
            value = [getattr(v, attr) for v in value]
        return np.asarray(value, dtype=float).reshape(-1, 1)
    return getattr(value, attr) if attr is not None else value


def _pow2(value):
    """``value**2`` by the C library's ``pow``, as a Python or NumPy scalar
    squares it, elementwise over a column.  ``pow(v, 2)`` and ``v*v`` differ
    in the last bit for ~0.1% of doubles, so a column squared as ``v*v``
    would not price as the one-placement calls do."""
    if isinstance(value, np.ndarray):
        return np.array([v**2 for v in value.ravel().tolist()]).reshape(value.shape)
    return value**2


def _remote(server, link, compute_share, bandwidth_share):
    """``(server rate at its share, server overhead, link bandwidth at its
    share, RTT)``, each a scalar or a per-placement column."""
    return (
        _per_row(server, "blended_flops") * _per_row(compute_share),
        _per_row(server, "overhead_s"),
        _per_row(link, "bandwidth_bps") * _per_row(bandwidth_share),
        _per_row(link, "rtt_s"),
    )


def plan_latency(
    dev_flops: np.ndarray,
    srv_flops: np.ndarray,
    wire_bytes: np.ndarray,
    p_offload: np.ndarray,
    device: Union[DeviceSpec, Sequence[DeviceSpec]],
    server: Union[None, DeviceSpec, Sequence[DeviceSpec]] = None,
    link: Union[None, Link, Sequence[Link]] = None,
    compute_share: Union[float, Sequence[float]] = 1.0,
    bandwidth_share: Union[float, Sequence[float]] = 1.0,
) -> np.ndarray:
    """Expected service latency μ for feature arrays under an allocation.

    Fully vectorized; feature arrays broadcast together.  For plans with any
    offloaded mass (``p_offload > 0`` or ``srv_flops > 0``) a ``server`` and
    ``link`` are required.  Each of ``device``, ``server``, ``link`` and the
    shares may instead be a sequence over k placements: the result then has
    a leading axis of length k, and entry ``[i]`` equals the call with the
    i-th values bit for bit.
    """
    dev_flops = np.asarray(dev_flops, dtype=float)
    srv_flops = np.asarray(srv_flops, dtype=float)
    wire_bytes = np.asarray(wire_bytes, dtype=float)
    p_offload = np.asarray(p_offload, dtype=float)

    r_dev = _per_row(device, "blended_flops")
    # the device segment (and its dispatch overhead) only runs if the plan
    # actually executes work locally
    t = np.where(dev_flops > 0, dev_flops / r_dev + _per_row(device, "overhead_s"), 0.0)

    if (p_offload > 0).any() or (srv_flops > 0).any() or (wire_bytes > 0).any():
        if server is None or link is None:
            raise PlanError("plans with offloaded work need a server and a link")
        for label, share in (("compute", compute_share), ("bandwidth", bandwidth_share)):
            x = _per_row(share)
            if not (((0.0 < x) & (x <= 1.0 + 1e-12)).all() if isinstance(x, np.ndarray)
                    else 0.0 < x <= 1.0 + 1e-12):
                raise PlanError(f"{label} share must be in (0,1], got {share}")
        r_srv, oh_s, bw, rtt = _remote(server, link, compute_share, bandwidth_share)
        t = t + (
            srv_flops / r_srv
            + p_offload * (rtt + oh_s)
            + wire_bytes / bw
        )
    return t


def predicted_latency_vec(
    cs: "CandidateSet",
    device: Union[DeviceSpec, Sequence[DeviceSpec]],
    server: Union[None, DeviceSpec, Sequence[DeviceSpec]] = None,
    link: Union[None, Link, Sequence[Link]] = None,
    compute_share: Union[float, Sequence[float]] = 1.0,
    bandwidth_share: Union[float, Sequence[float]] = 1.0,
    arrival_rate: Union[None, float, Sequence[float]] = None,
    risk: Optional["RiskConfig"] = None,
    overload: str = "penalty",
) -> np.ndarray:
    """Predicted latency of every candidate of ``cs``: μ, plus the M/G/1
    waits when ``arrival_rate`` is given, plus ``κ·σ`` under an active
    ``risk`` config (see the module docstring).

    Prices k placements in one pass when ``device``, ``server``, ``link``,
    the shares or ``arrival_rate`` are sequences of length k (all placements
    local, or all on a server): a sequence the pass reads makes the result
    ``(k, len(cs))``, and row ``i`` equals the one-placement call bit for bit.
    """
    r_dev, oh_dev = _per_row(device, "blended_flops"), _per_row(device, "overhead_s")
    if server is None:
        t = np.where(cs.dev_flops > 0, cs.dev_flops / r_dev + oh_dev, 0.0)
        t = np.where((cs.p_offload > 0) | (cs.srv_flops > 0), np.inf, t)
    else:
        t = plan_latency(
            cs.dev_flops, cs.srv_flops, cs.wire_bytes, cs.p_offload,
            device, server=server, link=link,
            compute_share=compute_share, bandwidth_share=bandwidth_share,
        )
    lam = None if arrival_rate is None else _per_row(arrival_rate)
    buffered = risk is not None and risk.active
    if lam is None and not buffered:
        return t

    offloads = server is not None and link is not None
    p = cs.p_offload
    oh_d = np.where(cs.dev_flops > 0, oh_dev, 0.0)
    w_dev = cs.dev_flops / r_dev
    s1 = w_dev + oh_d
    r_dev2 = _pow2(r_dev)
    if offloads:
        r_srv, oh_s, bw, rtt = _remote(server, link, compute_share, bandwidth_share)
        r_srv2, bw2, oh_s2 = _pow2(r_srv), _pow2(bw), _pow2(oh_s)
    if lam is not None:
        s2 = cs.dev_flops_sq / r_dev2 + 2 * oh_d * cs.dev_flops / r_dev + oh_d**2
        dev_wait = np.where(s1 > 0, mg1_wait_vec(lam, s1, np.maximum(s2, s1 * s1)), 0.0)
        wait = dev_wait
        rho_max = lam * s1
        if offloads:
            # server and link stages: thinned stream, conditional moments
            with np.errstate(divide="ignore", invalid="ignore"):
                m1 = np.where(p > 0, (cs.srv_flops / p) / r_srv + oh_s, 0.0)
                m2 = np.where(
                    p > 0,
                    (cs.srv_flops_sq / p) / r_srv2
                    + 2 * oh_s * (cs.srv_flops / p) / r_srv
                    + oh_s2,
                    0.0,
                )
                l1 = np.where(p > 0, (cs.wire_bytes / p) / bw, 0.0)
                l2 = np.where(p > 0, (cs.wire_bytes_sq / p) / bw2, 0.0)
            lam_p = lam * p
            srv_wait = mg1_wait_vec(lam_p, m1, np.maximum(m2, m1 * m1))
            link_wait = mg1_wait_vec(lam_p, l1, np.maximum(l2, l1 * l1))
            wait = wait + p * (srv_wait + link_wait)
            rho_max = np.maximum(rho_max, np.maximum(lam_p * m1, lam_p * l1))
        surrogate = OVERLOAD_PENALTY_S * rho_max if overload == "penalty" else np.inf
        t = t + np.where(np.isfinite(wait), wait, surrogate)
    if buffered:
        rv = risk.rel_var
        sigma = stage_std(w_dev, cs.dev_flops_sq / r_dev2, oh_d, 1.0, rv)
        if lam is not None:
            sigma = sigma + wait_std(dev_wait, s1)
        if offloads:
            sigma = (
                sigma
                + stage_std(
                    cs.srv_flops / r_srv, cs.srv_flops_sq / r_srv2, oh_s, p, rv,
                    overhead_sq=oh_s2,
                )
                + stage_std(cs.wire_bytes / bw, cs.wire_bytes_sq / bw2, 0.0, p, rv)
                + stage_std(0.0, 0.0, rtt, p, 0.0, overhead_sq=_pow2(rtt))
            )
            if lam is not None:
                sigma = sigma + wait_std(srv_wait, m1, p) + wait_std(link_wait, l1, p)
        t = t + risk.kappa * sigma
    return t


def predicted_latency(
    f: PlanFeatures,
    device: DeviceSpec,
    server: Optional[DeviceSpec] = None,
    link: Optional[Link] = None,
    compute_share: float = 1.0,
    bandwidth_share: float = 1.0,
    arrival_rate: Optional[float] = None,
    risk: Optional["RiskConfig"] = None,
    overload: str = "penalty",
) -> float:
    """Scalar twin of :func:`predicted_latency_vec` for one plan: the same
    expressions in the same order, on Python floats."""
    p = f.p_offload
    if server is None and (p > 0 or f.srv_flops > 0):
        return math.inf
    r_dev = device.blended_flops
    oh_d = device.overhead_s if f.dev_flops > 0 else 0.0
    w_dev = f.dev_flops / r_dev
    s1 = w_dev + oh_d
    t = s1
    if server is not None:
        oh_s = server.overhead_s
        r_srv = server.blended_flops * compute_share
        bw = link.bandwidth_bps * bandwidth_share
        t = t + (f.srv_flops / r_srv + p * (link.rtt_s + oh_s) + f.wire_bytes / bw)
    lam = arrival_rate
    buffered = risk is not None and risk.active
    if lam is not None:
        s2 = f.dev_flops_sq / r_dev**2 + 2 * oh_d * f.dev_flops / r_dev + oh_d**2
        dev_wait = mg1_wait(lam, s1, max(s2, s1 * s1)) if s1 > 0 else 0.0
        wait = dev_wait
        rho_max = lam * s1
        m1 = l1 = srv_wait = link_wait = 0.0
        if server is not None and p > 0:
            m1 = (f.srv_flops / p) / r_srv + oh_s
            m2 = (
                (f.srv_flops_sq / p) / r_srv**2
                + 2 * oh_s * (f.srv_flops / p) / r_srv
                + oh_s**2
            )
            l1 = (f.wire_bytes / p) / bw
            l2 = (f.wire_bytes_sq / p) / bw**2
            srv_wait = mg1_wait(lam * p, m1, max(m2, m1 * m1))
            link_wait = mg1_wait(lam * p, l1, max(l2, l1 * l1))
            wait = wait + p * (srv_wait + link_wait)
            rho_max = max(rho_max, lam * p * m1, lam * p * l1)
        if math.isfinite(wait):
            t = t + wait
        elif overload == "penalty":
            t = t + OVERLOAD_PENALTY_S * rho_max
        else:
            return math.inf
    if buffered:
        rv = risk.rel_var
        sigma = stage_std(w_dev, f.dev_flops_sq / r_dev**2, oh_d, 1.0, rv)
        if lam is not None:
            sigma = sigma + wait_std(dev_wait, s1)
        if server is not None:
            sigma = (
                sigma
                + stage_std(f.srv_flops / r_srv, f.srv_flops_sq / r_srv**2, oh_s, p, rv)
                + stage_std(f.wire_bytes / bw, f.wire_bytes_sq / bw**2, 0.0, p, rv)
                + stage_std(0.0, 0.0, link.rtt_s, p, 0.0)
            )
            if lam is not None:
                sigma = sigma + wait_std(srv_wait, m1, p) + wait_std(link_wait, l1, p)
        t = t + risk.kappa * sigma
    return float(t)
