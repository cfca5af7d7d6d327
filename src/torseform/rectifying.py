"""Verification of the rectifying condition and the tangent/normal
characterization theorems.

A submanifold is rectifying with axis V when V^⊥ ≠ 0 and V is orthogonal to
the first normal space, g̃(V, Im h) = 0, at every point.  The per-point
residual is

    max_{i<=j} |A_ij| / max(1, |h|_sup |V^⊥|),   A_ij = g̃(V^⊥, h(e_i, e_j)),

with A = A_{V^⊥} and |h|_sup = max_{i<=j} |h(e_i, e_j)|, which is 0 exactly
when V^⊥ ⊥ Im h.
Hypersurfaces with tangent axis are handled as a separate mode (V^⊥ = 0 is
outside the definition but the determinant corollary still applies).

Every check reduces over one FramePacket of the whole parameter sample: its
per-point terms are array expressions of the frame arrays the packet holds
(h_frame, V's frame coefficients t and c, A_{V^⊥}, the frame matrix of ∇̃V),
written once in one table {report key: (terms, Tolerances bound)} per check,
which `linalg.judge` turns into each key's maximum and the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import TORQUED
from .config import DEFAULT, Tolerances
from .errors import GeometryError, PreconditionError
from .immersion import FramePacket, Immersion, frames, over_sample
from .linalg import Judged, dot, item, judge, mv, norm, reduce_max, worst
from .metric import MetricField, VectorField, plane_curvature, riemann


@dataclass(frozen=True)
class RectifyingPointReport:
    """At one point, or at each point of a batch (then every field is an
    array over it)."""

    u: np.ndarray
    residual: float
    v_tan_norm: float
    v_nor_norm: float
    proper: bool
    a_vperp_frob: float
    h_sup: float


def rectifying_at(packet: FramePacket) -> RectifyingPointReport:
    """Residual, properness and |A_{V^⊥}| from a packet that carries the
    field, at its point or at each point of its batch."""
    rows, cols = np.triu_indices(packet.n)
    a_vperp = packet.a_vperp
    numer = np.max(np.abs(a_vperp[..., rows, cols]), axis=-1, initial=0.0)
    h_pairs = np.swapaxes(packet.h_frame[..., rows, cols], -1, -2)   # h(e_i, e_j), i <= j
    h_sup = np.max(norm(h_pairs), axis=-1, initial=0.0)
    # fmax, like Python's max, keeps 1 against a NaN
    residual = numer / np.fmax(1.0, h_sup * packet.v_nor_norm)
    proper_tol = packet.tols.proper_tol
    return RectifyingPointReport(
        u=packet.u, residual=item(residual),
        v_tan_norm=packet.v_tan_norm, v_nor_norm=packet.v_nor_norm,
        proper=(packet.v_tan_norm > proper_tol) & (packet.v_nor_norm > proper_tol),
        a_vperp_frob=item(norm(a_vperp, 2)), h_sup=item(h_sup))


@dataclass(frozen=True)
class RectifyingSceneReport(Judged):
    """The first term is the residual; a proper verdict needs every point
    proper, and in hypersurface mode the terms are 0 and normal_report judges."""

    mode: str                  # "proper-rectifying" | "tangent-axis-hypersurface"
    residual_witness: np.ndarray | None
    all_proper: bool
    normal_report: object = None   # NormalCaseReport in hypersurface mode


def rectifying_scene(imm: Immersion, metric: MetricField, field: VectorField,
                     us, tols: Tolerances = DEFAULT) -> RectifyingSceneReport:
    """Scene-level rectifying verdict over a parameter sample.

    A hypersurface whose axis is everywhere tangent is reported in
    "tangent-axis-hypersurface" mode (determinant corollary checks) and is
    never called proper-rectifying.
    """
    return rectifying_over(frames(imm, metric, us, field=field, tols=tols))


def rectifying_over(packet: FramePacket) -> RectifyingSceneReport:
    """rectifying_scene over a batched packet that carries the field."""
    tols = packet.tols
    rep = rectifying_at(packet)
    terms, passed = judge({"max_residual": (rep.residual, tols.rect_tol),
                           "max_a_vperp": (rep.a_vperp_frob, tols.a_vperp_tol)})
    if packet.codim == 1 and reduce_max(rep.v_nor_norm) <= tols.proper_tol:
        normal_rep = normal_over(packet)
        return RectifyingSceneReport(
            dict.fromkeys(terms, 0.0), normal_rep.passed, mode="tangent-axis-hypersurface",
            residual_witness=None, all_proper=False, normal_report=normal_rep)

    all_proper = bool(np.all(rep.proper))
    return RectifyingSceneReport(
        terms, passed and all_proper, mode="proper-rectifying",
        residual_witness=packet.u[worst(rep.residual)[1]], all_proper=all_proper)


# ---------------------------------------------------------------------------
# Tangent/normal characterization checks
# ---------------------------------------------------------------------------

#: the symbol of each component norm of V that a packet holds
_NORMS = {"v_tan_norm": "|V^⊤|", "v_nor_norm": "|V^⊥|"}


def _component_max(packet: FramePacket, attr: str, vanishing: str = "") -> float:
    """max over the sample of V's component norm `attr`: GeometryError where
    it is not finite, as a NaN neither vanishes nor not, and, for a component
    named `vanishing`, PreconditionError unless it is within proper_tol."""
    if packet.field is None:
        raise PreconditionError("check needs a vector field on the submanifold")
    value, at = worst(getattr(packet, attr))
    u = packet.u[at]
    if not np.isfinite(value):
        raise GeometryError(f"max {_NORMS[attr]} = {value} is not finite at u={u.tolist()}")
    if vanishing and not value <= packet.tols.proper_tol:
        raise PreconditionError(f"{vanishing} does not vanish: {_NORMS[attr]} = "
                                f"{value:.3e} at u={u.tolist()}", witness=u)
    return value


def _umbilic_defect(packet: FramePacket):
    """|A_{V^⊥} + f Id|."""
    return norm(packet.a_vperp + np.asarray(packet.fit.f)[..., None, None] * np.eye(packet.n), 2)


def _max_det(packet: FramePacket):
    """Largest |det A_ξ| over the normal frame, A_{ξ_α} = h_frame[α]."""
    return np.max(np.abs(np.linalg.det(packet.h_frame)), axis=-1, initial=0.0)


@dataclass(frozen=True)
class TangentialCaseReport(Judged):
    """V normal to M: V^⊥ must be parallel in the normal bundle and an
    umbilic direction with A_{V^⊥} = −f Id."""

    max_v_tan: float
    witness_umbilic: np.ndarray


def verify_tangential_vanishes(imm: Immersion, metric: MetricField,
                               field: VectorField, us,
                               tols: Tolerances = DEFAULT) -> TangentialCaseReport:
    return tangential_over(frames(imm, metric, us, field=field, tols=tols))


def tangential_over(packet: FramePacket) -> TangentialCaseReport:
    """verify_tangential_vanishes over a batched packet that carries the field."""
    max_v_tan = _component_max(packet, "v_tan_norm", "tangential component")
    ds, umb = over_sample(_tangential_terms, packet)
    tols = packet.tols
    return TangentialCaseReport(
        *judge({"max_normal_derivative": (ds, tols.parallel_normal_tol),   # |D_X V^⊥|
                "max_umbilic_defect": (umb, tols.umbilic_tol)}),          # |A_{V^⊥} + f Id|
        max_v_tan=max_v_tan, witness_umbilic=packet.u[worst(umb)[1]])


def _tangential_terms(packet: FramePacket):
    """(|D_{e_i} V^⊥| for each tangent e_i, |A_{V^⊥} + f Id|): with V^⊤ = 0,
    D_{e_i} V^⊥ is the normal part of ∇̃_{e_i} V."""
    return np.moveaxis(norm(packet.dv_frame[..., packet.n:]), -1, 0), _umbilic_defect(packet)


@dataclass(frozen=True)
class NormalCaseReport(Judged):
    """V tangent to M: every shape operator is singular, h(·, V^⊤) = 0, and
    ambient and intrinsic curvature agree on planes containing V^⊤."""

    max_v_nor: float
    max_ambient_sectional: float
    max_intrinsic_sectional: float


def verify_normal_vanishes(imm: Immersion, metric: MetricField,
                           field: VectorField, us,
                           tols: Tolerances = DEFAULT) -> NormalCaseReport:
    return normal_over(frames(imm, metric, us, field=field, tols=tols))


def normal_over(packet: FramePacket) -> NormalCaseReport:
    """verify_normal_vanishes over a batched packet that carries the field."""
    max_v_nor = _component_max(packet, "v_nor_norm", "normal component")
    dets, hs, curvs, secs = over_sample(_normal_terms, packet)
    tols = packet.tols
    return NormalCaseReport(
        *judge({"max_det": (dets, tols.det_tol),
                "max_h_vtan": (hs, tols.h_tangent_tol),
                # |g̃(R̃(X,Y)V^⊤, W) − g(R(X,Y)V^⊤, W)| and |K̃(π) − K(π)|, π = Span{X, V^⊤}
                "max_curvature_mismatch": (curvs, tols.curv_match_tol),
                "max_sectional_mismatch": (secs[:, 0], tols.curv_match_tol)}),
        max_v_nor=max_v_nor, max_ambient_sectional=reduce_max(secs[:, 1]),
        max_intrinsic_sectional=reduce_max(secs[:, 2]))


def _normal_terms(packet: FramePacket):
    """(max |det A_ξ|, max_i |h(e_i, V^⊤)|, the curvature mismatches over
    frame triples (i < j, k), and for each plane Span{e_i, V^⊤} the triple
    |K̃ − K|, |K̃|, |K|, which is 0 where either plane is degenerate)."""
    dets = _max_det(packet)
    t = packet.v_tan_frame
    hv = np.einsum("...aij,...j->...ai", packet.h_frame, t)   # h(e_i, V^⊤) components
    hs = np.max(norm(np.swapaxes(hv, -1, -2)), axis=-1, initial=0.0)

    ind = packet.induced
    mp2 = packet.ambient2
    vt = packet.v_tan
    vt_par = mv(np.swapaxes(packet.tangent_coeffs, -1, -2), t)   # V^⊤ = Σ (Bᵀt)_k ∂Ψ/∂uᵏ
    B = [packet.tangent_coeffs[..., i, :] for i in range(packet.n)]
    E = [packet.tangents[..., i, :] for i in range(packet.n)]
    curvs = [abs(mp2.inner(riemann(mp2, E[i], E[j], vt), E[k])
                 - ind.inner(riemann(ind, B[i], B[j], vt_par), B[k]))
             for i in range(packet.n) for j in range(i + 1, packet.n)
             for k in range(packet.n)]
    secs = []
    for i in range(packet.n):
        amb_k, _, amb_degenerate = plane_curvature(mp2, E[i], vt, packet.tols)
        int_k, _, int_degenerate = plane_curvature(ind, B[i], vt_par, packet.tols)
        kept = ~(amb_degenerate | int_degenerate)
        secs.append([np.where(kept, value, 0.0)
                     for value in (abs(amb_k - int_k), abs(amb_k), abs(int_k))])
    return dets, hs, np.array(curvs), np.array(secs)


@dataclass(frozen=True)
class TorquedCaseReport(Judged):
    """Characterization of torqued axes: with V tangent, V^⊤ is concircular
    on M and every A_ξ is singular; with V normal, A_{V^⊥} = −f Id,
    D_X V^⊥ = 0 for X ⊥ W^⊤ and D_{W^⊤} V^⊥ = |W^⊤|² V^⊥.  The other
    case's terms are 0."""

    case: str                      # "tangent" | "normal"
    w_tangent_vanishes: bool = False


def torqued_over(packet: FramePacket, classification) -> TorquedCaseReport:
    """The torqued characterization over a batched packet that carries the
    field, given the scene's torqued classification."""
    if classification.verdict != TORQUED:
        raise PreconditionError(
            f"torqued characterization requires a torqued verdict, got "
            f"'{classification.verdict}'")
    max_tan, max_nor = (_component_max(packet, attr) for attr in _NORMS)
    tols = packet.tols
    concs = dets = umbs = ds = wds = 0.0
    w_tangent_vanishes = False
    if max_nor <= tols.proper_tol:
        # Case V^⊥ = 0: V^⊤ = V on M, concircular intrinsically by the Gauss
        # formula, shape operators singular.
        case = "tangent"
        concs, dets = over_sample(_concircular_terms, packet)
    elif max_tan <= tols.proper_tol:
        # Case V^⊤ = 0: umbilic direction plus the normal-connection
        # identities along W^⊤.
        case = "normal"
        umbs, ds, wds, w_tangent = over_sample(_torqued_normal_terms, packet)
        w_tangent_vanishes = not np.any(w_tangent)
    else:
        raise PreconditionError(
            f"neither component vanishes on the sample "
            f"(max |V^⊤| = {max_tan:.3e}, max |V^⊥| = {max_nor:.3e})")
    return TorquedCaseReport(
        *judge({"max_concircular_residual": (concs, tols.curv_match_tol),
                "max_det": (dets, tols.det_tol),
                "max_umbilic_defect": (umbs, tols.umbilic_tol),
                "max_normal_derivative": (ds, tols.parallel_normal_tol),
                "max_w_derivative_defect": (wds, tols.curv_match_tol)}),
        case=case, w_tangent_vanishes=w_tangent_vanishes)


def _concircular_terms(packet: FramePacket):
    """(|(∇̃_{e_i} V)^⊤ − f_M e_i| for each tangent e_i, with f_M the mean of
    g̃(∇̃_{e_i} V, e_i); max |det A_ξ|)."""
    n = packet.n
    along = packet.dv_frame[..., :n]                  # [i, k] = g̃(∇̃_{e_i} V, e_k)
    f_int = np.trace(along, axis1=-2, axis2=-1) / n
    concs = norm(along - f_int[..., None, None] * np.eye(n))
    return np.moveaxis(concs, -1, 0), _max_det(packet)


def _torqued_normal_terms(packet: FramePacket):
    """(|A_{V^⊥} + f Id|; |D_X V^⊥| for X each tangent e_i made orthogonal to
    W^⊤, 0 where X vanishes; |D_{W^⊤} V^⊥ − |W^⊤|² V^⊥|, 0 where W^⊤ vanishes;
    whether W^⊤ does not vanish), with W the dual of the fitted ω.  In the
    frame, W^⊤ has coefficients ω(e_i), V^⊥ has c, D_{e_i} V^⊥ is the normal
    part of ∇̃_{e_i} V, and the X are the rows of Id − ŵŵᵀ (ŵ = 0 where W^⊤
    vanishes)."""
    tols = packet.tols
    umb = _umbilic_defect(packet)
    w = mv(packet.tangents, packet.fit.omega)
    w_norm = norm(w)
    w_tangent = np.asarray(w_norm > tols.proper_tol)
    w_hat = w / np.where(w_tangent, w_norm, np.inf)[..., None]
    d = packet.dv_frame[..., packet.n:]
    d_w = mv(np.swapaxes(d, -1, -2), w)                              # D_{W^⊤} V^⊥
    target = np.asarray(w_norm ** 2)[..., None] * packet.v_nor_frame
    wds = np.where(w_tangent, norm(d_w - target), 0.0)
    x_dirs = np.eye(packet.n) - w_hat[..., :, None] * w_hat[..., None, :]
    moved = ~(dot(x_dirs, x_dirs) < tols.null_dir_tol)
    ds = np.where(moved, norm(x_dirs @ d), 0.0)
    return umb, np.moveaxis(ds, -1, 0), wds, w_tangent
