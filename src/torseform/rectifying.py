"""Verification of the rectifying condition and the tangent/normal
characterization theorems.

A submanifold is rectifying with axis V when V^⊥ ≠ 0 and V is orthogonal to
the first normal space, g̃(V, Im h) = 0, at every point.  The per-point
residual is

    max_{i<=j} |g̃(V^⊥, h(e_i, e_j))| / max(1, |h|_sup |V^⊥|),

with |h|_sup = max_{i<=j} |h(e_i, e_j)|, which is 0 exactly when V^⊥ ⊥ Im h.
Hypersurfaces with tangent axis are handled as a separate mode (V^⊥ = 0 is
outside the definition but the determinant corollary still applies).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import TORQUED
from .config import DEFAULT, Tolerances
from .errors import DegeneratePlaneError, PreconditionError
from .immersion import (FramePacket, Immersion, decompose_field, frame_packets,
                        frames, shape_operator)
from .linalg import reduce_max, worst
from .metric import (MetricField, VectorField, covariant_derivative, riemann,
                     sectional_curvature)

# contract bounds from the characterization statements
A_VPERP_TOL = 1e-8        # |A_{V^⊥}| on a rectifying submanifold
PARALLEL_NORMAL_TOL = 1e-8  # |D_X V^⊥| when V is normal
UMBILIC_TOL = 1e-7        # |A_{V^⊥} + f Id|
DET_TOL = 1e-8            # |det A_ξ| when V is tangent
H_TANGENT_TOL = 1e-8      # |h(X, V^⊤)| when V is tangent
CURV_MATCH_TOL = 1e-7     # curvature identities (ambient vs intrinsic)
COMPONENT_TOL = 1e-8      # "component vanishes" preconditions


@dataclass(frozen=True)
class RectifyingPointReport:
    u: np.ndarray
    residual: float
    v_tan_norm: float
    v_nor_norm: float
    proper: bool
    a_vperp_frob: float
    h_sup: float


def rectifying_point(imm: Immersion, metric: MetricField, field: VectorField,
                     u, tols: Tolerances = DEFAULT):
    """Residual, properness and |A_{V^⊥}| at one parameter point."""
    packet = frames(imm, metric, u, field=field, tols=tols)
    return rectifying_at(packet, tols), packet


def rectifying_at(packet: FramePacket, tols: Tolerances = DEFAULT) -> RectifyingPointReport:
    """The report of rectifying_point from a packet that carries the field."""
    n = packet.n
    v_nor_frame = np.array([packet.inner(packet.v_nor, xi) for xi in packet.normals])
    h_pairs = [packet.h_frame[:, i, j] for i in range(n) for j in range(i, n)]
    numer = reduce_max([abs(float(v_nor_frame @ h_ij)) for h_ij in h_pairs])
    h_sup = reduce_max([float(np.linalg.norm(h_ij)) for h_ij in h_pairs])
    residual = numer / max(1.0, h_sup * packet.v_nor_norm)
    a_vperp = np.einsum("a,aij->ij", v_nor_frame, packet.h_frame)
    return RectifyingPointReport(
        u=packet.u, residual=residual,
        v_tan_norm=packet.v_tan_norm, v_nor_norm=packet.v_nor_norm,
        proper=(packet.v_tan_norm > tols.proper_tol
                and packet.v_nor_norm > tols.proper_tol),
        a_vperp_frob=float(np.linalg.norm(a_vperp)), h_sup=h_sup)


def rectifying_residual(imm: Immersion, metric: MetricField, field: VectorField,
                        u, tols: Tolerances = DEFAULT) -> float:
    report, _ = rectifying_point(imm, metric, field, u, tols)
    return report.residual


@dataclass(frozen=True)
class RectifyingSceneReport:
    mode: str                  # "proper-rectifying" | "tangent-axis-hypersurface"
    points: tuple
    max_residual: float
    residual_witness: np.ndarray | None
    all_proper: bool
    max_a_vperp: float
    passed: bool
    normal_report: object = None   # NormalCaseReport in hypersurface mode


def rectifying_scene(imm: Immersion, metric: MetricField, field: VectorField,
                     us, tols: Tolerances = DEFAULT) -> RectifyingSceneReport:
    """Scene-level rectifying verdict over a parameter sample.

    A hypersurface whose axis is everywhere tangent is reported in
    "tangent-axis-hypersurface" mode (determinant corollary checks) and is
    never called proper-rectifying.
    """
    return rectifying_over(frame_packets(imm, metric, field, us, tols), tols)


def rectifying_over(packets, tols: Tolerances = DEFAULT) -> RectifyingSceneReport:
    """rectifying_scene over packets that carry the field."""
    reports = [rectifying_at(packet, tols) for packet in packets]
    if (all(packet.codim == 1 for packet in packets)
            and reduce_max([r.v_nor_norm for r in reports]) <= tols.proper_tol):
        normal_rep = normal_over(packets, tols)
        return RectifyingSceneReport(
            mode="tangent-axis-hypersurface", points=tuple(reports),
            max_residual=0.0, residual_witness=None, all_proper=False,
            max_a_vperp=0.0, passed=normal_rep.passed, normal_report=normal_rep)

    max_res, at = worst([r.residual for r in reports])
    all_proper = all(r.proper for r in reports)
    max_a = reduce_max([r.a_vperp_frob for r in reports])
    passed = (max_res <= tols.rect_tol and all_proper and max_a <= A_VPERP_TOL)
    return RectifyingSceneReport(
        mode="proper-rectifying", points=tuple(reports), max_residual=max_res,
        residual_witness=reports[at].u, all_proper=all_proper,
        max_a_vperp=max_a, passed=passed)


# ---------------------------------------------------------------------------
# Tangent/normal characterization checks
# ---------------------------------------------------------------------------

def _vanishing(packets, attr: str, label: str) -> float:
    """max of a component norm over the packets; raises PreconditionError
    unless it is finite and within COMPONENT_TOL."""
    value, at = worst([getattr(packet, attr) for packet in packets])
    if not value <= COMPONENT_TOL:
        u = packets[at].u
        raise PreconditionError(f"{label} = {value:.3e} at u={u.tolist()}",
                                witness=u)
    return value


@dataclass(frozen=True)
class TangentialCaseReport:
    """V normal to M: V^⊥ must be parallel in the normal bundle and an
    umbilic direction with A_{V^⊥} = −f Id."""

    max_v_tan: float
    max_normal_derivative: float      # max |D_X V^⊥| over frame directions
    max_umbilic_defect: float         # max |A_{V^⊥} + f Id|
    witness_umbilic: np.ndarray
    passed: bool


def verify_tangential_vanishes(imm: Immersion, metric: MetricField,
                               field: VectorField, us,
                               tols: Tolerances = DEFAULT) -> TangentialCaseReport:
    return tangential_over(frame_packets(imm, metric, field, us, tols), tols)


def tangential_over(packets, tols: Tolerances = DEFAULT) -> TangentialCaseReport:
    """verify_tangential_vanishes over packets that carry the field."""
    max_v_tan = _vanishing(packets, "v_tan_norm",
                           "tangential component does not vanish: |V^⊤|")
    ds, umb_vals = [], []
    for packet in packets:
        ds += [decompose_field(packet, covariant_derivative(
                   packet.ambient, packet.field_jet, e)).nor_norm for e in packet.tangents]
        a_v = shape_operator(packet, packet.v_nor, tols)
        umb_vals.append(float(np.linalg.norm(a_v + packet.fit.f * np.eye(packet.n))))
    max_d = reduce_max(ds)
    max_umb, at = worst(umb_vals)
    return TangentialCaseReport(
        max_v_tan=max_v_tan, max_normal_derivative=max_d,
        max_umbilic_defect=max_umb, witness_umbilic=packets[at].u,
        passed=(max_d <= PARALLEL_NORMAL_TOL and max_umb <= UMBILIC_TOL))


@dataclass(frozen=True)
class NormalCaseReport:
    """V tangent to M: every shape operator is singular, h(·, V^⊤) = 0, and
    ambient and intrinsic curvature agree on planes containing V^⊤."""

    max_v_nor: float
    max_det: float
    max_h_vtan: float
    max_curvature_mismatch: float     # |g̃(R̃(X,Y)V^⊤, W) − g(R(X,Y)V^⊤, W)|
    max_sectional_mismatch: float     # |K̃(π) − K(π)|, π = Span{X, V^⊤}
    max_ambient_sectional: float
    max_intrinsic_sectional: float
    passed: bool


def _max_det(packet: FramePacket, tols: Tolerances) -> float:
    """Largest |det A_ξ| over the normal frame."""
    return reduce_max([abs(float(np.linalg.det(shape_operator(packet, xi, tols))))
                 for xi in packet.normals])


def verify_normal_vanishes(imm: Immersion, metric: MetricField,
                           field: VectorField, us,
                           tols: Tolerances = DEFAULT) -> NormalCaseReport:
    return normal_over(frame_packets(imm, metric, field, us, tols), tols)


def normal_over(packets, tols: Tolerances = DEFAULT) -> NormalCaseReport:
    """verify_normal_vanishes over packets that carry the field."""
    max_v_nor = _vanishing(packets, "v_nor_norm",
                           "normal component does not vanish: |V^⊥|")
    dets, hs, curvs, secs, amb_secs, int_secs = [], [], [], [], [], []
    for packet in packets:
        dets.append(_max_det(packet, tols))
        t = np.array([packet.inner(packet.v_tan, e) for e in packet.tangents])
        hv = np.einsum("aij,j->ai", packet.h_frame, t)   # h(e_i, V^⊤) components
        hs.append(reduce_max(np.linalg.norm(hv, axis=0)))

        ind = packet.induced
        mp2 = packet.ambient2
        vt_par = packet.parameter_coords(packet.v_tan)
        B = packet.tangent_coeffs
        E = packet.tangents
        for i in range(packet.n):
            for j in range(i + 1, packet.n):
                for k in range(packet.n):
                    amb = float(riemann(mp2, E[i], E[j], packet.v_tan) @ mp2.g @ E[k])
                    intr = float(riemann(ind, B[i], B[j], vt_par) @ ind.g @ B[k])
                    curvs.append(abs(amb - intr))
        for i in range(packet.n):
            try:
                amb_k = sectional_curvature(mp2, E[i], packet.v_tan, tols)
                int_k = sectional_curvature(ind, B[i], vt_par, tols)
            except DegeneratePlaneError:
                continue
            secs.append(abs(amb_k - int_k))
            amb_secs.append(abs(amb_k))
            int_secs.append(abs(int_k))

    max_det, max_h, max_curv, max_sec = map(reduce_max, (dets, hs, curvs, secs))
    return NormalCaseReport(
        max_v_nor=max_v_nor, max_det=max_det, max_h_vtan=max_h,
        max_curvature_mismatch=max_curv, max_sectional_mismatch=max_sec,
        max_ambient_sectional=reduce_max(amb_secs),
        max_intrinsic_sectional=reduce_max(int_secs),
        passed=(max_det <= DET_TOL and max_h <= H_TANGENT_TOL
                and max_curv <= CURV_MATCH_TOL and max_sec <= CURV_MATCH_TOL))


@dataclass(frozen=True)
class TorquedCaseReport:
    """Characterization of torqued axes: with V tangent, V^⊤ is concircular
    on M and every A_ξ is singular; with V normal, A_{V^⊥} = −f Id,
    D_X V^⊥ = 0 for X ⊥ W^⊤ and D_{W^⊤} V^⊥ = |W^⊤|² V^⊥."""

    case: str                      # "tangent" | "normal"
    max_concircular_residual: float = 0.0
    max_det: float = 0.0
    max_umbilic_defect: float = 0.0
    max_normal_derivative: float = 0.0
    max_w_derivative_defect: float = 0.0
    w_tangent_vanishes: bool = False
    passed: bool = False


def verify_torqued_props(imm: Immersion, metric: MetricField,
                         field: VectorField, us, classification,
                         tols: Tolerances = DEFAULT) -> TorquedCaseReport:
    return torqued_over(frame_packets(imm, metric, field, us, tols), classification, tols)


def torqued_over(packets, classification,
                 tols: Tolerances = DEFAULT) -> TorquedCaseReport:
    """verify_torqued_props over packets that carry the field."""
    if classification.verdict != TORQUED:
        raise PreconditionError(
            f"torqued characterization requires a torqued verdict, got "
            f"'{classification.verdict}'")
    max_tan = reduce_max([p.v_tan_norm for p in packets])
    max_nor = reduce_max([p.v_nor_norm for p in packets])

    if max_nor <= COMPONENT_TOL:
        # Case V^⊥ = 0: V^⊤ = V on M, concircular intrinsically by the Gauss
        # formula, shape operators singular.
        concs, dets = [], []
        for packet in packets:
            derivs = [covariant_derivative(packet.ambient, packet.field_jet, e)
                      for e in packet.tangents]
            f_int = float(np.mean([packet.inner(d, e)
                                   for d, e in zip(derivs, packet.tangents)]))
            concs += [float(np.linalg.norm(packet.tangent_project(d) - f_int * e))
                      for d, e in zip(derivs, packet.tangents)]
            dets.append(_max_det(packet, tols))
        max_conc, max_det = reduce_max(concs), reduce_max(dets)
        return TorquedCaseReport(
            case="tangent", max_concircular_residual=max_conc, max_det=max_det,
            passed=(max_conc <= CURV_MATCH_TOL and max_det <= DET_TOL))

    if max_tan <= COMPONENT_TOL:
        # Case V^⊤ = 0: umbilic direction plus the normal-connection
        # identities along W^⊤.
        umbs, ds, wds = [], [], []
        w_tan_all_zero = True
        for packet in packets:
            mp, vap, rep = packet.ambient, packet.field_jet, packet.fit
            a_v = shape_operator(packet, packet.v_nor, tols)
            umbs.append(float(np.linalg.norm(a_v + rep.f * np.eye(packet.n))))

            w_split = decompose_field(packet, rep.w_dual)
            if w_split.tan_norm > COMPONENT_TOL:
                w_tan_all_zero = False
                w_hat = w_split.v_tan / w_split.tan_norm
                dv_w = covariant_derivative(mp, vap, w_split.v_tan)
                d_w = packet.normal_project(dv_w)
                target = (w_split.tan_norm ** 2) * packet.v_nor
                wds.append(float(np.linalg.norm(d_w - target)))
            else:
                w_hat = None
            for e in packet.tangents:
                x_dir = e if w_hat is None else e - packet.inner(e, w_hat) * w_hat
                if packet.inner(x_dir, x_dir) < 1e-16:
                    continue
                ds.append(decompose_field(packet, covariant_derivative(mp, vap, x_dir)).nor_norm)
        max_umb, max_d, max_wd = reduce_max(umbs), reduce_max(ds), reduce_max(wds)
        return TorquedCaseReport(
            case="normal", max_umbilic_defect=max_umb,
            max_normal_derivative=max_d, max_w_derivative_defect=max_wd,
            w_tangent_vanishes=w_tan_all_zero,
            passed=(max_umb <= UMBILIC_TOL
                    and max_d <= PARALLEL_NORMAL_TOL
                    and max_wd <= CURV_MATCH_TOL))

    raise PreconditionError(
        f"neither component vanishes on the sample "
        f"(max |V^⊤| = {max_tan:.3e}, max |V^⊥| = {max_nor:.3e})")
