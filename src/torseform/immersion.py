"""Extrinsic geometry of an immersed submanifold.

Given an immersion Ψ: U ⊂ ℝⁿ → (ℝᵐ, g̃) the module computes, at a parameter
point u:

  - the induced metric g_ij = g̃(∂Ψ/∂uⁱ, ∂Ψ/∂uʲ) with its 2-jets (so the
    intrinsic curvature of the submanifold is available),
  - orthonormal tangent and normal frames by deterministic Gram-Schmidt,
  - the second fundamental form h(X, Y) = (∇̃_X Y)^⊥ and shape operators A_ξ
    with g(A_ξ X, Y) = g̃(h(X, Y), ξ),
  - the mean curvature H = (1/n) Σ h(e_i, e_i) and the first normal space
    Im h = Span{h(X, Y)},
  - tangential/normal decomposition of an attached ambient field, and the
    Gauss-equation defect
        g(R(X,Y)Z, W) − [g̃(R̃(X,Y)Z, W) + g̃(h(X,W), h(Y,Z)) − g̃(h(X,Z), h(Y,W))].
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from . import expr as ex
from .classify import ClassificationReport, fit_at_point
from .config import DEFAULT, Tolerances
from .errors import NonNormalVectorError, PreconditionError, RankDeficiencyError
from .jets import chart_names, eval_jet_env, jet_variables
from .linalg import orthonormalize, solve_spd
from .metric import (MetricAtPoint, MetricField, VectorAtPoint, VectorField,
                     jet_inner, riemann)


class Immersion:
    """Parametrized submanifold Ψ(u1..un) into an m-dimensional chart."""

    def __init__(self, components, n: int, domain=None):
        self.n = n
        self.m = len(components)
        if not 1 <= n < self.m:
            raise ValueError(f"need 1 <= n < m, got n={n}, m={self.m}")
        self.var_names = chart_names(n, prefix="u")
        self.exprs = tuple(ex.ensure_expr(c, self.var_names) for c in components)
        self.domain = None if domain is None else tuple((float(a), float(b)) for a, b in domain)

    def jets(self, u: Sequence[float], order: int):
        env = jet_variables(self.var_names, u, order)
        return [eval_jet_env(e, env) for e in self.exprs]

    def point(self, u: Sequence[float]) -> np.ndarray:
        return np.array([ex.eval_float(e, dict(zip(self.var_names, u)))
                         for e in self.exprs])


@dataclass(frozen=True)
class FramePacket:
    """Everything extrinsic at one parameter point.

    ambient               order-1 ambient metric at x = Ψ(u)
    tangents[i]           orthonormal tangent frame e_i (ambient components)
    tangent_coeffs[i, k]  e_i = Σ_k B[i, k] ∂Ψ/∂uᵏ
    normals[α]            orthonormal normal frame ξ_α
    h_frame[α, i, j]      g̃(h(e_i, e_j), ξ_α)
    h_coord[i, j, :]      ambient components of h(∂ᵢ, ∂ⱼ)

    ambient2, field_jet, induced and fit are computed on first use and kept:
    checks that read them share one copy, the others do not pay for them.
    """

    u: np.ndarray
    x: np.ndarray
    jacobian: np.ndarray
    ambient: MetricAtPoint
    g_coord: np.ndarray
    tangents: np.ndarray
    tangent_coeffs: np.ndarray
    normals: np.ndarray
    h_frame: np.ndarray
    h_coord: np.ndarray
    immersion: Immersion
    metric: MetricField
    field: VectorField | None = None
    tols: Tolerances = DEFAULT
    v_tan: np.ndarray | None = None
    v_nor: np.ndarray | None = None
    v_tan_norm: float = 0.0
    v_nor_norm: float = 0.0

    @property
    def g_ambient(self) -> np.ndarray:
        return self.ambient.g

    @cached_property
    def ambient2(self) -> MetricAtPoint:
        """Ambient metric at x with 2-jets, for curvature."""
        return self.metric.at(self.x, order=2)

    @cached_property
    def field_jet(self) -> VectorAtPoint:
        """The field and its jacobian at x."""
        if self.field is None:
            raise PreconditionError("check needs a vector field on the submanifold")
        return self.field.at(self.x, order=1)

    @cached_property
    def induced(self) -> MetricAtPoint:
        """Induced metric at u with 2-jets."""
        return induced_metric(self.immersion, self.metric, self.u, self.tols)

    @cached_property
    def fit(self) -> ClassificationReport:
        """Torse-forming fit of the field at x."""
        return fit_at_point(self.ambient, self.field_jet, self.tols)

    @property
    def n(self) -> int:
        return self.tangents.shape[0]

    @property
    def codim(self) -> int:
        return self.normals.shape[0]

    def inner(self, a, b) -> float:
        return float(np.asarray(a) @ self.g_ambient @ np.asarray(b))

    def tangent_project(self, w) -> np.ndarray:
        return sum(self.inner(w, e) * e for e in self.tangents)

    def normal_project(self, w) -> np.ndarray:
        return sum(self.inner(w, xi) * xi for xi in self.normals)

    def parameter_coords(self, w) -> np.ndarray:
        """Coordinates a with w^⊤ = Σ aⁱ ∂Ψ/∂uⁱ."""
        rhs = self.jacobian.T @ self.g_ambient @ np.asarray(w, float)
        return solve_spd(self.g_coord, rhs, DEFAULT.spd_tol)


@dataclass(frozen=True)
class FirstNormalSpace:
    """Span{h(X, Y)} at a point: orthonormal basis in the normal space."""

    basis: np.ndarray  # (rank, m)
    rank: int
    singular_values: np.ndarray


def _jacobian(psi, u, tols: Tolerances) -> np.ndarray:
    """J[a, i] = ∂Ψ^a/∂uⁱ from Ψ's jets; raises RankDeficiencyError when J
    loses rank."""
    jac = np.stack([p.gradient() for p in psi])
    sv = np.linalg.svd(jac, compute_uv=False)
    if sv[-1] <= tols.rank_tol * sv[0]:
        raise RankDeficiencyError(
            f"immersion is degenerate at u={np.asarray(u).tolist()}: "
            f"singular values {sv.tolist()}")
    return jac


def induced_metric(imm: Immersion, metric: MetricField, u,
                   tols: Tolerances = DEFAULT) -> MetricAtPoint:
    """Pullback metric at u with 2-jets, differentiated through Ψ's 3-jets."""
    psi = imm.jets(u, 3)
    _jacobian(psi, u, tols)
    env = {name: psi[a].truncate(2) for a, name in enumerate(metric.var_names)}
    gj = metric.entry_jets(env)
    dpsi = [[p.derivative_jet(i) for p in psi] for i in range(imm.n)]   # ∂Ψ/∂uⁱ
    pulled = [[jet_inner(gj, dpsi[i], dpsi[j]) for j in range(i + 1)]
              for i in range(imm.n)]
    return MetricAtPoint.from_jets(u, pulled, 2, tols.spd_tol)


def frames(imm: Immersion, metric: MetricField, u, field: VectorField | None = None,
           tols: Tolerances = DEFAULT) -> FramePacket:
    """Orthonormal tangent/normal frames plus the second fundamental form.

    The tangent frame Gram-Schmidts the coordinate tangents in index order;
    the normal frame completes with the ambient standard basis, again in
    index order, so packets are reproducible.
    """
    psi = imm.jets(u, 2)
    x = np.array([p.value for p in psi])
    jac = _jacobian(psi, u, tols)
    mp = metric.at(x, order=1)
    G = mp.g

    tangents, rows, kept = orthonormalize(jac.T, G, keep_tol=tols.rank_tol)
    if kept != imm.n:
        raise RankDeficiencyError(f"tangent frame collapsed at u={list(u)}")
    B = rows  # e_i = Σ_k B[i, k] ∂_k

    completion, _, kept = orthonormalize(np.eye(imm.m), G, keep_tol=1e-6,
                                         start_basis=tangents,
                                         want=imm.m - imm.n)
    normals = completion[imm.n:]
    if kept != imm.m - imm.n:
        raise RankDeficiencyError(f"could not complete the normal frame at u={list(u)}")

    # second fundamental tensor in coordinates:
    #   S_ij = ∂²Ψ/∂uⁱ∂uʲ + Γ̃(∂Ψ, ∂Ψ), then h(∂ᵢ,∂ⱼ) = S_ij^⊥
    hess = np.stack([p.hessian() for p in psi])        # hess[a, i, j]
    S = (np.einsum("aij->ija", hess)
         + np.einsum("abc,bi,cj->ija", mp.gamma, jac, jac))
    proj = normals.T @ (normals @ G)                    # normal projector (m, m)
    h_coord = np.einsum("ab,ijb->ija", proj, S)
    h_frame = np.einsum("ik,jl,klb,ab,qa->qij", B, B, S, G, normals)

    packet = FramePacket(u=np.asarray(u, dtype=float), x=x, jacobian=jac,
                         ambient=mp, g_coord=jac.T @ G @ jac, tangents=tangents,
                         tangent_coeffs=B, normals=normals, h_frame=h_frame,
                         h_coord=h_coord, immersion=imm, metric=metric,
                         field=field, tols=tols)
    if field is None:
        return packet
    split = decompose_field(packet, field.at(x, order=0).components)
    return replace(packet, v_tan=split.v_tan, v_nor=split.v_nor,
                   v_tan_norm=split.tan_norm, v_nor_norm=split.nor_norm)


def frame_packets(imm: Immersion, metric: MetricField, field: VectorField | None,
                  us, tols: Tolerances = DEFAULT) -> list:
    """One packet per parameter point, each carrying the field."""
    return [frames(imm, metric, u, field=field, tols=tols) for u in us]


def second_fundamental_form(imm: Immersion, metric: MetricField, u,
                            tols: Tolerances = DEFAULT):
    """h in the orthonormal frames plus the first normal space."""
    packet = frames(imm, metric, u, tols=tols)
    return packet.h_frame, first_normal_space(packet, tols)


def first_normal_space(packet: FramePacket, tols: Tolerances = DEFAULT) -> FirstNormalSpace:
    n, p = packet.n, packet.codim
    rows = []
    for i in range(n):
        for j in range(i, n):
            rows.append(packet.h_frame[:, i, j])
    H = np.asarray(rows)                   # (n(n+1)/2, p)
    if H.size == 0 or np.allclose(H, 0.0):
        return FirstNormalSpace(basis=np.zeros((0, packet.x.size)), rank=0,
                                singular_values=np.zeros(min(H.shape) if H.size else 0))
    U, s, Vt = np.linalg.svd(H, full_matrices=False)
    rank = int(np.sum(s > tols.svd_rank_tol * s[0]))
    basis = Vt[:rank] @ packet.normals
    return FirstNormalSpace(basis=basis, rank=rank, singular_values=s)


def shape_operator(packet: FramePacket, xi, tols: Tolerances = DEFAULT) -> np.ndarray:
    """A_ξ in the orthonormal tangent frame; symmetric, linear in ξ."""
    xi = np.asarray(xi, dtype=float)
    tan_norm = packet.ambient.norm(packet.tangent_project(xi))
    if tan_norm > tols.frame_tol * max(1.0, packet.ambient.norm(xi)):
        raise NonNormalVectorError(
            f"vector has tangential part of norm {tan_norm:.3e}")
    comps = np.array([packet.inner(xi, nu) for nu in packet.normals])
    return np.einsum("a,aij->ij", comps, packet.h_frame)


def mean_curvature(packet: FramePacket) -> np.ndarray:
    """H = (1/n) Σᵢ h(eᵢ, eᵢ), an ambient vector in the normal space."""
    traces = np.einsum("aii->a", packet.h_frame)
    return (traces @ packet.normals) / packet.n


@dataclass(frozen=True)
class FieldSplit:
    v_tan: np.ndarray
    v_nor: np.ndarray
    tan_norm: float
    nor_norm: float


def decompose_field(packet: FramePacket, v) -> FieldSplit:
    """Split an ambient vector at Ψ(u) into tangential and normal parts."""
    v = np.asarray(v, dtype=float)
    coeff_t = np.array([packet.inner(v, e) for e in packet.tangents])
    coeff_n = np.array([packet.inner(v, xi) for xi in packet.normals])
    return FieldSplit(v_tan=coeff_t @ packet.tangents,
                      v_nor=coeff_n @ packet.normals,
                      tan_norm=float(np.linalg.norm(coeff_t)),
                      nor_norm=float(np.linalg.norm(coeff_n)))


def gauss_equation_residual(imm: Immersion, metric: MetricField, u,
                            X, Y, Z, W, tols: Tolerances = DEFAULT) -> float:
    """|LHS − RHS| of the Gauss equation for tangent vectors given in
    parameter coordinates."""
    return gauss_defect(frames(imm, metric, u, tols=tols), X, Y, Z, W)


def gauss_defect(packet: FramePacket, X, Y, Z, W) -> float:
    """gauss_equation_residual at the packet's parameter point."""
    X, Y, Z, W = (np.asarray(a, dtype=float) for a in (X, Y, Z, W))
    ind = packet.induced
    lhs = float(riemann(ind, X, Y, Z) @ ind.g @ W)

    mp2 = packet.ambient2
    J = packet.jacobian
    Xa, Ya, Za, Wa = (J @ v for v in (X, Y, Z, W))
    ambient_term = float(riemann(mp2, Xa, Ya, Za) @ mp2.g @ Wa)

    def h_of(a, b):
        return np.einsum("ijc,i,j->c", packet.h_coord, a, b)

    G = packet.g_ambient
    rhs = (ambient_term
           + float(h_of(X, W) @ G @ h_of(Y, Z))
           - float(h_of(X, Z) @ G @ h_of(Y, W)))
    return abs(lhs - rhs)
