"""Extrinsic geometry of an immersed submanifold.

Given an immersion Ψ: U ⊂ ℝⁿ → (ℝᵐ, g̃) the module computes, at a parameter
point u:

  - an orthonormal tangent frame by Gram-Schmidt of the coordinate tangents
    and the normal frame that completes it by one complete QR,
  - the induced metric g_ij = g̃(∂Ψ/∂uⁱ, ∂Ψ/∂uʲ), which that Gram-Schmidt
    factors, with 2-jets by the chain rule from Ψ's 3-jets and g̃'s 2-jets
    (so the intrinsic curvature of the submanifold is available),
  - the second fundamental form h(X, Y) = (∇̃_X Y)^⊥ and shape operators A_ξ
    with g(A_ξ X, Y) = g̃(h(X, Y), ξ),
  - tangential/normal decomposition of an attached ambient field, and the
    Gauss-equation defect
        g(R(X,Y)Z, W) − [g̃(R̃(X,Y)Z, W) + g̃(h(X,W), h(Y,Z)) − g̃(h(X,Z), h(Y,W))].

Over a sample of N parameter points, an (N, n) array, every quantity carries
a leading batch axis and is computed with one run of each tape; one
point is the batch-free case of the same functions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from . import expr as ex
from .classify import TorsePair, fit_pair
from .config import DEFAULT, Tolerances
from .errors import (DomainEvalError, NonNormalVectorError, PreconditionError,
                     RankDeficiencyError, replay)
from .jets import chart_names, eval_jet_env, jet_variables
from .linalg import (cholesky_pivots, first_where, frame_collapses, item, lower_inverse,
                     mv, norm, orthonormalize, refuse_pivots)
from .metric import (MetricAtPoint, MetricField, VectorAtPoint, VectorField,
                     _batch_first, _contract, covariant_jacobian, riemann)


class Immersion:
    """Parametrized submanifold Ψ(u1..un) into an m-dimensional chart."""

    def __init__(self, components, n: int, domain=None):
        self.n = n
        self.m = len(components)
        if not 1 <= n < self.m:
            raise ValueError(f"need 1 <= n < m, got n={n}, m={self.m}")
        self.var_names = chart_names(n, prefix="u")
        self.exprs = tuple(ex.ensure_expr(c, self.var_names) for c in components)
        self.tape = ex.Tape(self.exprs)
        self.domain = None if domain is None else tuple((float(a), float(b)) for a, b in domain)

    def jets(self, u: Sequence[float], order: int):
        """Jets of Ψ's components at u, or at each row of an (N, n) array,
        by one run of the tape; a point's jets are its row of a batch's."""
        return eval_jet_env(self.tape, jet_variables(self.var_names, u, order))

    def point(self, u: Sequence[float]) -> np.ndarray:
        """Ψ(u), the values of the order-0 jets."""
        return np.array([p.value for p in self.jets(u, 0)])


@dataclass(frozen=True)
class FramePacket:
    """Everything extrinsic at one parameter point, or at each point of a
    sample: then every array below has a leading batch axis (u (N, n),
    tangents (N, n, m), ...) and every float is an (N,) array.

    ambient               ambient metric at x = Ψ(u), of order 1 or 2
    psi                   Ψ's jets at u, to orders[0] (2 or 3)
    g_coord, g_factor     the induced metric g = JᵀG̃J and its Cholesky factor L
    tangents[i]           orthonormal tangent frame e_i (ambient components)
    tangent_coeffs[i, k]  e_i = Σ_k B[i, k] ∂Ψ/∂uᵏ, B = L⁻¹
    normals[α]            orthonormal normal frame ξ_α
    h_frame[α, i, j]      g̃(h(e_i, e_j), ξ_α)
    h_coord[i, j, :]      ambient components of h(∂ᵢ, ∂ⱼ)

    v_tan_frame[i]        with a field V: t_i = g̃(V, e_i), so V^⊤ = Σ tⁱ B[i, k] ∂Ψ/∂uᵏ
    v_nor_frame[α]        c_α = g̃(V, ξ_α); v_tan, v_nor and their norms split V
    orders                (Ψ's, V's) jet orders `frames` read

    ambient2, field_jet, induced, dcoord, fit, a_vperp and dv_frame are
    computed on first use, once for the whole sample, and kept: checks that
    read them share one copy, the others do not pay for them.  field_jet is
    V's read in `frames` where that was of order 1, ambient2 is `ambient`
    where that was of order 2.  induced is g_coord with L and B as its
    factor and coframe and its 2-jets by the chain rule (pull_back_metric),
    which reads Ψ's 3-jets where `frames` did not.
    """

    u: np.ndarray
    x: np.ndarray
    jacobian: np.ndarray
    ambient: MetricAtPoint
    g_coord: np.ndarray
    g_factor: np.ndarray
    tangents: np.ndarray
    tangent_coeffs: np.ndarray
    normals: np.ndarray
    h_frame: np.ndarray
    h_coord: np.ndarray
    immersion: Immersion
    metric: MetricField
    psi: list
    orders: tuple
    field: VectorField | None = None
    tols: Tolerances = DEFAULT
    v_tan: np.ndarray | None = None
    v_nor: np.ndarray | None = None
    v_tan_norm: float = 0.0
    v_nor_norm: float = 0.0
    v_tan_frame: np.ndarray | None = None
    v_nor_frame: np.ndarray | None = None

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
        """Induced metric at u with 2-jets (pull_back_metric)."""
        return pull_back_metric(self)

    @cached_property
    def dcoord(self) -> np.ndarray:
        """[j, k] = (∇̃_{∂_j}V)^k, ∇̃V in coordinates at x."""
        return covariant_jacobian(self.ambient, self.field_jet)

    @cached_property
    def fit(self) -> TorsePair:
        """The torse-forming fit's f and ω at x (classify.fit_pair)."""
        return fit_pair(self.ambient, self.field_jet, self.dcoord, self.tols)

    @cached_property
    def a_vperp(self) -> np.ndarray:
        """A_{V^⊥} = Σ_α c_α h_frame[α], the shape operator of V^⊥ in the
        tangent frame."""
        return np.einsum("...a,...aij->...ij", self.v_nor_frame, self.h_frame)

    @cached_property
    def dv_frame(self) -> np.ndarray:
        """[i, k] = g̃(∇̃_{e_i}V, e_k) for k < n and g̃(∇̃_{e_i}V, ξ_{k−n})
        after: ∇̃V along each tangent in the frame (e, ξ)."""
        frame = np.concatenate((self.tangents, self.normals), axis=-2)
        dv = self.tangents @ self.dcoord
        return dv @ self.g_ambient @ np.swapaxes(frame, -1, -2)

    @property
    def n(self) -> int:
        return self.tangents.shape[-2]

    @property
    def codim(self) -> int:
        return self.normals.shape[-2]

    def inner(self, a, b):
        return self.ambient.inner(a, b)

    def coefficients(self, w, frame) -> np.ndarray:
        """g̃(w, frame[a]) for each vector of a frame (tangents or normals)."""
        gw = mv(self.g_ambient, np.asarray(w, dtype=float))
        return mv(frame, gw)


def _jacobian(psi, u, tols: Tolerances) -> np.ndarray:
    """J[a, i] = ∂Ψ^a/∂uⁱ from Ψ's jets (at each point of a batch); raises
    RankDeficiencyError where J loses rank, σₙ <= rank_tol·σ₁.  The SVD that
    judges this runs only where _full_rank cannot certify every point."""
    jac = _batch_first(np.array([p.d[1] for p in psi]), 2)
    if _full_rank(jac, tols.rank_tol):
        return jac
    sv = np.linalg.svd(jac, compute_uv=False)
    bad = sv[..., -1] <= tols.rank_tol * sv[..., 0]
    if np.any(bad):
        raise RankDeficiencyError(
            f"immersion is degenerate at u={first_where(bad, np.asarray(u)).tolist()}: "
            f"singular values {first_where(bad, sv).tolist()}")
    return jac


def _full_rank(jac, rank_tol: float) -> bool:
    """Whether σₙ > rank_tol·σ₁ certainly holds for J at every point, from
    K = JᵀJ: σₙ²/σ₁² >= det K / (tr K)ⁿ, and the bound's factor 4, its floor
    1e-8 and the smallest normal float leave room for the rounding of det K
    and tr K.  NaN, inf and underflow certify nothing."""
    with ex.quiet():
        K = np.swapaxes(jac, -1, -2) @ jac
        trace_n = np.trace(K, axis1=-2, axis2=-1) ** K.shape[-1]
        bound = np.maximum(max(1e-8, 4.0 * rank_tol * rank_tol) * trace_n, np.finfo(float).tiny)
        return bool(np.all(np.linalg.det(K) > bound))


def induced_metric(imm: Immersion, metric: MetricField, u,
                   tols: Tolerances = DEFAULT) -> MetricAtPoint:
    """Pullback metric at u (or at each row of an (N, n) array) with 2-jets."""
    return frames(imm, metric, u, tols=tols).induced


def pull_back_metric(packet: FramePacket) -> MetricAtPoint:
    """The induced metric g = g_coord at the packet's u, whose Cholesky factor
    L and coframe B = L⁻¹ are the tangent frame's, positive definite where
    every pivot L_ii² is above spd_tol (a NaN pivot is left to the checks).
    Its 2-jets follow by the chain rule from J, H_k = ∂_k J, T_kl = ∂_k∂_l J
    and g̃'s 2-jets at x, with D_k = ∂g̃·J_k (J_k the k-th column of J):
        ∂_k g = P_k + P_kᵀ + Jᵀ D_k J,  P_k = H_kᵀ g̃ J,
        ∂_k∂_l g = Q + Qᵀ + Jᵀ(∂²g̃(J_k, J_l) + ∂g̃·H_kl)J,
        Q = T_klᵀ g̃ J + H_kᵀ g̃ H_l + Jᵀ D_k H_l + Jᵀ D_l H_k,
    with the terms in ∂g̃ and ∂²g̃ computed only off a flat ambient."""
    psi = packet.psi if packet.orders[0] >= 3 else packet.immersion.jets(packet.u, 3)
    J, G = packet.jacobian, packet.g_ambient
    batch, (m, n), Jt = J.shape[:-2], J.shape[-2:], np.swapaxes(J, -1, -2)
    hess = _batch_first(np.array([p.d[2] for p in psi]), 3)            # hess[a, k, i]
    H = np.moveaxis(hess, -3, -2)                                      # H[k] = H_k
    T = np.moveaxis(_batch_first(np.array([p.d[3] for p in psi]), 4), -4, -2)  # T[k, l]
    GJ, Ht = G @ J, np.swapaxes(H, -1, -2)
    dg = _symmetrized(Ht @ GJ[..., None, :, :])
    Q = (np.swapaxes(T, -1, -2) @ GJ[..., None, None, :, :]
         + Ht[..., :, None, :, :] @ (G[..., None, :, :] @ H)[..., None, :, :, :])
    if packet.ambient.flat:
        d2g = _symmetrized(Q)
    else:
        amb = packet.ambient2
        dG = amb.dg.reshape(batch + (m, m * m))
        JD = Jt[..., None, :, :] @ (Jt @ dG).reshape(batch + (n, m, m))     # JD[k] = Jᵀ D_k
        C = JD[..., :, None, :, :] @ H[..., None, :, :, :]                 # C[k, l] = Jᵀ D_k H_l
        # M[k, l] = ∂²g̃(J_k, J_l) + ∂g̃·H_kl
        d2G = (Jt @ amb.d2g.reshape(batch + (m, -1))).reshape(batch + (n, m, m * m))
        dGH = np.swapaxes(hess.reshape(batch + (m, n * n)), -1, -2) @ dG
        M = (Jt[..., None, :, :] @ d2G + dGH.reshape(batch + (n, n, m * m))).reshape(
            batch + (n, n, m, m))
        dg = dg + JD @ J[..., None, :, :]
        d2g = (_symmetrized(Q + C + np.swapaxes(C, -3, -4))
               + Jt[..., None, None, :, :] @ M @ J[..., None, None, :, :])
    L, spd_tol = packet.g_factor, packet.tols.spd_tol
    pivots = np.diagonal(L, axis1=-2, axis2=-1) ** 2
    refuse_pivots(pivots, pivots <= spd_tol, spd_tol)
    mp = MetricAtPoint(point=packet.u, g=packet.g_coord, dg=dg, d2g=d2g, spd_tol=spd_tol)
    vars(mp).update(factor=L, coframe=packet.tangent_coeffs)
    return mp


def _symmetrized(a: np.ndarray) -> np.ndarray:
    return a + np.swapaxes(a, -1, -2)


def frames(imm: Immersion, metric: MetricField, u, field: VectorField | None = None,
           tols: Tolerances = DEFAULT, orders: tuple = (3, 0)) -> FramePacket:
    """Orthonormal tangent/normal frames plus the second fundamental form, at
    a parameter point or at each row of an (N, n) array.

    Ψ's and V's tapes are each read once, to `orders`: Ψ's to 2 or 3 (3
    holds the jets the induced metric reads), V's to 0 or 1 (1 holds ∇̃V).
    The metric is read once, to order 2 (ambient2, for curvature) where Ψ's
    is read to 3, else to order 1.  A read of V or of the metric that fails
    at the higher order where it does not at the lower (sqrt at 0) leaves
    the packet on the lower read, and field_jet or ambient2 raises the
    higher read's error.

    The tangent frame Gram-Schmidts the coordinate tangents in index order;
    the normal frame is the complement a complete QR gives in the ambient
    metric's Cholesky coordinates (linalg.orthonormalize), so packets are
    reproducible.  A failing batch raises what its first failing point
    raises alone (errors.replay).
    """
    u = np.asarray(u, dtype=float)
    return replay(lambda: _frames(imm, metric, u, field, tols, orders),
                  lambda point: _frames(imm, metric, point, field, tols, orders),
                  u if u.ndim == 2 else ())


def _frames(imm, metric, u, field, tols, orders) -> FramePacket:
    psi = imm.jets(u, orders[0])
    x = _batch_first(np.array([p.d[0] for p in psi]), 1)
    jac = _jacobian(psi, u, tols)
    try:        # to order 2, the ambient's curvature, where the induced metric's is read
        mp = metric.at(x, order=2 if orders[0] >= 3 else 1)
    except DomainEvalError:
        if orders[0] < 3:
            raise
        mp = metric.at(x, order=1)
    G = mp.g
    g_coord = np.swapaxes(jac, -1, -2) @ G @ jac

    # Gram-Schmidt of ∂_1Ψ..∂_nΨ in order is e = B ∂Ψ with B = L⁻¹ for the
    # Cholesky factor g_coord = L Lᵀ
    L, pivots = cholesky_pivots(g_coord)
    collapsed = frame_collapses(pivots, g_coord, tols.rank_tol)
    if np.any(collapsed):
        raise RankDeficiencyError(
            f"tangent frame collapsed at u={first_where(collapsed, u).tolist()}")
    B = lower_inverse(L)
    tangents = B @ np.swapaxes(jac, -1, -2)

    normals = orthonormalize(tangents, mp.factor, mp.coframe)

    # second fundamental tensor in coordinates:
    #   S[a, i, j] = ∂²Ψᵃ/∂uⁱ∂uʲ + Γ̃ᵃ(∂ᵢΨ, ∂ⱼΨ), then h(∂ᵢ,∂ⱼ) = S_ij^⊥
    hess = _batch_first(np.array([p.d[2] for p in psi]), 3)     # hess[a, i, j]
    if mp.flat:     # Γ̃ = 0; laid out and signed as the sum below, so products round alike
        S = np.add(hess, 0.0, order="C")
    else:
        S = hess + np.swapaxes(jac, -1, -2)[..., None, :, :] @ mp.gamma @ jac[..., None, :, :]
    hn = _contract(normals @ G, S)                               # hn[q, i, j] = g̃(S_ij, ξ_q)
    h_coord = np.moveaxis(_contract(np.swapaxes(normals, -1, -2), hn), -3, -1)
    h_frame = B[..., None, :, :] @ hn @ np.swapaxes(B, -1, -2)[..., None, :, :]

    packet = FramePacket(u=u, x=x, jacobian=jac, ambient=mp, g_coord=g_coord, g_factor=L,
                         tangents=tangents, tangent_coeffs=B, normals=normals,
                         h_frame=h_frame, h_coord=h_coord, immersion=imm,
                         metric=metric, psi=psi, field=field, tols=tols, orders=orders)
    if field is not None:
        try:
            read = field.at(x, order=orders[1])
        except DomainEvalError:
            if orders[1] == 0:
                raise
            read = field.at(x, order=0)
        split = decompose_field(packet, read.components)
        packet = replace(packet, v_tan=split.v_tan, v_nor=split.v_nor,
                         v_tan_norm=split.tan_norm, v_nor_norm=split.nor_norm,
                         v_tan_frame=split.tan_coeffs, v_nor_frame=split.nor_coeffs)
        if read.jacobian is not None:
            vars(packet)["field_jet"] = read    # field_jet is this read
    if mp.d2g is not None:
        vars(packet)["ambient2"] = mp           # ambient2 is this read
    return packet


def over_sample(terms, packet: FramePacket, *args):
    """terms(packet, *args) over a batched packet, each of args carrying the
    batch axis too.  A failing batch raises what the first failing point
    raises alone, with the packet `frames` builds there (errors.replay)."""
    def single(i):
        return terms(frames(packet.immersion, packet.metric, packet.u[i], packet.field,
                            packet.tols, packet.orders), *(a[i] for a in args))

    return replay(lambda: terms(packet, *args), single, range(len(packet.u)))


def shape_operator(packet: FramePacket, xi, tols: Tolerances = DEFAULT) -> np.ndarray:
    """A_ξ in the orthonormal tangent frame; symmetric, linear in ξ."""
    xi = np.asarray(xi, dtype=float)
    tan_norm = item(norm(packet.coefficients(xi, packet.tangents)))
    tangential = tan_norm > tols.frame_tol * np.fmax(1.0, packet.ambient.norm(xi))
    if np.any(tangential):
        raise NonNormalVectorError(
            f"vector has tangential part of norm {first_where(tangential, tan_norm):.3e}")
    comps = packet.coefficients(xi, packet.normals)
    return np.einsum("...a,...aij->...ij", comps, packet.h_frame)


@dataclass(frozen=True)
class FieldSplit:
    v_tan: np.ndarray
    v_nor: np.ndarray
    tan_norm: float
    nor_norm: float
    tan_coeffs: np.ndarray      # g̃(v, e_i)
    nor_coeffs: np.ndarray      # g̃(v, ξ_α)


def decompose_field(packet: FramePacket, v) -> FieldSplit:
    """Split an ambient vector at Ψ(u) into tangential and normal parts."""
    coeff_t = packet.coefficients(v, packet.tangents)
    coeff_n = packet.coefficients(v, packet.normals)
    return FieldSplit(v_tan=mv(np.swapaxes(packet.tangents, -1, -2), coeff_t),
                      v_nor=mv(np.swapaxes(packet.normals, -1, -2), coeff_n),
                      tan_norm=item(norm(coeff_t)), nor_norm=item(norm(coeff_n)),
                      tan_coeffs=coeff_t, nor_coeffs=coeff_n)


def gauss_equation_residual(imm: Immersion, metric: MetricField, u,
                            X, Y, Z, W, tols: Tolerances = DEFAULT) -> float:
    """|LHS − RHS| of the Gauss equation for tangent vectors given in
    parameter coordinates."""
    return gauss_defect(frames(imm, metric, u, tols=tols), X, Y, Z, W)


def gauss_defect(packet: FramePacket, X, Y, Z, W):
    """gauss_equation_residual at the packet's parameter point, or at each
    point of its batch for vectors X..W that carry the batch axis too."""
    X, Y, Z, W = (np.asarray(a, dtype=float) for a in (X, Y, Z, W))
    ind = packet.induced
    lhs = ind.inner(riemann(ind, X, Y, Z), W)

    mp2 = packet.ambient2
    Xa, Ya, Za, Wa = (mv(packet.jacobian, v) for v in (X, Y, Z, W))
    ambient_term = mp2.inner(riemann(mp2, Xa, Ya, Za), Wa)

    def h_of(a, b):
        return (a[..., None, :] @ (b[..., None, None, :] @ packet.h_coord)[..., 0, :])[..., 0, :]

    rhs = (ambient_term
           + packet.inner(h_of(X, W), h_of(Y, Z))
           - packet.inner(h_of(X, Z), h_of(Y, W)))
    return item(abs(lhs - rhs))
