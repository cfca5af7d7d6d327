"""Warped-product structure checks.

Two families of checks live here:

  - along a submanifold: the warping ODE E(λ) = f (1 − λ²) for λ = |V^⊤|
    and E = V^⊤/λ at every sample point of a frame packet; and, on one
    unit-speed integral curve of E, the same ODE by differences and the
    model λ(s) = tanh(∫ˢ f du + C),
  - on the ambient manifold: with E₁ = V/|V| and λ = |V|, check that the
    integral curves of E₁ are geodesics, E₁(λ) = f (1 − λ²), the connection
    forms satisfy <∇̃_{E_j}E₁, E_k> = (f/λ) δ_jk for j, k >= 2, and
    E_j(λ) = 0, which together are the warped-product decomposition content.

Curves use classical RK4 with the right-hand side normalized to unit metric
length, so the curve parameter is arc length; the integral of f is a
cumulative composite Simpson rule (with a cubic end correction on odd
prefixes), keeping everything fourth order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .classify import ANTI_TORQUED, SceneClassification, fit_at_point, fit_torse_forming
from .config import DEFAULT, Tolerances
from .errors import (DomainEvalError, GeometryError, ModelViolationError,
                     PreconditionError, replay)
from .immersion import FramePacket, Immersion
from .jets import eval_jet
from .linalg import (Judged, dot, first_where, judge, mv, orthonormalize, reduce_max,
                     solve_spd, worst)
from .metric import (MetricAtPoint, MetricField, VectorAtPoint, VectorField,
                     covariant_jacobian, unit_and_norm_at)


@dataclass(frozen=True)
class CurveSample:
    s: float
    u: np.ndarray
    lam: float     # |V^⊤| at the sample
    f: float       # conformal scalar fitted at Ψ(u)


@dataclass(frozen=True)
class IntegralCurve:
    samples: tuple
    step: float
    exited_domain: bool
    rhs_evaluations: int

    @property
    def s_values(self) -> np.ndarray:
        return np.array([c.s for c in self.samples])

    @property
    def lam_values(self) -> np.ndarray:
        return np.array([c.lam for c in self.samples])

    @property
    def f_values(self) -> np.ndarray:
        return np.array([c.f for c in self.samples])


def _inside(u, domain) -> bool:
    return all(lo <= ui <= hi for ui, (lo, hi) in zip(u, domain))


def trace_integral_curve(imm: Immersion, metric: MetricField, field: VectorField,
                         u0, length: float, step: float,
                         tols: Tolerances = DEFAULT) -> IntegralCurve:
    """RK4 trace of the unit-speed integral curve of V^⊤/|V^⊤| from u0.

    Records (s, u, λ = |V^⊤|, f) per node; a node's right-hand side is the
    next step's first stage, and f is fitted at all nodes in one batch after
    the integration.  A right-hand side reads Ψ(u) and J = ∂Ψ/∂u from
    Immersion.jets(u, 1) and g̃ and V at Ψ(u) by one order-0 read each (of
    a constant metric, its held g: MetricField.at).  If the curve would
    leave the parameter box the partial curve is returned with exited_domain
    set; a right-hand side that is not finite raises GeometryError, as it is
    no exit.  A fit error at a node outranks an integration error after it,
    as when each node was fitted in turn.
    """
    if imm.domain is None:
        raise PreconditionError("immersion has no parameter domain box")
    domain = imm.domain
    counter = {"n": 0}

    def tangential(u):
        counter["n"] += 1
        psi = imm.jets(u, 1)        # x = Ψ(u) and J[a, i] = ∂Ψ^a/∂uⁱ
        x = np.array([p.value for p in psi])
        jac = np.stack([p.gradient() for p in psi])
        A = jac.T @ metric.at(x, order=0).g     # Jᵀ G once: k = Jᵀ G J, b = Jᵀ G V
        k = A @ jac
        coords = solve_spd(k, A @ field.at(x, order=0).components, tols.spd_tol)
        lam = float(np.sqrt(max(coords @ k @ coords, 0.0)))
        # λ is not finite where a coordinate is not: no exit from the domain,
        # but a right-hand side the integration cannot go on from
        if not math.isfinite(lam):
            raise GeometryError(f"V^⊤ is not finite at u={np.asarray(u).tolist()}")
        if lam <= tols.proper_tol:
            raise PreconditionError(
                f"|V^⊤| = {lam:.3e} vanishes at u={np.asarray(u).tolist()}",
                witness=u)
        return coords / lam, lam, x

    def fit_nodes():
        xs = np.array([x for *_, x in nodes])
        return replay(lambda: fit_at_point(metric.at(xs, 1), field.at(xs, 1), tols).f,
                      lambda x: fit_torse_forming(metric, field, x, tols).f, xs)

    nsteps = max(1, int(round(length / step)))
    u = np.asarray(u0, dtype=float)
    if not _inside(u, domain):
        raise PreconditionError(f"start point {u.tolist()} outside the parameter box")

    nodes = []          # (s, u, λ, Ψ(u)) per node
    exited = False
    h = float(step)
    try:
        k1, lam, x = tangential(u)
        nodes.append((0.0, u.copy(), lam, x))
        for k in range(nsteps):
            try:
                k2, _, _ = tangential(u + 0.5 * h * k1)
                k3, _, _ = tangential(u + 0.5 * h * k2)
                k4, _, _ = tangential(u + h * k3)
            except DomainEvalError:
                # a stage stepped outside the chart's domain of definition
                exited = True
                break
            u_next = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not _inside(u_next, domain):
                exited = True
                break
            u = u_next
            k1, lam, x = tangential(u)
            nodes.append(((k + 1) * h, u.copy(), lam, x))
    except GeometryError:
        if nodes:
            fit_nodes()
        raise
    samples = tuple(CurveSample(s, un, lam, float(f))
                    for (s, un, lam, _), f in zip(nodes, fit_nodes()))
    return IntegralCurve(samples=samples, step=h, exited_domain=exited,
                         rhs_evaluations=counter["n"])


def warping_ode_residual(curve: IntegralCurve, tols: Tolerances = DEFAULT) -> float:
    """max over interior samples of |dλ/ds − f (1 − λ²)| with dλ/ds by
    fourth-order central differences; a NaN anywhere is the result.  Unread
    `tols` stays, as tests/test_acceptance.py passes it by position."""
    lam = curve.lam_values
    f = curve.f_values
    n = len(lam)
    if n < 5:
        raise PreconditionError(f"need at least 5 curve samples, got {n}")
    dlam = (lam[:-4] - 8.0 * lam[1:-3] + 8.0 * lam[3:-1] - lam[4:]) / (12.0 * curve.step)
    return reduce_max(abs(dlam - f[2:-2] * (1.0 - lam[2:-2] ** 2)))


def cumulative_simpson(values: np.ndarray, step: float) -> np.ndarray:
    """Fourth-order cumulative integral on a uniform grid.

    Even prefixes chain composite Simpson panels; each odd prefix gets one
    cubic (Adams-style) end panel so all prefix values share the order.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 4:
        raise PreconditionError("cumulative integral needs at least 4 samples")
    out = np.zeros(n)
    out[1] = step * (9.0 * values[0] + 19.0 * values[1]
                     - 5.0 * values[2] + values[3]) / 24.0
    for k in range(2, n):
        out[k] = out[k - 2] + step * (values[k - 2] + 4.0 * values[k - 1] + values[k]) / 3.0
    return out


@dataclass(frozen=True)
class WarpFit:
    integration_constant: float
    model: np.ndarray
    deviation: float
    s_values: np.ndarray
    lam_values: np.ndarray


def fit_tanh_integral(curve: IntegralCurve, tols: Tolerances = DEFAULT) -> WarpFit:
    """Fit λ(s) = tanh(∫ˢ f du + C) with C anchored at the curve midpoint.

    The model presumes λ solves the warping ODE: judge warping_ode_residual
    first.  λ >= 1 anywhere is a model violation (outside the tanh range).
    Unread `tols` stays, as tests/test_acceptance.py passes it by position.
    """
    lam = curve.lam_values
    for sample in curve.samples:
        if sample.lam >= 1.0:
            raise ModelViolationError(
                f"warping factor {sample.lam!r} >= 1 at s={sample.s!r} "
                "(outside the tanh range)", witness=sample)
    integral = cumulative_simpson(curve.f_values, curve.step)
    mid = len(lam) // 2
    c0 = float(math.atanh(lam[mid]) - integral[mid])
    model = np.tanh(integral + c0)
    deviation = float(np.max(np.abs(model - lam)))
    return WarpFit(integration_constant=c0, model=model, deviation=deviation,
                   s_values=curve.s_values, lam_values=lam)


@dataclass(frozen=True)
class WarpingODE:
    """The warping ODE at each point of a sample (arrays over its batch)."""

    lam: np.ndarray         # λ = |V^⊤|
    e_lam: np.ndarray       # E(λ) along E = V^⊤/λ
    f: np.ndarray           # the conformal scalar fitted at Ψ(u)
    residual: np.ndarray    # |E(λ) − f (1 − λ²)|


def warping_ode_over(packet: FramePacket) -> WarpingODE:
    """E(λ) = f (1 − λ²) at every point of a packet that carries the field.

    With t the frame coefficients of V^⊤ and ∇_X V^⊤ = (∇̃_X V)^⊤ + A_{V^⊥}X,
    E(λ) = g(∇_{V^⊤}V^⊤, V^⊤)/λ² = tᵀ(∇̃V + A_{V^⊥})t/λ² with ∇̃V in the
    tangent frame.  PreconditionError where λ <= proper_tol."""
    t, lam = packet.v_tan_frame, packet.v_tan_norm
    vanishing = lam <= packet.tols.proper_tol
    if np.any(vanishing):
        u = first_where(vanishing, packet.u)
        raise PreconditionError(
            f"|V^⊤| = {first_where(vanishing, lam):.3e} vanishes at u={u.tolist()}",
            witness=u)
    nabla = packet.dv_frame[..., :packet.n] + packet.a_vperp
    e_lam = dot(t, mv(nabla, t)) / lam ** 2
    f = packet.fit.f
    return WarpingODE(lam=lam, e_lam=e_lam, f=f,
                      residual=abs(e_lam - f * (1.0 - lam ** 2)))


# ---------------------------------------------------------------------------
# Ambient decomposition checks
# ---------------------------------------------------------------------------

def _decomposition_defects(mp: MetricAtPoint, vap: VectorAtPoint, f) -> np.ndarray:
    """Defects (a, b, c, d) on the last axis, at the point or at each point of
    a batch, from order-1 metric and field data and the fitted f there."""
    e1, lam, grad_lam = unit_and_norm_at(mp, vap)
    u = e1.components
    D = covariant_jacobian(mp, e1)                      # D[j, k] = (∇̃_{∂_j}E₁)^k
    a_val = mp.norm(np.einsum("...j,...jk->...k", u, D))
    b_val = abs(np.einsum("...a,...a->...", grad_lam, u) - f * (1.0 - lam ** 2))

    fiber = orthonormalize(u[..., None, :], mp.factor, mp.coframe)   # E_2 .. E_m
    conn = fiber @ D @ mp.g @ np.swapaxes(fiber, -1, -2)  # <∇̃_{E_j}E₁, E_k>
    target = (f / lam)[..., None, None] * np.eye(mp.dim - 1)
    c_val = np.max(abs(conn - target), axis=(-2, -1), initial=0.0)
    d_val = np.max(abs(np.einsum("...ja,...a->...j", fiber, grad_lam)), axis=-1,
                   initial=0.0)
    return np.stack([a_val, b_val, c_val, d_val], axis=-1)


def verify_ambient_decomposition(metric: MetricField, field: VectorField,
                                 points, classification: SceneClassification,
                                 tols: Tolerances = DEFAULT) -> Judged:
    """Check the proof identities of the warped-product decomposition at the
    given ambient points (the scene verdict must be anti-torqued), with f
    from the fits that `classification` made there and the order-1 metric
    and field data it fitted them from, in one batch.  The witness is the
    point of the largest of the four defects.  Unread `metric` and `field`
    stay, as tests/test_acceptance.py passes them by position."""
    if classification.verdict != ANTI_TORQUED:
        raise PreconditionError(
            f"ambient decomposition requires an anti-torqued verdict, got "
            f"'{classification.verdict}'")
    fits = classification.batch_at(points)
    values = _decomposition_defects(classification.metric_at, classification.field_at,
                                    fits.f)
    a, b, c, d = values.T
    return Judged(
        *judge({"max_geodesic_defect": (a, tols.geodesic_tol),          # |∇̃_{E₁}E₁|
                "max_lambda_ode_defect": (b, tols.decomp_tol),          # |E₁(λ) − f (1 − λ²)|
                # |<∇̃_{E_j}E₁, E_k> − (f/λ) δ_jk| and |E_j(λ)|, j, k >= 2
                "max_connection_form_defect": (c, tols.decomp_tol),
                "max_fiber_lambda_derivative": (d, tols.decomp_tol)}),
        witness=fits.point[worst(np.max(values, axis=-1, initial=0.0))[1]])


def build_warped_ambient(lambda_expr, fiber_metric, s_range, fiber_domain,
                         name: str = "warped-ambient", seed: int = 42):
    """Scene for the product chart (s, fiber) with metric ds² + λ(s)² g_F and
    the field V = ∂/∂s attached.

    λ must be positive on the s-interval (checked on a dense grid).  The
    fiber metric entries are expressions in the fiber coordinates x2..xm.
    """
    from .scenes import load_scene

    lam_ast = ex.ensure_expr(lambda_expr, ("x1",))
    lam = ex.Tape([lam_ast])     # one tape for the grid
    lo, hi = float(s_range[0]), float(s_range[1])
    for s in np.linspace(lo, hi, 512):
        if ex.eval_float(lam, {"x1": float(s)})[0] <= 0.0:
            raise ModelViolationError(
                f"warping function is not positive at s={float(s)!r}", witness=s)

    mfiber = len(fiber_metric)
    m = mfiber + 1
    fiber_names = tuple(f"x{i + 2}" for i in range(mfiber))
    lam_sq = ex.BinOp("*", lam_ast, lam_ast)
    rows = [["1"]]
    for i in range(mfiber):
        row = ["0"]
        for j in range(i + 1):
            gf = ex.ensure_expr(fiber_metric[i][j], fiber_names)
            row.append(ex.to_source(ex.BinOp("*", lam_sq, gf)))
        rows.append(row)
    doc = {
        "name": name,
        "ambient": {
            "dim": m,
            "metric": rows,
            "domain": [[lo, hi]] + [list(map(float, b)) for b in fiber_domain],
        },
        "field": ["1"] + ["0"] * mfiber,
        "checks": ["classify", "ambient-decomposition"],
        "seed": seed,
    }
    return load_scene(doc)


def lambda_log_derivative(lambda_expr, s: float) -> float:
    """d log λ / ds at s, differentiated exactly (converse-direction oracle)."""
    lam_ast = ex.ensure_expr(lambda_expr, ("x1",))
    jet = eval_jet(lam_ast, [s], 1, names=("x1",))
    return float(jet.gradient()[0] / jet.value)
