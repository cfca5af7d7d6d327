"""Intrinsic tensor calculus of an ambient Riemannian metric.

All quantities are evaluated pointwise from metric jets:

    Γᵏᵢⱼ   = ½ gᵏˡ (∂ᵢ g_lj + ∂ⱼ g_li − ∂ˡ g_ij)
    Rˡ_kij = ∂ᵢ Γˡⱼₖ − ∂ⱼ Γˡᵢₖ + Γˡᵢₐ Γᵃⱼₖ − Γˡⱼₐ Γᵃᵢₖ
    R(X,Y)Z = Rˡ_kij Zᵏ Xⁱ Yʲ ∂ˡ
    K(u,v) = g(R(u,v)v, u) / (g(u,u) g(v,v) − g(u,v)²)

with the curvature convention R(X,Y)Z = ∇_X∇_Y Z − ∇_Y∇_X Z − ∇_[X,Y] Z,
under which the round unit sphere has K = +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import expr as ex
from .config import DEFAULT, Tolerances
from .errors import (DegeneratePlaneError, OrderInsufficientError,
                     PreconditionError, SingularMetricError)
from .jets import Jet, call, chart_names, eval_jet_env, jet_variables
from .linalg import cholesky_spd, inverse_spd


@dataclass(frozen=True)
class MetricAtPoint:
    """Metric data at one point.

    dg[a, i, j]     = ∂_a g_ij          (present when order >= 1)
    d2g[a, b, i, j] = ∂_a ∂_b g_ij      (present when order >= 2)
    """

    point: np.ndarray
    g: np.ndarray
    dg: np.ndarray | None = None
    d2g: np.ndarray | None = None
    spd_tol: float = DEFAULT.spd_tol

    @classmethod
    def from_jets(cls, point, jets, order: int, spd_tol: float) -> "MetricAtPoint":
        """Metric data from entry jets of the given order, read from the
        lower triangle jets[i][j], j <= i; g must be positive definite."""
        m = len(jets)
        g = np.zeros((m, m))
        dg = np.zeros((m, m, m)) if order >= 1 else None
        d2g = np.zeros((m, m, m, m)) if order >= 2 else None
        for i in range(m):
            for j in range(i + 1):
                jet = jets[i][j]
                g[i, j] = g[j, i] = jet.value
                if order >= 1:
                    dg[:, i, j] = dg[:, j, i] = jet.gradient()
                if order >= 2:
                    d2g[:, :, i, j] = d2g[:, :, j, i] = jet.hessian()
        cholesky_spd(g, spd_tol)
        return cls(point=np.asarray(point, dtype=float), g=g, dg=dg, d2g=d2g,
                   spd_tol=spd_tol)

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    @cached_property
    def inverse(self) -> np.ndarray:
        return inverse_spd(self.g, self.spd_tol)

    @cached_property
    def koszul(self) -> np.ndarray:
        """T[l, i, j] = ∂_i g_lj + ∂_j g_li − ∂_l g_ij."""
        if self.dg is None:
            raise OrderInsufficientError("christoffel needs metric jets of order >= 1")
        dg = self.dg
        return np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg) - dg

    @cached_property
    def gamma(self) -> np.ndarray:
        """Γ[k, i, j] = Γᵏᵢⱼ, computed once per point."""
        return christoffel(self)

    @cached_property
    def curvature(self) -> np.ndarray:
        """R[l, k, i, j] = Rˡ_kij, computed once per point."""
        return riemann_components(self)

    def inner(self, u, v) -> float:
        return float(np.asarray(u) @ self.g @ np.asarray(v))

    def norm(self, u) -> float:
        return float(np.sqrt(max(self.inner(u, u), 0.0)))


@dataclass(frozen=True)
class VectorAtPoint:
    """A vector at a point; jacobian[k, j] = ∂_j V^k when available."""

    components: np.ndarray
    jacobian: np.ndarray | None = None

    @classmethod
    def from_jets(cls, jets, order: int) -> "VectorAtPoint":
        """Components from their jets; the jacobian when order >= 1."""
        jacobian = np.stack([jet.gradient() for jet in jets]) if order >= 1 else None
        return cls(components=np.array([jet.value for jet in jets]), jacobian=jacobian)


class MetricField:
    """Symmetric matrix of component expressions g_ij(x1..xm)."""

    def __init__(self, entries, *, spd_tol: float = DEFAULT.spd_tol):
        m = len(entries)
        self.dim = m
        self.var_names = chart_names(m)
        self.spd_tol = spd_tol
        exprs = [[None] * m for _ in range(m)]
        for i, row in enumerate(entries):
            if len(row) not in (i + 1, m):
                raise ValueError(
                    f"metric row {i} must have {i + 1} (lower triangle) or {m} entries")
            for j in range(min(len(row), i + 1)):
                e = ex.ensure_expr(row[j], self.var_names)
                exprs[i][j] = e
                exprs[j][i] = e
        self.exprs = tuple(tuple(row) for row in exprs)

    @classmethod
    def euclidean(cls, m: int) -> "MetricField":
        return cls([[("1" if i == j else "0") for j in range(i + 1)] for i in range(m)])

    def entry_jets(self, env) -> list:
        """Entries evaluated over a jet environment, each lower-triangle
        entry once."""
        m = self.dim
        out = [[None] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1):
                jet = eval_jet_env(self.exprs[i][j], env)
                out[i][j] = out[j][i] = jet
        return out

    def at(self, point: Sequence[float], order: int = 2) -> MetricAtPoint:
        """Evaluate the metric and its derivatives to the requested order."""
        env = jet_variables(self.var_names, point, order)
        return MetricAtPoint.from_jets(point, self.entry_jets(env), order,
                                       self.spd_tol)


def jet_inner(gjets, a, b) -> Jet:
    """Σ_ij g_ij a^i b^j over jets, summed in index order.  Entries that are
    the constant 0 add nothing and are skipped: most entries of a diagonal
    metric, whose products would otherwise dominate the induced metric."""
    acc = None
    for i, row in enumerate(gjets):
        for j, gij in enumerate(row):
            if gij.value == 0.0 and gij.is_constant():
                continue
            term = gij * a[i] * b[j]
            acc = term if acc is None else acc + term
    return acc if acc is not None else gjets[0][0] * a[0] * b[0]


class VectorField:
    """Ambient vector field with component expressions V^k(x1..xm)."""

    def __init__(self, components, dim: int | None = None):
        self.dim = dim if dim is not None else len(components)
        if len(components) != self.dim:
            raise ValueError("component count does not match dimension")
        self.var_names = chart_names(self.dim)
        self.exprs = tuple(ex.ensure_expr(c, self.var_names) for c in components)

    def at(self, point: Sequence[float], order: int = 1) -> VectorAtPoint:
        env = jet_variables(self.var_names, point, order)
        return VectorAtPoint.from_jets([eval_jet_env(e, env) for e in self.exprs], order)

    def norm_jet(self, point: Sequence[float], metric: MetricField, order: int = 1) -> Jet:
        """Jet of |V|(x) = sqrt(g_ij V^i V^j) at the point."""
        return self.unit_and_norm(point, metric, order)[1]

    def unit_at(self, point: Sequence[float], metric: MetricField) -> VectorAtPoint:
        """V/|V| with jacobian, differentiated through the normalization."""
        return self.unit_and_norm(point, metric)[0]

    def unit_and_norm(self, point: Sequence[float], metric: MetricField,
                      order: int = 1) -> tuple[VectorAtPoint, Jet]:
        """(V/|V| with jacobian, jet of |V|), both from one |V| jet."""
        env = jet_variables(self.var_names, point, order)
        vjets = [eval_jet_env(e, env) for e in self.exprs]
        norm = call("sqrt", jet_inner(metric.entry_jets(env), vjets, vjets))
        return VectorAtPoint.from_jets([v / norm for v in vjets], order), norm


# ---------------------------------------------------------------------------
# Connection and curvature
# ---------------------------------------------------------------------------

def christoffel(mp: MetricAtPoint) -> np.ndarray:
    """Γ[k, i, j] = Γᵏᵢⱼ from the Koszul expansion; symmetric in (i, j)."""
    return 0.5 * np.einsum("kl,lij->kij", mp.inverse, mp.koszul)


def christoffel_derivatives(mp: MetricAtPoint):
    """(Γ, dΓ) with dΓ[a, k, i, j] = ∂_a Γᵏᵢⱼ; needs order-2 metric jets."""
    if mp.d2g is None:
        raise OrderInsufficientError("curvature needs metric jets of order >= 2")
    dg, d2g, ginv = mp.dg, mp.d2g, mp.inverse
    # ∂_a g^{kl} = −g^{kp} (∂_a g_pq) g^{ql}
    dginv = -np.einsum("kp,apq,ql->akl", ginv, dg, ginv)
    # dT[a, l, i, j] = ∂_a∂_i g_lj + ∂_a∂_j g_li − ∂_a∂_l g_ij
    dT = (np.einsum("ailj->alij", d2g) + np.einsum("ajli->alij", d2g) - d2g)
    dgamma = 0.5 * (np.einsum("akl,lij->akij", dginv, mp.koszul)
                    + np.einsum("kl,alij->akij", ginv, dT))
    return mp.gamma, dgamma


def riemann_components(mp: MetricAtPoint) -> np.ndarray:
    """R[l, k, i, j] = Rˡ_kij so that R(∂i, ∂j)∂k = Rˡ_kij ∂l."""
    gamma, dgamma = christoffel_derivatives(mp)
    # dgamma[a, l, i, j] = ∂_a Γ^l_{ij}
    term1 = np.einsum("iljk->lkij", dgamma)       # ∂_i Γ^l_{jk}
    term2 = np.einsum("jlik->lkij", dgamma)       # ∂_j Γ^l_{ik}
    term3 = np.einsum("lia,ajk->lkij", gamma, gamma)
    term4 = np.einsum("lja,aik->lkij", gamma, gamma)
    return term1 - term2 + term3 - term4


def riemann(mp: MetricAtPoint, X, Y, Z) -> np.ndarray:
    """R(X, Y)Z at the point."""
    return np.einsum("lkij,k,i,j->l", mp.curvature, np.asarray(Z, float),
                     np.asarray(X, float), np.asarray(Y, float))


def sectional_curvature(mp: MetricAtPoint, u, v,
                        tols: Tolerances = DEFAULT) -> float:
    """K of the plane spanned by u, v; invariant under basis changes of the
    plane.  Raises DegeneratePlaneError when u, v are nearly dependent."""
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    guu = mp.inner(u, u)
    gvv = mp.inner(v, v)
    guv = mp.inner(u, v)
    denom = guu * gvv - guv * guv
    if denom <= tols.degeneracy_tol * guu * gvv:
        raise DegeneratePlaneError(
            f"plane section is degenerate (denominator {denom:.3e})")
    ruvv = riemann(mp, u, v, v)
    return mp.inner(ruvv, u) / denom


def covariant_jacobian(mp: MetricAtPoint, field: VectorAtPoint) -> np.ndarray:
    """D[j, k] = (∇_{∂_j} V)^k = ∂_j V^k + Γᵏⱼᵦ V^b at the point."""
    if field.jacobian is None:
        raise PreconditionError("covariant derivative needs the field jacobian")
    return field.jacobian.T + np.einsum("kjb,b->jk", mp.gamma, field.components)


def covariant_derivative(mp: MetricAtPoint, field: VectorAtPoint, direction) -> np.ndarray:
    """(∇_X V)^k = X^j (∇_{∂_j} V)^k at the point."""
    return np.asarray(direction, float) @ covariant_jacobian(mp, field)


def orthonormal_coordinate_frame(mp: MetricAtPoint, tols: Tolerances = DEFAULT):
    """Gram-Schmidt the coordinate basis into a g-orthonormal frame.

    Returns C with e_i = Σ_j C[i, j] ∂_j (rows are ambient components).
    """
    from .linalg import orthonormalize
    m = mp.dim
    basis, _, kept = orthonormalize(list(np.eye(m)), mp.g, keep_tol=tols.frame_tol)
    if len(kept) != m:
        raise SingularMetricError("coordinate frame lost rank under the metric")
    return basis
