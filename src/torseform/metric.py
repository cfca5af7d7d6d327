"""Intrinsic tensor calculus of an ambient Riemannian metric.

All quantities are evaluated pointwise from metric jets, at one point or at
each point of a sample: the data of a sample of N points carries a leading
batch axis (g of shape (N, m, m), and so on) and every formula below is
written over it: Γ, ∂Γ, R and R(X,Y)Z as stacked matrix products, index
permutations with `...` einsums.  A constant metric holds Γ = 0 and R = 0,
and its data says so (`MetricAtPoint.flat`): R(X,Y)Z is then zeros and ∇V
is ∂V, with no product of the zeros computed.

    Γᵏᵢⱼ   = ½ gᵏˡ (∂ᵢ g_lj + ∂ⱼ g_li − ∂ˡ g_ij)
    Rˡ_kij = ∂ᵢ Γˡⱼₖ − ∂ⱼ Γˡᵢₖ + Γˡᵢₐ Γᵃⱼₖ − Γˡⱼₐ Γᵃᵢₖ
    R(X,Y)Z = Rˡ_kij Zᵏ Xⁱ Yʲ ∂ˡ
    K(u,v) = g(R(u,v)v, u) / (g(u,u) g(v,v) − g(u,v)²)

with the curvature convention R(X,Y)Z = ∇_X∇_Y Z − ∇_Y∇_X Z − ∇_[X,Y] Z,
under which the round unit sphere has K = +1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import expr as ex
from .config import DEFAULT, Tolerances
from .errors import DegeneratePlaneError, OrderInsufficientError, PreconditionError
from .jets import Jet, chart_names, chart_points, eval_jet_env, jet_variables
from .linalg import cholesky_spd, dot, first_where, item, lower_inverse, mv


@functools.cache
def _symmetric_index(m: int) -> np.ndarray:
    """index[i, j] = position of the lower-triangle entry (max(i,j), min(i,j))
    in row-major order."""
    rows, cols = np.tril_indices(m)
    index = np.empty((m, m), dtype=int)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    return index


def _batch_first(t: np.ndarray, rank: int) -> np.ndarray:
    """A jet tensor with `rank` tensor axes and possibly a trailing batch axis,
    with that batch axis moved to the front."""
    return t if t.ndim == rank else np.moveaxis(t, -1, 0)


@dataclass(frozen=True)
class MetricAtPoint:
    """Metric data at one point, or at each point of a sample with a leading
    batch axis on every array (point (N, m), g (N, m, m), ...).

    dg[a, i, j]     = ∂_a g_ij          (present when order >= 1)
    d2g[a, b, i, j] = ∂_a ∂_b g_ij      (present when order >= 2)
    flat            g is constant, so Γ = 0 and R = 0 (MetricField.at)
    """

    point: np.ndarray
    g: np.ndarray
    dg: np.ndarray | None = None
    d2g: np.ndarray | None = None
    spd_tol: float = DEFAULT.spd_tol
    flat: bool = False

    @classmethod
    def from_jets(cls, point, jets, order: int, spd_tol: float) -> "MetricAtPoint":
        """Metric data from entry jets of the given order, read from the
        lower triangle jets[i][j], j <= i; g must be positive definite (at
        every point of a batch), which its Cholesky factor checks and keeps.
        Jets over a batch give batched data."""
        m = len(jets)
        lower = [jets[i][j] for i in range(m) for j in range(i + 1)]
        index = _symmetric_index(m)

        def tensor(k):
            # t[i, j, a..., batch] = ∂^k g_ij, reordered to [batch, a..., i, j]
            t = np.array([jet.d[k] for jet in lower])[index]
            return t.transpose(tuple(range(k + 2, t.ndim)) + tuple(range(2, k + 2))
                               + (0, 1))

        mp = cls(point=np.asarray(point, dtype=float), g=tensor(0),
                 dg=tensor(1) if order >= 1 else None,
                 d2g=tensor(2) if order >= 2 else None, spd_tol=spd_tol)
        mp.factor       # g must be positive definite
        return mp

    @property
    def dim(self) -> int:
        return self.g.shape[-1]

    @cached_property
    def factor(self) -> np.ndarray:
        """Lower Cholesky factor L of g = L Lᵀ; raises SingularMetricError
        unless g is positive definite (at every point)."""
        return cholesky_spd(self.g, self.spd_tol)

    @cached_property
    def coframe(self) -> np.ndarray:
        """C = L⁻¹, so g⁻¹ = Cᵀ C: the g-orthonormal frame e_i = Σ_j C[i, j] ∂_j
        that Gram-Schmidt makes of ∂_1..∂_m in order (a batch axis leads)."""
        return lower_inverse(self.factor)

    @cached_property
    def inverse(self) -> np.ndarray:
        return np.swapaxes(self.coframe, -1, -2) @ self.coframe

    @cached_property
    def koszul(self) -> np.ndarray:
        """T[l, i, j] = ∂_i g_lj + ∂_j g_li − ∂_l g_ij."""
        if self.dg is None:
            raise OrderInsufficientError("christoffel needs metric jets of order >= 1")
        dg = self.dg
        return np.einsum("...ilj->...lij", dg) + np.einsum("...jli->...lij", dg) - dg

    @cached_property
    def gamma(self) -> np.ndarray:
        """Γ[k, i, j] = Γᵏᵢⱼ, computed once per point."""
        return christoffel(self)

    @cached_property
    def curvature(self) -> np.ndarray:
        """R[l, k, i, j] = Rˡ_kij, computed once per point."""
        return riemann_components(self)

    def inner(self, u, v):
        """g(u, v): a float at one point, an (N,) array over a batch."""
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        return item(dot((u[..., None, :] @ self.g)[..., 0, :], v))

    def norm(self, u):
        return item(np.sqrt(np.maximum(self.inner(u, u), 0.0)))


@dataclass(frozen=True)
class VectorAtPoint:
    """A vector at a point; jacobian[k, j] = ∂_j V^k when available.  Over a
    sample both carry a leading batch axis."""

    components: np.ndarray
    jacobian: np.ndarray | None = None

    @classmethod
    def from_jets(cls, jets, order: int) -> "VectorAtPoint":
        """Components from their jets; the jacobian when order >= 1."""
        jacobian = (_batch_first(np.array([jet.d[1] for jet in jets]), 2)
                    if order >= 1 else None)
        return cls(components=_batch_first(np.array([jet.d[0] for jet in jets]), 1),
                   jacobian=jacobian)


def euclidean_rows(m: int) -> list:
    """The lower-triangle rows of the flat metric on an m-dimensional chart."""
    return [["1" if i == j else "0" for j in range(i + 1)] for i in range(m)]


class MetricField:
    """Symmetric matrix of component expressions g_ij(x1..xm)."""

    def __init__(self, entries, *, spd_tol: float = DEFAULT.spd_tol):
        m = len(entries)
        self.dim = m
        self.var_names = chart_names(m)
        self.spd_tol = spd_tol
        lower, parsed = [], {}      # each distinct entry text is parsed once
        for i, row in enumerate(entries):
            if len(row) not in (i + 1, m):
                raise ValueError(
                    f"metric row {i} must have {i + 1} (lower triangle) or {m} entries")
            for e in row[:i + 1]:
                if isinstance(e, str) and e not in parsed:
                    parsed[e] = ex.parse(e, self.var_names)
                lower.append(parsed[e] if isinstance(e, str) else ex.ensure_expr(e, self.var_names))
        self.tape = ex.Tape(lower)
        self.exprs = tuple(tuple(lower[k] for k in row) for row in _symmetric_index(m))
        self.constant = not self.tape.names
        self._held = None       # a constant metric's data, once checked

    @classmethod
    def euclidean(cls, m: int) -> "MetricField":
        return cls(euclidean_rows(m))

    def entry_jets(self, env) -> list:
        """Entries evaluated over a jet environment, each lower-triangle
        entry once, by one run of the tape."""
        values = eval_jet_env(self.tape, env)
        return [[values[k] for k in row] for row in _symmetric_index(self.dim)]

    def _hold(self) -> MetricAtPoint:
        """A constant metric's data at a point, walked and checked once."""
        if self._held is None:
            self._held = self._walk(np.zeros(self.dim), 0)
        return self._held

    def at(self, point: Sequence[float], order: int = 2) -> MetricAtPoint:
        """Evaluate the metric and its derivatives to the requested order at
        a point, or at each row of an (N, m) array of points with one run of
        the entries' tape.

        A constant metric is walked and checked once, by the first call that
        succeeds; later calls return its g, Cholesky factor and coframe at
        every point, with zero derivatives, Γ and curvature, marked flat."""
        if not self.constant:
            return self._walk(point, order)
        point = chart_points(point, self.dim)
        held, batch, m = self._hold(), point.shape[:-1], self.dim
        g, factor, coframe = held.g, held.factor, held.coframe
        if batch:
            # a walk leaves the batch axis last in memory; so does this g,
            # so that products with it round alike
            g = np.moveaxis(np.repeat(g[..., None], batch[0], -1), -1, 0)
            factor, coframe = (np.repeat(a[None], batch[0], 0) for a in (factor, coframe))
        else:
            g, factor, coframe = g.copy(), factor.copy(), coframe.copy()
        dg, d2g = (np.zeros(batch + (m,) * (k + 2)) if order >= k else None for k in (1, 2))
        mp = MetricAtPoint(point=point, g=g, dg=dg, d2g=d2g, spd_tol=self.spd_tol,
                           flat=True)
        # Γ and R of a constant metric vanish like its derivatives, and share their zeros
        data = dict(factor=factor, coframe=coframe, gamma=dg, curvature=d2g)
        vars(mp).update((k, v) for k, v in data.items() if v is not None)
        return mp

    def _walk(self, point, order: int) -> MetricAtPoint:
        env = jet_variables(self.var_names, point, order)
        return MetricAtPoint.from_jets(point, self.entry_jets(env), order, self.spd_tol)


class VectorField:
    """Ambient vector field with component expressions V^k(x1..xm)."""

    def __init__(self, components, dim: int | None = None):
        self.dim = dim if dim is not None else len(components)
        if len(components) != self.dim:
            raise ValueError("component count does not match dimension")
        self.var_names = chart_names(self.dim)
        self.exprs = tuple(ex.ensure_expr(c, self.var_names) for c in components)
        self.tape = ex.Tape(self.exprs)

    def component_jets(self, env) -> list:
        """The components evaluated over a jet environment, shared subtrees
        once, by one run of the tape."""
        return eval_jet_env(self.tape, env)

    def at(self, point: Sequence[float], order: int = 1) -> VectorAtPoint:
        """The field and (order >= 1) its jacobian at a point, or at each row
        of an (N, m) array of points."""
        env = jet_variables(self.var_names, point, order)
        return VectorAtPoint.from_jets(self.component_jets(env), order)

    def norm_jet(self, point: Sequence[float], metric: MetricField) -> Jet:
        """1-jet of |V|(x) = sqrt(g_ij V^i V^j) at the point (or points)."""
        _, lam, dlam = unit_and_norm_at(metric.at(point, order=1), self.at(point))
        return Jet(1, self.dim, [lam, np.moveaxis(dlam, -1, 0)])

    def unit_at(self, point: Sequence[float], metric: MetricField) -> VectorAtPoint:
        """V/|V| with jacobian, differentiated through the normalization."""
        return unit_and_norm_at(metric.at(point, order=1), self.at(point))[0]


# ---------------------------------------------------------------------------
# Connection and curvature
# ---------------------------------------------------------------------------

def _contract(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """c[k, i, j] = Σ_l a[k, l] t[l, i, j] at each point, as one matmul."""
    c = a @ t.reshape(t.shape[:-2] + (-1,))
    return c.reshape(c.shape[:-1] + t.shape[-2:])


def christoffel(mp: MetricAtPoint) -> np.ndarray:
    """Γ[k, i, j] = Γᵏᵢⱼ from the Koszul expansion; symmetric in (i, j)."""
    return 0.5 * _contract(mp.inverse, mp.koszul)


def christoffel_derivatives(mp: MetricAtPoint):
    """(Γ, dΓ) with dΓ[a, k, i, j] = ∂_a Γᵏᵢⱼ; needs order-2 metric jets."""
    if mp.d2g is None:
        raise OrderInsufficientError("curvature needs metric jets of order >= 2")
    d2g, ginv, gamma = mp.d2g, mp.inverse[..., None, :, :], mp.gamma[..., None, :, :, :]
    # dT[a, l, i, j] = ∂_a∂_i g_lj + ∂_a∂_j g_li − ∂_a∂_l g_ij
    dT = (np.einsum("...ailj->...alij", d2g) + np.einsum("...ajli->...alij", d2g) - d2g)
    # ∂_a Γ = ∂_a(½ g⁻¹ T) = g⁻¹ (½ ∂_a T − ∂_a g Γ), as ∂_a g⁻¹ = −g⁻¹ (∂_a g) g⁻¹
    return mp.gamma, _contract(ginv, 0.5 * dT - _contract(mp.dg, gamma))


def riemann_components(mp: MetricAtPoint) -> np.ndarray:
    """R[l, k, i, j] = Rˡ_kij so that R(∂i, ∂j)∂k = Rˡ_kij ∂l."""
    gamma, dgamma = christoffel_derivatives(mp)
    m, batch = mp.dim, gamma.shape[:-3]
    # P[l, i, j, k] = Γˡᵢₐ Γᵃⱼₖ, one (m², m) @ (m, m²) product at each point
    P = gamma.reshape(batch + (-1, m)) @ gamma.reshape(batch + (m, -1))
    P = P.reshape(batch + (m,) * 4)
    # with dgamma[a, l, i, j] = ∂_a Γˡᵢⱼ: ∂ᵢ Γˡⱼₖ − ∂ⱼ Γˡᵢₖ + P[l, i, j, k] − P[l, j, i, k]
    return (np.einsum("...iljk->...lkij", dgamma) - np.einsum("...jlik->...lkij", dgamma)
            + np.einsum("...lijk->...lkij", P) - np.einsum("...ljik->...lkij", P))


def riemann(mp: MetricAtPoint, X, Y, Z) -> np.ndarray:
    """R(X, Y)Z at the point (or points); zeros where the metric is flat."""
    X, Y, Z = (np.asarray(a, float) for a in (X, Y, Z))
    if mp.flat:
        return np.zeros(np.broadcast_shapes(X.shape, Y.shape, Z.shape, mp.g.shape[:-1]))
    zxy = Z[..., :, None, None] * X[..., None, :, None] * Y[..., None, None, :]
    R = mp.curvature                    # one (m, m³) @ (m³,) product at each point
    return mv(R.reshape(R.shape[:-3] + (-1,)), zxy.reshape(zxy.shape[:-3] + (-1,)))


def plane_curvature(mp: MetricAtPoint, u, v, tols: Tolerances = DEFAULT):
    """(K, denominator, degenerate): K of the plane spanned by u, v at the
    point (or at each point), its denominator g(u,u) g(v,v) − g(u,v)², and
    whether u, v are nearly dependent there, where K is NaN.  A NaN
    denominator does not count as degenerate."""
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    guu = mp.inner(u, u)
    gvv = mp.inner(v, v)
    guv = mp.inner(u, v)
    denom = guu * gvv - guv * guv
    degenerate = np.asarray(denom <= tols.degeneracy_tol * guu * gvv)
    ruvv = riemann(mp, u, v, v)
    return item(mp.inner(ruvv, u) / np.where(degenerate, np.nan, denom)), denom, degenerate


def sectional_curvature(mp: MetricAtPoint, u, v,
                        tols: Tolerances = DEFAULT) -> float:
    """K of the plane spanned by u, v; invariant under basis changes of the
    plane.  Raises DegeneratePlaneError when u, v are nearly dependent."""
    value, denom, degenerate = plane_curvature(mp, u, v, tols)
    if np.any(degenerate):
        raise DegeneratePlaneError(
            f"plane section is degenerate (denominator {first_where(degenerate, denom):.3e})")
    return value


def covariant_jacobian(mp: MetricAtPoint, field: VectorAtPoint) -> np.ndarray:
    """D[j, k] = (∇_{∂_j} V)^k = ∂_j V^k + Γᵏⱼᵦ V^b at the point (or points);
    ∂_j V^k where the metric is flat."""
    if field.jacobian is None:
        raise PreconditionError("covariant derivative needs the field jacobian")
    if mp.flat:     # laid out and signed as the sum below, so that products round alike
        return np.swapaxes(np.ascontiguousarray(field.jacobian), -1, -2) + 0.0
    return (np.swapaxes(field.jacobian, -1, -2)
            + np.einsum("...kjb,...b->...jk", mp.gamma, field.components))


def unit_and_norm_at(mp: MetricAtPoint, field: VectorAtPoint):
    """(E₁ = V/|V| with jacobian, |V|, ∂|V|) at the point (or points), from
    the order-1 metric and field data the caller holds:
    ∂_a |V|² = ∂_a g_ij V^i V^j + 2 g_ij V^i ∂_a V^j."""
    if mp.dg is None or field.jacobian is None:
        raise OrderInsufficientError("the unit field needs order-1 metric and field data")
    v, jac = field.components, field.jacobian            # jac[k, a] = ∂_a V^k
    lam = np.sqrt(np.einsum("...i,...ij,...j->...", v, mp.g, v))
    dlam = ((np.einsum("...aij,...i,...j->...a", mp.dg, v, v)
             + 2.0 * np.einsum("...ij,...i,...ja->...a", mp.g, v, jac))
            / (2.0 * lam[..., None]))
    e1 = v / lam[..., None]
    de1 = (jac - e1[..., :, None] * dlam[..., None, :]) / lam[..., None, None]
    return VectorAtPoint(components=e1, jacobian=de1), lam, dlam


def covariant_derivative(mp: MetricAtPoint, field: VectorAtPoint, direction) -> np.ndarray:
    """(∇_X V)^k = X^j (∇_{∂_j} V)^k at the point (or points)."""
    direction = np.asarray(direction, dtype=float)
    return (direction[..., None, :] @ covariant_jacobian(mp, field))[..., 0, :]
