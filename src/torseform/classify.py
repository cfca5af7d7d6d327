"""Classification of ambient vector fields against the torse-forming ansatz

    ∇̃_X V = f X + ω(X) V.

The fit is a least-squares problem over a g̃-orthonormal frame {e_i} in the
unknowns (f, ω(e_1), ..., ω(e_m)); its normal equations

    [[m, v], [vᵀ, |v|² I]] (f, w) = (tr a, a v),   a_ik = <∇̃_{e_i}V, e_k>

are solved by Cholesky.  Specializations are measured on the fitted pair:
|ω| (concircular), |ω(V)| (torqued) and |ω + f ν| with ν the dual of V
(anti-torqued).  Verdict precedence, most specific first:
parallel > concircular > anti-torqued > torqued > torse-forming > none.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields, replace

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (InconsistentSampleError, PreconditionError, SingularFitError,
                     SingularMetricError, ZeroFieldError, replay)
from .linalg import dot, first_where, item, mv, norm, reduce_max, solve_spd, worst
from .metric import (MetricAtPoint, MetricField, VectorAtPoint, VectorField,
                     covariant_jacobian, orthonormal_coordinate_frame)

PARALLEL = "parallel"
CONCIRCULAR = "concircular"
ANTI_TORQUED = "anti-torqued"
TORQUED = "torqued"
TORSE_FORMING = "torse-forming"
NONE = "none"

#: most specific class first
PRECEDENCE = (PARALLEL, CONCIRCULAR, ANTI_TORQUED, TORQUED, TORSE_FORMING)

#: every verdict, in the order of PRECEDENCE
_CLASSES = np.array(PRECEDENCE + (NONE,))

#: bound on max |∇̃_V V| for a unit anti-torqued field
GEODESIC_TOL = 1e-8
#: bound on max | |V| - 1 | for the unit-field precondition
UNIT_NORM_TOL = 1e-8


@dataclass(frozen=True)
class ClassificationReport:
    """Per-point fit of the torse-forming ansatz.  fit_at_point over a batch
    returns one report whose fields carry the batch axis."""

    point: np.ndarray
    f: float
    omega: np.ndarray          # coordinate covector ω_j = ω(∂_j)
    w_dual: np.ndarray         # vector dual of ω: W^k = g^{kl} ω_l
    residual_torse: float
    residual_concircular: float
    residual_torqued: float
    residual_antitorqued: float
    verdict: str
    v_norm: float
    grad_norm: float           # Frobenius norm of <∇̃_{e_i}V, e_k>
    geodesic_defect: float     # |∇̃_V V|


def _passes(rep: ClassificationReport, cls: str, tols: Tolerances):
    """Membership of one point (or of each point of a batched report) in a
    class.  Every test reads `value <= tol`, so a NaN or an infinite residual
    never passes."""
    if cls == PARALLEL:
        return rep.grad_norm <= tols.parallel_tol
    return ((rep.residual_torse <= tols.class_tol)
            & (_residual_for(rep, cls) <= tols.class_tol))


def _residual_for(rep: ClassificationReport, cls: str) -> float:
    return {PARALLEL: rep.grad_norm,
            CONCIRCULAR: rep.residual_concircular,
            ANTI_TORQUED: rep.residual_antitorqued,
            TORQUED: rep.residual_torqued,
            TORSE_FORMING: rep.residual_torse,
            NONE: rep.residual_torse}[cls]


def fit_torse_forming(metric: MetricField, field: VectorField, point,
                      tols: Tolerances = DEFAULT) -> ClassificationReport:
    """Least-squares fit of (f, ω) at one point, with specialization
    residuals and a per-point verdict; over an (N, m) array of points, one
    batched report (see fit_at_point)."""
    point = np.asarray(point, dtype=float)
    vap = field.at(point, order=1)
    return fit_at_point(metric.at(point, order=1), vap, tols)


def fit_at_point(mp: MetricAtPoint, vap: VectorAtPoint,
                 tols: Tolerances = DEFAULT) -> ClassificationReport:
    """The fit of fit_torse_forming from order-1 metric and field jets that
    the caller already holds at mp.point.  Over a batch (a leading axis on
    mp and vap) every field of the report carries that axis, the verdict
    included; a guard that fails at any point raises."""
    m = mp.dim
    v_norm = mp.norm(vap.components)
    small = v_norm <= tols.min_field_norm
    if np.any(small):
        raise ZeroFieldError(f"|V| = {first_where(small, v_norm):.3e} at "
                             f"{first_where(small, mp.point).tolist()}")

    C = orthonormal_coordinate_frame(mp, tols)          # e_i = Σ_j C[i, j] ∂_j
    L = mp.factor                                       # C = L⁻¹, so g Cᵀ = L
    dcoord = covariant_jacobian(mp, vap)                # dcoord[j, :] = ∇̃_{∂_j} V
    a = C @ dcoord @ L                                  # a[i, k] = <∇̃_{e_i}V, e_k>
    v = mv(np.swapaxes(L, -1, -2), vap.components)      # frame components C g V of V

    vv = dot(v, v)
    normal = np.zeros(np.shape(vv) + (m + 1, m + 1))
    normal[..., 0, 0] = m
    normal[..., 0, 1:] = v
    normal[..., 1:, 0] = v
    normal[..., 1:, 1:] = vv[..., None, None] * np.eye(m)
    rhs = np.concatenate((np.trace(a, axis1=-2, axis2=-1)[..., None], mv(a, v)), axis=-1)
    try:
        sol = solve_spd(normal, rhs, tols.spd_tol)
    except SingularMetricError as exc:
        # np.linalg.cond raises on a non-finite matrix (overflowed jets)
        finite = np.isfinite(normal).all(axis=(-2, -1))
        cond = np.linalg.cond(np.where(finite[..., None, None], normal, np.eye(m + 1)))
        raise SingularFitError("torse-forming normal equations are singular",
                               float(np.max(np.where(finite, cond, math.inf)))) from exc
    f = sol[..., 0]
    w = sol[..., 1:]

    resid = a - f[..., None, None] * np.eye(m) - w[..., :, None] * v[..., None, :]
    grad_norm = norm(a, 2)
    omega = mv(L, w)                                    # ω(∂_j) from ω(e_i) = w_i
    report = ClassificationReport(
        point=mp.point, f=item(f), omega=omega, w_dual=mv(mp.inverse, omega),
        residual_torse=item(norm(resid, 2) / np.maximum(1.0, grad_norm)),
        residual_concircular=item(norm(w)),
        residual_torqued=item(abs(dot(w, v))),
        residual_antitorqued=item(norm(w + f[..., None] * v)),
        verdict=NONE, v_norm=v_norm, grad_norm=item(grad_norm),
        geodesic_defect=mp.norm((vap.components[..., None, :] @ dcoord)[..., 0, :]))
    member = [_passes(report, cls, tols) for cls in PRECEDENCE]
    verdict = _CLASSES[np.argmax(member + [np.ones_like(member[0])], axis=0)]
    return replace(report, verdict=verdict if verdict.ndim else str(verdict))


def _point_reports(batch: ClassificationReport) -> tuple:
    """One report per point of a batched report."""
    columns = {f.name: getattr(batch, f.name) for f in fields(ClassificationReport)}
    values = {name: (col.tolist() if col.ndim == 1 else col)
              for name, col in columns.items()}
    return tuple(ClassificationReport(**{name: col[i] for name, col in values.items()})
                 for i in range(len(batch.f)))


@dataclass(frozen=True)
class SceneClassification:
    """Aggregated verdict over a point sample.

    metric_at and field_at are the order-1 metric and field data the sample
    was fitted from, batched over it, for checks that reduce over the same
    points; None when the sample was fitted point by point.
    """

    verdict: str
    reports: tuple
    witness_index: int          # worst residual for the winning class
    witness_residual: float
    f_values: np.ndarray
    metric_at: MetricAtPoint | None = None
    field_at: VectorAtPoint | None = None

    def f_summary(self) -> dict:
        return {"min": float(self.f_values.min()),
                "max": float(self.f_values.max()),
                "mean": float(self.f_values.mean())}

    def class_residuals(self) -> dict:
        return {cls: reduce_max([_residual_for(rep, cls) for rep in self.reports])
                for cls in PRECEDENCE}

    def reports_at(self, points) -> tuple:
        """The per-point fits, after checking that they were made at `points`."""
        if not np.array_equal(np.asarray(list(points), dtype=float),
                              [rep.point for rep in self.reports]):
            raise PreconditionError(
                "classification was fitted on a different point sample")
        return self.reports


def classify(metric: MetricField, field: VectorField, points,
             tols: Tolerances = DEFAULT) -> SceneClassification:
    """Scene-level verdict: the most specific class whose membership residual
    is within class_tol at every sampled point.

    The sample is fitted in one batch, or point by point in sample order if
    the batch fails (errors.replay), so an error is the first failing
    point's own.

    A sample whose per-point verdicts cannot be covered by a single class
    raises InconsistentSampleError (the field changes class over the domain,
    which is reported rather than guessed).
    """
    points = np.asarray(list(points), dtype=float)
    if len(points) < tols.class_min_points:
        raise PreconditionError(
            f"need at least {tols.class_min_points} sample points, got {len(points)}")

    def batch():
        vap = field.at(points, order=1)
        mp = metric.at(points, order=1)
        return mp, vap, _point_reports(fit_at_point(mp, vap, tols))

    mp, vap, reports = replay(batch, lambda p: fit_torse_forming(metric, field, p, tols),
                              points, merge=lambda reps: (None, None, tuple(reps)))

    verdict = next((cls for cls in PRECEDENCE
                    if all(_passes(rep, cls, tols) for rep in reports)), None)
    if verdict is None and all(rep.residual_torse > tols.class_tol for rep in reports):
        verdict = NONE
    if verdict is None:
        histogram = dict(Counter(rep.verdict for rep in reports))
        raise InconsistentSampleError(
            f"field changes class across the domain: {histogram}", histogram)
    value, at = worst([_residual_for(rep, verdict) for rep in reports])
    return SceneClassification(
        verdict=verdict, reports=reports, witness_index=at, witness_residual=value,
        f_values=np.array([rep.f for rep in reports]), metric_at=mp, field_at=vap)


def geodesic_unit_check(metric: MetricField, field: VectorField, points,
                        classification: SceneClassification,
                        tols: Tolerances = DEFAULT) -> float:
    """max |∇̃_V V| over the points; a unit anti-torqued field is a unit
    geodesic field, so this must be ~0.  Reduces over the fits that
    `classification` made at `points`.

    Preconditions: the scene verdict is anti-torqued and ||V| − 1| <= 1e-8
    over the sample.
    """
    if classification.verdict != ANTI_TORQUED:
        raise PreconditionError(
            f"geodesic check requires an anti-torqued verdict, got "
            f"'{classification.verdict}'")
    reports = classification.reports_at(points)
    for rep in reports:
        if not abs(rep.v_norm - 1.0) <= UNIT_NORM_TOL:
            raise PreconditionError(
                f"field is not unit at {rep.point.tolist()}: |V| = {rep.v_norm!r}",
                witness=rep.point)
    return reduce_max([rep.geodesic_defect for rep in reports])
