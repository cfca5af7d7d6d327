"""Classification of ambient vector fields against the torse-forming ansatz

    ∇̃_X V = f X + ω(X) V.

The fit is a least-squares problem over a g̃-orthonormal frame {e_i} in the
unknowns (f, ω(e_1), ..., ω(e_m)); its normal equations

    [[m, vᵀ], [v, |v|² I]] (f, w) = (tr a, a v),   a_ik = <∇̃_{e_i}V, e_k>

have the closed form f = (tr a − v̂ᵀ a v̂)/(m − 1), w = (a v̂ − f v̂)/|v|,
v̂ = v/|v|.  It raises SingularFitError where the lower bound |v|²(m − 1)/m
on the matrix's smallest pivot is spd_tol or less (always for m = 1), and
where f or ω is not finite.  Specializations are measured on the fitted pair:
|ω| (concircular), |ω(V)| (torqued) and |ω + f ν| with ν the dual of V
(anti-torqued).  Verdict precedence, most specific first:
parallel > concircular > anti-torqued > torqued > torse-forming > none.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import astuple, dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (InconsistentSampleError, PreconditionError, SingularFitError,
                     SingularMetricError, ZeroFieldError, replay)
from .expr import quiet
from .linalg import dot, first_where, frame_collapses, item, mv, norm, reduce_max, worst
from .metric import (MetricAtPoint, MetricField, VectorAtPoint, VectorField,
                     covariant_jacobian)

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

#: the report field that measures membership in each class
_RESIDUAL = {PARALLEL: "grad_norm", CONCIRCULAR: "residual_concircular",
             ANTI_TORQUED: "residual_antitorqued", TORQUED: "residual_torqued",
             TORSE_FORMING: "residual_torse", NONE: "residual_torse"}


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
    membership: np.ndarray | None = None   # [..., c]: in class PRECEDENCE[c]


def _passes(rep: ClassificationReport, cls: str, tols: Tolerances):
    """Membership of one point (or of each point of a batched report) in a
    class.  Every test reads `value <= tol`, so a NaN or an infinite residual
    never passes."""
    if cls == PARALLEL:
        return rep.grad_norm <= tols.parallel_tol
    return ((rep.residual_torse <= tols.class_tol)
            & (_residual_for(rep, cls) <= tols.class_tol))


def _residual_for(rep: ClassificationReport, cls: str):
    return getattr(rep, _RESIDUAL[cls])


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
    with quiet():      # an overflow is for the guards to judge, not numpy to announce
        v_norm, dcoord, a, v, f, w = _closed_form(mp, vap, tols)
        m = mp.dim
        resid = a - f[..., None, None] * np.eye(m) - w[..., :, None] * v[..., None, :]
        grad_norm = norm(a, 2)
        omega = mv(mp.factor, w)                            # ω(∂_j) from ω(e_i) = w_i
        report = ClassificationReport(
            point=mp.point, f=item(f), omega=omega, w_dual=mv(mp.inverse, omega),
            residual_torse=item(norm(resid, 2) / np.maximum(1.0, grad_norm)),
            residual_concircular=item(norm(w)),
            residual_torqued=item(abs(dot(w, v))),
            residual_antitorqued=item(norm(w + f[..., None] * v)),
            verdict=NONE, v_norm=v_norm, grad_norm=item(grad_norm),
            geodesic_defect=mp.norm((vap.components[..., None, :] @ dcoord)[..., 0, :]))
        membership = np.stack([_passes(report, cls, tols) for cls in PRECEDENCE], axis=-1)
        verdict = _CLASSES[np.where(membership.any(-1), membership.argmax(-1), len(PRECEDENCE))]
        return replace(report, verdict=verdict if verdict.ndim else str(verdict),
                       membership=membership)


class TorsePair(NamedTuple):
    """The fitted f and ω_j = ω(∂_j), at a point or at each point of a batch."""

    f: float
    omega: np.ndarray


def fit_pair(mp: MetricAtPoint, vap: VectorAtPoint, dcoord,
             tols: Tolerances = DEFAULT) -> TorsePair:
    """f and ω of fit_at_point, by its guards and closed form, from ∇̃V in
    coordinates (covariant_jacobian) that the caller holds: no class
    residuals, membership or verdict."""
    with quiet():
        *_, f, w = _closed_form(mp, vap, tols, dcoord)
        return TorsePair(f=item(f), omega=mv(mp.factor, w))


def _closed_form(mp: MetricAtPoint, vap: VectorAtPoint, tols: Tolerances, dcoord=None):
    """(|V|, ∇̃V in coordinates, a, v, f, w) of the fit in its orthonormal
    frame, after its guards in order: ZeroFieldError, SingularMetricError,
    then SingularFitError where the fit is singular and where it is not
    finite.  ∇̃V is computed after the metric's guards unless given."""
    m = mp.dim
    v_norm = mp.norm(vap.components)
    small = v_norm <= tols.min_field_norm
    if np.any(small):
        raise ZeroFieldError(f"|V| = {first_where(small, v_norm):.3e} at "
                             f"{first_where(small, mp.point).tolist()}")

    L = mp.factor                                       # C = L⁻¹, so g Cᵀ = L
    pivots = np.diagonal(L, axis1=-2, axis2=-1) ** 2    # squared residuals of ∂_1..∂_m
    if np.any(frame_collapses(pivots, mp.g, tols.frame_tol)):
        raise SingularMetricError("coordinate frame lost rank under the metric")
    C = mp.coframe                                      # e_i = Σ_j C[i, j] ∂_j
    if dcoord is None:
        dcoord = covariant_jacobian(mp, vap)            # dcoord[j, :] = ∇̃_{∂_j} V
    a = C @ dcoord @ L                                  # a[i, k] = <∇̃_{e_i}V, e_k>
    v = mv(np.swapaxes(L, -1, -2), vap.components)      # frame components C g V of V
    vv = dot(v, v)
    # the normal matrix's smallest pivot lies in [|v|²(m − 1)/m, |v|²]:
    # singular where the lower bound is spd_tol or less, or not finite
    singular = ~(np.isfinite(vv) & (vv * (m - 1) / m > tols.spd_tol))
    length = np.sqrt(vv)
    if np.any(singular):
        # |V| by hypot, which does not overflow where |v|² does
        shown = np.hypot.reduce(abs(v), axis=-1)
        raise SingularFitError(
            f"torse-forming fit is singular: |V| = {first_where(singular, shown):.3e} "
            f"at {first_where(singular, mp.point).tolist()}")
    vhat = v / length[..., None]
    a_vhat = mv(a, vhat)
    f = (np.trace(a, axis1=-2, axis2=-1) - dot(vhat, a_vhat)) / (m - 1)
    w = (a_vhat - f[..., None] * vhat) / length[..., None]
    infinite = ~(np.isfinite(f) & np.all(np.isfinite(w), axis=-1))
    if np.any(infinite):
        raise SingularFitError(
            f"torse-forming fit is not finite at {first_where(infinite, mp.point).tolist()}")
    return v_norm, dcoord, a, v, f, w


def _point_reports(batch: ClassificationReport) -> tuple:
    """One report per point of a batched report, as fits at single points."""
    columns = (col.tolist() if col.ndim == 1 else col for col in astuple(batch))
    return tuple(ClassificationReport(*row) for row in zip(*columns))


@dataclass(frozen=True)
class SceneClassification:
    """Aggregated verdict over a point sample.

    batch is the fit at every sampled point, one ClassificationReport whose
    fields carry the sample axis; every scene-level result is a reduction
    over its columns.  metric_at and field_at are the order-1 metric and
    field data the sample was fitted from, batched over it, for checks that
    reduce over the same points.
    """

    verdict: str
    batch: ClassificationReport
    witness_index: int          # worst residual for the winning class
    witness_residual: float
    metric_at: MetricAtPoint
    field_at: VectorAtPoint

    @property
    def f_values(self) -> np.ndarray:
        return self.batch.f

    @cached_property
    def reports(self) -> tuple:
        """One report per sampled point, built on first use."""
        return _point_reports(self.batch)

    def f_summary(self) -> dict:
        return {"min": float(self.f_values.min()),
                "max": float(self.f_values.max()),
                "mean": float(self.f_values.mean())}

    @cached_property
    def class_residuals(self) -> dict:
        return {cls: reduce_max(_residual_for(self.batch, cls)) for cls in PRECEDENCE}

    def batch_at(self, points) -> ClassificationReport:
        """The batched fit, after checking that it was made at `points`."""
        if not np.array_equal(np.asarray(list(points), dtype=float), self.batch.point):
            raise PreconditionError(
                "classification was fitted on a different point sample")
        return self.batch


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

    def fit(at):
        vap = field.at(at, order=1)
        mp = metric.at(at, order=1)
        return mp, vap, fit_at_point(mp, vap, tols)

    mp, vap, batch = replay(lambda: fit(points), fit, points)

    verdict = next((c for c, ok in zip(PRECEDENCE, batch.membership.all(0)) if ok), None)
    if verdict is None and np.all(batch.residual_torse > tols.class_tol):
        verdict = NONE
    if verdict is None:
        histogram = dict(Counter(batch.verdict.tolist()))
        raise InconsistentSampleError(
            f"field changes class across the domain: {histogram}", histogram)
    value, at = worst(_residual_for(batch, verdict))
    return SceneClassification(verdict=verdict, batch=batch, witness_index=at,
                               witness_residual=value, metric_at=mp, field_at=vap)


def geodesic_unit_check(metric: MetricField, field: VectorField, points,
                        classification: SceneClassification,
                        tols: Tolerances = DEFAULT) -> float:
    """max |∇̃_V V| over the points; a unit anti-torqued field is a unit
    geodesic field, so this must be ~0.  Reduces over the fits that
    `classification` made at `points`.

    Preconditions: the scene verdict is anti-torqued and ||V| − 1| <=
    unit_norm_tol over the sample.  Unread `metric` and `field` stay, as
    tests/test_acceptance.py passes them by position.
    """
    if classification.verdict != ANTI_TORQUED:
        raise PreconditionError(
            f"geodesic check requires an anti-torqued verdict, got "
            f"'{classification.verdict}'")
    batch = classification.batch_at(points)
    off = ~(abs(batch.v_norm - 1.0) <= tols.unit_norm_tol)
    if np.any(off):                                     # name the first such point
        at = int(np.argmax(off))
        raise PreconditionError(f"field is not unit at {batch.point[at].tolist()}: "
                                f"|V| = {float(batch.v_norm[at])!r}", witness=batch.point[at])
    return reduce_max(batch.geodesic_defect)
