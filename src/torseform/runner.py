"""Check orchestration and report assembly.

Checks run in dependency order (classification first, rectifying before the
warp fit).  Individual check failures and guard violations are captured per
check and never abort the run; machine reports are deterministic given the
scene and seed (byte-identical JSON across runs).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rectifying as rect
from . import warped as wp
from .classify import (NONE, SceneClassification, classify as classify_field,
                       geodesic_unit_check)
from .config import Tolerances
from .errors import (GeometryError, InconsistentSampleError, ModelViolationError,
                     PreconditionError, SceneSchemaError)
from .expr import quiet
from .immersion import FramePacket, frames, gauss_defect, over_sample
from .linalg import first_where, reduce_max, worst
from .metric import VectorField
from .scenes import (CHECK_NAMES, Scene, sample_ambient_points,
                     sample_parameter_points)

PASS, FAIL, NA, ERROR = "pass", "fail", "n/a", "error"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    residual: float | None
    witness: dict | None
    details: dict


@dataclass(frozen=True)
class SceneReport:
    scene: str
    seed: int
    points: int
    checks: tuple
    classification: dict | None


#: what a check reads of the shared packet beyond frames and V's value:
#: ∇̃V (V's 1-jet) or the induced metric (Ψ's 3-jets)
_PACKET_READS = {"tangential-theorem": "dv", "torqued-props": "dv", "warp-fit": "dv",
                 "normal-theorem": "induced", "gauss-equation": "induced"}


class _kept(cached_property):
    """A cached_property that also keeps the GeometryError its function
    raised and raises it again, so that a computation that fails is not
    repeated by every check that reads it."""

    def __get__(self, ctx, owner=None):
        if ctx is not None and self.attrname in ctx.raised:
            raise ctx.raised[self.attrname]
        try:
            return super().__get__(ctx, owner)
        except GeometryError as err:
            ctx.raised[self.attrname] = err
            raise


class _RunContext:
    """Lazily shared state between checks of one run."""

    def __init__(self, scene: Scene, points: int, requested):
        self.scene = scene
        self.points = points
        self.tols: Tolerances = scene.tolerances
        self.reads = {_PACKET_READS.get(name) for name in requested}
        self.raised = {}

    def rng(self, purpose: str):
        return np.random.default_rng([self.scene.seed, CHECK_NAMES.index(purpose)])

    @_kept
    def ambient_points(self):
        count = max(self.points, self.tols.class_min_points)
        return sample_ambient_points(self.scene, count, self.rng("classify"))

    @_kept
    def param_points(self):
        if self.scene.immersion is None:
            raise PreconditionError("check needs a submanifold")
        return sample_parameter_points(self.scene, self.points, self.rng("rectifying"))

    @property
    def field(self) -> VectorField:
        """The scene's field; every check that reads it reads it here first."""
        if self.scene.field is None:
            raise PreconditionError("check needs a vector field")
        return self.scene.field

    @_kept
    def classification(self) -> SceneClassification:
        """The field's classification; GeometryError if a number of the
        report's classification block is not finite, as no check may judge
        on it."""
        c = classify_field(self.scene.metric, self.field, self.ambient_points, self.tols)
        for key, value in _numbers("classification", _classification_block(c)):
            if not np.isfinite(value):
                raise GeometryError(f"{key} {value} is not finite")
        return c

    @_kept
    def packet(self) -> FramePacket:
        """The FramePacket of the whole parameter sample, shared by every
        check: Ψ read to order 3 if a requested check reads the induced
        metric (else 2), V to order 1 if one reads ∇̃V (else 0)."""
        orders = (3 if "induced" in self.reads else 2, 1 if "dv" in self.reads else 0)
        return frames(self.scene.immersion, self.scene.metric,
                      self.param_points, self.scene.field, self.tols, orders)

    @property
    def field_packet(self) -> FramePacket:
        """The shared packet, for a check that reads the field on it."""
        self.field          # a missing field outranks frame errors
        return self.packet

    @_kept
    def rect_report(self) -> rect.RectifyingSceneReport:
        return rect.rectifying_over(self.field_packet)


def _witness(point, **values) -> dict:
    return {"point": [float(v) for v in np.asarray(point).ravel()],
            "values": {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                       for k, v in values.items()}}


def _result(name: str, passed: bool, residual, witness=None, **details) -> CheckResult:
    return CheckResult(name, PASS if passed else FAIL, residual=residual,
                       witness=witness, details=details)


def _reduced(name: str, rep, **shown) -> CheckResult:
    """The verdict of a judged report (linalg.Judged), whose residual is the
    largest of its terms and whose witness is the report's own point, if it
    names one; the details are `shown` and each term."""
    witness = None if rep.witness is None else _witness(rep.witness)
    return _result(name, rep.passed, reduce_max(list(rep.terms.values())), witness,
                   **shown, **rep.terms)


def _check_classify(ctx: _RunContext) -> CheckResult:
    c = ctx.classification
    expected = ctx.scene.expected_verdict
    ok = (c.verdict == expected) if expected else (c.verdict != NONE)
    fits, at = c.batch, c.witness_index
    details = {"verdict": c.verdict, "f_summary": c.f_summary(),
               "class_residuals": c.class_residuals,
               "sample_size": len(c.f_values)}
    if expected:
        details["expected_verdict"] = expected
    witness = _witness(fits.point[at], f=fits.f[at], residual_torse=fits.residual_torse[at])
    return _result("classify", ok, c.witness_residual, witness, **details)


def _check_geodesic_unit(ctx: _RunContext) -> CheckResult:
    value = geodesic_unit_check(ctx.scene.metric, ctx.field, ctx.ambient_points,
                                ctx.classification, ctx.tols)
    bound = ctx.tols.geodesic_tol
    return _result("geodesic-unit", value <= bound, value,
                   max_geodesic_defect=value, bound=bound)


def _check_gauss(ctx: _RunContext) -> CheckResult:
    packet = ctx.packet
    rng = ctx.rng("gauss-equation")
    # the same draws as four standard_normal(n) per point, point after point
    vectors = rng.standard_normal((len(packet.u), 4, ctx.scene.immersion.n))
    residuals = over_sample(gauss_defect, packet, *np.moveaxis(vectors, 1, 0))
    value, at = worst(residuals)
    bound = ctx.tols.gauss_tol
    return _result("gauss-equation", value <= bound, value, _witness(packet.u[at]),
                   points=len(packet.u), bound=bound)


def _check_rectifying(ctx: _RunContext) -> CheckResult:
    rep = ctx.rect_report
    # the first term is the residual, the others are judged details
    (_, residual), *judged = rep.terms.items()
    details = dict(judged, mode=rep.mode, all_proper=rep.all_proper)
    if rep.mode == "tangent-axis-hypersurface":
        return _reduced("rectifying", rep.normal_report, **details)
    return _result("rectifying", rep.passed, residual, _witness(rep.witness), **details)


def _check_tangential(ctx: _RunContext) -> CheckResult:
    rep = rect.tangential_over(ctx.field_packet)
    return _reduced("tangential-theorem", rep, max_v_tan=rep.max_v_tan)


def _check_normal(ctx: _RunContext) -> CheckResult:
    rep = rect.normal_over(ctx.field_packet)
    return _reduced("normal-theorem", rep, max_v_nor=rep.max_v_nor)


def _check_torqued(ctx: _RunContext) -> CheckResult:
    classification = ctx.classification   # a missing verdict outranks frame errors
    rep = rect.torqued_over(ctx.packet, classification)
    return _reduced("torqued-props", rep, case=rep.case)


def _check_warp_fit(ctx: _RunContext) -> CheckResult:
    rep = ctx.rect_report
    # a rectifying term that is not finite decides no precondition
    for key, value in rep.terms.items():
        if not np.isfinite(value):
            raise GeometryError(f"rectifying {key} {value} is not finite")
    if rep.mode != "proper-rectifying" or not rep.passed:
        raise PreconditionError("scene is not a passing proper rectifying scene")
    packet = ctx.packet
    ode = wp.warping_ode_over(packet)
    value, at = worst(ode.residual)
    bound = ctx.tols.ode_tol
    outside = ode.lam >= 1.0
    if value <= bound and np.any(outside):     # λ = tanh(∫f + C) is below 1
        u = first_where(outside, packet.u)
        raise ModelViolationError(
            f"warping factor {float(first_where(outside, ode.lam))!r} >= 1 at u={u.tolist()} "
            "(outside the tanh range)", witness=u)
    return _result("warp-fit", value <= bound, value,
                   _witness(packet.u[at], f=ode.f[at], lam=ode.lam[at]),
                   ode_residual=value, points=len(packet.u), bound=bound,
                   lambda_range=[float(ode.lam.min()), float(ode.lam.max())])


def _check_ambient_decomposition(ctx: _RunContext) -> CheckResult:
    rep = wp.verify_ambient_decomposition(ctx.scene.metric, ctx.field, ctx.ambient_points,
                                          ctx.classification, ctx.tols)
    return _reduced("ambient-decomposition", rep)


#: in execution order: classification first, rectifying before warp
_CHECKS = {
    "classify": _check_classify,
    "geodesic-unit": _check_geodesic_unit,
    "tangential-theorem": _check_tangential,
    "normal-theorem": _check_normal,
    "torqued-props": _check_torqued,
    "gauss-equation": _check_gauss,
    "rectifying": _check_rectifying,
    "warp-fit": _check_warp_fit,
    "ambient-decomposition": _check_ambient_decomposition,
}


def _numbers(key: str, value):
    """(key, number) for each number nested in `value`; keys read `outer.inner`."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _numbers(f"{key}.{k}" if key else k, v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _numbers(key, v)
    elif isinstance(value, (int, float)):
        yield key, value


def _classification_block(c: SceneClassification) -> dict:
    return {"verdict": c.verdict, "f_summary": c.f_summary(), "residuals": c.class_residuals}


def _run_check(name: str, ctx: _RunContext) -> CheckResult:
    """One check's result; a GeometryError it raises becomes its status, and
    a verdict on a residual, a detail or a witness number that is not finite
    becomes an error, so a report holds no number JSON has not."""
    def unjudged(status, **details):
        return CheckResult(name, status, residual=None, witness=None, details=details)

    try:
        result = _CHECKS[name](ctx)
    except InconsistentSampleError as err:
        # a field that changes class over the domain is a finding, not an
        # internal error; dependent checks cannot run without a verdict
        return unjudged(FAIL if name == "classify" else NA,
                        reason=str(err), verdicts=err.verdicts)
    except PreconditionError as err:
        return unjudged(NA, reason=str(err))
    except GeometryError as err:
        return unjudged(ERROR, error=type(err).__name__, message=str(err))
    for key, value in itertools.chain(
            _numbers("", {"residual": result.residual, **result.details}),
            _numbers("witness", result.witness)):
        if not np.isfinite(value):
            return unjudged(ERROR, error="NonFiniteResidual",
                            message=f"{key} {value} is not finite")
    return result


def run(scene: Scene, checks=None, points: int = 50) -> SceneReport:
    """Execute the requested checks (default: the scene's list)."""
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    requested = tuple(checks) if checks is not None else scene.checks
    for name in requested:
        if name not in _CHECKS:
            raise SceneSchemaError(
                f"unknown check '{name}' (known: {', '.join(CHECK_NAMES)})")
    ctx = _RunContext(scene, points, requested)
    # an overflow or a NaN is judged by the checks' own guards (a non-finite
    # residual never passes), not announced by numpy on stderr
    with quiet():
        results = [_run_check(name, ctx) for name in _CHECKS if name in requested]

    c = vars(ctx).get("classification")
    classification = None if c is None else _classification_block(c)
    return SceneReport(scene=scene.name, seed=scene.seed, points=points,
                       checks=tuple(results), classification=classification)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def report_to_json(report: SceneReport) -> str:
    """Machine block: full precision, deterministic key order."""
    payload = {
        "scene": report.scene,
        "seed": report.seed,
        "points": report.points,
        "checks": [{
            "name": c.name,
            "status": c.status,
            "residual": c.residual,
            "witness": c.witness,
            "details": c.details,
        } for c in report.checks],
        "classification": report.classification,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _fmt(value) -> str:
    if value is None:
        return "-"
    return f"{value:.3e}"


def render_report(report: SceneReport) -> str:
    """Human block: fixed-width table, residuals to 3 significant digits."""
    lines = [f"scene: {report.scene}   seed: {report.seed}   points: {report.points}"]
    if report.classification:
        c = report.classification
        fs = c["f_summary"]
        lines.append(f"classification: {c['verdict']}   "
                     f"f in [{fs['min']:.6g}, {fs['max']:.6g}]")
    lines.append(f"{'check':<24}{'status':<8}{'residual':<12}witness")
    for c in report.checks:
        wit = ""
        if c.witness and "point" in c.witness:
            wit = "(" + ", ".join(f"{v:.4g}" for v in c.witness["point"]) + ")"
        elif c.status in (NA, ERROR):
            wit = c.details.get("reason", c.details.get("message", ""))[:48]
        lines.append(f"{c.name:<24}{c.status:<8}{_fmt(c.residual):<12}{wit}")
    return "\n".join(lines)


def exit_code(report: SceneReport) -> int:
    """0 all pass; 1 any fail (or guard n/a); 3 internal numeric error."""
    statuses = {c.status for c in report.checks}
    if ERROR in statuses:
        return 3
    if statuses <= {PASS}:
        return 0
    return 1
