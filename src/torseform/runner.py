"""Check orchestration and report assembly.

Checks run in dependency order (classification first, rectifying before the
warp fit).  Individual check failures and guard violations are captured per
check and never abort the run; machine reports are deterministic given the
scene and seed (byte-identical JSON across runs).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import rectifying as rect
from . import warped as wp
from .classify import (GEODESIC_TOL, NONE, SceneClassification,
                       classify as classify_field, geodesic_unit_check)
from .config import Tolerances
from .errors import (GeometryError, InconsistentSampleError,
                     PreconditionError)
from .immersion import frame_packets, gauss_defect
from .linalg import reduce_max, worst
from .scenes import (CHECK_NAMES, Scene, sample_ambient_points,
                     sample_parameter_points)

PASS, FAIL, NA, ERROR = "pass", "fail", "n/a", "error"

GAUSS_TOL = 1e-7


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


class _RunContext:
    """Lazily shared state between checks of one run."""

    def __init__(self, scene: Scene, points: int):
        self.scene = scene
        self.points = points
        self.tols: Tolerances = scene.tolerances
        self._classification = None
        self._ambient_points = None
        self._param_points = None
        self._packets = None
        self._rect_report = None

    def rng(self, purpose: str):
        return np.random.default_rng(
            [self.scene.seed, CHECK_NAMES.index(purpose)
             if purpose in CHECK_NAMES else 97])

    @property
    def ambient_points(self):
        if self._ambient_points is None:
            count = max(self.points, self.tols.class_min_points)
            self._ambient_points = sample_ambient_points(
                self.scene, count, self.rng("classify"))
        return self._ambient_points

    @property
    def param_points(self):
        if self._param_points is None:
            self._param_points = sample_parameter_points(
                self.scene, self.points, self.rng("rectifying"))
        return self._param_points

    @property
    def classification(self) -> SceneClassification:
        if self._classification is None:
            if self.scene.field is None:
                raise PreconditionError("scene has no vector field")
            self._classification = classify_field(
                self.scene.metric, self.scene.field, self.ambient_points, self.tols)
        return self._classification

    @property
    def packets(self) -> list:
        """One FramePacket per parameter point, shared by every check."""
        if self._packets is None:
            self._packets = frame_packets(self.scene.immersion, self.scene.metric,
                                          self.scene.field, self.param_points,
                                          self.tols)
        return self._packets

    @property
    def rect_report(self) -> rect.RectifyingSceneReport:
        if self._rect_report is None:
            if self.scene.immersion is None or self.scene.field is None:
                raise PreconditionError("rectifying needs a submanifold and a field")
            self._rect_report = rect.rectifying_over(self.packets, self.tols)
        return self._rect_report


def _witness(point, **values) -> dict:
    return {"point": [float(v) for v in np.asarray(point).ravel()],
            "values": {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                       for k, v in values.items()}}


def _check_classify(ctx: _RunContext) -> CheckResult:
    c = ctx.classification
    expected = ctx.scene.expected_verdict
    ok = (c.verdict == expected) if expected else (c.verdict != NONE)
    worst = c.reports[c.witness_index]
    details = {"verdict": c.verdict, "f_summary": c.f_summary(),
               "class_residuals": c.class_residuals(),
               "sample_size": len(c.reports)}
    if expected:
        details["expected_verdict"] = expected
    return CheckResult("classify", PASS if ok else FAIL,
                       residual=c.witness_residual,
                       witness=_witness(worst.point, f=worst.f,
                                        residual_torse=worst.residual_torse),
                       details=details)


def _check_geodesic_unit(ctx: _RunContext) -> CheckResult:
    value = geodesic_unit_check(ctx.scene.metric, ctx.scene.field,
                                ctx.ambient_points, ctx.classification,
                                ctx.tols)
    ok = value <= GEODESIC_TOL
    return CheckResult("geodesic-unit", PASS if ok else FAIL, residual=value,
                       witness=None, details={"max_geodesic_defect": value,
                                              "bound": GEODESIC_TOL})


def _check_gauss(ctx: _RunContext) -> CheckResult:
    scene = ctx.scene
    if scene.immersion is None:
        raise PreconditionError("gauss-equation needs a submanifold")
    packets = ctx.packets
    rng = ctx.rng("gauss-equation")
    n = scene.immersion.n
    residuals = [gauss_defect(packet, *(rng.standard_normal(n) for _ in range(4)))
                 for packet in packets]
    value, at = worst(residuals)
    return CheckResult("gauss-equation", PASS if value <= GAUSS_TOL else FAIL,
                       residual=value, witness=_witness(packets[at].u),
                       details={"points": len(packets), "bound": GAUSS_TOL})


def _check_rectifying(ctx: _RunContext) -> CheckResult:
    rep = ctx.rect_report
    details = {"mode": rep.mode, "all_proper": rep.all_proper,
               "max_a_vperp": rep.max_a_vperp}
    if rep.mode == "tangent-axis-hypersurface":
        nr = rep.normal_report
        details.update({"max_det": nr.max_det,
                        "max_sectional_mismatch": nr.max_sectional_mismatch})
        return CheckResult("rectifying", PASS if rep.passed else FAIL,
                           residual=nr.max_det, witness=None, details=details)
    return CheckResult("rectifying", PASS if rep.passed else FAIL,
                       residual=rep.max_residual,
                       witness=_witness(rep.residual_witness), details=details)


def _check_tangential(ctx: _RunContext) -> CheckResult:
    rep = rect.tangential_over(ctx.packets, ctx.tols)
    residual = reduce_max([rep.max_normal_derivative, rep.max_umbilic_defect])
    return CheckResult("tangential-theorem", PASS if rep.passed else FAIL,
                       residual=residual, witness=_witness(rep.witness_umbilic),
                       details={"max_v_tan": rep.max_v_tan,
                                "max_normal_derivative": rep.max_normal_derivative,
                                "max_umbilic_defect": rep.max_umbilic_defect})


def _check_normal(ctx: _RunContext) -> CheckResult:
    rep = rect.normal_over(ctx.packets, ctx.tols)
    residual = reduce_max([rep.max_det, rep.max_h_vtan, rep.max_curvature_mismatch,
                           rep.max_sectional_mismatch])
    return CheckResult("normal-theorem", PASS if rep.passed else FAIL,
                       residual=residual, witness=None,
                       details={"max_v_nor": rep.max_v_nor,
                                "max_det": rep.max_det,
                                "max_h_vtan": rep.max_h_vtan,
                                "max_curvature_mismatch": rep.max_curvature_mismatch,
                                "max_sectional_mismatch": rep.max_sectional_mismatch})


def _check_torqued(ctx: _RunContext) -> CheckResult:
    classification = ctx.classification   # a missing verdict outranks frame errors
    rep = rect.torqued_over(ctx.packets, classification, ctx.tols)
    residual = reduce_max([rep.max_concircular_residual, rep.max_det,
                           rep.max_umbilic_defect, rep.max_normal_derivative,
                           rep.max_w_derivative_defect])
    return CheckResult("torqued-props", PASS if rep.passed else FAIL,
                       residual=residual, witness=None,
                       details={"case": rep.case,
                                "max_concircular_residual": rep.max_concircular_residual,
                                "max_det": rep.max_det,
                                "max_umbilic_defect": rep.max_umbilic_defect,
                                "max_normal_derivative": rep.max_normal_derivative,
                                "max_w_derivative_defect": rep.max_w_derivative_defect})


def _check_warp_fit(ctx: _RunContext) -> CheckResult:
    scene = ctx.scene
    rep = ctx.rect_report
    if rep.mode != "proper-rectifying" or not rep.passed:
        return CheckResult("warp-fit", NA, residual=None, witness=None,
                           details={"reason": "scene is not a passing proper "
                                              "rectifying scene"})
    box = scene.immersion.domain
    widths = [hi - lo for lo, hi in box]
    length = 0.8 * max(widths)
    step = length / 400.0
    u0 = np.array([0.5 * (lo + hi) for lo, hi in box])
    curve = wp.trace_integral_curve(scene.immersion, scene.metric, scene.field,
                                    u0, length, step, ctx.tols)
    ode_res = wp.warping_ode_residual(curve, ctx.tols)
    fit = wp.fit_tanh_integral(curve, ctx.tols)
    ok = ode_res <= ctx.tols.ode_tol and fit.deviation <= ctx.tols.warp_tol
    lam = curve.lam_values
    return CheckResult("warp-fit", PASS if ok else FAIL,
                       residual=reduce_max([ode_res, fit.deviation]), witness=None,
                       details={"ode_residual": ode_res,
                                "model_deviation": fit.deviation,
                                "integration_constant": fit.integration_constant,
                                "curve_samples": len(curve.samples),
                                "exited_domain": curve.exited_domain,
                                "lambda_range": [float(lam.min()), float(lam.max())]})


def _check_ambient_decomposition(ctx: _RunContext) -> CheckResult:
    rep = wp.verify_ambient_decomposition(ctx.scene.metric, ctx.scene.field,
                                          ctx.ambient_points,
                                          ctx.classification, ctx.tols)
    residual = reduce_max([rep.max_geodesic_defect, rep.max_lambda_ode_defect,
                           rep.max_connection_form_defect,
                           rep.max_fiber_lambda_derivative])
    return CheckResult("ambient-decomposition", PASS if rep.passed else FAIL,
                       residual=residual, witness=_witness(rep.witness),
                       details={"max_geodesic_defect": rep.max_geodesic_defect,
                                "max_lambda_ode_defect": rep.max_lambda_ode_defect,
                                "max_connection_form_defect": rep.max_connection_form_defect,
                                "max_fiber_lambda_derivative": rep.max_fiber_lambda_derivative})


_CHECKS = {
    "classify": _check_classify,
    "geodesic-unit": _check_geodesic_unit,
    "gauss-equation": _check_gauss,
    "rectifying": _check_rectifying,
    "tangential-theorem": _check_tangential,
    "normal-theorem": _check_normal,
    "torqued-props": _check_torqued,
    "warp-fit": _check_warp_fit,
    "ambient-decomposition": _check_ambient_decomposition,
}

#: execution order: classification first, rectifying before warp
_ORDER = ("classify", "geodesic-unit", "tangential-theorem", "normal-theorem",
          "torqued-props", "gauss-equation", "rectifying", "warp-fit",
          "ambient-decomposition")


def _run_check(name: str, ctx: _RunContext) -> CheckResult:
    """One check's result; a GeometryError it raises becomes its status."""
    try:
        return _CHECKS[name](ctx)
    except InconsistentSampleError as err:
        # a field that changes class over the domain is a finding, not an
        # internal error; dependent checks cannot run without a verdict
        status = FAIL if name == "classify" else NA
        return CheckResult(name, status, residual=None, witness=None,
                           details={"reason": str(err), "verdicts": err.verdicts})
    except PreconditionError as err:
        return CheckResult(name, NA, residual=None, witness=None,
                           details={"reason": str(err)})
    except GeometryError as err:
        return CheckResult(name, ERROR, residual=None, witness=None,
                           details={"error": type(err).__name__, "message": str(err)})


def run(scene: Scene, checks=None, points: int = 50) -> SceneReport:
    """Execute the requested checks (default: the scene's list)."""
    requested = tuple(checks) if checks is not None else scene.checks
    for name in requested:
        if name not in _CHECKS:
            from .errors import SceneSchemaError
            raise SceneSchemaError(
                f"unknown check '{name}' (known: {', '.join(CHECK_NAMES)})")
    ctx = _RunContext(scene, points)
    results = []
    # an overflow or a NaN is judged by the checks' own guards (a non-finite
    # residual never passes), not announced by numpy on stderr
    with np.errstate(all="ignore"):
        for name in _ORDER:
            if name in requested:
                results.append(_run_check(name, ctx))

    classification = None
    if ctx._classification is not None:
        c = ctx._classification
        classification = {"verdict": c.verdict, "f_summary": c.f_summary(),
                          "residuals": c.class_residuals()}
    return SceneReport(scene=scene.name, seed=scene.seed, points=points,
                       checks=tuple(results), classification=classification)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value


def report_to_json(report: SceneReport) -> str:
    """Machine block: full precision, deterministic key order."""
    payload = {
        "scene": report.scene,
        "seed": report.seed,
        "points": report.points,
        "checks": [{
            "name": c.name,
            "status": c.status,
            "residual": _jsonable(c.residual),
            "witness": _jsonable(c.witness),
            "details": _jsonable(c.details),
        } for c in report.checks],
        "classification": _jsonable(report.classification),
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
