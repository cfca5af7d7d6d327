"""Integral curves, the warping ODE, the tanh model, and the ambient
decomposition checks."""

import copy
import importlib
import math
from dataclasses import replace

import numpy as np
import pytest

import torseform.warped as warped_mod
from conftest import radial_unit_field
from torseform import (Immersion, MetricField, VectorField, builtin_scene,
                       build_warped_ambient, classify, cumulative_simpson,
                       fit_tanh_integral, fit_torse_forming, lambda_log_derivative,
                       load_scene, run, sample_ambient_points, trace_integral_curve,
                       verify_ambient_decomposition, warping_ode_residual)
from torseform.config import DEFAULT
from torseform.errors import (DomainEvalError, GeometryError, ModelViolationError,
                              PreconditionError, SingularMetricError, ZeroFieldError)
from torseform.immersion import frames
from torseform.linalg import solve_spd
from torseform.scenes import BUILTIN_DOCUMENTS, sample_parameter_points, with_seed
from torseform.warped import CurveSample, IntegralCurve, warping_ode_over

# the package attribute `torseform.classify` is the function, not the module
classify_mod = importlib.import_module("torseform.classify")


def vertex_cone4():
    return Immersion(["0.8*u1*cos(u2)", "0.8*u1*sin(u2)", "0.6*u1", "1"],
                     n=2, domain=[[0.5, 3.0], [0.1, 6.2]])


def synthetic_curve(f_fn, lam_fn, s0, s1, step):
    n = int(round((s1 - s0) / step))
    samples = []
    for k in range(n + 1):
        s = k * step
        samples.append(CurveSample(s=s, u=np.array([s0 + s]),
                                   lam=lam_fn(s0 + s), f=f_fn(s0 + s)))
    return IntegralCurve(samples=tuple(samples), step=step,
                         exited_domain=False, rhs_evaluations=0)


class TestTraceIntegralCurve:
    def test_vertex_cone_lambda_profile(self, euclid4):
        curve = trace_integral_curve(vertex_cone4(), euclid4,
                                     radial_unit_field(4), [1.0, 3.0],
                                     length=1.5, step=0.01)
        assert not curve.exited_domain
        s_param = np.array([c.u[0] for c in curve.samples])
        expected = s_param / np.sqrt(1.0 + s_param ** 2)
        assert np.max(np.abs(curve.lam_values - expected)) <= 1e-12
        assert np.max(np.abs(curve.f_values - 1.0 / np.sqrt(1.0 + s_param ** 2))) <= 1e-12

    def test_radial_line_on_origin_plane(self, euclid3):
        # V = E/|E| tangent to the plane through the origin: unit tangential
        # part and f = 1/(distance from the origin)
        plane = Immersion(["u1", "u2", "0"], n=2, domain=[[-4, 4], [-4, 4]])
        curve = trace_integral_curve(plane, euclid3, radial_unit_field(3),
                                     [1.0, 0.0], length=2.0, step=0.01)
        assert np.max(np.abs(curve.lam_values - 1.0)) <= 1e-12
        expected_f = 1.0 / (1.0 + curve.s_values)
        assert np.max(np.abs(curve.f_values - expected_f)) <= 1e-10

    def test_unit_speed(self, euclid4):
        # consecutive ambient points are a unit-speed curve
        curve = trace_integral_curve(vertex_cone4(), euclid4,
                                     radial_unit_field(4), [1.0, 2.0],
                                     length=1.0, step=0.005)
        imm = vertex_cone4()
        pts = np.array([imm.point(c.u) for c in curve.samples])
        speeds = np.linalg.norm(np.diff(pts, axis=0), axis=1) / curve.step
        assert np.max(np.abs(speeds - 1.0)) <= 1e-5

    def test_domain_exit_flagged(self, euclid4):
        curve = trace_integral_curve(vertex_cone4(), euclid4,
                                     radial_unit_field(4), [2.8, 3.0],
                                     length=1.0, step=0.01)
        assert curve.exited_domain
        assert len(curve.samples) >= 5
        assert max(c.u[0] for c in curve.samples) <= 3.0

    def test_curve_stops_where_the_chart_is_undefined(self, euclid4):
        # sqrt(2.9-u1) is undefined beyond u1 = 2.9: the stage that steps
        # there ends the curve as the box u1 <= 2.9 would
        comps = ["0.8*u1*cos(u2)", "0.8*u1*sin(u2)", "0.6*u1"]
        cut = Immersion(comps + ["1+0*sqrt(2.9-u1)"], n=2, domain=[[0.5, 3.0], [0.1, 6.2]])
        box = Immersion(comps + ["1"], n=2, domain=[[0.5, 2.9], [0.1, 6.2]])
        a, b = (trace_integral_curve(imm, euclid4, radial_unit_field(4), [1.0, 3.0],
                                     length=3.0, step=0.005) for imm in (cut, box))
        assert a.exited_domain and b.exited_domain
        assert len(a.samples) == len(b.samples) == 381
        assert a.samples[-1].u[0] == pytest.approx(2.9, abs=0.005)
        for x, y in zip(a.samples, b.samples):
            assert np.array_equal(x.u, y.u) and (x.lam, x.f) == (y.lam, y.f)
        # the undefined stage stopped the step before the box test did
        assert a.rhs_evaluations < b.rhs_evaluations

    def test_rk4_order_on_circular_field(self, euclid3):
        # rotational unit field: integral curves are circles of radius |u0|
        plane = Immersion(["u1", "u2", "0"], n=2, domain=[[-4, 4], [-4, 4]])
        rot = VectorField(["-x2/sqrt(x1^2+x2^2)", "x1/sqrt(x1^2+x2^2)", "0"])
        u0 = np.array([1.2, 0.0])
        length = 1.0

        def endpoint_error(step):
            curve = trace_integral_curve(plane, euclid3, rot, u0, length, step)
            s_end = curve.samples[-1].s
            r = 1.2
            exact = r * np.array([np.cos(s_end / r), np.sin(s_end / r)])
            return np.linalg.norm(curve.samples[-1].u - exact)

        e1, e2, e3 = (endpoint_error(h) for h in (0.2, 0.1, 0.05))
        # fourth order: halving the step divides the error by ~16 (factor-4 slack)
        assert 4.0 <= e1 / e2 <= 64.0
        assert 4.0 <= e2 / e3 <= 64.0

    def test_radial_line_exact(self, euclid3):
        # the parameter-space right-hand side is constant along radial rays,
        # so RK4 reproduces them to round-off
        plane = Immersion(["u1", "u2", "0"], n=2, domain=[[-4, 4], [-4, 4]])
        curve = trace_integral_curve(plane, euclid3, radial_unit_field(3),
                                     [0.6, 0.8], length=1.0, step=0.1)
        end = curve.samples[-1]
        exact = np.array([0.6, 0.8]) * (1.0 + end.s)
        assert end.u == pytest.approx(exact, abs=1e-12)

    def test_vanishing_tangential_part(self, euclid4):
        # radial axis is normal to the Clifford torus: no curve to trace
        torus = Immersion(["cos(u1)/sqrt(2)", "sin(u1)/sqrt(2)",
                           "cos(u2)/sqrt(2)", "sin(u2)/sqrt(2)"],
                          n=2, domain=[[0.1, 6.2], [0.1, 6.2]])
        with pytest.raises(PreconditionError):
            trace_integral_curve(torus, euclid4, radial_unit_field(4),
                                 [1.0, 1.0], length=0.5, step=0.01)


class TestWarpingOde:
    def test_vertex_cone(self, euclid4):
        curve = trace_integral_curve(vertex_cone4(), euclid4,
                                     radial_unit_field(4), [1.0, 3.0],
                                     length=1.5, step=0.005)
        assert warping_ode_residual(curve) <= 1e-6

    def test_analytic_tanh_solution(self):
        # constant f = c: lambda = tanh(c s) solves the ODE exactly
        c = 1.0
        curve = synthetic_curve(lambda s: c, lambda s: math.tanh(c * s),
                                0.2, 1.8, step=0.005)
        assert warping_ode_residual(curve) <= 1e-9

    def test_too_few_samples(self):
        curve = synthetic_curve(lambda s: 1.0, lambda s: math.tanh(s),
                                0.2, 0.212, step=0.004)
        with pytest.raises(PreconditionError):
            warping_ode_residual(curve)


class TestCumulativeSimpson:
    def test_against_asinh(self, euclid4):
        # the integral of f along the curve is asinh(s) up to a constant
        curve = trace_integral_curve(vertex_cone4(), euclid4,
                                     radial_unit_field(4), [1.0, 3.0],
                                     length=1.8, step=0.01)
        integral = cumulative_simpson(curve.f_values, curve.step)
        s_param = np.array([c.u[0] for c in curve.samples])
        mid = len(s_param) // 2
        expected = np.arcsinh(s_param) - np.arcsinh(s_param[mid])
        got = integral - integral[mid]
        err = np.abs(got - expected)
        scale = 1.0 + np.abs(curve.s_values - curve.s_values[mid])
        assert np.max(err / scale) <= 1e-8

    def test_polynomial_exactness(self):
        # cubics are integrated exactly by both panel rules
        step = 0.1
        s = np.arange(0, 21) * step
        vals = 2.0 * s ** 3 - s + 0.5
        integral = cumulative_simpson(vals, step)
        exact = 0.5 * s ** 4 - 0.5 * s ** 2 + 0.5 * s
        assert np.max(np.abs(integral - exact)) <= 1e-12


class TestTanhFit:
    def test_vertex_cone_model(self, euclid4):
        curve = trace_integral_curve(vertex_cone4(), euclid4,
                                     radial_unit_field(4), [1.0, 3.0],
                                     length=1.5, step=0.005)
        fit = fit_tanh_integral(curve)
        assert fit.deviation <= 1e-6
        s_param = np.array([c.u[0] for c in curve.samples])
        closed_form = s_param / np.sqrt(1.0 + s_param ** 2)
        assert np.max(np.abs(fit.model - closed_form)) <= 1e-6
        # lambda < 1 everywhere on a proper scene
        assert np.max(curve.lam_values) < 1.0

    def test_integration_constant_recovery(self):
        curve = synthetic_curve(lambda s: 1.0, lambda s: math.tanh(s + 0.3),
                                0.0, 2.0, step=0.002)
        fit = fit_tanh_integral(curve)
        assert fit.integration_constant == pytest.approx(0.3, abs=1e-8)
        assert fit.deviation <= 1e-9

    def test_constant_lambda_zero_f(self):
        curve = synthetic_curve(lambda s: 0.0, lambda s: 0.5, 0.0, 1.0, step=0.01)
        fit = fit_tanh_integral(curve)
        assert fit.integration_constant == pytest.approx(math.atanh(0.5), abs=1e-12)
        assert fit.deviation <= 1e-12

    def test_model_violation_for_unit_lambda(self):
        curve = synthetic_curve(lambda s: 1.0 / (1.0 + s),
                                lambda s: 1.0, 1.0, 2.0, step=0.01)
        with pytest.raises(ModelViolationError):
            fit_tanh_integral(curve)


class TestAmbientDecomposition:
    def _classified(self, metric, field, rng, box_lo, box_hi, dim):
        pts = list(rng.uniform(box_lo, box_hi, size=(50, dim)))
        return pts, classify(metric, field, pts)

    def test_unit_radial_field(self, euclid4):
        rng = np.random.default_rng(31)
        field = radial_unit_field(4)
        pts = [x for x in rng.uniform(-3, 3, size=(120, 4))
               if np.linalg.norm(x) >= 0.5][:50]
        classification = classify(euclid4, field, pts)
        rep = verify_ambient_decomposition(euclid4, field, pts, classification)
        assert rep.passed
        assert rep.max_geodesic_defect <= 1e-10

    def test_constructed_warped_metric(self):
        metric = MetricField([["1"], ["0", "cosh(x1)^2"], ["0", "0", "cosh(x1)^2"]])
        field = VectorField(["1", "0", "0"], dim=3)
        rng = np.random.default_rng(32)
        pts, classification = self._classified(metric, field, rng, -1.0, 1.0, 3)
        assert classification.verdict == "anti-torqued"
        # f = d log cosh / ds = tanh(s)
        for rep in classification.reports:
            assert rep.f == pytest.approx(math.tanh(rep.point[0]), abs=1e-10)
        report = verify_ambient_decomposition(metric, field, pts, classification)
        assert report.passed

    def test_parallel_field_rejected(self, euclid3):
        field = VectorField(["1", "0", "0"])
        rng = np.random.default_rng(33)
        pts, classification = self._classified(euclid3, field, rng, -1, 1, 3)
        with pytest.raises(PreconditionError):
            verify_ambient_decomposition(euclid3, field, pts, classification)


class TestBuildWarpedAmbient:
    FLAT2 = [["1"], ["0", "1"]]

    def test_exponential_constant_f(self):
        scene = build_warped_ambient("exp(x1)", self.FLAT2, (0.0, 1.0),
                                     [(-1.0, 1.0), (-1.0, 1.0)])
        rng = np.random.default_rng(34)
        pts = sample_ambient_points(scene, 50, rng)
        c = classify(scene.metric, scene.field, pts)
        assert c.verdict == "anti-torqued"
        assert np.max(np.abs(c.f_values - 1.0)) <= 1e-10

    def test_cosh_gives_tanh(self):
        scene = build_warped_ambient("cosh(x1)", self.FLAT2, (0.0, 1.0),
                                     [(-1.0, 1.0), (-1.0, 1.0)])
        rng = np.random.default_rng(35)
        pts = sample_ambient_points(scene, 50, rng)
        c = classify(scene.metric, scene.field, pts)
        for rep, p in zip(c.reports, pts):
            assert rep.f == pytest.approx(math.tanh(p[0]), abs=1e-10)
            assert rep.f == pytest.approx(
                lambda_log_derivative("cosh(x1)", p[0]), abs=1e-10)

    def test_trivial_warp_is_parallel(self):
        scene = build_warped_ambient("1", self.FLAT2, (0.0, 1.0),
                                     [(-1.0, 1.0), (-1.0, 1.0)])
        rng = np.random.default_rng(36)
        pts = sample_ambient_points(scene, 50, rng)
        c = classify(scene.metric, scene.field, pts)
        assert c.verdict == "parallel"
        with pytest.raises(PreconditionError):
            verify_ambient_decomposition(scene.metric, scene.field, pts, c)

    def test_nonpositive_warp_rejected(self):
        with pytest.raises(ModelViolationError):
            build_warped_ambient("x1-0.5", self.FLAT2, (0.0, 1.0),
                                 [(-1.0, 1.0), (-1.0, 1.0)])

    def test_round_trip_random_warps(self):
        # classification and decomposition both pass for random smooth
        # positive warping functions, with f = d log lambda / ds
        rng = np.random.default_rng(37)
        for k in range(10):
            a = rng.uniform(1.5, 2.5)
            b = rng.uniform(-0.5, 0.5)
            w = rng.uniform(0.5, 2.0)
            cc = rng.uniform(0.1, 0.5)
            d = rng.uniform(-1.0, 1.0)
            lam = f"{a:.6f}+{b:.6f}*sin({w:.6f}*x1)+{cc:.6f}*exp({d:.6f}*x1)"
            scene = build_warped_ambient(lam, self.FLAT2, (0.0, 1.0),
                                         [(-1.0, 1.0), (-1.0, 1.0)],
                                         name=f"warp-{k}", seed=100 + k)
            pts = sample_ambient_points(scene, 50, np.random.default_rng(200 + k))
            c = classify(scene.metric, scene.field, pts)
            assert c.verdict == "anti-torqued", lam
            for rep, p in zip(c.reports, pts):
                assert rep.f == pytest.approx(
                    lambda_log_derivative(lam, p[0]), abs=1e-9), lam
            rep = verify_ambient_decomposition(scene.metric, scene.field,
                                               pts, c)
            assert rep.passed, lam

    def test_curved_fiber_metric(self):
        fiber = [["1"], ["0", "(2+cos(x2))^2"]]
        scene = build_warped_ambient("exp(0.5*x1)", fiber, (0.0, 1.0),
                                     [(-1.0, 1.0), (-1.0, 1.0)])
        rng = np.random.default_rng(38)
        pts = sample_ambient_points(scene, 50, rng)
        c = classify(scene.metric, scene.field, pts)
        assert c.verdict == "anti-torqued"
        assert np.max(np.abs(c.f_values - 0.5)) <= 1e-9


# ---------------------------------------------------------------------------
# The traced curve against the per-node loop it replaces
# ---------------------------------------------------------------------------

def reference_trace(imm, metric, field, u0, length, step, tols=DEFAULT):
    """The per-node RK4 loop: four fresh stages per step and one
    single-point fit per node, in node order."""
    domain = imm.domain
    counter = {"n": 0}

    def tangential(u):
        counter["n"] += 1
        psi = imm.jets(u, 1)
        x = np.array([p.value for p in psi])
        jac = np.stack([p.gradient() for p in psi])
        G = metric.at(x, order=0).g
        k = jac.T @ G @ jac
        coords = solve_spd(k, jac.T @ G @ field.at(x, order=0).components,
                           tols.spd_tol)
        lam = float(np.sqrt(max(coords @ k @ coords, 0.0)))
        if lam <= tols.proper_tol:
            raise PreconditionError(
                f"|V^⊤| = {lam:.3e} vanishes at u={np.asarray(u).tolist()}",
                witness=u)
        return coords / lam, lam, x

    def inside(u):
        return all(lo <= ui <= hi for ui, (lo, hi) in zip(u, domain))

    nsteps = max(1, int(round(length / step)))
    u = np.asarray(u0, dtype=float)
    _, lam0, x0 = tangential(u)
    samples = [CurveSample(0.0, u.copy(), lam0,
                           fit_torse_forming(metric, field, x0, tols).f)]
    h = float(step)
    exited = False
    for k in range(nsteps):
        try:
            k1, _, _ = tangential(u)
            k2, _, _ = tangential(u + 0.5 * h * k1)
            k3, _, _ = tangential(u + 0.5 * h * k2)
            k4, _, _ = tangential(u + h * k3)
        except DomainEvalError:
            exited = True
            break
        u_next = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not inside(u_next):
            exited = True
            break
        u = u_next
        _, lam, x = tangential(u)
        samples.append(CurveSample((k + 1) * h, u.copy(), lam,
                                   fit_torse_forming(metric, field, x, tols).f))
    return IntegralCurve(samples=tuple(samples), step=h, exited_domain=exited,
                         rhs_evaluations=counter["n"])


def centre_curve_args():
    """rectifying-psi's curve from the box centre, 0.8 of the box's longest
    side long, in 400 steps."""
    scene = builtin_scene("rectifying-psi")
    box = scene.immersion.domain
    length = 0.8 * max(hi - lo for lo, hi in box)
    u0 = np.array([0.5 * (lo + hi) for lo, hi in box])
    return (scene.immersion, scene.metric, scene.field, u0, length, length / 400.0,
            scene.tolerances)


def cone_curve_args(u0, length, step):
    return (vertex_cone4(), MetricField.euclidean(4), radial_unit_field(4), u0,
            length, step)


def warped_exp_curve_args():
    """A curve in the curved ambient ds² + e^{2s}(dx² + dy²) with V = ∂ₛ, on a
    tilted tube about the s-axis: g is read at every right-hand side."""
    tube = Immersion(["u1", "0.3*u1+0.5*cos(u2)", "0.5*sin(u2)"], n=2,
                     domain=[[0.0, 1.0], [0.0, 3.2]])
    metric = MetricField([["1"], ["0", "exp(2*x1)"], ["0", "0", "exp(2*x1)"]])
    return tube, metric, VectorField(["1", "0", "0"]), [0.2, 1.0], 0.6, 0.005


def cut_cone_curve_args():
    """The cone curve of test_curve_stops_where_the_chart_is_undefined: a
    stage past u1 = 2.9 fails in sqrt(2.9-u1), which ends the curve."""
    cut = Immersion(["0.8*u1*cos(u2)", "0.8*u1*sin(u2)", "0.6*u1", "1+0*sqrt(2.9-u1)"],
                    n=2, domain=[[0.5, 3.0], [0.1, 6.2]])
    return cut, MetricField.euclidean(4), radial_unit_field(4), [1.0, 3.0], 3.0, 0.005


def graph_curve_args():
    """A graph in E³ whose height reads the exp, cosh, atan, log and
    non-integer power rows on point 1-jets, under a field that reads the
    tanh, asinh and sqrt rows at floats: rows the other curves do not reach."""
    graph = Immersion(["u1", "u2", "0.3*exp(0.4*u1)*cosh(0.3*u2) + 0.2*atan(u1-u2)"
                                    " + 0.1*log(u1)*u2^1.5"],
                      n=2, domain=[[0.5, 2.5], [0.2, 2.0]])
    field = VectorField(["1+0.2*tanh(x2)", "0.3*asinh(x1-x2)", "0.1*sqrt(1+x3^2)"])
    return graph, MetricField.euclidean(3), field, [0.8, 1.0], 1.2, 0.01


CURVES = {
    "rectifying-psi": centre_curve_args,
    "graph-rows": graph_curve_args,
    "cone-cut": cut_cone_curve_args,
    "warped-exp-tube": warped_exp_curve_args,
    "cone-1.5": lambda: cone_curve_args([1.0, 3.0], 1.5, 0.005),
    "cone-1.8": lambda: cone_curve_args([1.0, 3.0], 1.8, 0.01),
    "cone-unit-speed": lambda: cone_curve_args([1.0, 2.0], 1.0, 0.005),
    "cone-exit": lambda: cone_curve_args([2.8, 3.0], 1.0, 0.01),
}


#: curves that end at a stage that fails in Ψ's chart: that stage counts as
#: a right-hand side but reads neither V nor g
CHART_EXITS = {"cone-cut"}


def curve_rows(curve):
    return [(c.s, c.u.tolist(), c.lam, c.f) for c in curve.samples]


def outcome(fn, *args):
    try:
        return fn(*args)
    except GeometryError as err:
        return type(err), str(err)


class TestBatchedNodeFits:
    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_samples_bitwise_equal_to_the_per_node_loop(self, name):
        args = CURVES[name]()
        curve, reference = trace_integral_curve(*args), reference_trace(*args)
        assert curve_rows(curve) == curve_rows(reference)
        assert curve.exited_domain == reference.exited_domain
        assert all(type(c.f) is float and type(c.lam) is float for c in curve.samples)

    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_one_fit_on_all_nodes_in_node_order(self, monkeypatch, name):
        fitted = []
        fit = classify_mod.fit_at_point

        def recording_fit(mp, vap, tols):
            fitted.append(np.atleast_2d(mp.point))
            return fit(mp, vap, tols)

        for owner in (classify_mod, warped_mod):
            monkeypatch.setattr(owner, "fit_at_point", recording_fit)
        args = CURVES[name]()
        curve = trace_integral_curve(*args)
        imm = args[0]
        nodes = [[p.value for p in imm.jets(c.u, 1)] for c in curve.samples]
        assert len(fitted) == 1
        assert np.array_equal(fitted[0], nodes)

    @pytest.mark.parametrize("name", sorted(set(CURVES) - CHART_EXITS))
    def test_node_fit_reads_metric_and_field_once_on_the_node_array(self, monkeypatch, name):
        # every right-hand side reads the metric and the field at one point
        # (a constant metric returns its held data); the node fit reads both
        # at all nodes
        ranks = {MetricField: [], VectorField: []}
        for cls, seen in ranks.items():
            def recording(owner, point, order, at=cls.at, seen=seen):
                seen.append((np.ndim(point), order))
                return at(owner, point, order)
            monkeypatch.setattr(cls, "at", recording)
        args = CURVES[name]()
        curve = trace_integral_curve(*args)
        assert args[1].constant == (name != "warped-exp-tube")
        for cls, seen in ranks.items():
            assert seen.count((2, 1)) == 1
            assert seen.count((1, 0)) == curve.rhs_evaluations == len(seen) - 1

    def test_a_right_hand_side_factors_only_its_system(self, monkeypatch):
        # each right-hand side's 2×2 system meets its pivot check once, and
        # the node fit solves its normal equations in closed form: besides,
        # the curve factors only the constant metric, once, when it is held
        args = CURVES["rectifying-psi"]()
        real, factored = np.linalg.cholesky, []
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a: factored.append(np.shape(a)) or real(a))
        curve = trace_integral_curve(*args)
        assert curve.rhs_evaluations == 412
        assert factored == [(4, 4)] + [(2, 2)] * 412

    def test_a_curved_right_hand_side_factors_g_and_its_system(self, monkeypatch):
        # g read at a stage point is checked by its factor, then the 2×2
        # system by its own; the node fit factors the stack of the metric
        # once, as its normal equations are solved in closed form
        args = CURVES["warped-exp-tube"]()
        real, factored = np.linalg.cholesky, []
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a: factored.append(np.shape(a)) or real(a))
        curve = trace_integral_curve(*args)
        assert curve.rhs_evaluations == 481
        assert factored == [(3, 3), (2, 2)] * 481 + [(len(curve.samples), 3, 3)]

    @pytest.mark.parametrize("name", sorted(set(CURVES) - CHART_EXITS))
    def test_one_right_hand_side_per_node(self, name):
        # 1 at the start node, then three fresh stages and the node's own per
        # step, plus the three stages of a step that leaves the box
        curve = trace_integral_curve(*CURVES[name]())
        steps = len(curve.samples) - 1
        assert curve.rhs_evaluations == 1 + 4 * steps + (3 if curve.exited_domain else 0)

    def test_a_stage_outside_the_chart_is_the_last_right_hand_side(self, monkeypatch):
        # the step's first fresh stage fails in sqrt(2.9-u1) before it reads V
        reads, at = [], VectorField.at
        monkeypatch.setattr(VectorField, "at", lambda owner, point, order:
                            reads.append(np.ndim(point)) or at(owner, point, order))
        curve = trace_integral_curve(*CURVES["cone-cut"]())
        steps = len(curve.samples) - 1
        assert curve.exited_domain
        assert curve.rhs_evaluations == 1 + 4 * steps + 1
        assert reads.count(1) == curve.rhs_evaluations - 1

    def test_singular_constant_metric_fails_as_the_per_node_loop(self):
        # a constant metric is read once per curve, at the first right-hand
        # side, which is where the per-node loop meets its singular g
        metric = MetricField([["1"], ["0", "1"], ["0", "0", "0"], ["0", "0", "0", "1"]])
        args = (vertex_cone4(), metric, radial_unit_field(4), [1.0, 3.0], 1.0, 0.01)
        want = outcome(reference_trace, *args)
        assert want[0] is SingularMetricError
        assert outcome(trace_integral_curve, *args) == want

    def test_failing_node_fit_matches_the_per_node_loop(self):
        # |V| = 1 on the radial unit field: every node's fit trips the raised
        # floor, and node 0's error is the one reported
        args = CURVES["cone-1.5"]() + (DEFAULT.override(min_field_norm=2.0),)
        want = outcome(reference_trace, *args)
        assert want[0] is ZeroFieldError
        assert outcome(trace_integral_curve, *args) == want

    def test_earlier_node_fit_error_outranks_a_later_integration_error(self):
        # g33 = 1.5 - x3 stops being positive definite at u1 = 2.5, inside
        # the integration; |V| = 1/|x| falls below the floor from u1 = 2 on,
        # at nodes fitted before that
        metric = MetricField([["1"], ["0", "1"], ["0", "0", "1.5-x3"],
                              ["0", "0", "0", "1"]])
        field = VectorField([f"x{i}/(x1^2+x2^2+x3^2+x4^2)" for i in range(1, 5)])
        args = (vertex_cone4(), metric, field, [1.0, 3.0], 2.0, 0.01)
        without_floor = outcome(trace_integral_curve, *args)
        assert without_floor[0] is SingularMetricError
        assert outcome(reference_trace, *args) == without_floor
        floor = DEFAULT.override(min_field_norm=5.0 ** -0.5)
        want = outcome(reference_trace, *args, floor)
        assert want[0] is ZeroFieldError
        assert outcome(trace_integral_curve, *args, floor) == want


def nonfinite_stage_scene():
    """rectifying-psi with a field term that is 0 off a thin band about
    x3 = 1.2 and NaN (0·inf) on it; the band holds no sampled point but one
    RK4 stage of the centre curve."""
    doc = copy.deepcopy(BUILTIN_DOCUMENTS["rectifying-psi"])
    doc["field"] = [c + "+0*(1e307*(17.9769335-(x3-1.2)^2))" for c in doc["field"]]
    return load_scene(dict(doc, name="nonfinite-stage", checks=["rectifying", "warp-fit"]))


class TestNonFiniteStage:
    def test_a_nan_stage_is_no_exit_from_the_domain(self):
        scene = nonfinite_stage_scene()
        imm, _, _, u0, length, step, _ = centre_curve_args()
        with pytest.raises(GeometryError, match=r"^V\^⊤ is not finite at u=\[") as err:
            trace_integral_curve(imm, scene.metric, scene.field, u0, length, step)
        assert not isinstance(err.value, DomainEvalError)

    def test_warp_fit_judges_the_sample_not_a_stage(self):
        # warp-fit traces no curve: the band holds no point it judges
        rectifying, warp = run(nonfinite_stage_scene(), points=50).checks
        assert (rectifying.status, warp.status) == ("pass", "pass")


class TestNonFiniteResiduals:
    def test_nan_f_fails_the_warping_ode(self):
        # a NaN at one interior sample must not vanish from the maximum
        curve = synthetic_curve(lambda s: math.nan if abs(s - 1.0) < 1e-9 else 1.0,
                                lambda s: math.tanh(s), 0.2, 1.8, step=0.005)
        assert sum(math.isnan(f) for f in curve.f_values) == 1
        assert math.isnan(warping_ode_residual(curve))
        # the fit judges nothing: the NaN reaches its deviation
        assert math.isnan(fit_tanh_integral(curve).deviation)


# ---------------------------------------------------------------------------
# The warping ODE at every sample point
# ---------------------------------------------------------------------------

#: H² ⊂ H³, totally geodesic, in the chart ds² + e^{2s}(dx² + dy²) with V = ∂ₛ
HEMISPHERE = {
    "name": "hemisphere", "field": ["1", "0", "0"], "checks": ["rectifying", "warp-fit"],
    "ambient": {"dim": 3, "metric": [["1"], ["0", "exp(2*x1)"], ["0", "0", "exp(2*x1)"]],
                "domain": [[0, 1], [-1, 1], [-1, 1]]},
    "submanifold": {"dim": 2, "domain": [[0.2, 0.6], [-0.4, 0.4]],
                    "immersion": ["-0.5*log(1-u1^2-u2^2)", "u1", "u2"]}}
#: a patch of the unit sphere in E³ under an affine field with a tangential
#: and a normal part: not rectifying, A_{V^⊥} = −c Id with c = g̃(V, ξ) ≠ 0
TILTED_SPHERE = {
    "name": "tilted-sphere", "field": ["1+0.3*x2", "0.5*x3-0.2*x1", "0.4+x1*x2"],
    "checks": ["rectifying"],
    "ambient": {"dim": 3, "metric": [["1"], ["0", "1"], ["0", "0", "1"]],
                "domain": [[-2, 2]] * 3},
    "submanifold": {"dim": 2, "domain": [[0.5, 1.2], [0.2, 1.4]],
                    "immersion": ["sin(u1)*cos(u2)", "sin(u1)*sin(u2)", "cos(u1)"]}}
#: the cone and the tangent developable hold their radial unit field: V^⊤ = V,
#: λ ≡ 1 and E(λ) = 0, which ∇̃V (not the identity) has to give
ODE_SCENES = {"rectifying-psi": lambda: builtin_scene("rectifying-psi"),
              "hemisphere": lambda: load_scene(HEMISPHERE),
              "tilted-sphere": lambda: load_scene(TILTED_SPHERE),
              "cone": lambda: builtin_scene("cone"),
              "tangent-developable": lambda: builtin_scene("tangent-developable")}


def scaled_psi(eps):
    """rectifying-psi with its field times 1 + ε."""
    doc = BUILTIN_DOCUMENTS["rectifying-psi"]
    return load_scene(dict(doc, field=[f"{1.0 + eps!r}*({c})" for c in doc["field"]]))


def ode_packet(scene, u):
    return frames(scene.immersion, scene.metric, u, scene.field, scene.tolerances)


class TestPointwiseWarpingOde:
    @pytest.mark.parametrize("name", sorted(ODE_SCENES))
    def test_e_lambda_is_a_central_difference_of_lambda(self, name):
        # (λ(u + hc) − λ(u − hc))/2h with c = Bᵀt/λ, E's parameter coordinates
        scene = ODE_SCENES[name]()
        u = sample_parameter_points(scene, 20, np.random.default_rng(3))
        packet = ode_packet(scene, u)
        ode = warping_ode_over(packet)
        c = (np.swapaxes(packet.tangent_coeffs, -1, -2) @ packet.v_tan_frame[..., None])[..., 0]
        h = 1e-5
        ahead, behind = (ode_packet(scene, u + sign * h * c / ode.lam[:, None]).v_tan_norm
                         for sign in (1.0, -1.0))
        assert np.max(abs(ode.e_lam - (ahead - behind) / (2.0 * h))) <= 1e-8
        if name == "tilted-sphere":     # its A_{V^⊥} term is far above that bound
            t = packet.v_tan_frame
            a_term = np.einsum("ni,nij,nj->n", t, packet.a_vperp, t) / ode.lam ** 2
            assert np.min(abs(a_term)) > 1e-2

    @pytest.mark.parametrize("name", ["rectifying-psi", "hemisphere"])
    def test_rectifying_scenes_meet_the_ode_to_round_off(self, name):
        scene = ODE_SCENES[name]()
        for seed in range(5):
            u = sample_parameter_points(scene, 50, np.random.default_rng(seed))
            ode = warping_ode_over(ode_packet(scene, u))
            assert np.max(ode.residual) <= 1e-14
            assert np.all((0.0 < ode.lam) & (ode.lam < 1.0))

    @pytest.mark.parametrize("name", sorted(ODE_SCENES))
    def test_one_point_is_its_row_of_the_batch(self, name):
        # the verdict at a point does not hang on the other points sampled
        scene = ODE_SCENES[name]()
        u = sample_parameter_points(scene, 30, np.random.default_rng(3))
        batch = warping_ode_over(ode_packet(scene, u))
        for i in range(len(u)):
            one = warping_ode_over(ode_packet(scene, u[i:i + 1]))
            for part in ("lam", "e_lam", "f", "residual"):
                assert getattr(one, part).tobytes() == getattr(batch, part)[i:i + 1].tobytes()

    @pytest.mark.parametrize("points", [12, 50])
    @pytest.mark.parametrize("name, make", [
        ("rectifying-psi-s42", lambda: builtin_scene("rectifying-psi")),
        ("rectifying-psi-s7", lambda: with_seed(builtin_scene("rectifying-psi"), 7)),
        ("hemisphere", lambda: load_scene(HEMISPHERE)),
        ("psi-field-times-1.01", lambda: scaled_psi(1e-2))])
    def test_the_verdict_reduces_the_sample(self, monkeypatch, name, make, points):
        # residual, witness and details are those of the ODE at the sample
        # warp-fit judged: the largest residual, at its first point
        seen = []
        ode = warped_mod.warping_ode_over
        monkeypatch.setattr(warped_mod, "warping_ode_over",
                            lambda packet: seen.append((packet.u, ode(packet))) or seen[-1][1])
        warp = run(make(), checks=["rectifying", "warp-fit"], points=points).checks[1]
        [(u, out)] = seen
        at = int(np.argmax(out.residual))
        assert len(u) == points
        assert warp.status == ("pass" if out.residual[at] <= DEFAULT.ode_tol else "fail")
        assert warp.residual == warp.details["ode_residual"] == out.residual[at]
        assert warp.witness == {"point": u[at].tolist(),
                                "values": {"f": out.f[at], "lam": out.lam[at]}}
        assert warp.details["points"] == points
        assert warp.details["bound"] == DEFAULT.ode_tol
        assert warp.details["lambda_range"] == [out.lam.min(), out.lam.max()]
        assert (warp.status == "fail") == name.startswith("psi-field-times")

    def test_a_vanishing_tangential_part_is_a_precondition(self):
        # the radial field is normal to the unit sphere: λ = 0, E undefined
        scene = builtin_scene("unit-sphere")
        u = sample_parameter_points(scene, 10, np.random.default_rng(0))
        with pytest.raises(PreconditionError, match=r"^\|V\^⊤\| = .* vanishes at u=\["):
            warping_ode_over(ode_packet(scene, u))

    def test_near_miss_family(self):
        # rectifying-psi's field times 1 + ε stays rectifying, and warp-fit's
        # residual grows like ε (0.77 ε) and fails past ode_tol
        eps = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2]
        residuals = []
        for e in eps:
            rectifying, warp = run(scaled_psi(e), checks=["rectifying", "warp-fit"],
                                   points=50).checks
            assert rectifying.status == "pass"
            assert warp.status == ("fail" if warp.residual > DEFAULT.ode_tol else "pass")
            residuals.append(warp.residual)
        slope = np.polyfit(np.log(eps), np.log(residuals), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.02)
        assert residuals[0] <= DEFAULT.ode_tol < residuals[1]

    def test_lambda_at_one_on_the_ode_is_a_model_violation(self, monkeypatch):
        # λ = tanh(∫f + C) < 1: a λ >= 1 that meets the ODE is outside the model
        ode = warped_mod.warping_ode_over

        def at_one(packet):
            out = ode(packet)
            return replace(out, lam=np.where(np.arange(len(out.lam)) == 3, 1.0, out.lam))

        monkeypatch.setattr(warped_mod, "warping_ode_over", at_one)
        rectifying, warp = run(builtin_scene("rectifying-psi"), points=20).checks[1:]
        assert (rectifying.status, warp.status) == ("pass", "error")
        assert warp.details["error"] == "ModelViolationError"
        assert warp.details["message"].startswith("warping factor 1.0 >= 1 at u=[")
