"""Torse-forming fit and field classification."""

import math
from dataclasses import fields

import numpy as np
import pytest

from conftest import radial_unit_field
from torseform import (ANTI_TORQUED, CONCIRCULAR, NONE, PARALLEL, TORQUED,
                       TORSE_FORMING, ClassificationReport, MetricField,
                       SceneClassification, VectorField, classify,
                       fit_torse_forming, geodesic_unit_check, load_scene, run)
from torseform.classify import PRECEDENCE, _passes
from torseform.config import DEFAULT
from torseform.errors import (InconsistentSampleError, PreconditionError,
                              SingularFitError, ZeroFieldError)


def linear_field(v0, jacobian, p):
    """Field V(x) = v0 + A (x − p): prescribed value and jacobian at p."""
    m = len(v0)
    comps = []
    for k in range(m):
        terms = [repr(float(v0[k]))]
        for j in range(m):
            terms.append(f"({float(jacobian[k][j])!r})*(x{j + 1}-({float(p[j])!r}))")
        comps.append("+".join(terms))
    return VectorField(comps, dim=m)


class TestFit:
    def test_constant_field_parallel(self, euclid3):
        rep = fit_torse_forming(euclid3, VectorField(["1", "0", "0"]), [0.3, 1, 2])
        assert rep.verdict == PARALLEL
        assert rep.f == 0.0 and np.max(np.abs(rep.omega)) == 0.0
        assert rep.residual_torse == 0.0

    def test_position_field_concircular(self, euclid3):
        rep = fit_torse_forming(euclid3, VectorField(["x1", "x2", "x3"]), [0.5, -1, 2])
        assert rep.verdict == CONCIRCULAR
        assert rep.f == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rep.omega)) <= 1e-12

    def test_unit_radial_anti_torqued_at_radius_two(self, euclid4):
        p = np.array([2.0, 0.0, 0.0, 0.0])
        rep = fit_torse_forming(euclid4, radial_unit_field(4), p)
        assert rep.verdict == ANTI_TORQUED
        assert rep.f == pytest.approx(0.5, abs=1e-12)
        # ω = −f ν with ν the dual of V
        nu = p / np.linalg.norm(p)
        assert rep.omega == pytest.approx(-rep.f * nu, abs=1e-12)
        assert rep.residual_antitorqued <= 1e-12

    def test_w_dual_matches_omega(self, warped_chart):
        rep = fit_torse_forming(warped_chart, VectorField(["1", "0"], dim=2), [0.3, 0.7])
        mp = warped_chart.at([0.3, 0.7], order=0)
        for x in (np.array([1.0, 0.3]), np.array([-0.5, 2.0])):
            assert rep.omega @ x == pytest.approx(
                float(rep.w_dual @ mp.g @ x), abs=1e-10)

    def test_synthetic_recovery_random_pairs(self, euclid3):
        # fields built as ∇V = f Id + V ωᵀ at a point: the fit must recover
        # (f, ω) to near round-off
        rng = np.random.default_rng(42)
        for _ in range(15):
            p = rng.uniform(-1.0, 1.0, size=3)
            v0 = rng.uniform(-1.5, 1.5, size=3)
            if np.linalg.norm(v0) < 0.3:
                v0 += 0.6
            f = float(rng.uniform(-2.0, 2.0))
            omega = rng.uniform(-1.0, 1.0, size=3)
            jac = f * np.eye(3) + np.outer(v0, omega)
            field = linear_field(v0, jac, p)
            rep = fit_torse_forming(euclid3, field, p)
            assert rep.f == pytest.approx(f, rel=1e-9, abs=1e-10)
            assert rep.omega == pytest.approx(omega, rel=1e-9, abs=1e-9)
            assert rep.residual_torse <= 1e-11

    def test_curved_metric_recovery(self, warped_chart):
        # d/ds on ds² + e^{2s} dt² is anti-torqued with f = 1
        rep = fit_torse_forming(warped_chart, VectorField(["1", "0"], dim=2),
                                [0.4, -0.2])
        assert rep.verdict == ANTI_TORQUED
        assert rep.f == pytest.approx(1.0, abs=1e-11)

    def test_scaling_moves_f_not_omega(self, euclid4):
        # ∇(cV) = (c f) X + ω(X) (cV): the conformal scalar scales with the
        # field, the generating form does not; anti-torquedness is lost
        p = [1.0, 1.0, 0.5, -0.3]
        base = fit_torse_forming(euclid4, radial_unit_field(4), p)
        r = "sqrt(x1^2+x2^2+x3^2+x4^2)"
        scaled_field = VectorField([f"3*x{i + 1}/{r}" for i in range(4)])
        scaled = fit_torse_forming(euclid4, scaled_field, p)
        assert scaled.f == pytest.approx(3.0 * base.f, rel=1e-9)
        assert scaled.omega == pytest.approx(base.omega, abs=1e-10)
        assert scaled.residual_torse <= 1e-10
        assert scaled.verdict == TORSE_FORMING

    def test_hierarchy_and_disjointness(self, euclid4):
        rng = np.random.default_rng(3)
        field = radial_unit_field(4)
        for _ in range(10):
            p = rng.uniform(-2, 2, size=4)
            if np.linalg.norm(p) < 0.3:
                continue
            rep = fit_torse_forming(euclid4, field, p)
            assert rep.verdict == ANTI_TORQUED
            # anti-torqued ⊂ torse-forming
            assert rep.residual_torse <= 1e-7
            # with f ≠ 0 it is never within tolerance of concircular: |ω| = |f||ν|
            assert rep.residual_concircular == pytest.approx(
                abs(rep.f) * rep.v_norm, rel=1e-9)
            assert rep.residual_concircular > 1e-7

    def test_zero_field_rejected(self, euclid3):
        with pytest.raises(ZeroFieldError):
            fit_torse_forming(euclid3, VectorField(["0", "0", "0"]), [1, 2, 3])


class TestFitScale:
    """V → cV: the fit raises where |V|²(m − 1)/m is within spd_tol, and
    otherwise f scales with c and ω does not."""

    POINTS = np.random.default_rng(0).uniform(0.5, 2.0, size=(60, 3))

    @staticmethod
    def scaled(c, components):
        return VectorField([f"{c!r}*({comp})" for comp in components])

    @pytest.mark.parametrize("components, verdict", [(["1", "2", "0.5"], PARALLEL),
                                                     (["x1", "x2", "x3"], CONCIRCULAR)])
    def test_short_field_is_singular_and_the_verdict_holds_above(self, euclid3,
                                                                  components, verdict):
        for c in (1e-10, 1e-8, 1e-7):
            with pytest.raises(SingularFitError):
                classify(euclid3, self.scaled(c, components), self.POINTS)
        for c in (1e-5, 1e-3, 1.0, 1e3, 1e6, 1e10):
            assert classify(euclid3, self.scaled(c, components), self.POINTS).verdict == verdict

    def test_f_scales_and_omega_does_not(self, euclid3):
        components, p = ["x1*x2", "x2", "x3"], [2.0, 1.0, 0.5]
        base = fit_torse_forming(euclid3, VectorField(components), p)
        for c in np.logspace(-6, 10, 17):
            rep = fit_torse_forming(euclid3, self.scaled(float(c), components), p)
            assert rep.f / c == pytest.approx(base.f, rel=1e-12)
            assert rep.omega == pytest.approx(base.omega, rel=1e-12)

    def test_one_dimensional_field_is_singular(self):
        with pytest.raises(SingularFitError):
            fit_torse_forming(MetricField.euclidean(1), VectorField(["1+x1"]), [0.5])

    @pytest.mark.parametrize("p", [[10.147, 1.5, 1.5], [[2.0, 1.5, 1.5], [10.147, 1.5, 1.5]]])
    def test_an_overflowing_length_is_reported_finite(self, euclid3, p):
        # |V| ≈ 1e302 is finite, though |V|² overflows and the fit refuses
        # the point: the message names the length, not inf
        with pytest.raises(SingularFitError) as err:
            fit_torse_forming(euclid3, VectorField(["x1^300", "x2", "x3"]), p)
        length = float(str(err.value).split("|V| = ")[1].split()[0])
        assert length == pytest.approx(10.147 ** 300, rel=1e-3)
        assert "at [10.147, 1.5, 1.5]" in str(err.value)


class TestClassifyScene:
    def test_radial_scene_anti_torqued(self, euclid4):
        rng = np.random.default_rng(17)
        pts = [x for x in rng.uniform(-3, 3, size=(120, 4))
               if np.linalg.norm(x) >= 0.1][:60]
        c = classify(euclid4, radial_unit_field(4), pts)
        assert c.verdict == ANTI_TORQUED
        for rep in c.reports:
            assert rep.f == pytest.approx(1.0 / np.linalg.norm(rep.point), rel=1e-10)

    def test_constant_field_parallel(self, euclid3):
        rng = np.random.default_rng(18)
        pts = list(rng.uniform(-2, 2, size=(50, 3)))
        c = classify(euclid3, VectorField(["1", "0", "0"]), pts)
        assert c.verdict == PARALLEL

    def test_twisted_field_torqued(self):
        lam = "exp(x1)*(1+x2^2/4)"
        metric = MetricField([["1"], ["0", f"({lam})^2"], ["0", "0", f"({lam})^2"]])
        field = VectorField([lam, "0", "0"], dim=3)
        rng = np.random.default_rng(19)
        pts = list(rng.uniform(-0.8, 0.8, size=(50, 3)))
        c = classify(metric, field, pts)
        assert c.verdict == TORQUED

    def test_minimum_sample_size(self, euclid3):
        with pytest.raises(PreconditionError):
            classify(euclid3, VectorField(["1", "0", "0"]),
                     [np.zeros(3)] * 10)

    def test_inconsistent_sample_reported(self):
        # exactly torse-forming on the slice x1 = x2, unclassifiable off it
        euclid2 = MetricField.euclidean(2)
        field = VectorField(["exp(x2)", "exp(x1)"], dim=2)
        rng = np.random.default_rng(20)
        on_slice = [np.array([a, a]) for a in rng.uniform(0.2, 1.5, size=30)]
        generic = [np.array([a, a + 1.0]) for a in rng.uniform(0.2, 1.5, size=30)]
        with pytest.raises(InconsistentSampleError) as err:
            classify(euclid2, field, on_slice + generic)
        # the per-point verdicts, counted in order of first appearance
        assert list(err.value.verdicts.items()) == [(TORSE_FORMING, 30), (NONE, 30)]
        assert str(err.value) == ("field changes class across the domain: "
                                  "{'torse-forming': 30, 'none': 30}")

    def test_none_verdict(self, euclid3):
        # rotation plus offset is not torse-forming anywhere sampled
        field = VectorField(["-x2", "x1", "5"])
        rng = np.random.default_rng(21)
        pts = list(rng.uniform(0.5, 2.0, size=(50, 3)))
        c = classify(euclid3, field, pts)
        assert c.verdict == NONE


def test_a_coordinate_frame_that_loses_rank_is_an_error():
    # g's pivots pass spd_tol, but the residual of ∂_2 against ∂_1 has norm
    # sqrt(1 − 0.9999999²) ≈ 4.5e-4, within a raised frame_tol of |∂_2| = 1
    report = run(load_scene({
        "name": "nearly-dependent-frame", "field": ["x1", "x2"], "checks": ["classify"],
        "ambient": {"dim": 2, "metric": [["1"], ["0.9999999", "1"]],
                    "domain": [[1, 2], [1, 2]]},
        "tolerances": {"frame_tol": 1e-3}}), points=50)
    [check] = report.checks
    assert check.status == "error"
    assert check.details == {"error": "SingularMetricError",
                             "message": "coordinate frame lost rank under the metric"}


class TestGeodesicUnitCheck:
    def test_unit_radial(self, euclid4):
        rng = np.random.default_rng(22)
        pts = [x for x in rng.uniform(-3, 3, size=(120, 4))
               if np.linalg.norm(x) >= 0.5][:50]
        field = radial_unit_field(4)
        c = classify(euclid4, field, pts)
        assert geodesic_unit_check(euclid4, field, pts, c) <= 1e-10

    def test_warped_axis(self, warped_chart):
        field = VectorField(["1", "0"], dim=2)
        rng = np.random.default_rng(23)
        pts = list(rng.uniform(-1, 1, size=(50, 2)))
        c = classify(warped_chart, field, pts)
        assert c.verdict == ANTI_TORQUED
        assert geodesic_unit_check(warped_chart, field, pts, c) <= 1e-10

    def test_non_unit_field_precondition(self, euclid3):
        field = VectorField(["x1", "x2", "x3"])
        rng = np.random.default_rng(24)
        pts = [x for x in rng.uniform(0.5, 2, size=(50, 3))]
        c = classify(euclid3, field, pts)
        assert c.verdict == CONCIRCULAR
        with pytest.raises(PreconditionError):
            geodesic_unit_check(euclid3, field, pts, c)

    def test_wrong_verdict_precondition(self, euclid3):
        field = VectorField(["1", "0", "0"])
        rng = np.random.default_rng(25)
        pts = list(rng.uniform(-1, 1, size=(50, 3)))
        c = classify(euclid3, field, pts)
        with pytest.raises(PreconditionError):
            geodesic_unit_check(euclid3, field, pts, c)


def exact_report(point, **overrides):
    """A report of an exactly anti-torqued unit field, with overrides."""
    values = dict(point=np.asarray(point, dtype=float), f=1.0,
                  omega=np.zeros(3), w_dual=np.zeros(3), residual_torse=0.0,
                  residual_concircular=1.0, residual_torqued=0.0,
                  residual_antitorqued=0.0, verdict=ANTI_TORQUED, v_norm=1.0,
                  grad_norm=1.0, geodesic_defect=0.0)
    values.update(overrides)
    return ClassificationReport(**values)


class TestNonFiniteResiduals:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("cls", PRECEDENCE)
    def test_nonfinite_torse_residual_gets_no_class(self, cls, value):
        rep = exact_report([1, 2, 3], residual_torse=value,
                           residual_concircular=0.0, grad_norm=value)
        assert not _passes(rep, cls, DEFAULT)

    @pytest.mark.parametrize("name, cls", [
        ("residual_concircular", CONCIRCULAR),
        ("residual_antitorqued", ANTI_TORQUED),
        ("residual_torqued", TORQUED)])
    def test_nan_specialization_residual_gets_no_class(self, name, cls):
        finite = {"residual_concircular": 0.0}
        assert _passes(exact_report([1, 2, 3], **finite), cls, DEFAULT)
        rep = exact_report([1, 2, 3], **{**finite, name: math.nan})
        assert not _passes(rep, cls, DEFAULT)

    def test_reductions_propagate_nan(self, euclid3):
        # the NaN sits after a finite value, where Python's max drops it
        pts = [np.array([1.0, 2.0, 3.0]), np.array([2.0, 1.0, 3.0])]
        field = VectorField(["1", "0", "0"])
        c = exact_classification(euclid3, field, [
            exact_report(pts[0]),
            exact_report(pts[1], residual_antitorqued=math.nan, geodesic_defect=math.nan)])
        assert math.isnan(c.class_residuals[ANTI_TORQUED])
        assert math.isnan(geodesic_unit_check(euclid3, field, pts, c))

    def test_reports_must_match_points(self, euclid3):
        pts = [np.array([1.0, 2.0, 3.0])]
        field = VectorField(["1", "0", "0"])
        c = exact_classification(euclid3, field, [exact_report(pts[0])])
        with pytest.raises(PreconditionError):
            geodesic_unit_check(euclid3, field, [np.array([3.0, 2.0, 1.0])], c)


def exact_classification(metric, field, reports):
    """An anti-torqued classification holding the given per-point reports as
    one batched report, with the metric and field data at their points."""
    batch = ClassificationReport(**{f.name: np.array([getattr(rep, f.name) for rep in reports])
                                    for f in fields(ClassificationReport)})
    return SceneClassification(verdict=ANTI_TORQUED, batch=batch, witness_index=0,
                               witness_residual=0.0,
                               metric_at=metric.at(batch.point, order=1),
                               field_at=field.at(batch.point, order=1))
