"""The submanifold path in one batch: frames, the induced metric, curvature,
every immersed check and the samplers.  Every batched result must equal the
same functions at each point alone (the batch-free case), a failing batch
must report what the first failing point reports, and the samplers must
draw exactly what a one-candidate-at-a-time loop draws."""

import sys

import numpy as np
import pytest

from torseform import (DEFAULT, Immersion, MetricField, VectorField,
                       builtin_names, builtin_scene, classify, exit_code,
                       frames, load_scene, run, sample_ambient_points,
                       sample_parameter_points)
from torseform import rectifying as rect
from torseform.errors import (DomainEvalError, RankDeficiencyError, SamplingError,
                              SingularMetricError, ZeroFieldError)
from torseform import expr as ex
from torseform.immersion import gauss_defect
from torseform.jets import chart_names

REL = 1e-12

LAM = "exp(x1)*(1+x2^2/4)"
TWISTED = MetricField([["1"], ["0", f"({LAM})^2"], ["0", "0", f"({LAM})^2"]])
TWISTED_FIELD = VectorField([LAM, "0", "0"], dim=3)


def assert_close(batched, single):
    batched, single = np.asarray(batched, float), np.asarray(single, float)
    assert batched.shape == single.shape
    assert np.all(np.abs(batched - single) <= REL * np.maximum(1.0, np.abs(single)))


def immersed_scenes():
    scenes = [builtin_scene(name) for name in builtin_names()]
    return [s for s in scenes if s.immersion is not None]


def batch_and_points(imm, metric, field, us, tols=DEFAULT):
    us = np.asarray(us, dtype=float)
    return (frames(imm, metric, us, field, tols),
            [frames(imm, metric, u, field, tols) for u in us])


def max_over(terms, singles, index):
    """The largest value of term `index` over the single-point packets."""
    return max(float(np.max(terms(p)[index], initial=0.0)) for p in singles)


class TestBatchOracle:
    @pytest.mark.parametrize("scene", immersed_scenes(), ids=lambda s: s.name)
    def test_packet_equals_point_packets(self, scene):
        us = sample_parameter_points(scene, 30, np.random.default_rng(5))
        batch, singles = batch_and_points(scene.immersion, scene.metric, scene.field, us,
                                          scene.tolerances)
        for i, single in enumerate(singles):
            for name in ("x", "jacobian", "g_coord", "tangents", "tangent_coeffs", "normals",
                         "h_frame", "h_coord", "v_tan", "v_nor", "v_tan_norm", "v_nor_norm"):
                assert_close(getattr(batch, name)[i], getattr(single, name))
            for name in ("g", "dg", "d2g", "gamma", "curvature"):
                assert_close(getattr(batch.induced, name)[i], getattr(single.induced, name))
                assert_close(getattr(batch.ambient2, name)[i], getattr(single.ambient2, name))
            assert_close(batch.fit.f[i], single.fit.f)
        # single points keep floats where they had them
        assert type(singles[0].v_tan_norm) is float

    @pytest.mark.parametrize("scene", immersed_scenes(), ids=lambda s: s.name)
    def test_checks_equal_point_reductions(self, scene):
        us = sample_parameter_points(scene, 30, np.random.default_rng(6))
        batch, singles = batch_and_points(scene.immersion, scene.metric, scene.field, us,
                                          scene.tolerances)
        tols = scene.tolerances
        # rectifying: the batched point report is the point reports stacked
        rep = rect.rectifying_at(batch)
        for i, single in enumerate(singles):
            one = rect.rectifying_at(single)
            for name in ("residual", "v_tan_norm", "v_nor_norm", "a_vperp_frob", "h_sup"):
                assert_close(getattr(rep, name)[i], getattr(one, name))
            assert rep.proper[i] == one.proper
        scene_rep = rect.rectifying_over(batch)
        if scene_rep.mode == "proper-rectifying":
            reports = [rect.rectifying_at(p) for p in singles]
            want_res = max(r.residual for r in reports)
            want_a = max(r.a_vperp_frob for r in reports)
            want_proper = all(r.proper for r in reports)
            assert_close(scene_rep.max_residual, want_res)
            assert_close(scene_rep.max_a_vperp, want_a)
            assert scene_rep.all_proper == want_proper
            assert scene_rep.passed == (want_res <= tols.rect_tol and want_proper
                                        and want_a <= tols.a_vperp_tol)
        # Gauss equation with per-point test vectors
        vecs = np.random.default_rng(7).standard_normal((len(us), 4, scene.immersion.n))
        got = gauss_defect(batch, *np.moveaxis(vecs, 1, 0))
        want = [gauss_defect(p, *v) for p, v in zip(singles, vecs)]
        assert np.all(np.abs(got - want) <= REL)

        if "tangential-theorem" in scene.checks:
            report = rect.tangential_over(batch)
            want_d = max_over(rect._tangential_terms, singles, 0)
            want_umb = max_over(rect._tangential_terms, singles, 1)
            assert_close(report.max_normal_derivative, want_d)
            assert_close(report.max_umbilic_defect, want_umb)
            assert report.passed == (want_d <= tols.parallel_normal_tol
                                     and want_umb <= tols.umbilic_tol)
        if "normal-theorem" in scene.checks:
            report = rect.normal_over(batch)
            want = [max_over(rect._normal_terms, singles, k) for k in range(3)]
            want_sec = max(float(np.max(rect._normal_terms(p)[3][:, 0], initial=0.0))
                           for p in singles)
            got = [report.max_det, report.max_h_vtan, report.max_curvature_mismatch]
            assert np.all(np.abs(np.array(got) - want) <= REL)
            assert abs(report.max_sectional_mismatch - want_sec) <= REL
            assert report.passed == (want[0] <= tols.det_tol and want[1] <= tols.h_tangent_tol
                                     and want[2] <= tols.curv_match_tol
                                     and want_sec <= tols.curv_match_tol)

    @pytest.mark.parametrize("case", ["tangent", "normal"])
    def test_torqued_terms_equal_point_terms(self, case):
        # twisted product: a leaf along V (tangent case) and a fiber (normal case)
        pts = np.random.default_rng(14).uniform(-0.8, 0.8, size=(50, 3))
        classification = classify(TWISTED, TWISTED_FIELD, pts)
        if case == "tangent":
            imm, terms = Immersion(["u1", "0.3", "0.4"], n=1), rect._concircular_terms
            us = np.random.default_rng(1).uniform(-0.4, 0.4, size=(8, 1))
        else:
            imm, terms = Immersion(["0.2", "u1", "u2"], n=2), rect._torqued_normal_terms
            us = np.random.default_rng(2).uniform(-0.8, 0.8, size=(8, 2))
        batch, singles = batch_and_points(imm, TWISTED, TWISTED_FIELD, us)
        got = terms(batch)
        for i, single in enumerate(singles):
            for g, want in zip(got, terms(single)):
                assert_close(np.asarray(g)[..., i], want)
        assert rect.torqued_over(batch, classification).case == case

    def test_degenerate_planes_are_masked(self):
        # V^⊤ = ∂/∂u1 direction: the plane Span{e_1, V^⊤} is degenerate and
        # skipped, the one through e_2 is kept
        plane = Immersion(["u1", "u2", "0"], n=2)
        field = VectorField(["1", "0", "0"])
        us = np.random.default_rng(3).uniform(-1, 1, size=(6, 2))
        packet = frames(plane, MetricField.euclidean(3), us, field)
        secs = rect._normal_terms(packet)[3]
        assert secs.shape == (2, 3, 6)
        assert rect.normal_over(packet).passed


class TestErrorOrder:
    def test_early_stage_of_a_later_point_wins_over_a_lazy_stage(self):
        # point 0: |∂Ψ| ~ 1e-8, so the induced metric fails its SPD check, a
        # stage computed on first use; point 1: 1 − 20 u1 = 0, the jacobian
        # loses rank, a stage of frames, which runs for every point first
        scaled = Immersion(["exp(-20*u1)*u1", "exp(-20*u1)*u2", "0"], n=2)
        field = VectorField(["x1", "x2", "0"])
        euclid3 = MetricField.euclidean(3)
        with pytest.raises(RankDeficiencyError,
                           match=r"^immersion is degenerate at u=\[0\.05, 0\.5\]: singular"):
            rect.verify_normal_vanishes(scaled, euclid3, field,
                                        [[0.92, 0.5], [0.05, 0.5], [0.3, 0.2]])
        with pytest.raises(SingularMetricError,
                           match=r"^matrix is not positive definite: pivot 0 is 4\.198e-14"):
            rect.verify_normal_vanishes(scaled, euclid3, field, [[0.3, 0.2], [0.92, 0.5]])

    def test_frames_report_the_first_failing_point(self):
        # point 0 fails the ambient metric's SPD check, point 1 the jacobian
        # rank, which frames tests first: point 0 is reached first
        imm = Immersion(["u1", "u1*u2", "0"], n=2)
        metric = MetricField([["x1"], ["0", "1"], ["0", "0", "1"]])
        with pytest.raises(SingularMetricError,
                           match=r"^matrix is not positive definite: pivot 0 is -5\.000e-01"):
            frames(imm, metric, [[-0.5, 0.3], [0.0, 0.3], [1.0, 0.2]])

    def test_late_stage_of_the_first_point_wins_over_an_early_one(self):
        # the field's 1-jet fails at point 3 (sqrt is not differentiable at
        # 0), the fit fails at point 0 (V = 0): point 0 is reached first
        plane = Immersion(["u1", "u2", "1"], n=2)
        field = VectorField(["0", "0", "x2*sqrt(x1)"])
        us = np.array([[0.5, 0.0], [0.4, 0.7], [0.3, 0.2], [0.0, 0.5]])
        packet = frames(plane, MetricField.euclidean(3), us, field)
        with pytest.raises(DomainEvalError):
            packet.field_jet
        with pytest.raises(ZeroFieldError, match=r"^\|V\| = 0\.000e\+00 at \[0\.5, 0\.0, 1\.0\]$"):
            rect.tangential_over(packet)


def sequential(box, count, rng, admissible):
    """Today's reference loop: one candidate drawn and tested at a time."""
    lows = np.array([lo for lo, _ in box])
    highs = np.array([hi for _, hi in box])
    out, attempts = [], 0
    while len(out) < count:
        if attempts >= 1000 * count:
            raise SamplingError("limit")
        x = lows + (highs - lows) * rng.random(len(box))
        attempts += 1
        if admissible(x):
            out.append(x)
    return out


def float_admissible(scene, x):
    """The samplers' admissibility rule at one point, with floats: outside
    the excluded ball, and the field defined there with |V| at least
    min_field_norm."""
    if scene.exclude_radius > 0.0 and float(np.linalg.norm(x)) < scene.exclude_radius:
        return False
    if scene.field is not None:
        env = dict(zip(chart_names(scene.dim), map(float, x)))
        try:
            comps = [ex.eval_float(e, env) for e in scene.field.exprs]
        except DomainEvalError:
            return False
        if float(np.linalg.norm(comps)) < scene.tolerances.min_field_norm:
            return False
    return True


def parameter_admissible(scene):
    def admissible(u):
        try:
            x = scene.immersion.point(u)
        except DomainEvalError:
            return False
        return float_admissible(scene, x)
    return admissible


REJECTING = {
    # the field is not defined where x1 < 0, and |x| < 1 is excluded
    "ambient": {"name": "reject-ambient", "field": ["sqrt(x1)", "x2", "1"],
                "checks": ["classify"], "exclude_radius": 1.0,
                "ambient": {"dim": 3, "metric": [["1"], ["0", "1"], ["0", "0", "1"]],
                            "domain": [[-1, 2], [-1, 1], [-1, 1]]}},
    # Ψ is not defined where u1 <= 0, and the field vanishes nowhere
    "parameter": {"name": "reject-parameter", "field": ["1", "x1", "0"],
                  "checks": ["rectifying"], "exclude_radius": 0.5,
                  "ambient": {"dim": 3, "metric": [["1"], ["0", "1"], ["0", "0", "1"]],
                              "domain": [[-3, 3], [-3, 3], [-3, 3]]},
                  "submanifold": {"dim": 2, "immersion": ["log(u1)", "u2", "u1*u2"],
                                  "domain": [[-1, 2], [-1, 1]]}},
}


class TestSamplingRng:
    @pytest.mark.parametrize("name", ["radial-r4", "warped-exp", "clifford-torus"])
    def test_ambient_builtins(self, name):
        self.check_ambient(builtin_scene(name), 60)

    def test_ambient_with_rejections(self):
        self.check_ambient(load_scene(REJECTING["ambient"]), 40)

    @pytest.mark.parametrize("name", ["hypersphere", "tangent-developable", "rectifying-psi"])
    def test_parameter_builtins(self, name):
        self.check_parameter(builtin_scene(name), 60)

    def test_parameter_with_rejections(self):
        self.check_parameter(load_scene(REJECTING["parameter"]), 40)

    def test_attempt_limit(self):
        # nothing is admissible: both raise after 1000·count draws
        doc = dict(REJECTING["ambient"], exclude_radius=10.0)
        scene = load_scene(doc)
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        with pytest.raises(SamplingError, match="could not draw 2 admissible points in 2000"):
            sample_ambient_points(scene, 2, a)
        with pytest.raises(SamplingError):
            sequential(scene.domain, 2, b, lambda x: float_admissible(scene, x))
        assert a.random() == b.random()

    def test_rejected_blocks_walk_no_floats(self, monkeypatch):
        # both scenes' blocks raise and are replayed; the replay is the same
        # array test one row at a time, so no expression is walked with floats
        calls = []
        original = ex.eval_float

        def counted(*args):
            calls.append(args)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "torseform":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        sample_ambient_points(load_scene(REJECTING["ambient"]), 40, np.random.default_rng(11))
        sample_parameter_points(load_scene(REJECTING["parameter"]), 40,
                                np.random.default_rng(12))
        assert len(calls) == 0

    @staticmethod
    def check_ambient(scene, count):
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        got = sample_ambient_points(scene, count, a)
        want = sequential(scene.domain, count, b, lambda x: float_admissible(scene, x))
        assert np.array_equal(got, want)
        assert a.random() == b.random()

    @staticmethod
    def check_parameter(scene, count):
        a, b = np.random.default_rng(12), np.random.default_rng(12)
        got = sample_parameter_points(scene, count, a)
        want = sequential(scene.immersion.domain, count, b, parameter_admissible(scene))
        assert np.array_equal(got, want)
        assert a.random() == b.random()


class TestSceneSpdTol:
    def test_scene_override_reaches_the_metric(self):
        doc = {"name": "thin", "field": ["x1", "x2"], "checks": ["classify"],
               "tolerances": {"spd_tol": 1e-3},
               "ambient": {"dim": 2, "metric": [["1e-6"], ["0", "1"]],
                           "domain": [[1, 2], [1, 2]]}}
        report = run(load_scene(doc), points=50)
        [check] = report.checks
        assert check.status == "error"
        assert check.details["error"] == "SingularMetricError"
        assert exit_code(report) == 3

    def test_induced_metric_uses_the_packet_tolerance(self):
        # |∂Ψ|² = 1e-6: above the default pivot floor, below the override
        small = Immersion(["1e-3*u1", "1e-3*u2", "0"], n=2)
        metric, field = MetricField.euclidean(3), VectorField(["1", "0", "0"])
        assert np.all(np.isfinite(frames(small, metric, [0.1, 0.2], field).induced.g))
        packet = frames(small, metric, [0.1, 0.2], field, DEFAULT.override(spd_tol=1e-3))
        with pytest.raises(SingularMetricError):
            packet.induced


def test_field_checks_without_a_field_are_not_applicable():
    # the normal-theorem check used to crash with a numpy ValueError, which
    # escaped the runner and lost the whole report
    doc = {"name": "no-field", "checks": ["normal-theorem", "tangential-theorem",
                                          "gauss-equation"],
           "ambient": {"dim": 3, "metric": [["1"], ["0", "1"], ["0", "0", "1"]],
                       "domain": [[-3, 3]] * 3},
           "submanifold": {"dim": 2, "immersion": ["u1", "u2", "u1*u2"],
                           "domain": [[0, 1], [0, 1]]}}
    report = run(load_scene(doc), points=20)
    assert [(c.name, c.status) for c in report.checks] == [
        ("tangential-theorem", "n/a"), ("normal-theorem", "n/a"), ("gauss-equation", "pass")]
    assert report.checks[1].details == {"reason": "check needs a vector field"}
