"""Rectifying condition and the tangent/normal characterization checks.

The twisted-product scenes used for the torqued characterization carry the
metric ds² + λ(s,x)²(dx² + dy²) with λ = e^s (1 + x²/4); the field λ ∂/∂s is
torqued there with conformal scalar ∂λ/∂s and generating form the vertical
part of d log λ (worked out by hand as the oracle).
"""

import numpy as np
import pytest

from conftest import radial_unit_field
from torseform import (Immersion, MetricField, VectorField, classify, frames,
                       rectifying_scene, verify_normal_vanishes,
                       verify_tangential_vanishes)
from torseform.errors import PreconditionError
from torseform.rectifying import rectifying_at, torqued_over

LAM = "exp(x1)*(1+x2^2/4)"


def twisted_metric():
    return MetricField([["1"], ["0", f"({LAM})^2"], ["0", "0", f"({LAM})^2"]])


def twisted_field():
    return VectorField([LAM, "0", "0"], dim=3)


def vertex_cone4():
    return Immersion(["0.8*u1*cos(u2)", "0.8*u1*sin(u2)", "0.6*u1", "1"],
                     n=2, domain=[[0.5, 3.0], [0.1, 6.2]])


def unit_sphere3():
    return Immersion(["sin(u1)*cos(u2)", "sin(u1)*sin(u2)", "cos(u1)"],
                     n=2, domain=[[0.3, 2.8], [0.1, 6.2]])


def param_grid(rng, box, count):
    return [np.array([rng.uniform(lo, hi) for lo, hi in box])
            for _ in range(count)]


def rectifying_residual(imm, metric, field, u):
    return rectifying_at(frames(imm, metric, u, field=field)).residual


class TestRectifyingResidual:
    def test_vertex_cone_is_rectifying(self, euclid4):
        imm = vertex_cone4()
        field = radial_unit_field(4)
        rng = np.random.default_rng(1)
        for u in param_grid(rng, imm.domain, 10):
            assert rectifying_residual(imm, euclid4, field, u) <= 1e-12

    def test_unit_sphere_residual_one(self, euclid3):
        imm = unit_sphere3()
        field = radial_unit_field(3)
        rep = rectifying_at(frames(imm, euclid3, [1.1, 0.7], field=field))
        assert rep.residual == pytest.approx(1.0, abs=1e-10)
        # umbilic contrast: |A_{V^perp}| = sqrt(n) since A = -Id
        assert rep.a_vperp_frob == pytest.approx(np.sqrt(2.0), abs=1e-10)

    def test_offset_plane_trivially_rectifying(self, euclid3):
        plane = Immersion(["u1", "u2", "1"], n=2, domain=[[-2, 2], [-2, 2]])
        field = radial_unit_field(3)
        assert rectifying_residual(plane, euclid3, field, [0.4, -0.8]) == 0.0

    def test_scale_invariance_above_floor(self, euclid3, euclid4):
        # rescaling V by c >= 1 keeps the normalized residual (the floor in
        # the normalizer breaks invariance below unit scale, see ledger)
        r3 = "sqrt(x1^2+x2^2+x3^2)"
        for c in (2.0, 10.0):
            scaled = VectorField([f"{c}*x{i + 1}/{r3}" for i in range(3)])
            base = rectifying_residual(unit_sphere3(), euclid3,
                                       radial_unit_field(3), [1.0, 0.4])
            got = rectifying_residual(unit_sphere3(), euclid3, scaled, [1.0, 0.4])
            assert got == pytest.approx(base, abs=1e-9)
        r4 = "sqrt(x1^2+x2^2+x3^2+x4^2)"
        scaled4 = VectorField([f"3*x{i + 1}/{r4}" for i in range(4)])
        assert rectifying_residual(vertex_cone4(), euclid4, scaled4,
                                   [1.5, 2.0]) <= 1e-9

    def test_zero_h_forces_zero_residual(self, euclid4):
        # Im h = {0} is orthogonal to everything
        plane4 = Immersion(["u1", "u2", "1", "2"], n=2, domain=[[-2, 2], [-2, 2]])
        rng = np.random.default_rng(2)
        for u in param_grid(rng, plane4.domain, 5):
            assert rectifying_residual(plane4, euclid4, radial_unit_field(4), u) == 0.0


class TestSceneVerdicts:
    def test_cone_scene_passes(self, euclid4):
        imm = vertex_cone4()
        rng = np.random.default_rng(3)
        rep = rectifying_scene(imm, euclid4, radial_unit_field(4),
                               param_grid(rng, imm.domain, 25))
        assert rep.mode == "proper-rectifying"
        assert rep.passed
        assert rep.max_residual <= 1e-10
        assert rep.all_proper
        assert rep.max_a_vperp <= 1e-10

    def test_sphere_scene_fails_with_witness(self, euclid3):
        imm = unit_sphere3()
        rng = np.random.default_rng(4)
        rep = rectifying_scene(imm, euclid3, radial_unit_field(3),
                               param_grid(rng, imm.domain, 20))
        assert rep.mode == "proper-rectifying"
        assert not rep.passed
        assert rep.max_residual >= 0.99
        assert rep.witness is not None

    def test_hypersurface_tangent_axis_mode(self, euclid3):
        cone = Immersion(["u1*cos(u2)", "u1*sin(u2)", "u1"],
                         n=2, domain=[[0.5, 2.0], [0.1, 6.2]])
        rng = np.random.default_rng(5)
        rep = rectifying_scene(cone, euclid3, radial_unit_field(3),
                               param_grid(rng, cone.domain, 15))
        assert rep.mode == "tangent-axis-hypersurface"
        assert rep.passed
        assert rep.normal_report.max_det <= 1e-10


class TestTangentialCase:
    def test_clifford_torus(self, euclid4):
        imm = Immersion(["cos(u1)/sqrt(2)", "sin(u1)/sqrt(2)",
                         "cos(u2)/sqrt(2)", "sin(u2)/sqrt(2)"],
                        n=2, domain=[[0.1, 6.2], [0.1, 6.2]])
        rng = np.random.default_rng(6)
        rep = verify_tangential_vanishes(imm, euclid4, radial_unit_field(4),
                                         param_grid(rng, imm.domain, 20))
        assert rep.passed
        assert rep.max_v_tan <= 1e-12
        assert rep.max_normal_derivative <= 1e-10
        # f = 1 on |x| = 1, so the umbilic defect is |A + Id|
        assert rep.max_umbilic_defect <= 1e-10

    def test_hypersphere_totally_umbilical(self, euclid3):
        imm = Immersion(["2*sin(u1)*cos(u2)", "2*sin(u1)*sin(u2)", "2*cos(u1)"],
                        n=2, domain=[[0.3, 2.8], [0.1, 6.2]])
        rng = np.random.default_rng(7)
        rep = verify_tangential_vanishes(imm, euclid3, radial_unit_field(3),
                                         param_grid(rng, imm.domain, 20))
        assert rep.passed

    def test_offset_plane_precondition_fails(self, euclid3):
        plane = Immersion(["u1", "u2", "1"], n=2, domain=[[0.5, 2], [0.5, 2]])
        rng = np.random.default_rng(8)
        with pytest.raises(PreconditionError) as err:
            verify_tangential_vanishes(plane, euclid3, radial_unit_field(3),
                                       param_grid(rng, plane.domain, 5))
        assert err.value.witness is not None


class TestNormalCase:
    def test_tangent_developable(self, euclid3):
        imm = Immersion(["cos(u1)-u2*sin(u1)", "sin(u1)+u2*cos(u1)", "0"],
                        n=2, domain=[[0.1, 6.2], [0.25, 2.0]])
        rng = np.random.default_rng(9)
        rep = verify_normal_vanishes(imm, euclid3, radial_unit_field(3),
                                     param_grid(rng, imm.domain, 20))
        assert rep.passed
        # both sectional curvatures vanish (flat surface in flat space)
        assert rep.max_ambient_sectional <= 1e-9
        assert rep.max_intrinsic_sectional <= 1e-9
        assert rep.max_sectional_mismatch <= 1e-9

    def test_cone(self, euclid3):
        imm = Immersion(["u1*cos(u2)", "u1*sin(u2)", "u1"],
                        n=2, domain=[[0.5, 2.0], [0.1, 6.2]])
        rng = np.random.default_rng(10)
        rep = verify_normal_vanishes(imm, euclid3, radial_unit_field(3),
                                     param_grid(rng, imm.domain, 20))
        assert rep.passed
        assert rep.max_det <= 1e-10
        assert rep.max_h_vtan <= 1e-10

    def test_curvature_identity_on_curved_ambient(self):
        # leaf of the twisted product: V tangent, ambient not flat, and the
        # curvature identity R~(X,Y)V^tan = R(X,Y)V^tan must still hold
        metric = twisted_metric()
        field = twisted_field()
        leaf = Immersion(["u1", "u2", "0.3"], n=2, domain=[[-0.5, 0.5], [-0.8, 0.8]])
        rng = np.random.default_rng(11)
        rep = verify_normal_vanishes(leaf, metric, field,
                                     param_grid(rng, leaf.domain, 10))
        assert rep.max_curvature_mismatch <= 1e-7
        assert rep.max_sectional_mismatch <= 1e-7

    def test_origin_plane_trivial(self, euclid3):
        plane = Immersion(["u1", "u2", "0"], n=2, domain=[[0.5, 2], [0.5, 2]])
        rng = np.random.default_rng(12)
        rep = verify_normal_vanishes(plane, euclid3, radial_unit_field(3),
                                     param_grid(rng, plane.domain, 10))
        assert rep.passed

    def test_normal_component_precondition(self, euclid3):
        rng = np.random.default_rng(13)
        imm = unit_sphere3()
        with pytest.raises(PreconditionError):
            verify_normal_vanishes(imm, euclid3, radial_unit_field(3),
                                   param_grid(rng, imm.domain, 5))


class TestTorquedCase:
    def _classification(self, rng):
        pts = list(rng.uniform(-0.8, 0.8, size=(50, 3)))
        return classify(twisted_metric(), twisted_field(), pts)

    def test_leaf_tangent_case(self):
        rng = np.random.default_rng(14)
        classification = self._classification(rng)
        assert classification.verdict == "torqued"
        leaf = Immersion(["u1", "0.3", "0.4"], n=1, domain=[[-0.5, 0.5]])
        us = [np.array([s]) for s in rng.uniform(-0.4, 0.4, size=8)]
        rep = torqued_over(frames(leaf, twisted_metric(), us, field=twisted_field()),
                           classification)
        assert rep.case == "tangent"
        assert rep.passed
        assert rep.max_concircular_residual <= 1e-9
        assert rep.max_det <= 1e-12

    def test_fiber_normal_case(self):
        rng = np.random.default_rng(15)
        classification = self._classification(rng)
        fiber = Immersion(["0.2", "u1", "u2"], n=2,
                          domain=[[-0.8, 0.8], [-0.8, 0.8]])
        us = param_grid(rng, fiber.domain, 8)
        rep = torqued_over(frames(fiber, twisted_metric(), us, field=twisted_field()),
                           classification)
        assert rep.case == "normal"
        assert rep.passed
        assert not rep.w_tangent_vanishes
        assert rep.max_umbilic_defect <= 1e-9
        assert rep.max_normal_derivative <= 1e-9
        assert rep.max_w_derivative_defect <= 1e-9

    def test_anti_torqued_axis_rejected(self, euclid4):
        rng = np.random.default_rng(16)
        pts = [x for x in rng.uniform(-3, 3, size=(120, 4))
               if np.linalg.norm(x) >= 0.5][:50]
        classification = classify(euclid4, radial_unit_field(4), pts)
        assert classification.verdict == "anti-torqued"
        imm = vertex_cone4()
        with pytest.raises(PreconditionError):
            torqued_over(frames(imm, euclid4, param_grid(rng, imm.domain, 5),
                                field=radial_unit_field(4)), classification)

    def test_mixed_components_rejected(self):
        rng = np.random.default_rng(17)
        classification = self._classification(rng)
        # a diagonal slice is neither tangent nor normal to V
        diag = Immersion(["u1", "u1", "u2"], n=2,
                         domain=[[-0.4, 0.4], [-0.8, 0.8]])
        with pytest.raises(PreconditionError):
            torqued_over(frames(diag, twisted_metric(), param_grid(rng, diag.domain, 5),
                                field=twisted_field()), classification)
