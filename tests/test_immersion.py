"""Extrinsic geometry: frames, fundamental forms, Gauss equation.

Independent oracles: direct dot products for induced metrics, the
constant-curvature formula h(X, Y) = −g(X, Y) N/r on round spheres, and the
shape operator of the Clifford torus worked out by hand.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import radial_unit_field
from torseform import (Immersion, MetricField, decompose_field, frames,
                       gauss_equation_residual, induced_metric, load_scene, report_to_json,
                       riemann, run, shape_operator)
from torseform.config import Tolerances
from torseform.errors import NonNormalVectorError, RankDeficiencyError
from torseform.expr import quiet
from torseform.immersion import _full_rank, _jacobian
from torseform.jets import Jet
from torseform.linalg import first_where
from torseform.metric import _batch_first, plane_curvature
from torseform.scenes import BUILTIN_DOCUMENTS

#: three parameter points of a sphere, for packets with a batch axis
SPHERE_US = np.array([[0.9, 0.6], [1.2, 2.0], [2.0, 4.5]])


def plane3():
    return Immersion(["u1", "u2", "0"], n=2, domain=[[-3, 3], [-3, 3]])


def sphere3(r=1.0):
    return Immersion([f"{r}*sin(u1)*cos(u2)", f"{r}*sin(u1)*sin(u2)",
                      f"{r}*cos(u1)"], n=2, domain=[[0.3, 2.8], [0.1, 6.2]])


def clifford():
    return Immersion(["cos(u1)/sqrt(2)", "sin(u1)/sqrt(2)",
                      "cos(u2)/sqrt(2)", "sin(u2)/sqrt(2)"],
                     n=2, domain=[[0.1, 6.2], [0.1, 6.2]])


def developable():
    return Immersion(["cos(u1)-u2*sin(u1)", "sin(u1)+u2*cos(u1)", "0"],
                     n=2, domain=[[0.1, 6.2], [0.25, 2.0]])


def cone3():
    return Immersion(["u1*cos(u2)", "u1*sin(u2)", "u1"],
                     n=2, domain=[[0.5, 2.0], [0.1, 6.2]])


def vertex_cone4():
    return Immersion(["0.8*u1*cos(u2)", "0.8*u1*sin(u2)", "0.6*u1", "1"],
                     n=2, domain=[[0.5, 3.0], [0.1, 6.2]])


class TestInducedMetric:
    def test_plane_identity(self, euclid3):
        ind = induced_metric(plane3(), euclid3, [0.4, -0.9])
        assert ind.g == pytest.approx(np.eye(2), abs=1e-14)

    def test_clifford_half_identity(self, euclid4):
        # direct dot-product oracle: |∂Ψ/∂uᵢ|² = rᵢ² = 1/2
        ind = induced_metric(clifford(), euclid4, [0.8, 1.7])
        assert ind.g == pytest.approx(0.5 * np.eye(2), abs=1e-13)

    def test_vertex_cone_warped_form(self, euclid4):
        # g = ds² + (0.8 s)² dt²; |V^tan| separately follows s/sqrt(1+s²)
        s = 1.3
        ind = induced_metric(vertex_cone4(), euclid4, [s, 2.0])
        assert ind.g == pytest.approx(np.diag([1.0, 0.64 * s * s]), abs=1e-12)

    def test_vertex_cone_tangential_norm_law(self, euclid4):
        imm = vertex_cone4()
        field = radial_unit_field(4)
        for s in (0.6, 1.3, 2.4):
            pk = frames(imm, euclid4, [s, 1.0], field=field)
            assert pk.v_tan_norm == pytest.approx(s / np.sqrt(1 + s * s), abs=1e-12)

    def test_second_jets_against_sphere_chart(self, euclid3, sphere_chart):
        # induced metric of the embedded unit sphere must reproduce the chart
        # metric with its derivatives
        u = [0.9, 1.4]
        ind = induced_metric(sphere3(), euclid3, u)
        chart = sphere_chart.at(u, order=2)
        assert ind.g == pytest.approx(chart.g, abs=1e-12)
        assert ind.dg == pytest.approx(chart.dg, abs=1e-10)
        assert ind.d2g == pytest.approx(chart.d2g, abs=1e-9)

    def test_hemisphere_in_hyperbolic_space_has_curvature_minus_one(self):
        # the totally geodesic H² ⊂ H³ in the chart ds² + e^{2s}(dx² + dy²)
        metric = MetricField([["1"], ["0", "exp(2*x1)"], ["0", "0", "exp(2*x1)"]])
        imm = Immersion(["-0.5*log(1-u1^2-u2^2)", "u1", "u2"], n=2)
        us = np.random.default_rng(5).uniform(-0.6, 0.6, (9, 2))
        for u in (us, us[0]):
            K = plane_curvature(induced_metric(imm, metric, u), [1.0, 0.0], [0.0, 1.0])[0]
            assert np.all(np.abs(K + 1.0) <= 1e-12)

    def test_rank_deficiency_detected(self, euclid3):
        pinched = Immersion(["u1", "u1", "0"], n=2, domain=[[0, 1], [0, 1]])
        with pytest.raises(RankDeficiencyError):
            induced_metric(pinched, euclid3, [0.5, 0.5])

    def test_developable_edge_of_regression_rejected(self, euclid3):
        # ruling parameter 0 is the edge of regression; the scene domain
        # keeps it out, and evaluating there must fail loudly
        with pytest.raises(RankDeficiencyError):
            frames(developable(), euclid3, [1.0, 0.0])


class TestFrames:
    def test_plane_normal(self, euclid3):
        pk = frames(plane3(), euclid3, [1.0, 2.0])
        assert abs(pk.normals[0] @ np.array([0, 0, 1.0])) == pytest.approx(1.0)

    def test_orthonormality_invariants(self, euclid4):
        pk = frames(vertex_cone4(), euclid4, [1.1, 0.7])
        full = np.vstack([pk.tangents, pk.normals])
        gram = full @ pk.g_ambient @ full.T
        assert gram == pytest.approx(np.eye(4), abs=1e-10)

    def test_sphere_normal_is_radial(self, euclid3):
        pk = frames(sphere3(), euclid3, [0.7, 0.2])
        radial = pk.x / np.linalg.norm(pk.x)
        assert abs(pk.normals[0] @ radial) == pytest.approx(1.0, abs=1e-12)

    def test_clifford_radial_field_in_normal_space(self, euclid4):
        pk = frames(clifford(), euclid4, [0.0, 0.0], field=radial_unit_field(4))
        assert pk.v_tan_norm <= 1e-12
        assert pk.v_nor_norm == pytest.approx(1.0, abs=1e-12)

    def test_reconstruction_of_random_vectors(self, euclid4):
        rng = np.random.default_rng(11)
        for imm in (clifford(), vertex_cone4()):
            for _ in range(5):
                u = [rng.uniform(0.5, 2.0), rng.uniform(0.2, 6.0)]
                pk = frames(imm, euclid4, u)
                w = rng.standard_normal(4)
                split = decompose_field(pk, w)
                back = split.v_tan + split.v_nor
                assert back == pytest.approx(w, abs=1e-9)

    @pytest.mark.parametrize("u, where", [([0.5, 0.5], [0.5, 0.5]),
                                          ([[0.2, 0.3], [0.5, 0.5]], [0.2, 0.3])])
    def test_uniformly_tiny_tangents_collapse(self, euclid3, u, where):
        # J = 1e-11·I passes the relative singular-value test, but each
        # residual of the Gram-Schmidt is at most rank_tol·max(1, |∂_iΨ|)
        tiny = Immersion(["1e-11*u1", "1e-11*u2", "0"], n=2, domain=[[0, 1], [0, 1]])
        with pytest.raises(RankDeficiencyError,
                           match=rf"^tangent frame collapsed at u=\[{where[0]}, {where[1]}\]$"):
            frames(tiny, euclid3, u)

    def test_tangent_coeff_consistency(self, euclid4):
        pk = frames(vertex_cone4(), euclid4, [1.4, 2.2])
        rebuilt = pk.tangent_coeffs @ pk.jacobian.T
        assert rebuilt == pytest.approx(pk.tangents, abs=1e-12)


class TestSecondFundamentalForm:
    def test_plane_totally_geodesic(self, euclid3):
        h = frames(plane3(), euclid3, [0.3, 0.3]).h_frame
        assert np.max(np.abs(h)) <= 1e-12

    def test_sphere_constant_curvature_oracle(self, euclid3):
        # h(X, Y) = −g(X, Y) N/r with N the outward radial
        for r in (1.0, 2.0):
            imm = sphere3(r)
            pk = frames(imm, euclid3, [1.1, 0.4])
            outward = pk.x / np.linalg.norm(pk.x)
            sign = np.sign(pk.normals[0] @ outward)
            for i in range(2):
                for j in range(2):
                    expected = -(1.0 if i == j else 0.0) / r
                    assert pk.h_frame[0, i, j] * sign == pytest.approx(
                        expected, abs=1e-10), (r, i, j)

    def test_developable_rank_and_det(self, euclid3):
        pk = frames(developable(), euclid3, [1.0, 0.8])
        a = shape_operator(pk, pk.normals[0])
        assert abs(np.linalg.det(a)) <= 1e-12
        assert np.linalg.matrix_rank(a, tol=1e-10) <= 1

    def test_cone_rank_one(self, euclid3):
        # a cone is flat along its rulings and curved across them
        pk = frames(cone3(), euclid3, [1.0, 0.5])
        s = np.linalg.svd(pk.h_frame[0], compute_uv=False)
        assert s[0] > 0.1 and s[1] <= 1e-12 * s[0]

    def test_h_symmetry(self, euclid4):
        pk = frames(vertex_cone4(), euclid4, [1.7, 3.0])
        assert pk.h_frame == pytest.approx(pk.h_frame.transpose(0, 2, 1), abs=1e-12)

    def test_h_tensorial_in_arguments(self, euclid3):
        pk = frames(sphere3(), euclid3, [1.2, 0.9])
        rng = np.random.default_rng(3)
        X, Y, Z = rng.standard_normal((3, 2))
        a, b = 1.7, -0.4

        def h_of(v, w):
            return np.einsum("ijc,i,j->c", pk.h_coord, v, w)

        lhs = h_of(a * X + b * Y, Z)
        rhs = a * h_of(X, Z) + b * h_of(Y, Z)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestShapeOperator:
    def test_plane_zero(self, euclid3):
        pk = frames(plane3(), euclid3, [0.1, 0.9])
        assert np.max(np.abs(shape_operator(pk, pk.normals[0]))) <= 1e-12

    def test_clifford_minus_identity(self, euclid4):
        pk = frames(clifford(), euclid4, [0.8, 1.7], field=radial_unit_field(4))
        a = shape_operator(pk, pk.v_nor)
        assert a == pytest.approx(-np.eye(2), abs=1e-10)

    def test_sphere_minus_identity(self, euclid3):
        pk = frames(sphere3(1.0), euclid3, [1.0, 0.3])
        outward = pk.x / np.linalg.norm(pk.x)
        a = shape_operator(pk, outward)
        assert a == pytest.approx(-np.eye(2), abs=1e-10)

    def test_linearity_and_duality(self, euclid4):
        pk = frames(vertex_cone4(), euclid4, [1.5, 2.5])
        rng = np.random.default_rng(8)
        c = rng.standard_normal(2)
        xi = c @ pk.normals
        a = shape_operator(pk, xi)
        a_sum = c[0] * shape_operator(pk, pk.normals[0]) \
            + c[1] * shape_operator(pk, pk.normals[1])
        assert a == pytest.approx(a_sum, abs=1e-10)
        # duality g(A_ξ X, Y) = g̃(h(X, Y), ξ) for random frame vectors
        X, Y = rng.standard_normal((2, 2))
        lhs = X @ a @ Y
        h_xy = np.einsum("aij,i,j->a", pk.h_frame, X, Y)
        xi_frame = np.array([pk.inner(xi, nu) for nu in pk.normals])
        assert lhs == pytest.approx(float(h_xy @ xi_frame), abs=1e-9)

    def test_symmetry(self, euclid4):
        pk = frames(vertex_cone4(), euclid4, [2.2, 1.0])
        a = shape_operator(pk, pk.normals[1])
        assert a == pytest.approx(a.T, abs=1e-9)

    def test_non_normal_rejected(self, euclid3):
        pk = frames(sphere3(), euclid3, [1.0, 0.3])
        with pytest.raises(NonNormalVectorError):
            shape_operator(pk, pk.normals[0] + 0.5 * pk.tangents[0])


def mean_curvature(pk):
    """H = (1/n) Σᵢ h(eᵢ, eᵢ), an ambient normal vector, from the packet's h."""
    traces = np.einsum("...aii->...a", pk.h_frame)
    return np.einsum("...a,...ak->...k", traces, pk.normals) / pk.n


class TestMeanCurvature:
    def test_plane_zero(self, euclid3):
        pk = frames(plane3(), euclid3, [1.0, 1.0])
        assert np.linalg.norm(mean_curvature(pk)) <= 1e-12

    @pytest.mark.parametrize("r,expected", [(1.0, 1.0), (2.0, 0.5)])
    def test_sphere_magnitude(self, euclid3, r, expected):
        pk = frames(sphere3(r), euclid3, [0.9, 0.6])
        assert np.linalg.norm(mean_curvature(pk)) == pytest.approx(expected, abs=1e-10)

    def test_frame_independent_magnitude(self, euclid4):
        # coordinate formula H = (1/n) g^{ij} h(∂ᵢ, ∂ⱼ) as the oracle
        pk = frames(vertex_cone4(), euclid4, [1.9, 4.0])
        ginv = np.linalg.inv(pk.g_coord)
        h_coord_trace = np.einsum("ij,ija->a", ginv, pk.h_coord) / pk.n
        assert np.linalg.norm(mean_curvature(pk)) == pytest.approx(
            np.linalg.norm(h_coord_trace), abs=1e-11)


    def test_batched_packet(self, euclid3):
        # each row is the mean curvature of its point's one-point packet
        batched = mean_curvature(frames(sphere3(2.0), euclid3, SPHERE_US))
        assert batched.shape == (3, 3)
        for u, row in zip(SPHERE_US, batched):
            assert row == pytest.approx(mean_curvature(frames(sphere3(2.0), euclid3, u)),
                                        abs=1e-14)
        assert np.linalg.norm(batched, axis=-1) == pytest.approx([0.5] * 3, abs=1e-10)


class TestDecomposition:
    def test_cone_radial_tangent(self, euclid3):
        pk = frames(cone3(), euclid3, [1.2, 0.8], field=radial_unit_field(3))
        assert pk.v_nor_norm <= 1e-12
        assert pk.v_tan_norm == pytest.approx(1.0, abs=1e-12)

    def test_clifford_radial_normal(self, euclid4):
        pk = frames(clifford(), euclid4, [2.0, 5.0], field=radial_unit_field(4))
        assert pk.v_tan_norm <= 1e-12

    def test_plane_coordinate_field(self, euclid3):
        pk = frames(plane3(), euclid3, [0.5, 0.5])
        split = decompose_field(pk, np.array([1.0, 0.0, 0.0]))
        assert split.nor_norm <= 1e-14
        assert split.v_tan == pytest.approx([1, 0, 0], abs=1e-14)

    def test_reconstruction(self, euclid4):
        pk = frames(vertex_cone4(), euclid4, [1.0, 1.0])
        rng = np.random.default_rng(9)
        w = rng.standard_normal(4)
        split = decompose_field(pk, w)
        assert split.v_tan + split.v_nor == pytest.approx(w, abs=1e-10)
        assert abs(pk.inner(split.v_tan, split.v_nor)) <= 1e-10


class TestGaussEquation:
    def test_plane_zero(self, euclid3):
        rng = np.random.default_rng(10)
        X, Y, Z, W = rng.standard_normal((4, 2))
        assert gauss_equation_residual(plane3(), euclid3, [0.7, 0.1],
                                       X, Y, Z, W) <= 1e-12

    def test_sphere_intrinsic_curvature_route(self, euclid3):
        # orthonormal X = Z, Y = W: intrinsic K equals 0 + |h|² term; the
        # residual compares both toolkit routes and a constant-curvature check
        imm = sphere3(1.0)
        u = [1.0, 0.5]
        ind = induced_metric(imm, euclid3, u)
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0 / np.sin(1.0)])
        k_int = float(riemann(ind, e1, e2, e2) @ ind.g @ e1)
        assert k_int == pytest.approx(1.0, abs=1e-9)
        assert gauss_equation_residual(imm, euclid3, u, e1, e2, e2, e1) <= 1e-10

    def test_developable_flat_both_sides(self, euclid3):
        rng = np.random.default_rng(12)
        for _ in range(5):
            u = [rng.uniform(0.2, 6.0), rng.uniform(0.3, 1.9)]
            X, Y, Z, W = rng.standard_normal((4, 2))
            assert gauss_equation_residual(developable(), euclid3, u,
                                           X, Y, Z, W) <= 1e-9

    def test_totally_geodesic_detector(self, euclid3, euclid4):
        # affine subspaces of Euclidean scenes have |h| below 1e-9
        offset_plane = Immersion(["u1", "u2", "1"], n=2, domain=[[-2, 2], [-2, 2]])
        line4 = Immersion(["u1", "2*u1", "1", "0.5"], n=1, domain=[[-2, 2]])
        for imm, metric in ((plane3(), euclid3), (offset_plane, euclid3),
                            (line4, euclid4)):
            rng = np.random.default_rng(13)
            for _ in range(5):
                u = rng.uniform(-1.5, 1.5, size=imm.n)
                pk = frames(imm, metric, u)
                assert np.max(np.abs(pk.h_frame)) <= 1e-9


def psi_with(jac) -> list:
    """Ψ's order-1 jets over a batch whose Jacobians are jac, (N, m, n)."""
    N, m, n = jac.shape
    return [Jet(1, n, [np.zeros(N), np.ascontiguousarray(jac[:, a, :].T)]) for a in range(m)]


def svd_rule(psi, u, tols):
    """_jacobian as the SVD alone judges it, at every point: the rule that
    the screen may skip but never changes."""
    jac = _batch_first(np.array([p.d[1] for p in psi]), 2)
    sv = np.linalg.svd(jac, compute_uv=False)
    bad = sv[..., -1] <= tols.rank_tol * sv[..., 0]
    if np.any(bad):
        raise RankDeficiencyError(
            f"immersion is degenerate at u={first_where(bad, np.asarray(u)).tolist()}: "
            f"singular values {first_where(bad, sv).tolist()}")
    return jac


def outcome(judge, jac, rank_tol):
    """What judge(ψ, u, tols) gives: the Jacobian's bytes or the exception."""
    u = np.arange(2.0 * len(jac)).reshape(-1, 2)
    with quiet():
        try:
            return "ok", judge(psi_with(jac), u, Tolerances(rank_tol=rank_tol)).tobytes()
        except Exception as err:        # the SVD's own LinAlgError included
            return type(err).__name__, str(err)


def count_svds(monkeypatch) -> list:
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    return calls


_points = st.lists(st.tuples(st.booleans(), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                   min_size=1, max_size=5)


class TestRankScreen:
    """_jacobian skips its SVD where det K > max(1e-8, 4·rank_tol²)·(tr K)ⁿ,
    K = JᵀJ, holds at every point; it must raise, with the same message,
    exactly where the SVD rule σₙ <= rank_tol·σ₁ does."""

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(n=st.integers(1, 3), extra=st.integers(1, 2), points=_points,
           rank_tol=st.sampled_from([1e-10, 1e-6, 1e-3, 0.05, 0.3]),
           scale=st.sampled_from([1e-150, 1e-100, 1e-20, 1.0, 1e20, 1e100, 1e150]),
           spoil=st.sampled_from([None, "nan", "inf", "-inf", "zero"]),
           seed=st.integers(0, 2**32 - 1))
    def test_the_screen_raises_exactly_where_the_svd_rule_does(self, n, extra, points,
                                                               rank_tol, scale, spoil, seed):
        # σ₁ = 1 and σₙ/σ₁ = rank_tol·10^d (near) or 10^((d − 1)/2) at each point
        rng = np.random.default_rng(seed)
        m = n + extra
        jac = []
        for near, d, size in points:
            ratio = min(rank_tol * 10.0 ** d if near else 10.0 ** ((d - 1.0) / 2.0), 1.0)
            middle = np.sort(rng.uniform(ratio, 1.0, max(n - 2, 0)))[::-1]
            sigma = np.concatenate(([1.0], middle, [ratio]))[:n]
            U = np.linalg.qr(rng.standard_normal((m, m)))[0][:, :n]
            V = np.linalg.qr(rng.standard_normal((n, n)))[0]
            jac.append(scale * 10.0 ** size * (U * sigma) @ V.T)
        jac = np.array(jac)
        if spoil is not None:
            at, row = rng.integers(len(jac)), rng.integers(m)
            jac[at, row] = 0.0 if spoil == "zero" else float(spoil)
        assert outcome(_jacobian, jac, rank_tol) == outcome(svd_rule, jac, rank_tol)

    def test_a_well_conditioned_batch_runs_no_svd(self, monkeypatch):
        svds = count_svds(monkeypatch)
        jac = np.random.default_rng(1).standard_normal((50, 4, 3))
        assert outcome(_jacobian, jac, 1e-10) == outcome(svd_rule, jac, 1e-10)
        assert len(svds) == 1       # the rule's, not the screen's

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    @pytest.mark.parametrize("spoil", [None, np.nan, np.inf])
    def test_what_the_screen_cannot_certify_goes_to_the_svd(self, monkeypatch, scale, spoil):
        # det K and (tr K)ⁿ underflow or overflow, or a point is not finite
        jac = np.random.default_rng(2).standard_normal((6, 3, 2))
        jac[3, 1] = jac[3, 1] if spoil is None else spoil
        jac *= scale
        with quiet():
            assert not _full_rank(jac, 1e-10)
        svds = count_svds(monkeypatch)
        assert outcome(_jacobian, jac, 1e-10) == outcome(svd_rule, jac, 1e-10)
        assert len(svds) == 2

    def test_a_scene_rank_tol_reaches_the_svd_rule(self, monkeypatch):
        # the cone's σ₂/σ₁ is min(u1, √2)/max(u1, √2) >= 0.35 on u1 in
        # [0.5, 2]: rank_tol 0.5 refuses the points with u1 < 0.71, and 0.3
        # refuses none, though the screen certifies no point under it
        # (det K/(tr K)² <= 1/4 < 4·0.3²), so the SVD judges every point
        svds = count_svds(monkeypatch)
        doc = BUILTIN_DOCUMENTS["cone"]
        default = json.loads(report_to_json(run(load_scene(doc), points=50)))
        assert svds == []
        loose = load_scene(dict(doc, tolerances={"rank_tol": 0.3}))
        assert json.loads(report_to_json(run(loose, points=50)))["checks"] == default["checks"]
        assert len(svds) == 1
        strict = run(load_scene(dict(doc, tolerances={"rank_tol": 0.5})), points=50)
        assert [c.status for c in strict.checks] == ["error", "error"]
        details = strict.checks[0].details
        assert details["error"] == "RankDeficiencyError"
        sv = re.fullmatch(r"immersion is degenerate at u=\[(.*), .*\]: "
                          r"singular values \[(.*), (.*)\]", details["message"])
        assert float(sv[1]) < 1 / np.sqrt(2) and float(sv[3]) <= 0.5 * float(sv[2])
