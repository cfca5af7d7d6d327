"""Connection and curvature against hand-derived closed forms.

Koszul oracles used below (all worked out by hand from
Γᵏᵢⱼ = ½ gᵏˡ (∂ᵢ g_lj + ∂ⱼ g_li − ∂ˡ g_ij)):

  warped  ds² + e^{2s} dt²:  Γᵗ_st = 1,  Γˢ_tt = −e^{2s},  K = −1
  sphere  dθ² + sin²θ dφ²:   Γᶿ_φφ = −sinθ cosθ,  Γᵠ_θφ = cotθ,  K = +1
  polar   dr² + r² dθ²:      Γʳ_θθ = −r,  Γᶿ_rθ = 1/r,  K = 0
"""

import numpy as np
import pytest

from conftest import radial_unit_field
from torseform import (MetricField, VectorField, christoffel,
                       covariant_derivative, riemann, riemann_components,
                       sectional_curvature)
from torseform.errors import (DegeneratePlaneError, OrderInsufficientError,
                              PreconditionError, SingularMetricError)
from torseform import expr as ex
from torseform.classify import fit_at_point
from torseform.jets import jet_variables
from torseform.metric import MetricAtPoint, VectorAtPoint


class TestChristoffel:
    def test_euclidean_flat(self, euclid3):
        gamma = christoffel(euclid3.at([0.3, -1.2, 2.0], order=1))
        assert np.max(np.abs(gamma)) == 0.0

    def test_warped_oracle(self, warped_chart):
        s = 0.7
        gamma = christoffel(warped_chart.at([s, 0.2], order=1))
        assert gamma[1, 0, 1] == pytest.approx(1.0, abs=1e-12)
        assert gamma[1, 1, 0] == pytest.approx(1.0, abs=1e-12)
        assert gamma[0, 1, 1] == pytest.approx(-np.exp(2 * s), abs=1e-12)

    def test_sphere_oracle(self, sphere_chart):
        th = np.pi / 4
        gamma = christoffel(sphere_chart.at([th, 1.0], order=1))
        assert gamma[0, 1, 1] == pytest.approx(-0.5, abs=1e-12)
        assert gamma[1, 0, 1] == pytest.approx(1.0 / np.tan(th), abs=1e-12)

    def test_polar_oracle(self, polar_chart):
        r = 1.7
        gamma = christoffel(polar_chart.at([r, 0.4], order=1))
        assert gamma[0, 1, 1] == pytest.approx(-r, abs=1e-12)
        assert gamma[1, 0, 1] == pytest.approx(1.0 / r, abs=1e-12)

    def test_symmetry_exact(self, sphere_chart):
        gamma = christoffel(sphere_chart.at([0.9, 0.3], order=1))
        assert np.array_equal(gamma, gamma.transpose(0, 2, 1))

    def test_metric_compatibility(self):
        # ∂_k g_ij = Γˡ_ki g_lj + Γˡ_kj g_il at random points of every
        # built-in ambient metric
        from torseform import builtin_names, builtin_scene
        rng = np.random.default_rng(5)
        for name in builtin_names():
            scene = builtin_scene(name)
            from torseform import sample_ambient_points
            for p in sample_ambient_points(scene, 5, rng):
                mp = scene.metric.at(p, order=1)
                gamma = christoffel(mp)
                lhs = mp.dg
                rhs = (np.einsum("lki,lj->kij", gamma, mp.g)
                       + np.einsum("lkj,il->kij", gamma, mp.g))
                assert np.max(np.abs(lhs - rhs)) <= 1e-9, name

    def test_singular_metric_rejected(self):
        degenerate = MetricField([["x1^2"], ["0", "1"]])
        with pytest.raises(SingularMetricError):
            degenerate.at([0.0, 1.0], order=1)


class TestRiemann:
    def test_flat(self, euclid3):
        mp = euclid3.at([1.0, 2.0, 3.0], order=2)
        rng = np.random.default_rng(0)
        for _ in range(5):
            X, Y, Z = rng.standard_normal((3, 3))
            assert np.max(np.abs(riemann(mp, X, Y, Z))) <= 1e-14

    def test_sphere_constant_curvature_oracle(self, sphere_chart):
        # real space form with c = 1: R(X,Y)Z = g(Y,Z)X − g(X,Z)Y
        rng = np.random.default_rng(1)
        for _ in range(10):
            th = rng.uniform(0.4, 2.7)
            mp = sphere_chart.at([th, rng.uniform(0, 6)], order=2)
            X, Y, Z = rng.standard_normal((3, 2))
            expected = mp.inner(Y, Z) * X - mp.inner(X, Z) * Y
            got = riemann(mp, X, Y, Z)
            assert np.max(np.abs(got - expected)) <= 1e-9

    def test_orthonormal_pair_maps_v_to_u(self, sphere_chart):
        th = 1.1
        mp = sphere_chart.at([th, 0.0], order=2)
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0 / np.sin(th)])
        assert riemann(mp, u, v, v) == pytest.approx(u, abs=1e-10)

    def test_antisymmetry_xy(self, warped_chart):
        mp = warped_chart.at([0.4, 0.8], order=2)
        rng = np.random.default_rng(2)
        X, Y, Z = rng.standard_normal((3, 2))
        assert np.max(np.abs(riemann(mp, X, Y, Z) + riemann(mp, Y, X, Z))) <= 1e-12
        assert np.max(np.abs(riemann(mp, X, X, Z))) <= 1e-12

    def test_first_bianchi(self):
        twisted = MetricField([["1"], ["0", "(exp(x1)*(1+x2^2/4))^2"],
                               ["0", "0", "(exp(x1)*(1+x2^2/4))^2"]])
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = rng.uniform(-0.6, 0.6, size=3)
            mp = twisted.at(p, order=2)
            X, Y, Z = rng.standard_normal((3, 3))
            total = (riemann(mp, X, Y, Z) + riemann(mp, Y, Z, X)
                     + riemann(mp, Z, X, Y))
            assert np.max(np.abs(total)) <= 1e-8

    def test_pair_antisymmetry_zw(self, sphere_chart):
        mp = sphere_chart.at([0.8, 0.1], order=2)
        rng = np.random.default_rng(4)
        for _ in range(5):
            X, Y, Z, W = rng.standard_normal((4, 2))
            a = riemann(mp, X, Y, Z) @ mp.g @ W
            b = riemann(mp, X, Y, W) @ mp.g @ Z
            assert abs(a + b) <= 1e-8

    def test_tensoriality_in_x(self, warped_chart):
        mp = warped_chart.at([0.2, -0.3], order=2)
        rng = np.random.default_rng(6)
        X, Y, Z = rng.standard_normal((3, 2))
        assert np.max(np.abs(riemann(mp, 3.5 * X, Y, Z)
                             - 3.5 * riemann(mp, X, Y, Z))) <= 1e-10

    def test_order_insufficient(self, sphere_chart):
        mp = sphere_chart.at([1.0, 0.0], order=1)
        with pytest.raises(OrderInsufficientError):
            riemann_components(mp)


class TestSectional:
    def test_flat_zero(self, euclid3):
        mp = euclid3.at([0.0, 1.0, 0.0], order=2)
        assert sectional_curvature(mp, [1, 0, 0], [0, 1, 1]) == pytest.approx(0.0, abs=1e-14)

    def test_sphere_radius_two(self):
        chart = MetricField([["4"], ["0", "4*sin(x1)^2"]])
        mp = chart.at([0.9, 2.0], order=2)
        assert sectional_curvature(mp, [1, 0], [0, 1]) == pytest.approx(0.25, abs=1e-12)

    def test_plane_invariance(self, sphere_chart):
        mp = sphere_chart.at([1.2, 0.5], order=2)
        u = np.array([1.0, 0.3])
        v = np.array([-0.2, 2.0])
        k1 = sectional_curvature(mp, u, v)
        k2 = sectional_curvature(mp, 2 * u + v, v)
        assert k1 == pytest.approx(k2, abs=1e-10)

    def test_degenerate_plane(self, sphere_chart):
        mp = sphere_chart.at([1.2, 0.5], order=2)
        u = np.array([1.0, 0.3])
        with pytest.raises(DegeneratePlaneError):
            sectional_curvature(mp, u, 2.0 * u)


class TestCovariantDerivative:
    def test_constant_field_parallel(self, euclid4):
        field = VectorField(["1", "2", "3", "4"])
        p = [0.5, 1.0, -2.0, 0.1]
        out = covariant_derivative(euclid4.at(p, order=1), field.at(p), [1, 1, 0, 0])
        assert np.max(np.abs(out)) == 0.0

    def test_position_field(self, euclid4):
        field = VectorField(["x1", "x2", "x3", "x4"])
        p = [0.5, 1.0, -2.0, 0.1]
        X = np.array([0.3, -1.0, 0.0, 2.0])
        out = covariant_derivative(euclid4.at(p, order=1), field.at(p), X)
        assert out == pytest.approx(X, abs=1e-14)

    def test_unit_radial_projector(self, euclid4):
        field = radial_unit_field(4)
        p = [1.0, 0.0, 0.0, 0.0]
        X = np.array([0.0, 1.0, 0.0, 0.0])
        out = covariant_derivative(euclid4.at(p, order=1), field.at(p), X)
        assert out == pytest.approx(X, abs=1e-12)

    def test_jacobian_required(self, euclid3):
        mp = euclid3.at([0, 0, 1], order=1)
        with pytest.raises(PreconditionError):
            covariant_derivative(mp, VectorAtPoint(np.ones(3)), [1, 0, 0])

    def test_warped_field_matches_hand_computation(self, warped_chart):
        # V = d/ds on ds² + e^{2s} dt²: ∇_{∂t} V = ∂t, ∇_{∂s} V = 0
        field = VectorField(["1", "0"], dim=2)
        p = [0.4, 1.1]
        mp = warped_chart.at(p, order=1)
        assert covariant_derivative(mp, field.at(p), [0, 1]) == pytest.approx(
            [0.0, 1.0], abs=1e-12)
        assert covariant_derivative(mp, field.at(p), [1, 0]) == pytest.approx(
            [0.0, 0.0], abs=1e-12)


class TestVectorFieldJets:
    def test_unit_at_matches_closed_form(self, euclid3):
        # d(V/|V|) for V = E: jacobian (I − x̂ x̂ᵀ)/|x|
        field = VectorField(["x1", "x2", "x3"])
        p = np.array([1.0, 2.0, 2.0])
        unit = field.unit_at(p, euclid3)
        r = np.linalg.norm(p)
        xhat = p / r
        expected = (np.eye(3) - np.outer(xhat, xhat)) / r
        assert unit.components == pytest.approx(xhat, abs=1e-14)
        assert unit.jacobian == pytest.approx(expected, abs=1e-12)

    def test_norm_jet_gradient(self, euclid3):
        field = VectorField(["x1", "x2", "x3"])
        p = np.array([1.0, 2.0, 2.0])
        nj = field.norm_jet(p, euclid3)
        assert nj.value == pytest.approx(3.0)
        assert nj.gradient() == pytest.approx(p / 3.0, abs=1e-13)

    @pytest.mark.parametrize("source", [
        ["x1/sqrt(x1^2+x2^2+x3^2)", "x2*exp(-x3)", "1"],
        ["atan(x1)*cosh(x2)", "log(x1+x2)^1.5", "x3"],
    ])
    def test_a_point_reads_alike_from_a_list_a_tuple_or_an_array(self, source):
        # order 0 at one point reads V on the coordinates as given: a list or
        # a tuple of floats, of numpy scalars, or an array give the same
        # components, bit for bit, those of the point's row of a batch
        field = VectorField(source)
        points = np.random.default_rng(4).uniform(0.1, 3.0, size=(50, 3))
        for p, want in zip(points, field.at(points, order=0).components):
            for form in (p.tolist(), tuple(p.tolist()), list(p), p):
                got = field.at(form, order=0).components
                assert type(got) is np.ndarray and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("form", [list, tuple, np.array])
    @pytest.mark.parametrize("point", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0]])
    def test_a_point_of_the_wrong_length_is_refused_in_every_form(self, form, point):
        with pytest.raises(ValueError, match="^names/values length mismatch$"):
            VectorField(["x1", "x2", "x3"]).at(form(point), order=0)


def walked(metric, point, order):
    """The metric data from a walk of every entry, held or not."""
    env = jet_variables(metric.var_names, point, order)
    return MetricAtPoint.from_jets(point, metric.entry_jets(env), order, metric.spd_tol)


class TestConstantMetric:
    """A metric whose entries have no free variables is walked and checked
    once; every later call must give what a walk gives."""

    DENSE = [["2"], ["0.5", "3"], ["-0.25", "sqrt(2)/3", "1.5"]]

    @pytest.mark.parametrize("entries", [DENSE, "euclidean"])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_held_data_equal_a_walk(self, entries, order):
        metric = MetricField.euclidean(3) if entries == "euclidean" else MetricField(entries)
        assert metric.constant
        rng = np.random.default_rng(order)
        for points in (rng.uniform(-2, 2, 3), rng.uniform(-2, 2, (7, 3))):
            for _ in range(2):                  # the first call and a held one
                held, walk = metric.at(points, order), walked(metric, points, order)
                for name in ("point", "g", "dg", "d2g", "factor", "coframe", "inverse"):
                    a, b = getattr(held, name), getattr(walk, name)
                    assert (a is None and b is None) or (
                        np.array_equal(a, b) and a.shape == b.shape
                        and np.signbit(a).tolist() == np.signbit(b).tolist())
                # the layout too: products with g round by it
                assert held.g.strides == walk.g.strides
                assert held.factor.strides == walk.factor.strides

    @pytest.mark.parametrize("entries", [DENSE, "euclidean"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_held_connection_equals_a_walk(self, entries, order):
        # Γ and R of a constant metric are held as zeros; they must be what
        # christoffel/riemann_components give for the walked data, bit for bit
        metric = MetricField.euclidean(3) if entries == "euclidean" else MetricField(entries)
        rng = np.random.default_rng(10 + order)
        for points in (rng.uniform(-2, 2, 3), rng.uniform(-2, 2, (7, 3))):
            held, walk = metric.at(points, order), walked(metric, points, order)
            pairs = [(held.gamma, christoffel(walk))]
            if order >= 2:
                pairs.append((held.curvature, riemann_components(walk)))
            for a, b in pairs:
                assert a.shape == b.shape and np.array_equal(a, b)
                assert np.signbit(a).tolist() == np.signbit(b).tolist()

    @pytest.mark.parametrize("entries, runs", [(DENSE, 0), ("euclidean", 0),
                                               ([["1"], ["0", "x1^2"]], 1)])
    def test_connection_is_computed_only_where_the_metric_curves(self, monkeypatch,
                                                                   entries, runs):
        import torseform.metric as metric_module
        calls = {"christoffel": 0, "riemann_components": 0}
        for name in calls:
            def counted(mp, _name=name, _fn=getattr(metric_module, name)):
                calls[_name] += 1
                return _fn(mp)
            monkeypatch.setattr(metric_module, name, counted)
        metric = MetricField.euclidean(3) if entries == "euclidean" else MetricField(entries)
        points = np.random.default_rng(3).uniform(0.5, 2, (5, metric.dim))
        for at in (points, points[0]):
            mp = metric.at(at, order=2)
            assert mp.gamma.shape == mp.curvature.shape[:-1]
        assert calls == {"christoffel": 2 * runs, "riemann_components": 2 * runs}

    @pytest.mark.parametrize("entries, runs", [(DENSE, 0), ("euclidean", 0),
                                               ([["1"], ["0", "x1^2"]], 2)])
    def test_coframe_is_computed_only_where_the_metric_varies(self, monkeypatch,
                                                                entries, runs):
        # a constant metric holds its coframe after the first call, so g⁻¹
        # is one product; a varying one takes L⁻¹ at every call
        import torseform.metric as metric_module
        calls = []
        real = metric_module.lower_inverse
        monkeypatch.setattr(metric_module, "lower_inverse",
                            lambda L: calls.append(L.shape) or real(L))
        metric = MetricField.euclidean(3) if entries == "euclidean" else MetricField(entries)
        points = np.random.default_rng(4).uniform(0.5, 2, (5, metric.dim))
        metric.at(points, order=1).inverse
        calls.clear()
        for at in (points, points[0]):
            mp = metric.at(at, order=1)
            identity = np.broadcast_to(np.eye(metric.dim), mp.g.shape)
            assert np.allclose(mp.inverse @ mp.g, identity, rtol=0, atol=1e-14)
            assert np.allclose(mp.coframe @ mp.g @ np.swapaxes(mp.coframe, -1, -2),
                               identity, rtol=0, atol=1e-14)
        assert len(calls) == runs

    def test_held_fit_equals_walked_fit(self):
        metric = MetricField(self.DENSE)
        field = VectorField(["x1*x2", "x2+x3^2", "1+x1"])
        points = np.random.default_rng(5).uniform(0.5, 2, (9, 3))
        vap = field.at(points, 1)
        held = fit_at_point(metric.at(points, 1), vap)
        walk = fit_at_point(walked(metric, points, 1), vap)
        for name in ("f", "omega", "residual_torse", "residual_antitorqued"):
            assert np.array_equal(getattr(held, name), getattr(walk, name))

    def test_non_spd_metric_raises_the_same_error_every_call(self):
        metric = MetricField([["1"], ["2", "1"]])
        with pytest.raises(SingularMetricError) as walk:
            walked(metric, [0.5, 0.5], 0)
        for points in ([0.5, 0.5], np.ones((4, 2)), [0.1, 0.2]):
            with pytest.raises(SingularMetricError) as held:
                metric.at(points, order=1)
            assert str(held.value) == str(walk.value)

    def test_bad_point_shape_is_refused(self):
        with pytest.raises(ValueError, match="names/values length mismatch"):
            MetricField.euclidean(3).at([1.0, 2.0], order=0)

    def test_metric_with_a_variable_is_walked(self):
        assert not MetricField([["1"], ["0", "x1^2"]]).constant


@pytest.mark.parametrize("points", [[0.3, -1.2, 2.0, 0.5],
                                    [[0.3, -1.2, 2.0, 0.5], [1.0, 2.0, 0.1, -0.4]]])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_radial_field_walks_its_radius_once(monkeypatch, points, order):
    # x_i / sqrt(x1^2 + ... + x4^2): the four components share the sqrt
    sqrt = ex.FUNCTIONS["sqrt"]
    calls = []

    def counted(x, k):
        calls.append(k)
        return sqrt.derivatives(x, k)

    monkeypatch.setitem(ex.FUNCTIONS, "sqrt", ex.Function(1, counted))
    field = radial_unit_field(4)
    at = field.at(np.array(points), order=order)
    assert calls == [order]
    x = np.array(points)
    r = np.linalg.norm(x, axis=-1, keepdims=True)
    assert np.allclose(at.components, x / r, rtol=1e-15, atol=0.0)
