"""A sample is evaluated in one batch: jets with a trailing batch axis,
geometry with a leading one.  Every batched result must equal the same
functions applied point by point, and a failing batch must report what the
first failing point reports."""

import functools

import numpy as np
import pytest

from conftest import random_expression
from torseform import (builtin_names, builtin_scene, build_warped_ambient,
                       classify, fit_torse_forming, load_scene, run,
                       sample_ambient_points, verify_ambient_decomposition)
from torseform.errors import GeometryError, ZeroFieldError
from torseform.expr import parse
from torseform.jets import eval_jet, eval_jet_env, jet_variables
from torseform.linalg import cholesky_spd, orthonormalize, solve_spd
from torseform.metric import MetricField, VectorField, covariant_derivative

REL = 1e-12

#: dense 3x3 fiber metric in x2..x4, positive definite on [-1, 1]^3
FIBER = [["1.1+0.4*x3^2"], ["0.2*sin(x2)", "2.1+cos(x3)"],
         ["0.1*x4", "0.15*x2", "1.0+0.2*x4^2"]]
WARPS = ("1.2*cosh(0.7*x1)", "exp(0.6*x1)", "2.2+sin(x1)", "1.3+x1^2")


def warped_chart(lam):
    return build_warped_ambient(lam, FIBER, (0.2, 1.2), [[-1.0, 1.0]] * 3)


def field_scenes():
    scenes = [builtin_scene(name) for name in builtin_names()]
    return [s for s in scenes if s.field is not None] + [warped_chart(lam) for lam in WARPS]


def sample(scene, n=40, seed=3):
    return np.array(sample_ambient_points(scene, n, np.random.default_rng(seed)))


def assert_close(batched, single):
    batched, single = np.asarray(batched, float), np.asarray(single, float)
    assert np.all(np.abs(batched - single) <= REL * np.maximum(1.0, np.abs(single)))


class TestJets:
    @pytest.mark.parametrize("seed", range(6))
    def test_batch_jet_equals_point_jets(self, seed):
        # d[k] of a batch jet is (n,)*k + (N,): its slice at point i is the
        # jet at that point, to order 3
        rng = np.random.default_rng(seed)
        expr = parse(random_expression(rng, 3, depth=3))
        points = rng.uniform(-2, 2, size=(7, 3))
        batch = eval_jet(expr, points, 3)
        for i, p in enumerate(points):
            single = eval_jet(expr, p, 3)
            for k in range(4):
                assert_close(batch.d[k][..., i], single.d[k])

    @pytest.mark.parametrize("src", ["x1^(x2-x2+2)", "2^x1", "x1^x2", "x1^(x1/x1)"])
    def test_jet_exponents(self, src):
        # a constant exponent takes pow's rule; a varying one exp(e·log(b))
        points = np.random.default_rng(1).uniform(0.5, 2.0, size=(5, 2))
        batch = eval_jet(parse(src), points, 2)
        for i, p in enumerate(points):
            single = eval_jet(parse(src), p, 2)
            for k in range(3):
                assert_close(batch.d[k][..., i], single.d[k])

    def test_constant_expression_carries_the_batch(self):
        env = jet_variables(("x1", "x2"), np.ones((5, 2)), 2)
        jet = eval_jet_env(parse("2*3"), env)
        assert jet.value.shape == (5,)
        assert jet.d[2].shape == (2, 2, 5)

    def test_single_point_values_stay_floats(self):
        jet = eval_jet(parse("x1*sin(x2)"), [0.3, 0.4], 2)
        assert type(jet.value) is float
        assert type(jet.derivative_jet(0).value) is float

    def test_domain_error_anywhere_in_the_batch(self):
        points = np.array([[2.0], [1.0], [-1.0], [3.0]])
        with pytest.raises(GeometryError, match="log of non-positive value -1.0"):
            eval_jet(parse("log(x1)"), points, 1)

    def test_overflow_in_a_batch_raises_like_math(self):
        # math.exp raises on overflow where numpy would return inf
        with pytest.raises(GeometryError):
            eval_jet(parse("exp(x1)"), [800.0], 1)
        with pytest.raises(GeometryError):
            eval_jet(parse("exp(x1)"), np.array([[1.0], [800.0]]), 1)


class TestLinalg:
    def test_stacked_cholesky_solve_and_frames_equal_slices(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 4, 4))
        gram = a @ np.swapaxes(a, -1, -2) + 0.5 * np.eye(4)
        b = rng.standard_normal((6, 4))
        L, x = cholesky_spd(gram, 1e-12), solve_spd(gram, b, 1e-12)
        start = np.stack([np.eye(4)[1] / np.sqrt(gram[i, 1, 1]) for i in range(6)])
        basis, rows, kept = orthonormalize(np.eye(4), gram, keep_tol=1e-10,
                                           start_basis=start[:, None, :])
        for i in range(6):
            assert np.array_equal(L[i], cholesky_spd(gram[i], 1e-12))
            assert_close(x[i], solve_spd(gram[i], b[i], 1e-12))
            bi, ri, ki = orthonormalize(np.eye(4), gram[i], keep_tol=1e-10,
                                        start_basis=start[i, None])
            assert np.array_equal(basis[i], bi) and np.array_equal(rows[i], ri)
            assert kept[i] == ki == 3

    def test_dropped_candidates_leave_zero_slots(self):
        # the second point drops e1 (it is its start vector): its kept vectors
        # shift down one slot and the last slot stays zero
        gram = np.stack([np.eye(3), np.eye(3)])
        start = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        basis, _, kept = orthonormalize(np.eye(3), gram, keep_tol=1e-10,
                                        start_basis=start[:, None, :])
        assert kept.tolist() == [2, 2]
        assert np.array_equal(basis[0], [[0, 0, 1], [1, 0, 0], [0, 1, 0], [0, 0, 0]])
        assert np.array_equal(basis[1], [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]])

    def test_failing_pivot_names_first_point(self):
        gram = np.stack([np.eye(3), np.diag([1.0, 2.0, -3.0]), np.diag([1.0, -5.0, 1.0])])
        with pytest.raises(GeometryError, match="pivot 2 is -3.000e"):
            cholesky_spd(gram, 1e-12)


def decomposition_per_point(scene, points, classification):
    """The decomposition maxima from the per-point formulas: one metric,
    one jet of |V| and one frame per point."""
    metric, field, dim = scene.metric, scene.field, scene.dim
    values = []
    for rep in classification.reports:
        mp = metric.at(rep.point, order=1)
        e1, lam_jet = field.unit_and_norm(rep.point, metric)
        lam, grad = lam_jet.value, lam_jet.gradient()
        a = mp.norm(covariant_derivative(mp, e1, e1.components))
        b = abs(grad @ e1.components - rep.f * (1.0 - lam ** 2))
        frame, _, _ = orthonormalize(np.eye(dim), mp.g, keep_tol=scene.tolerances.frame_tol,
                                     start_basis=e1.components[None])
        c = max(abs(covariant_derivative(mp, e1, frame[j]) @ mp.g @ frame[k]
                    - (rep.f / lam if j == k else 0.0))
                for j in range(1, dim) for k in range(1, dim))
        d = max(abs(grad @ frame[j]) for j in range(1, dim))
        values.append((a, b, c, d))
    return np.max(values, axis=0)


class TestBatchOracle:
    @pytest.mark.parametrize("scene", field_scenes(), ids=lambda s: s.name)
    def test_batched_fit_equals_point_fits(self, scene):
        points = sample(scene)
        batch = fit_torse_forming(scene.metric, scene.field, points, scene.tolerances)
        for i, p in enumerate(points):
            single = fit_torse_forming(scene.metric, scene.field, p, scene.tolerances)
            assert batch.verdict[i] == single.verdict
            for name in ("f", "omega", "w_dual", "residual_torse", "residual_concircular",
                         "residual_torqued", "residual_antitorqued", "v_norm",
                         "grad_norm", "geodesic_defect"):
                assert_close(getattr(batch, name)[i], getattr(single, name))

    @pytest.mark.parametrize("scene", [s for s in field_scenes()
                                       if s.expected_verdict == "anti-torqued"],
                             ids=lambda s: s.name)
    def test_batched_decomposition_equals_point_formulas(self, scene):
        points = sample(scene, n=60)
        c = classify(scene.metric, scene.field, points, scene.tolerances)
        rep = verify_ambient_decomposition(scene.metric, scene.field, points, c,
                                           scene.tolerances)
        got = [rep.max_geodesic_defect, rep.max_lambda_ode_defect,
               rep.max_connection_form_defect, rep.max_fiber_lambda_derivative]
        # the defects are round-off, so compare on the scale of the bounds
        want = decomposition_per_point(scene, points, c)
        assert np.all(np.abs(np.array(got) - want) <= 1e-13)
        assert rep.passed


class TestErrorOrder:
    def test_first_point_fails_late_later_point_early(self):
        # point 0 passes the metric and fails at the zero-field guard; point 1
        # fails the metric's SPD check, an earlier stage: point 0's error wins
        metric = MetricField([["1"], ["0", "1"], ["0", "0", "x3"]])
        field = VectorField(["x1", "x2", "x3-1"])
        points = [[0, 0, 1], [1, 1, -1]] + [[1 + 0.01 * i, 2, 3] for i in range(48)]
        with pytest.raises(GeometryError) as batch_error:
            metric.at(np.array(points, dtype=float), order=1)
        assert type(batch_error.value).__name__ == "SingularMetricError"
        with pytest.raises(ZeroFieldError, match=r"^\|V\| = 0\.000e\+00 at \[0\.0, 0\.0, 1\.0\]$"):
            classify(metric, field, points)

    def test_scene_reports_the_first_failing_point(self):
        # g11 = x1 is not positive definite where x1 <= 0, an early stage;
        # V = 1e-7 ∂1 is too short for the fit's normal equations, a late one
        # that the first sampled point (x1 = 0.66) reaches
        doc = {"name": "order", "field": ["1e-7", "0", "0"], "checks": ["classify"],
               "ambient": {"dim": 3, "metric": [["x1"], ["0", "1"], ["0", "0", "1"]],
                           "domain": [[-0.5, 1], [0, 1], [0, 1]]}}
        scene = load_scene(doc)
        points = sample_ambient_points(scene, 50, np.random.default_rng([42, 0]))
        assert points[0][0] > 0 > min(p[0] for p in points)
        [check] = run(scene, points=50).checks
        assert check.status == "error"
        assert check.details == {
            "error": "SingularFitError",
            "message": "torse-forming normal equations are singular "
                       "(condition number 6.809e+14)"}


def count_points(monkeypatch, owner, name) -> dict:
    """Patch owner.name to count the points it is called on (the first
    positional point argument: one point, or a row per point)."""
    counter = {"points": 0, "calls": 0}
    original = getattr(owner, name)

    @functools.wraps(original)
    def counted(self, point, *args, **kwargs):
        counter["calls"] += 1
        counter["points"] += len(np.atleast_2d(point))
        return original(self, point, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return counter


def test_metric_evaluated_once_per_sample_point(monkeypatch):
    # classify and ambient-decomposition share the order-1 metric and field
    # data: the metric entries are evaluated once, at every sample point
    metric_at = count_points(monkeypatch, MetricField, "at")
    entries = {"calls": 0}
    original = MetricField.entry_jets

    def entry_jets(self, env):
        entries["calls"] += 1
        return original(self, env)

    monkeypatch.setattr(MetricField, "entry_jets", entry_jets)
    scene = warped_chart(WARPS[0])
    report = run(scene, points=60)
    assert [c.status for c in report.checks] == ["pass", "pass"]
    assert metric_at == {"points": 60, "calls": 1}
    assert entries["calls"] == 1
