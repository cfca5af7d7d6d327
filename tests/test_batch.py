"""A sample is evaluated in one batch: jets with a trailing batch axis,
geometry with a leading one.  Every batched result must equal the same
functions applied point by point, and a failing batch must report what the
first failing point reports."""

import functools
import importlib
import math
from dataclasses import fields

import numpy as np
import pytest

from conftest import random_expression
from torseform import (ClassificationReport, builtin_names, builtin_scene,
                       build_warped_ambient, classify, fit_torse_forming, load_scene,
                       run, sample_ambient_points, trace_integral_curve,
                       verify_ambient_decomposition)
from torseform.errors import GeometryError, ZeroFieldError, replay
from torseform.expr import Tape, parse
from torseform.jets import call, eval_jet, eval_jet_env, jet_variables
from torseform.linalg import cholesky_spd, lower_inverse, orthonormalize, solve_spd
from torseform.metric import (MetricAtPoint, MetricField, VectorAtPoint, VectorField,
                              covariant_derivative)

REL = 1e-12
#: the module, which the package's `classify` function shadows as an attribute
CLASSIFY = importlib.import_module("torseform.classify")

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

    def test_domain_error_anywhere_in_the_batch(self):
        points = np.array([[2.0], [1.0], [-1.0], [3.0]])
        with pytest.raises(GeometryError, match="log of non-positive value -1.0"):
            eval_jet(parse("log(x1)"), points, 1)

    def test_overflow_in_a_batch_raises_like_math(self):
        # exp's row raises where its value is not finite, at a point as in a batch
        with pytest.raises(GeometryError):
            eval_jet(parse("exp(x1)"), [800.0], 1)
        with pytest.raises(GeometryError):
            eval_jet(parse("exp(x1)"), np.array([[1.0], [800.0]]), 1)


class TestLinalg:
    def test_stacked_solve_coframe_and_frames_equal_slices(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 4, 4))
        gram = a @ np.swapaxes(a, -1, -2) + 0.5 * np.eye(4)
        b = rng.standard_normal((6, 4))
        L, x = cholesky_spd(gram, 1e-12), solve_spd(gram, b, 1e-12)
        mp = MetricAtPoint(point=np.zeros((6, 4)), g=gram, spd_tol=1e-12)
        start = np.stack([np.eye(4)[1] / np.sqrt(gram[i, 1, 1]) for i in range(6)])
        completion = orthonormalize(start[:, None, :], mp.factor, mp.coframe)
        for i in range(6):
            assert np.array_equal(L[i], cholesky_spd(gram[i], 1e-12))
            assert_close(x[i], solve_spd(gram[i], b[i], 1e-12))
            single = MetricAtPoint(point=np.zeros(4), g=gram[i], spd_tol=1e-12)
            assert np.array_equal(mp.coframe[i], single.coframe)
            assert np.array_equal(mp.coframe[i], lower_inverse(L[i]))
            assert np.array_equal(mp.inverse[i], single.inverse)
            assert completion[i].shape == (3, 4)
            assert np.array_equal(completion[i], orthonormalize(start[i, None], single.factor,
                                                                single.coframe))

    def test_failing_pivot_names_first_point(self):
        gram = np.stack([np.eye(3), np.diag([1.0, 2.0, -3.0]), np.diag([1.0, -5.0, 1.0])])
        with pytest.raises(GeometryError, match="pivot 2 is -3.000e"):
            cholesky_spd(gram, 1e-12)


def unit_and_norm_jets(field, metric, point):
    """(V/|V| with jacobian, 1-jet of |V|) from one jet walk of every metric
    and field expression at the point: the construction that
    `metric.unit_and_norm_at` replaces with the order-1 data a caller holds."""
    env = jet_variables(field.var_names, point, 1)
    vjets, gjets = field.component_jets(env), metric.entry_jets(env)
    pairs = [(i, j) for i in range(len(vjets)) for j in range(len(vjets))]
    norm = call("sqrt", sum(gjets[i][j] * vjets[i] * vjets[j] for i, j in pairs))
    return VectorAtPoint.from_jets([v / norm for v in vjets], 1), norm


def completed_by_gram_schmidt(e1, g):
    """[E₁, E₂, .., E_m]: E₁ then the standard basis vectors in index order,
    each made g-orthogonal to those kept by two passes of Gram-Schmidt and
    kept when its residual norm exceeds 1e-6; a construction independent of
    linalg.orthonormalize, whose frame differs from this one by a rotation
    of E₂..E_m."""
    frame = [e1]
    for w in np.eye(len(e1)):
        for _ in range(2):
            w = w - sum((b @ g @ w) * b for b in frame)
        length = np.sqrt(w @ g @ w)
        if length > 1e-6 and len(frame) < len(e1):
            frame.append(w / length)
    return frame


def decomposition_per_point(scene, points, classification):
    """The decomposition maxima from the per-point formulas: one metric,
    one jet of |V| and one frame per point."""
    metric, field, dim = scene.metric, scene.field, scene.dim
    values = []
    for rep in classification.reports:
        mp = metric.at(rep.point, order=1)
        e1, lam_jet = unit_and_norm_jets(field, metric, rep.point)
        lam, grad = lam_jet.value, lam_jet.gradient()
        a = mp.norm(covariant_derivative(mp, e1, e1.components))
        b = abs(grad @ e1.components - rep.f * (1.0 - lam ** 2))
        frame = completed_by_gram_schmidt(e1.components, mp.g)
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
    def test_replay_raises_the_first_failing_item_or_the_batch_error(self):
        def batch():
            raise GeometryError("batch")

        seen = []

        def single(item):
            seen.append(item)
            if item >= 2:
                raise ZeroFieldError(f"item {item}")

        assert replay(lambda: "whole", single, range(5)) == "whole" and seen == []
        with pytest.raises(ZeroFieldError, match="^item 2$"):
            replay(batch, single, range(5))
        assert seen == [0, 1, 2]
        with pytest.raises(GeometryError, match="^batch$"):
            replay(batch, seen.append, "ab")
        assert seen == [0, 1, 2, "a", "b"]

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
            "message": "torse-forming fit is singular: |V| = 8.130e-08 at "
                       "[0.660934072833945, 0.4388784397520523, 0.8585979199113825]"}


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


class TestSharedSubtrees:
    """A field's, metric's or immersion's tape computes a subtree that its
    expressions share once per call; the values must be those of walking
    every expression on its own."""

    @staticmethod
    def sources(rng):
        # compositions of random expressions that repeat them, so that
        # subtrees are shared within and across components
        a, b = (random_expression(rng, 3, depth=3) for _ in range(2))
        return [f"({a})*({b})", f"sin({a})-({b})", f"({b})/(1.5+({a})^2)"]

    @pytest.mark.parametrize("seed", range(6))
    def test_interned_walk_equals_unshared_walks(self, seed):
        rng = np.random.default_rng(seed)
        sources = self.sources(rng)
        field = VectorField(sources, dim=3)
        alone_code = sum(len(Tape([parse(src)]).code) for src in sources)
        assert len(field.tape.code) < alone_code
        for points in (rng.uniform(-2, 2, size=3), rng.uniform(-2, 2, size=(7, 3))):
            for order in range(4):
                env = jet_variables(("x1", "x2", "x3"), points, order)
                shared = field.component_jets(env)
                alone = [eval_jet_env(parse(src), env) for src in sources]
                # order 0 at a point binds floats, and a float is its own value
                for a, b in zip(shared, alone):
                    for k in range(order + 1):
                        assert np.array_equal(a.d[k] if k else getattr(a, "value", a),
                                              b.d[k] if k else getattr(b, "value", b))

    @pytest.mark.parametrize("points", [[1.0, 0.5, 0.2],
                                        [[1.0, 0.5, 0.2], [2.5, 0.5, 0.2]]])
    def test_interned_walk_raises_the_unshared_error(self, points):
        # log(x1-2) fails at x1 = 1 in the first component that holds it
        ok = "x2*x3"
        bad = "log(x1-2)+x2"
        sources = [ok, f"({ok})+({bad})", f"cos({bad})"]
        field = VectorField(sources)
        with pytest.raises(GeometryError) as shared:
            field.at(np.array(points), order=1)
        env = jet_variables(("x1", "x2", "x3"), np.array(points), 1)
        with pytest.raises(GeometryError) as alone:
            for src in sources:
                eval_jet_env(parse(src), env)
        assert type(shared.value) is type(alone.value)
        assert str(shared.value) == str(alone.value)

    def test_signed_zero_literals_stay_apart(self):
        from torseform.expr import BinOp, Num, Var
        a, b = BinOp("*", Var("x1"), Num(0.0)), BinOp("*", Var("x1"), Num(-0.0))
        # the second x1*0.0 is the first's instruction, x1*-0.0 one of its own
        assert len(Tape([a, b, BinOp("*", Var("x1"), Num(0.0))]).code) == 2
        field = VectorField([a, b], dim=2)
        values = field.at([1.0, 2.0], order=0).components
        assert [math.copysign(1.0, v) for v in values] == [1.0, -1.0]


def refuse_batched_fits(monkeypatch, module=CLASSIFY) -> list:
    """Make `module`'s batched fit raise, so that its caller replays the
    sample point by point; a fit at one point runs as before, and the
    returned list collects each such point."""
    fit = CLASSIFY.fit_at_point
    singles = []

    def point_fits_only(mp, vap, tols):
        if mp.point.ndim == 2:
            raise GeometryError("batched fit refused")
        singles.append(mp.point)
        return fit(mp, vap, tols)

    monkeypatch.setattr(module, "fit_at_point", point_fits_only)
    return singles


class TestClassificationBatch:
    """classify holds its fits as one batched report; the per-point reports
    are built from it on demand, a refused batch is replayed point by point
    only to name its first failing point, and no check builds per-point
    reports."""

    @pytest.mark.parametrize("scene", [builtin_scene("radial-r4"), warped_chart(WARPS[1])],
                             ids=lambda s: s.name)
    def test_reports_are_the_batch_row_by_row(self, scene):
        points = sample(scene, n=60)
        c = classify(scene.metric, scene.field, points, scene.tolerances)
        batch = fit_torse_forming(scene.metric, scene.field, points, scene.tolerances)
        assert len(c.reports) == len(points)
        for i, rep in enumerate(c.reports):
            for f in fields(ClassificationReport):
                got, want = getattr(rep, f.name), getattr(batch, f.name)[i]
                if np.ndim(want):
                    assert np.array_equal(got, want)
                else:
                    # floats and strings, as one report per point held them
                    assert type(got) is type(want.item()) and got == want
        assert c.reports is c.reports

    @pytest.mark.parametrize("scene", [builtin_scene("radial-r4"), warped_chart(WARPS[0])],
                             ids=lambda s: s.name)
    def test_refused_batch_whose_points_pass_raises_its_error(self, monkeypatch, scene):
        points = sample(scene, n=60)
        singles = refuse_batched_fits(monkeypatch)
        with pytest.raises(GeometryError, match="^batched fit refused$"):
            classify(scene.metric, scene.field, points, scene.tolerances)
        # every point was fitted alone, in sample order, and none failed
        assert np.array_equal(singles, points)
        classify_check = run(scene, points=60).checks[0]
        assert (classify_check.name, classify_check.status) == ("classify", "error")
        assert classify_check.details == {"error": "GeometryError",
                                          "message": "batched fit refused"}

    def test_refused_node_fit_raises_its_error(self, monkeypatch):
        # trace_integral_curve fits f at the curve's nodes in one batch, and
        # each node alone through classify's unrefused fit
        refuse_batched_fits(monkeypatch, importlib.import_module("torseform.warped"))
        scene = builtin_scene("rectifying-psi")
        with pytest.raises(GeometryError, match="^batched fit refused$"):
            trace_integral_curve(scene.immersion, scene.metric, scene.field, [1.0, 3.0],
                                 1.6, 0.005, scene.tolerances)

    def test_checks_build_no_point_reports(self, monkeypatch):
        calls = []
        build = CLASSIFY._point_reports

        def counted(batch):
            calls.append(len(batch.f))
            return build(batch)

        monkeypatch.setattr(CLASSIFY, "_point_reports", counted)
        for scene in (builtin_scene("radial-r4"), warped_chart(WARPS[2])):
            report = run(scene, points=200)
            assert {c.status for c in report.checks} == {"pass"}
        assert calls == []
        # the counter sees the reports that are asked for
        scene = builtin_scene("radial-r4")
        classify(scene.metric, scene.field, sample(scene, n=50)).reports
        assert calls == [50]
