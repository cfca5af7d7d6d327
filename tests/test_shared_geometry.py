"""Per-point geometry is computed once per run and shared by every check.

Each counted function is patched where the run resolves it, so a check that
rebuilds geometry instead of reading the shared copy shows up as extra calls.
"""

import functools
import importlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import torseform.immersion as immersion_mod
import torseform.linalg as linalg_mod
import torseform.metric as metric_mod
import torseform.runner as runner_mod
from compare_reports import FAILURE_SCENES
from torseform import (VectorField, builtin_names, builtin_scene, load_scene, report_to_json,
                       run)
from torseform.errors import GeometryError
from torseform.expr import Tape
from torseform.scenes import with_seed

# the package attribute `torseform.classify` is the function, not the module
classify_mod = importlib.import_module("torseform.classify")

N = 12


def record_points(monkeypatch, owners, name, at=0, of=lambda arg: arg) -> list:
    """Patch `name` in every owner to record the points it is called on:
    of(its positional argument `at`), one point or a row per point."""
    calls = []
    original = getattr(owners[0], name)

    @functools.wraps(original)
    def recorded(*args, **kwargs):
        calls.append(np.atleast_2d(of(args[at])))
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, recorded)
    return calls


def record_induced(monkeypatch) -> list:
    """Record the parameter points of each packet whose induced metric is
    built."""
    return record_points(monkeypatch, (immersion_mod,), "pull_back_metric",
                         of=lambda packet: packet.u)


def sampled_parameters(monkeypatch) -> list:
    """Record the parameter points the run samples."""
    sampled = []
    sample = runner_mod.sample_parameter_points

    def recording_sample(*args):
        points = sample(*args)
        sampled.extend(points)
        return points

    monkeypatch.setattr(runner_mod, "sample_parameter_points", recording_sample)
    return sampled


def test_cone_builds_each_packet_once(monkeypatch):
    # counts points, not calls: frames and the induced metric are computed
    # once for the whole sample, and every sampled point gets each exactly
    # once, in sample order; curvature is computed for at most two batches
    # (the induced and the order-2 ambient metric) of N points each
    sampled = sampled_parameters(monkeypatch)
    frames = record_points(monkeypatch, (runner_mod, immersion_mod), "frames", at=2)
    induced = record_induced(monkeypatch)
    curvature = []
    riemann = metric_mod.riemann_components

    def recording_riemann(mp):
        curvature.append(mp.g.shape[:-2])
        return riemann(mp)

    monkeypatch.setattr(metric_mod, "riemann_components", recording_riemann)
    report = run(builtin_scene("cone"), points=N)
    assert {c.name for c in report.checks} == {"normal-theorem", "gauss-equation"}
    assert all(c.status == "pass" for c in report.checks)
    assert len(sampled) == N
    assert np.array_equal(np.concatenate(frames), sampled)
    assert np.array_equal(np.concatenate(induced), sampled)
    assert 1 <= len(curvature) <= 2
    assert all(batch == (N,) for batch in curvature)


def test_clifford_torus_builds_each_packet_once(monkeypatch):
    sampled = sampled_parameters(monkeypatch)
    frames = record_points(monkeypatch, (runner_mod, immersion_mod), "frames", at=2)
    report = run(builtin_scene("clifford-torus"), points=N)
    assert all(c.status == "pass" for c in report.checks)
    assert len(sampled) == N
    assert np.array_equal(np.concatenate(frames), sampled)


def test_radial_fits_each_ambient_point_once(monkeypatch):
    # counts points, not calls: the sample is fitted in one batch, and every
    # sampled point is fitted exactly once
    sampled, fitted = [], []
    sample = runner_mod.sample_ambient_points
    fit = classify_mod.fit_at_point

    def recording_sample(*args):
        points = sample(*args)
        sampled.extend(points)
        return points

    def recording_fit(mp, vap, tols):
        fitted.extend(np.atleast_2d(mp.point))
        return fit(mp, vap, tols)

    monkeypatch.setattr(runner_mod, "sample_ambient_points", recording_sample)
    monkeypatch.setattr(classify_mod, "fit_at_point", recording_fit)
    scene = builtin_scene("radial-r4")
    report = run(scene, points=N)
    assert [c.name for c in report.checks] == ["classify", "geodesic-unit"]
    assert all(c.status == "pass" for c in report.checks)
    assert len(sampled) == max(N, scene.tolerances.class_min_points)
    assert np.array_equal(fitted, sampled)


def record_orders(monkeypatch, owner) -> list:
    """Patch owner.at to record (order, points) of each call."""
    calls = []
    original = owner.at

    @functools.wraps(original)
    def recorded(self, point, order):
        calls.append((order, len(np.atleast_2d(point))))
        return original(self, point, order)

    monkeypatch.setattr(owner, "at", recorded)
    return calls


def test_rectifying_does_not_pay_for_unread_geometry(monkeypatch):
    # rectifying reads frames and the field value only: no order-2 metric,
    # field 1-jet or induced metric; the order-1 metric and the field value
    # are evaluated once at each sampled point
    metric_at = record_orders(monkeypatch, metric_mod.MetricField)
    field_at = record_orders(monkeypatch, metric_mod.VectorField)
    induced = record_induced(monkeypatch)
    report = run(builtin_scene("unit-sphere"), points=N)
    assert [c.name for c in report.checks] == ["rectifying"]
    assert metric_at == [(1, N)]
    assert field_at == [(0, N)]
    assert induced == []


def test_warp_fit_reads_the_shared_packet(monkeypatch):
    # rectifying, warp-fit and gauss-equation read one packet: frames once,
    # and the field once, at order 1 (the split and the fit warp-fit reads),
    # at every sampled point and nowhere else
    sampled = sampled_parameters(monkeypatch)
    frames = record_points(monkeypatch, (runner_mod, immersion_mod), "frames", at=2)
    field_at = record_orders(monkeypatch, metric_mod.VectorField)
    report = run(builtin_scene("rectifying-psi"), points=N)
    assert [c.name for c in report.checks] == ["gauss-equation", "rectifying", "warp-fit"]
    assert all(c.status == "pass" for c in report.checks)
    assert np.array_equal(np.concatenate(frames), sampled)
    assert field_at == [(1, N)]


def test_a_curved_ambient_is_read_once_to_order_2(monkeypatch):
    # gauss-equation reads the ambient's curvature: frames reads the metric
    # once, to order 2, and that read is the packet's ambient2
    doc = next(d for d in FAILURE_SCENES if d["name"] == "hemisphere")
    metric_at = record_orders(monkeypatch, metric_mod.MetricField)
    report = run(load_scene(dict(doc, checks=["rectifying", "gauss-equation"])), points=50)
    assert [c.status for c in report.checks] == ["pass", "pass"]
    assert metric_at == [(2, 50)]


def test_a_curved_ambient_runs_its_metric_tape_once(monkeypatch):
    # frames runs the metric's tape once, to order 2, and the induced
    # metric's 2-jets come from that read by the chain rule, not from a
    # second run over Ψ's jets
    doc = next(d for d in FAILURE_SCENES if d["name"] == "hemisphere")
    scene = load_scene(dict(doc, checks=["rectifying", "gauss-equation"]))
    runs, tape_run = [], Tape.run

    def counting_run(self, env):
        if self is scene.metric.tape:
            runs.append(env)
        return tape_run(self, env)

    monkeypatch.setattr(Tape, "run", counting_run)
    report = run(scene, points=50)
    assert [c.status for c in report.checks] == ["pass", "pass"]
    assert len(runs) == 1


def test_the_induced_metric_shares_the_tangent_frame_factor(monkeypatch):
    # one factor and one inverse hold the flat ambient metric, one of each
    # makes the tangent frame, and the induced metric reuses the latter
    factors = record_points(monkeypatch, (linalg_mod, immersion_mod), "cholesky_pivots")
    inverses = record_points(monkeypatch, (linalg_mod, immersion_mod, metric_mod),
                             "lower_inverse")
    report = run(builtin_scene("clifford-torus"), ["gauss-equation"], points=50)
    assert report.checks[0].status == "pass"
    assert (len(factors), len(inverses)) == (2, 2)


def test_a_failing_order_2_metric_fails_only_the_checks_that_read_it(monkeypatch):
    # on the plane x1 = 1e-103, 1/x1 has a value and a first derivative but
    # its second overflows: the packet is built on an order-1 read of the
    # metric, so rectifying and tangential-theorem judge as they do alone,
    # and gauss-equation, which reads 2-jets of the metric, is their error
    doc = {"name": "steep", "field": ["1", "0", "0"],
           "ambient": {"dim": 3, "metric": [["1+1e-250/x1"], ["0", "1"], ["0", "0", "1"]],
                       "domain": [[-1, 1]] * 3},
           "submanifold": {"dim": 2, "domain": [[-1, 1], [-1, 1]],
                           "immersion": ["1e-103+0*u1", "u1", "u2"]},
           "checks": ["rectifying", "tangential-theorem", "gauss-equation"]}
    scene = load_scene(doc)
    metric_at = record_orders(monkeypatch, metric_mod.MetricField)
    both = json.loads(report_to_json(run(scene, points=N)))["checks"]
    assert metric_at[:2] == [(2, N), (1, N)]
    with pytest.raises(GeometryError) as order2:
        scene.metric.at(np.full((1, 3), 1e-103), order=2)
    assert [c["name"] for c in both] == ["tangential-theorem", "gauss-equation", "rectifying"]
    assert both[1]["status"] == "error"
    assert both[1]["details"] == {"error": "DomainEvalError", "message": str(order2.value)}
    for entry in (both[0], both[2]):
        alone = json.loads(report_to_json(run(scene, [entry["name"]], points=N)))["checks"]
        assert json.dumps(alone[0]) == json.dumps(entry)
    # the packet's ambient2 raises the order-2 read's error on first use
    us = np.random.default_rng(0).uniform(-1, 1, (N, 2))
    packet = immersion_mod.frames(scene.immersion, scene.metric, us, tols=scene.tolerances)
    assert packet.ambient.d2g is None and packet.ambient.dg is not None
    with pytest.raises(GeometryError) as read:
        packet.ambient2
    assert type(read.value) is type(order2.value) and str(read.value) == str(order2.value)


def record_jet_orders(monkeypatch) -> list:
    """Patch Immersion.jets to record (order, points) of each call above
    order 0, which the parameter sampler's admissibility test makes."""
    calls = []
    original = immersion_mod.Immersion.jets

    @functools.wraps(original)
    def recorded(self, u, order):
        if order > 0:
            calls.append((order, len(np.atleast_2d(u))))
        return original(self, u, order)

    monkeypatch.setattr(immersion_mod.Immersion, "jets", recorded)
    return calls


def test_psi_is_read_to_the_order_the_checks_need(monkeypatch):
    # rectifying and warp-fit read frames and ∇̃V, never the induced metric:
    # Ψ is read once, to order 2; gauss-equation reads the induced metric,
    # and Ψ is read once, to order 3
    psi = record_jet_orders(monkeypatch)
    report = run(builtin_scene("rectifying-psi"), ["rectifying", "warp-fit"], points=N)
    assert all(c.status == "pass" for c in report.checks)
    assert psi == [(2, N)]
    psi.clear()
    report = run(builtin_scene("rectifying-psi"), ["gauss-equation"], points=N)
    assert report.checks[0].status == "pass"
    assert psi == [(3, N)]


def test_a_tangent_axis_reads_psi_to_order_3_on_first_use(monkeypatch):
    # rectifying alone on the cone reads Ψ to order 2; its axis is tangent,
    # so it judges the normal-axis terms, whose induced metric reads Ψ to
    # order 3 then, and gives the entry of a run that read order 3 at once
    psi = record_jet_orders(monkeypatch)
    alone = run(builtin_scene("cone"), ["rectifying"], points=N)
    assert psi == [(2, N), (3, N)]
    assert alone.checks[0].details["mode"] == "tangent-axis-hypersurface"
    psi.clear()
    eager = run(builtin_scene("cone"), ["rectifying", "gauss-equation"], points=N)
    assert psi == [(3, N)]
    entries = [json.loads(report_to_json(r))["checks"] for r in (alone, eager)]
    assert entries[0][0]["name"] == "rectifying"
    assert json.dumps(entries[0][0]) == json.dumps(entries[1][1])


def test_a_failing_1_jet_fails_only_the_checks_that_read_it():
    # on the plane x1 = 0, sqrt(x1) has a value and no derivative: the
    # packet splits V on an order-0 read, so rectifying judges as it does
    # alone, and tangential-theorem, which reads ∇̃V, is the 1-jet's error
    doc = {"name": "sqrt-at-0", "field": ["1+sqrt(x1)", "0", "0"],
           "ambient": {"dim": 3, "metric": [["1"], ["0", "1"], ["0", "0", "1"]],
                       "domain": [[-1, 1]] * 3},
           "submanifold": {"dim": 2, "domain": [[-1, 1], [-1, 1]],
                           "immersion": ["0*u1", "u1", "u2"]},
           "checks": ["rectifying", "tangential-theorem"]}
    scene = load_scene(doc)
    both = json.loads(report_to_json(run(scene, points=N)))["checks"]
    alone = json.loads(report_to_json(run(scene, ["rectifying"], points=N)))["checks"]
    assert [c["name"] for c in both] == ["tangential-theorem", "rectifying"]
    assert both[0]["status"] == "error"
    assert both[0]["details"]["error"] == "DomainEvalError"
    assert alone[0]["status"] == "fail"
    assert json.dumps(both[1]) == json.dumps(alone[0])


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("name", builtin_names())
def test_a_check_run_alone_reports_as_in_the_full_run(name, seed):
    # what a run reads depends on the checks asked for: each check alone
    # gives its entry of the full run byte for byte, and the classification
    # block where it reads one
    scene = with_seed(builtin_scene(name), seed)
    full = json.loads(report_to_json(run(scene, points=50)))
    entries = {c["name"]: json.dumps(c) for c in full["checks"]}
    for check in scene.checks:
        alone = json.loads(report_to_json(run(scene, [check], points=50)))
        assert [json.dumps(c) for c in alone["checks"]] == [entries[check]]
        assert alone["classification"] in (None, full["classification"])
        if check == "classify":
            assert alone["classification"] == full["classification"]


def counted(monkeypatch, owner, name) -> list:
    """Patch owner.name to count its calls, one entry per call."""
    calls = []
    original = getattr(owner, name)

    @functools.wraps(original)
    def recorded(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def test_a_classification_that_raises_is_made_once(monkeypatch):
    # the class residual |w + f v| of 1e150·x overflows; both checks are
    # errors from the one classification the run made
    doc = next(d for d in FAILURE_SCENES if d["name"] == "overflowing-class-residual")
    made = counted(monkeypatch, runner_mod, "classify_field")
    report = run(load_scene(dict(doc, checks=["classify", "geodesic-unit"])), points=N)
    assert len(made) == 1
    assert [c.status for c in report.checks] == ["error", "error"]
    assert report.checks[0].details == report.checks[1].details
    assert report.classification is None


def test_a_packet_that_raises_is_made_once(monkeypatch):
    # Ψ = (u1, u1, 0) loses rank everywhere; the three checks are errors
    # from the one packet the run built
    doc = {"name": "rank-1", "field": ["0", "0", "1"],
           "ambient": {"dim": 3, "metric": [["1"], ["0", "1"], ["0", "0", "1"]],
                       "domain": [[-3, 3]] * 3},
           "submanifold": {"dim": 2, "domain": [[0, 1], [0, 1]], "immersion": ["u1", "u1", "0"]},
           "checks": ["rectifying", "normal-theorem", "gauss-equation"]}
    built = counted(monkeypatch, runner_mod, "frames")
    report = run(load_scene(doc), points=N)
    assert len(built) == 1
    assert [c.status for c in report.checks] == ["error"] * 3
    assert {c.details["error"] for c in report.checks} == {"RankDeficiencyError"}


_leaves = st.one_of(st.sampled_from(["x1", "x2", "x3"]),
                    st.floats(0.0, 10.0).map(lambda v: f"{v!r}"))
_fields = st.recursive(_leaves, lambda kids: st.one_of(
    st.tuples(kids, st.sampled_from("+-*/^"), kids).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
    st.tuples(st.sampled_from(["sin", "cos", "exp", "log", "sqrt", "atan", "tanh"]), kids)
    .map(lambda t: f"{t[0]}({t[1]})")), max_leaves=6)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.lists(_fields, min_size=3, max_size=3), st.integers(2, 50), st.integers(0, 2**32 - 1))
@example(["x1^x2", "x2^x3", "x3"], 2, 0)
@example(["x1^x2", "x2^x3", "x3"], 50, 1)
def test_a_batch_reads_the_field_alike_at_order_0_and_1(components, count, seed):
    # the packet splits V on its order-1 read where a check reads ∇̃V, and on
    # its order-0 read otherwise: over N >= 2 points both give the same bits,
    # a varying exponent included (both take exp(log) for it), but for an
    # exponent flat in value over the batch (the case below)
    try:
        field = VectorField(components)
        points = np.random.default_rng(seed).uniform(0.5, 2.0, (count, 3))
        value = field.at(points, 0).components
    except (ValueError, GeometryError):
        return                  # a domain error at a sample point, or a bad parse
    assert field.at(points, 1).components.tobytes() == value.tobytes()


@pytest.mark.parametrize("field, points", [
    # at one point an exponent's values agree, so order 0 takes the pow row,
    # while its 1-jet varies, so order 1 takes exp(log)
    (["x1^x2", "x2"], [[1.23, 1.97]]),
    # an exponent that is flat in value over the batch but not in its jet
    (["x1^atan(1e20*x2)", "x2"], [[0.6, 0.9], [1.7, 1.4]]),
])
def test_order_0_and_1_can_differ_where_an_exponent_is_flat(field, points):
    # expr._apply judges an exponent constant from its values at order 0 and
    # from its jet above, so the two reads differ in the last bit here
    field = VectorField(field)
    value = field.at(np.array(points), 0).components[..., 0]
    jet_value = field.at(np.array(points), 1).components[..., 0]
    assert np.all(abs(value - jet_value) <= 4e-16 * abs(value))
    assert value.tobytes() != jet_value.tobytes()
