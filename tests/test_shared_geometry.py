"""Per-point geometry is computed once per run and shared by every check.

Each counted function is patched where the run resolves it, so a check that
rebuilds geometry instead of reading the shared copy shows up as extra calls.
"""

import functools
import importlib

import numpy as np

import torseform.immersion as immersion_mod
import torseform.metric as metric_mod
import torseform.runner as runner_mod
from torseform import builtin_scene, run

# the package attribute `torseform.classify` is the function, not the module
classify_mod = importlib.import_module("torseform.classify")

N = 12


def record_points(monkeypatch, owners, name, at=0) -> list:
    """Patch `name` in every owner to record the points it is called on: its
    positional argument `at`, one point or a row per point."""
    calls = []
    original = getattr(owners[0], name)

    @functools.wraps(original)
    def recorded(*args, **kwargs):
        calls.append(np.atleast_2d(args[at]))
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, recorded)
    return calls


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
    induced = record_points(monkeypatch, (immersion_mod,), "pull_back_metric", at=2)
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
    induced = record_points(monkeypatch, (immersion_mod,), "pull_back_metric", at=2)
    report = run(builtin_scene("unit-sphere"), points=N)
    assert [c.name for c in report.checks] == ["rectifying"]
    assert metric_at == [(1, N)]
    assert field_at == [(0, N)]
    assert induced == []


def test_warp_fit_reads_the_shared_packet(monkeypatch):
    # rectifying, warp-fit and gauss-equation read one packet: frames once,
    # and the field once at order 0 and once at order 1 (the fit warp-fit
    # reads), each at every sampled point and nowhere else
    sampled = sampled_parameters(monkeypatch)
    frames = record_points(monkeypatch, (runner_mod, immersion_mod), "frames", at=2)
    field_at = record_orders(monkeypatch, metric_mod.VectorField)
    report = run(builtin_scene("rectifying-psi"), points=N)
    assert [c.name for c in report.checks] == ["gauss-equation", "rectifying", "warp-fit"]
    assert all(c.status == "pass" for c in report.checks)
    assert np.array_equal(np.concatenate(frames), sampled)
    assert sorted(field_at) == [(0, N), (1, N)]
