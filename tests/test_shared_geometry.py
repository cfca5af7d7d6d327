"""Per-point geometry is computed once per run and shared by every check.

Each counted function is patched where the run resolves it, so a check that
rebuilds geometry instead of reading the shared copy shows up as extra calls.
"""

import functools
import importlib

import torseform.immersion as immersion_mod
import torseform.metric as metric_mod
from torseform import builtin_scene, run

# the package attribute `torseform.classify` is the function, not the module
classify_mod = importlib.import_module("torseform.classify")

N = 12


def count_calls(monkeypatch, owner, name) -> dict:
    counter = {"calls": 0}
    original = getattr(owner, name)

    @functools.wraps(original)
    def counted(*args, **kwargs):
        counter["calls"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return counter


def test_cone_builds_each_packet_once(monkeypatch):
    frames = count_calls(monkeypatch, immersion_mod, "frames")
    induced = count_calls(monkeypatch, immersion_mod, "induced_metric")
    riemann = count_calls(monkeypatch, metric_mod, "riemann_components")
    report = run(builtin_scene("cone"), points=N)
    assert {c.name for c in report.checks} == {"normal-theorem", "gauss-equation"}
    assert all(c.status == "pass" for c in report.checks)
    assert frames["calls"] == N
    assert induced["calls"] == N
    assert riemann["calls"] <= 2 * N


def test_clifford_torus_builds_each_packet_once(monkeypatch):
    frames = count_calls(monkeypatch, immersion_mod, "frames")
    report = run(builtin_scene("clifford-torus"), points=N)
    assert all(c.status == "pass" for c in report.checks)
    assert frames["calls"] == N


def test_radial_fits_each_ambient_point_once(monkeypatch):
    fits = count_calls(monkeypatch, classify_mod, "fit_torse_forming")
    scene = builtin_scene("radial-r4")
    points = max(N, scene.tolerances.class_min_points)
    report = run(scene, points=N)
    assert [c.name for c in report.checks] == ["classify", "geodesic-unit"]
    assert all(c.status == "pass" for c in report.checks)
    assert fits["calls"] == points


def test_rectifying_does_not_pay_for_unread_geometry(monkeypatch):
    # rectifying reads frames and the field value only: no order-2 metric,
    # field 1-jet or induced metric
    metric_at = count_calls(monkeypatch, metric_mod.MetricField, "at")
    field_at = count_calls(monkeypatch, metric_mod.VectorField, "at")
    induced = count_calls(monkeypatch, immersion_mod, "induced_metric")
    report = run(builtin_scene("unit-sphere"), points=N)
    assert [c.name for c in report.checks] == ["rectifying"]
    assert metric_at["calls"] == N
    assert field_at["calls"] == N
    assert induced["calls"] == 0
