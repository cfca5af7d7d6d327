"""A constant ambient metric is flat, Γ̃ = 0 and R̃ = 0, and its data says so
(MetricAtPoint.flat): the immersed path then computes no product of those
zeros.  What it gives must be what the general computation gives, bit for
bit, and in the same memory layout, as products round by it.  The induced
metric's 2-jets, which the chain rule gives with the ∂g̃ terms only off a
flat ambient, must be those of the metric composed with Ψ, flat or curved.
"""

import dataclasses

import numpy as np
import pytest

import torseform.immersion as immersion_mod
from torseform import (Immersion, MetricField, VectorField, builtin_names, builtin_scene,
                       frames, report_to_json, run)
from torseform.expr import Tape
from torseform.jets import Jet
from torseform.linalg import item
from torseform.metric import MetricAtPoint, covariant_jacobian, plane_curvature, riemann
from torseform.scenes import with_seed

DENSE = [["2"], ["0.5", "3"], ["-0.25", "sqrt(2)/3", "1.5"]]
#: literal entries of 0, 1 and another value beside entries that vary
MIXED = [["1"], ["0", "exp(2*x1)"], ["0.5", "0", "4+x2^2"]]
#: a dense metric whose every entry varies, positive definite where it is read
CURVED = [["1+x1^2"], ["0.3*sin(x2)", "2+cos(x3)"], ["0.1*x3", "0.1*x1*x2", "1+x2^2"]]
CONSTANT = [name for name in builtin_names() if builtin_scene(name).metric.constant]


def metric_of(entries) -> MetricField:
    return MetricField.euclidean(3) if entries == "euclidean" else MetricField(entries)


def unflagged(mp: MetricAtPoint) -> MetricAtPoint:
    """mp's data without the flag, so that Γ̃ and R̃ are computed from it."""
    return dataclasses.replace(mp, flat=False)


def general_path(monkeypatch):
    """Make MetricField.at leave `flat` unset on the data it holds, so that
    every caller takes the general path over the held zeros."""
    at = MetricField.at

    def unflagged_at(self, point, order=2):
        mp = at(self, point, order)
        object.__setattr__(mp, "flat", False)
        return mp

    monkeypatch.setattr(MetricField, "at", unflagged_at)


def same(a, b) -> bool:
    return a.shape == b.shape and a.strides == b.strides and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("name", CONSTANT)
def test_reports_are_those_of_the_general_path(monkeypatch, name, seed):
    scene = with_seed(builtin_scene(name), seed)
    flat = report_to_json(run(scene, points=200))
    general_path(monkeypatch)
    assert report_to_json(run(scene, points=200)) == flat


def test_only_a_constant_metric_is_flat():
    points = np.random.default_rng(0).uniform(0.5, 1.5, (4, 3))
    assert MetricField(DENSE).at(points, 0).flat
    assert not MetricField(MIXED).at(points, 2).flat


@pytest.fixture(params=["euclidean", "dense"])
def flat_data(request):
    """(metric data of order 2, one point of it), at 6 points and at one."""
    metric = metric_of(DENSE if request.param == "dense" else "euclidean")
    points = np.random.default_rng(1).uniform(-2, 2, (6, 3))
    return [(metric.at(points, 2), points), (metric.at(points[0], 2), points[0])]


def test_riemann_and_plane_curvature_are_the_general_zeros(flat_data):
    rng = np.random.default_rng(2)
    for mp, points in flat_data:
        assert mp.flat
        u, v = rng.standard_normal((2,) + points.shape)
        general = unflagged(mp)
        # one vector at every point of a batch broadcasts as the general product does
        one_u, one_v = u.reshape(-1, 3)[0], v.reshape(-1, 3)[0]
        for X, Y, Z in ((u, v, v), (one_u, v, u), (u, v, one_v), (one_u, one_v, one_u)):
            assert same(riemann(mp, X, Y, Z), riemann(general, X, Y, Z))
        for a, b in zip(plane_curvature(mp, u, v), plane_curvature(general, u, v)):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert np.isnan(plane_curvature(mp, u, 2.0 * u)[0]).all()


def test_covariant_jacobian_is_the_general_sum(flat_data):
    field = VectorField(["x1*x2", "sin(x3)-x1", "x1^2+exp(x2)"])
    for mp, points in flat_data:
        vap = field.at(points, 1)
        assert same(covariant_jacobian(mp, vap), covariant_jacobian(unflagged(mp), vap))


def composed_pull_back(imm, metric, u) -> MetricAtPoint:
    """g_ij = Σ_ab g̃_ab(Ψ) ∂ᵢΨᵃ ∂ⱼΨᵇ over 2-jets: the metric's tape run over
    Ψ's jets, constants included, and Leibniz products with ∂Ψ's jets."""
    psi = imm.jets(u, 3)
    gj = metric.entry_jets({name: Jet(2, p.nvars, p.d[:3])
                            for name, p in zip(metric.var_names, psi)})
    dpsi = [[Jet(2, p.nvars, [item(p.d[1][i])] + [t[i] for t in p.d[2:]]) for p in psi]
            for i in range(imm.n)]
    pairs = [(a, b) for a in range(metric.dim) for b in range(metric.dim)]
    pulled = [[sum(gj[a][b] * dpsi[i][a] * dpsi[j][b] for a, b in pairs) for j in range(i + 1)]
              for i in range(imm.n)]
    return MetricAtPoint.from_jets(u, pulled, 2, metric.spd_tol)


@pytest.mark.parametrize("entries", ["euclidean", DENSE, MIXED, CURVED],
                         ids=["euclidean", "dense", "mixed", "curved"])
def test_the_chain_rule_is_the_metric_composed_with_psi(entries):
    metric = metric_of(entries)
    imm = Immersion(["u1*cos(u2)", "u1*sin(u2)", "0.5+u1^2"], 2)
    us = np.random.default_rng(3).uniform(0.5, 1.5, (7, 2))
    for u in (us, us[0]):
        packet, reference = frames(imm, metric, u), composed_pull_back(imm, metric, u)
        induced = packet.induced
        assert induced.factor is packet.g_factor and induced.coframe is packet.tangent_coeffs
        for name in ("g", "dg", "d2g"):
            got, want = getattr(induced, name), getattr(reference, name)
            assert got.shape == want.shape, name
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want))), name


def test_frames_on_a_flat_ambient_are_those_of_the_general_path(monkeypatch):
    # S = Ψ's Hessian, laid out as the sum with Jᵀ Γ̃ J is
    scene = builtin_scene("clifford-torus")
    us = np.random.default_rng(4).uniform(0.5, 2.5, (9, 2))
    flat = frames(scene.immersion, scene.metric, us, scene.field, orders=(3, 1))
    assert flat.ambient.flat
    general_path(monkeypatch)
    general = frames(scene.immersion, scene.metric, us, scene.field, orders=(3, 1))
    assert not general.ambient.flat
    for name in ("g_coord", "tangents", "normals", "h_frame", "h_coord", "dcoord",
                 "dv_frame", "a_vperp"):
        assert same(getattr(flat, name), getattr(general, name)), name


@pytest.mark.parametrize("name", [n for n in CONSTANT if builtin_scene(n).immersion])
def test_a_constant_metric_runs_no_tape_in_the_pull_back(monkeypatch, name):
    scene = builtin_scene(name)
    runs, inside, pulled = [], [], []
    tape_run, pull_back = Tape.run, immersion_mod.pull_back_metric

    def counting_run(self, env):
        if inside and self is scene.metric.tape:
            runs.append(env)
        return tape_run(self, env)

    def watched(*args):
        inside.append(1)
        pulled.append(1)
        try:
            return pull_back(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(Tape, "run", counting_run)
    monkeypatch.setattr(immersion_mod, "pull_back_metric", watched)
    report = run(scene, ["gauss-equation"], points=20)
    assert report.checks[0].status == "pass"
    assert pulled and runs == []
