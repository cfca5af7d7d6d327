"""Connection, curvature and second-fundamental-form contractions against
the einsum formulas they replaced.

The library contracts these tensors as stacked matrix products; the
functions below keep the index formulas written out with `np.einsum`, one
operand per factor, as the oracle.  Both must agree to round-off on curved
metrics (a dense warped 4-d chart, the round sphere's chart and the induced
metrics of the immersed built-ins), at one point and over a batch.
"""

import numpy as np
import pytest

from torseform import (Immersion, MetricField, build_warped_ambient, builtin_names,
                       builtin_scene, christoffel, frames, riemann, riemann_components,
                       sample_parameter_points)
from torseform.immersion import gauss_defect
from torseform.metric import _batch_first, christoffel_derivatives

REL = 1e-13

#: dense 3x3 fiber metric in x2..x4, positive definite on [-1, 1]^3
FIBER = [["1.1+0.4*x3^2"], ["0.2*sin(x2)", "2.1+cos(x3)"],
         ["0.1*x4", "0.15*x2", "1.0+0.2*x4^2"]]
WARPED = build_warped_ambient("1.2*cosh(0.7*x1)", FIBER, (0.2, 1.2),
                              [[-1.0, 1.0]] * 3).metric
SPHERE = MetricField([["1"], ["0", "sin(x1)^2"]])
#: a surface in the warped chart, so that Γ̃ enters its second fundamental form
WARPED_SURFACE = Immersion(["0.7+0.2*u1", "0.3*u2", "0.1*u1*u2", "0.2*sin(u1)"], n=2)


# ---------------------------------------------------------------------------
# The einsum oracle
# ---------------------------------------------------------------------------

def christoffel_oracle(mp):
    return 0.5 * np.einsum("...kl,...lij->...kij", mp.inverse, mp.koszul)


def dgamma_oracle(mp):
    dg, d2g, ginv = mp.dg, mp.d2g, mp.inverse
    dginv = -np.einsum("...kp,...apq,...ql->...akl", ginv, dg, ginv)
    dT = (np.einsum("...ailj->...alij", d2g) + np.einsum("...ajli->...alij", d2g) - d2g)
    return 0.5 * (np.einsum("...akl,...lij->...akij", dginv, mp.koszul)
                  + np.einsum("...kl,...alij->...akij", ginv, dT))


def riemann_components_oracle(mp):
    gamma, dgamma = christoffel_oracle(mp), dgamma_oracle(mp)
    return (np.einsum("...iljk->...lkij", dgamma) - np.einsum("...jlik->...lkij", dgamma)
            + np.einsum("...lia,...ajk->...lkij", gamma, gamma)
            - np.einsum("...lja,...aik->...lkij", gamma, gamma))


def riemann_oracle(mp, X, Y, Z):
    return np.einsum("...lkij,...k,...i,...j->...l", riemann_components_oracle(mp), Z, X, Y)


def second_form_oracle(packet):
    """(h_coord, h_frame) from the packet's jets, frames and ambient Γ̃."""
    hess = _batch_first(np.array([p.d[2] for p in packet.psi]), 3)
    jac, G, normals, B = (packet.jacobian, packet.g_ambient, packet.normals,
                          packet.tangent_coeffs)
    S = (np.einsum("...aij->...ija", hess)
         + np.einsum("...abc,...bi,...cj->...ija", christoffel_oracle(packet.ambient),
                     jac, jac))
    proj = np.swapaxes(normals, -1, -2) @ (normals @ G)
    h_coord = np.einsum("...ab,...ijb->...ija", proj, S)
    h_frame = np.einsum("...ik,...jl,...klb,...ab,...qa->...qij", B, B, S, G, normals)
    return h_coord, h_frame


def gauss_defect_oracle(packet, X, Y, Z, W):
    ind, mp2 = packet.induced, packet.metric.at(packet.x, order=2)
    lhs = np.einsum("...i,...ij,...j->...", riemann_oracle(ind, X, Y, Z), ind.g, W)
    Xa, Ya, Za, Wa = (np.einsum("...ai,...i->...a", packet.jacobian, v) for v in (X, Y, Z, W))
    ambient = np.einsum("...i,...ij,...j->...", riemann_oracle(mp2, Xa, Ya, Za), mp2.g, Wa)

    def h_of(a, b):
        return np.einsum("...ijc,...i,...j->...c", packet.h_coord, a, b)

    def inner(a, b):
        return np.einsum("...i,...ij,...j->...", a, packet.g_ambient, b)

    return np.abs(lhs - (ambient + inner(h_of(X, W), h_of(Y, Z))
                         - inner(h_of(X, Z), h_of(Y, W))))


def assert_rel(got, want, scale=None):
    """Equal to REL relative to `scale`, by default the largest entry of
    the oracle."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape
    scale = np.max(np.abs(want)) if scale is None else scale
    assert np.max(np.abs(got - want)) <= REL * scale


def curvature_scale(mp):
    """The size of the terms R is summed from, |∂Γ| + |Γ|²: R itself is
    round-off where the metric is flat."""
    return np.max(np.abs(dgamma_oracle(mp))) + np.max(np.abs(christoffel_oracle(mp))) ** 2


# ---------------------------------------------------------------------------
# Metrics and packets
# ---------------------------------------------------------------------------

def immersed_scenes():
    scenes = [builtin_scene(name) for name in builtin_names()]
    return [s for s in scenes if s.immersion is not None]


def chart_samples():
    """(name, order-2 metric data at a point, the same over a batch)."""
    rng = np.random.default_rng(4)
    warped_points = np.column_stack([rng.uniform(0.2, 1.2, 6),
                                     rng.uniform(-1.0, 1.0, (6, 3))])
    sphere_points = np.column_stack([rng.uniform(0.3, 2.8, 6), rng.uniform(0.1, 6.2, 6)])
    cases = [("warped-4d", WARPED, warped_points), ("sphere", SPHERE, sphere_points)]
    return [(name, metric.at(points[0], 2), metric.at(points, 2))
            for name, metric, points in cases]


def packets():
    """(name, one-point packet, batched packet) for every immersed built-in
    and a surface of the warped chart."""
    out = []
    for scene in immersed_scenes():
        us = np.array(sample_parameter_points(scene, 6, np.random.default_rng(8)))
        out.append((scene.name, frames(scene.immersion, scene.metric, us[0]),
                    frames(scene.immersion, scene.metric, us)))
    us = np.random.default_rng(9).uniform(-1.0, 1.0, (6, 2))
    out.append(("warped-surface", frames(WARPED_SURFACE, WARPED, us[0]),
                frames(WARPED_SURFACE, WARPED, us)))
    return out


CHARTS = chart_samples()
PACKETS = packets()


def induced_and_charts():
    """Curved metric data: the charts and every packet's induced metric."""
    out = [(name, one, batch) for name, one, batch in CHARTS]
    out += [(f"{name}-induced", one.induced, batch.induced) for name, one, batch in PACKETS]
    return out


CURVED = induced_and_charts()


@pytest.mark.parametrize("name, one, batch", CURVED, ids=[c[0] for c in CURVED])
def test_connection_and_curvature_equal_the_einsums(name, one, batch):
    for mp in (one, batch):
        assert_rel(christoffel(mp), christoffel_oracle(mp))
        gamma, dgamma = christoffel_derivatives(mp)
        assert_rel(gamma, christoffel_oracle(mp))
        assert_rel(dgamma, dgamma_oracle(mp))
        assert_rel(riemann_components(mp), riemann_components_oracle(mp),
                   curvature_scale(mp))


@pytest.mark.parametrize("name, one, batch", CURVED, ids=[c[0] for c in CURVED])
def test_riemann_equals_the_einsum(name, one, batch):
    rng = np.random.default_rng(12)
    m, size = one.dim, len(batch.point)
    # vectors shared by every point, and vectors that carry the batch axis
    for X, Y, Z in (rng.standard_normal((3, m)), rng.standard_normal((3, size, m))):
        for mp in (one, batch):
            if X.ndim == 2 and mp is one:
                continue
            length = np.max(np.abs(X)) * np.max(np.abs(Y)) * np.max(np.abs(Z))
            assert_rel(riemann(mp, X, Y, Z), riemann_oracle(mp, X, Y, Z),
                       curvature_scale(mp) * length)


@pytest.mark.parametrize("name, one, batch", PACKETS, ids=[p[0] for p in PACKETS])
def test_second_fundamental_form_equals_the_einsums(name, one, batch):
    for packet in (one, batch):
        h_coord, h_frame = second_form_oracle(packet)
        assert_rel(packet.h_coord, h_coord)
        assert_rel(packet.h_frame, h_frame)
    X, Y, Z, W = np.random.default_rng(13).standard_normal((4, len(batch.u), batch.n))
    # the defect is round-off where the Gauss equation holds: compare it
    # against the size of the terms it is summed from
    size = np.max(np.abs([X, Y, Z, W])) ** 4
    scale = (curvature_scale(batch.induced) + np.max(np.abs(batch.h_coord)) ** 2) * size
    assert_rel(gauss_defect(batch, X, Y, Z, W), gauss_defect_oracle(batch, X, Y, Z, W), scale)
