"""Seeded call batches for the torseform benchmark, and the outcome each call
must report.

A workload is a batch of calls, each the in-process equivalent of
``torseform check <scene> --points N --seed S --checks ... --json <file>``.
The workload seed derives every call's ``--seed`` and every generated chart
parameter, so the same seed always gives the same batch.  Generated scene
documents are written to files before any timing starts; the program only
ever sees those files or ``builtin:NAME``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Why each workload exists.  BENCHMARK.json repeats these sentences.
WHY = {
    "ambient-warped": "field-only path (order-1 metric and field jets, unit "
                      "fields, torse-forming fits) on dense 4-d warped charts, "
                      "where metric-jet work dominates; no immersion, no RK4",
    "immersed-curvature": "order-3 immersion jets, induced metrics, frames and "
                          "curvature for the normal, tangential and Gauss "
                          "checks, where per-point recomputation is worst",
    "warp-curve": "sequential RK4 chain with single-point fits that does not "
                  "grow with N: the case that batching over points bypasses",
}

ANTI_TORQUED = "anti-torqued"
PASS, FAIL = "pass", "fail"

# Warping functions λ(s) of the generated charts, one chart per family in
# every batch so that the batch cost does not depend on the seed's draw.
# Each family is positive with λ' != 0 on S_RANGE.
S_RANGE = (0.2, 1.2)
FIBER_DOMAIN = [[-1.0, 1.0]] * 3


def _lambda_families(rng) -> dict:
    u = lambda lo, hi: float(rng.uniform(lo, hi))
    return {
        "cosh": f"{u(0.8, 1.5):.4f}*cosh({u(0.4, 1.0):.4f}*x1)",
        "exp": f"exp({u(0.3, 1.0):.4f}*x1)",
        "sin": f"{u(1.5, 3.0):.4f}+sin(x1)",
        "quad": f"{u(0.5, 2.0):.4f}+x1^2",
    }


def _fiber_metric(rng) -> list:
    """Dense, non-constant 3x3 fiber metric in x2..x4, diagonally dominant on
    FIBER_DOMAIN for every draw, hence positive definite."""
    u = lambda lo, hi: f"{float(rng.uniform(lo, hi)):.4f}"
    return [[f"{u(0.8, 1.2)}+{u(0.2, 0.6)}*x3^2"],
            [f"{u(0.1, 0.3)}*sin(x2)", f"{u(1.8, 2.5)}+cos(x3)"],
            [f"{u(0.05, 0.15)}*x4", f"{u(0.05, 0.2)}*x2",
             f"{u(0.8, 1.2)}+{u(0.1, 0.3)}*x4^2"]]


@dataclass(frozen=True)
class Call:
    """One ``torseform check`` call and the outcome its scene documents."""

    label: str          # scene name, as the report states it
    scene: str          # builtin:NAME or a generated scene file
    points: int
    seed: int
    expected: dict      # check name -> status, for exactly these checks
    exit_code: int
    verdict: str | None = None   # documented classification verdict

    def argv(self, json_out) -> list:
        return ["check", self.scene, "--points", str(self.points),
                "--seed", str(self.seed), "--checks", ",".join(self.expected),
                "--json", str(json_out)]


def _seeds(rng, count) -> list:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _builtin(name, points, seed, expected, exit_code=0, verdict=None) -> Call:
    return Call(name, f"builtin:{name}", points, seed, expected, exit_code,
                verdict)


def _ambient_warped(rng, workdir: Path) -> list:
    from torseform.warped import build_warped_ambient

    families = _lambda_families(rng)
    seeds = _seeds(rng, 1 + len(families))
    calls = [_builtin("radial-r4", 200, seeds[0],
                      {"classify": PASS, "geodesic-unit": PASS},
                      verdict=ANTI_TORQUED)]
    for (family, lam), seed in zip(families.items(), seeds[1:]):
        name = f"warped-{family}"
        doc = build_warped_ambient(lam, _fiber_metric(rng), S_RANGE,
                                   FIBER_DOMAIN, name=name, seed=seed).document
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        calls.append(Call(name, str(path), 200, seed,
                          {"classify": PASS, "ambient-decomposition": PASS}, 0,
                          ANTI_TORQUED))
    return calls


def _immersed_curvature(rng, _workdir: Path) -> list:
    s = _seeds(rng, 5)
    return [
        _builtin("clifford-torus", 200, s[0],
                 {"classify": PASS, "tangential-theorem": PASS,
                  "gauss-equation": PASS}, verdict=ANTI_TORQUED),
        _builtin("hypersphere", 200, s[1],
                 {"tangential-theorem": PASS, "gauss-equation": PASS}),
        _builtin("tangent-developable", 200, s[2],
                 {"normal-theorem": PASS, "gauss-equation": PASS}),
        _builtin("cone", 200, s[3],
                 {"normal-theorem": PASS, "gauss-equation": PASS}),
        # the documented negative control: not rectifying, exit code 1
        _builtin("unit-sphere", 200, s[4], {"rectifying": FAIL}, exit_code=1),
    ]


def _warp_curve(rng, _workdir: Path) -> list:
    return [_builtin("rectifying-psi", 50, seed,
                     {"rectifying": PASS, "warp-fit": PASS})
            for seed in _seeds(rng, 4)]


_BUILDERS = {"ambient-warped": _ambient_warped,
             "immersed-curvature": _immersed_curvature,
             "warp-curve": _warp_curve}

NAMES = tuple(_BUILDERS)


def build(workload: str, seed: int, workdir: Path) -> list:
    """The workload's batch for this seed; writes generated scenes to workdir."""
    rng = np.random.default_rng([NAMES.index(workload), seed])
    return _BUILDERS[workload](rng, workdir)


def scene_specs(calls) -> list:
    """Distinct scenes of a batch, in first-use order."""
    return list(dict.fromkeys(call.scene for call in calls))


def check_report(call: Call, exit_code, raw: bytes | None) -> list:
    """Problems with one call's outcome; empty when it is the documented one."""
    problems = []
    if exit_code != call.exit_code:
        problems.append(f"exit code {exit_code}, documented {call.exit_code}")
    if raw is None:
        return problems + ["no JSON report written"]
    try:
        report = json.loads(raw)
    except ValueError as err:
        return problems + [f"report is not JSON: {err}"]
    for key, want in (("scene", call.label), ("seed", call.seed),
                      ("points", call.points)):
        if report.get(key) != want:
            problems.append(f"report {key} {report.get(key)!r}, requested {want!r}")
    statuses = {c["name"]: c["status"] for c in report.get("checks", [])}
    if statuses != call.expected:
        problems.append(f"statuses {statuses}, documented {call.expected}")
    for c in report.get("checks", []):
        r = c.get("residual")
        if r is not None and not (isinstance(r, (int, float)) and math.isfinite(r)):
            problems.append(f"{c['name']} residual {r!r} is not a finite number")
    if call.verdict is not None:
        verdict = (report.get("classification") or {}).get("verdict")
        if verdict != call.verdict:
            problems.append(f"verdict {verdict!r}, documented {call.verdict!r}")
    return problems
