"""Compare the built-in reports of this checkout with another's, byte for byte.

For each of the nine built-ins at seeds 42 and 7 and N = 200 points (the
18 reports tests/test_golden_reports.py holds), each checkout computes
`report_to_json(run(scene, points=N))`, the table `render_report` prints
for `torseform check` and `exit_code` of the report in its own process,
importing the package from its own src/.  It does the same for each of
those built-ins' checks run alone (`run(scene, checks=[name])`, keys
`single:<scene>-s<seed>:<check>`), as what a run computes depends on the
checks it was asked for, and for a fixed list of scene documents that
reach the failure paths (FAILURE_SCENES), recording instead the type and
message of the exception if loading the scene or `run` raises.  The
script prints one line per report, `same` or `DIFFERS`, then a summary for
each group (built-in, one-check-at-a-time, failure-path), with its count of
checks that moved from fail, error or n/a to pass, and exits 1 if
any report, table, exit code or exception differs.  Below each `DIFFERS`
line it says how: whether the exit codes, statuses, verdicts, keys and strings (or the exceptions)
agree, how many witness numbers moved (a witness point's coordinates and
the values there), and the largest |Δ|/max(1, |x|) over the other numbers,
with its path; then each check whose status moved, as `check: old → new`:

    python tests/compare_reports.py OTHER_CHECKOUT

OTHER_CHECKOUT is any directory holding a src/torseform tree, for
example the parent commit exported with `git archive`.  Unlike the golden
test, nothing is compared within a tolerance: every digit, witness
coordinate, table line and exit code must agree.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
POINTS, SEEDS = 200, (42, 7)


def _euclidean(m):
    return {"dim": m, "metric": [["0"] * i + ["1"] for i in range(m)], "domain": [[-3, 3]] * m}


def _radial(m):
    r = "sqrt(" + "+".join(f"x{i + 1}^2" for i in range(m)) + ")"
    return [f"x{i + 1}/{r}" for i in range(m)]


E3 = _euclidean(3)
#: hyperbolic space H³ in the chart ds² + e^{2s}(dx² + dy²)
HYPERBOLIC = {"dim": 3, "metric": [["1"], ["0", "exp(2*x1)"], ["0", "0", "exp(2*x1)"]],
              "domain": [[0, 1], [-1, 1], [-1, 1]]}
#: the twisted product ds² + λ²(dx² + dy²), λ = e^s (1 + x²/4), in which
#: λ ∂ₛ is torqued, and its fiber s = 0.2, to which λ ∂ₛ is normal
TWISTED_LAMBDA = "exp(x1)*(1+x2^2/4)"
TWISTED = {"dim": 3, "domain": [[-0.8, 0.8]] * 3,
           "metric": [["1"], ["0", f"({TWISTED_LAMBDA})^2"], ["0", "0", f"({TWISTED_LAMBDA})^2"]]}
TWISTED_FIBER = {"dim": 2, "immersion": ["0.2", "u1", "u2"], "domain": [[-0.8, 0.8]] * 2}
#: the checks of an ambient scene with an anti-torqued field
AMBIENT_CHECKS = ["classify", "geodesic-unit", "ambient-decomposition"]


def scaled_radial(c):
    """E⁴ with V = c·x/√(1 + c²|x|²), anti-torqued and not unit (|V| < 1)."""
    r2 = "+".join(f"x{i}^2" for i in range(1, 5))
    return {"name": f"scaled-radial-{c}", "ambient": _euclidean(4), "exclude_radius": 0.1,
            "field": [f"{c}*x{i}/sqrt(1+{c * c}*({r2}))" for i in range(1, 5)],
            "checks": AMBIENT_CHECKS}


#: H³ as the upper half-space (dx² + dy² + dz²)/z², a chart that is no
#: product ds² + λ² g_F in x3, with the unit geodesic field −z∂_z
UPPER_HALF_SPACE = {"name": "upper-half-space", "field": ["0", "0", "-x3"],
                    "checks": AMBIENT_CHECKS,
                    "ambient": {"dim": 3, "domain": [[-1, 1], [-1, 1], [0.5, 2]],
                                "metric": [["1/x3^2"], ["0", "1/x3^2"],
                                           ["0", "0", "1/x3^2"]]}}
#: a term that is 0·inf = NaN everywhere
NAN = "+0*(1e308*10)"
ALL_CHECKS = ["classify", "geodesic-unit", "tangential-theorem", "normal-theorem",
              "torqued-props", "gauss-equation", "rectifying", "warp-fit",
              "ambient-decomposition"]

#: scenes whose checks fail, are n/a or err: a field with no submanifold, a
#: submanifold with no field, a field that overflows, a sample whose batch
#: fails at an earlier stage than its first failing point, and the cone with
#: an axis whose normal component (7.07e-8) is within a raised proper_tol,
#: an indefinite metric with off-diagonal entries, whose sample LAPACK
#: refuses to factor, so that its pivots come from the recurrence past pivot
#: 0, a finite field whose ∇V has an overflowing trace, so that the fit is
#: not finite at any point, which must be an error rather than a verdict,
#: and a concircular field 1e150·x whose fit is finite but whose anti-torqued
#: residual |w + f v| overflows, so that the classification is an error
#: rather than a block holding Infinity.  Three pass warp-fit, which judges
#: the warping ODE at each sample point: rectifying-psi under ode_tol 1e-12,
#: which its pointwise residual (3.3e-16) meets; rectifying-psi with a field
#: that is NaN (0·inf) on a thin band about x3 = 1.2, which holds no sample
#: point; and the hemisphere (totally geodesic H² ⊂ H³ in the chart
#: ds² + e^{2s}(dx² + dy²), V = ∂ₛ), the one proper rectifying scene in a
#: curved ambient, whose Γ̃ reaches E(λ) through ∇̃V.  Two more read the
#: induced metric's chain rule through a curved ambient's ∂g̃ and ∂²g̃: the
#: hemisphere under the Gauss equation, and in the same chart the warped
#: circle (s, θ) ↦ (s, ½ cos θ, ½ sin θ), ruled by the geodesics of V = ∂ₛ
#: so that V is tangent, under the normal theorem and the Gauss equation.  Two
#: more pass ambient-decomposition on a term that is 0 in every built-in: the
#: radial field c·x/√(1 + c²|x|²) at c = 1, whose E₁(λ) = f(1 − λ²) has a
#: factor 1 − λ² that is not 0, and the upper half-space, whose ∂|V| has a
#: ∂g term that is not 0.  In
#: three V is NaN on the whole sample, which is no vanishing component: the
#: cone under the normal theorem and the Clifford torus under the tangential
#: theorem, each with a NaN term in V¹, and the twisted product's fiber under
#: torqued-props, with λ ∂ₛ NaN on the plane s = 0.2 that holds the fiber and
#: no classification point.  rectifying-psi with that NaN term in V¹ under
#: warp-fit alone: its precondition reads a rectifying report whose terms
#: are NaN, so the warp fit errs rather than being n/a.  The last eight are
#: refused when they are loaded: a type error, an unknown key, an empty check
#: list, an expression that ends early, one whose error is on its second
#: line, a domain with an infinite end, which JSON has not but Python's json
#: reads, and an ambient and a parameter domain with finite ends whose width
#: overflows
FAILURE_SCENES = [
    {"name": "field-only", "ambient": E3, "field": ["1", "0", "0"], "checks": ALL_CHECKS},
    {"name": "sphere-only", "ambient": E3, "checks": ALL_CHECKS,
     "submanifold": {"dim": 2, "domain": [[0.3, 2.8], [0, 6]],
                     "immersion": ["2*sin(u1)*cos(u2)", "2*sin(u1)*sin(u2)", "2*cos(u1)"]}},
    {"name": "overflow", "field": ["x1^300", "x2", "x3"], "checks": ["classify"],
     "ambient": dict(E3, domain=[[10, 30], [1, 2], [1, 2]])},
    {"name": "order", "field": ["1e-7", "0", "0"], "checks": ["classify"],
     "ambient": {"dim": 3, "metric": [["x1"], ["0", "1"], ["0", "0", "1"]],
                 "domain": [[-0.5, 1], [0, 1], [0, 1]]}},
    {"name": "ode-tol", "ambient": _euclidean(4), "field": _radial(4), "exclude_radius": 0.1,
     "submanifold": {"dim": 2, "domain": [[0.5, 3.0], [0.1, 6.2]],
                     "immersion": ["0.8*u1*cos(u2)", "0.8*u1*sin(u2)", "0.6*u1", "1"]},
     "checks": ["rectifying", "warp-fit"], "tolerances": {"ode_tol": 1e-12}},
    {"name": "cone-proper-tol", "ambient": E3, "exclude_radius": 0.1,
     "field": _radial(3)[:2] + [_radial(3)[2] + "+1e-7"],
     "submanifold": {"dim": 2, "domain": [[0.5, 2.0], [0.1, 6.2]],
                     "immersion": ["u1*cos(u2)", "u1*sin(u2)", "u1"]},
     "checks": ["rectifying", "normal-theorem"], "tolerances": {"proper_tol": 1e-6}},
    {"name": "nonfinite-stage", "ambient": _euclidean(4), "exclude_radius": 0.1,
     "field": [c + "+0*(1e307*(17.9769335-(x3-1.2)^2))" for c in _radial(4)],
     "submanifold": {"dim": 2, "domain": [[0.5, 3.0], [0.1, 6.2]],
                     "immersion": ["0.8*u1*cos(u2)", "0.8*u1*sin(u2)", "0.6*u1", "1"]},
     "checks": ["rectifying", "warp-fit"]},
    {"name": "indefinite", "field": ["1", "x3", "x1"],
     "checks": ["classify", "ambient-decomposition"],
     "ambient": {"dim": 3, "metric": [["2+x2"], ["x1", "1"], ["0.3*x3", "0.7*x1*x2", "1+x3^2"]],
                 "domain": [[-2, 2], [-1, 1], [-1, 1]]}},
    {"name": "nan-trace", "checks": ["classify"],
     "ambient": dict(E3, domain=[[2e-200, 3e-200]] * 3),
     "field": ["1e308*(x1-1e-200)", "1e308*(x2-1e-200)", "1e308*(x3-1e-200)"]},
    {"name": "hemisphere", "field": ["1", "0", "0"], "checks": ["rectifying", "warp-fit"],
     "ambient": HYPERBOLIC,
     "submanifold": {"dim": 2, "domain": [[0.2, 0.6], [-0.4, 0.4]],
                     "immersion": ["-0.5*log(1-u1^2-u2^2)", "u1", "u2"]}},
    {"name": "hemisphere-gauss", "field": ["1", "0", "0"],
     "checks": ["rectifying", "gauss-equation"], "ambient": HYPERBOLIC,
     "submanifold": {"dim": 2, "domain": [[0.2, 0.6], [-0.4, 0.4]],
                     "immersion": ["-0.5*log(1-u1^2-u2^2)", "u1", "u2"]}},
    {"name": "warped-circle", "field": ["1", "0", "0"],
     "checks": ["normal-theorem", "gauss-equation"], "ambient": HYPERBOLIC,
     "submanifold": {"dim": 2, "domain": [[0.1, 0.9], [0.1, 6.2]],
                     "immersion": ["u1", "0.5*cos(u2)", "0.5*sin(u2)"]}},
    {"name": "cone-nan-field", "ambient": E3, "exclude_radius": 0.1,
     "field": [_radial(3)[0] + NAN] + _radial(3)[1:], "checks": ["normal-theorem"],
     "submanifold": {"dim": 2, "domain": [[0.5, 2.0], [0.1, 6.2]],
                     "immersion": ["u1*cos(u2)", "u1*sin(u2)", "u1"]}},
    {"name": "clifford-torus-nan-field", "ambient": _euclidean(4), "exclude_radius": 0.1,
     "field": [_radial(4)[0] + NAN] + _radial(4)[1:], "checks": ["tangential-theorem"],
     "submanifold": {"dim": 2, "domain": [[0.1, 6.2], [0.1, 6.2]],
                     "immersion": ["cos(u1)/sqrt(2)", "sin(u1)/sqrt(2)",
                                   "cos(u2)/sqrt(2)", "sin(u2)/sqrt(2)"]}},
    {"name": "twisted-fiber-nan-field", "ambient": TWISTED, "submanifold": TWISTED_FIBER,
     "field": [f"{TWISTED_LAMBDA}+0*(1e307*(17.9769335-(x1-0.2)^2))", "0", "0"],
     "checks": ["classify", "torqued-props"]},
    {"name": "rectifying-psi-nan-field", "ambient": _euclidean(4), "seed": 42,
     "exclude_radius": 0.1, "field": [_radial(4)[0] + NAN] + _radial(4)[1:],
     "submanifold": {"dim": 2, "domain": [[0.5, 3.0], [0.1, 6.2]],
                     "immersion": ["0.8*u1*cos(u2)", "0.8*u1*sin(u2)", "0.6*u1", "1"]},
     "checks": ["warp-fit"]},
    {"name": "overflowing-class-residual", "field": ["1e150*x1", "1e150*x2"],
     "checks": ["geodesic-unit"], "seed": 44,
     "ambient": {"dim": 2, "metric": [["1"], ["0", "1"]], "domain": [[1, 2], [1, 2]]}},
    scaled_radial(1),
    UPPER_HALF_SPACE,
    {"name": "type-error", "ambient": dict(E3, dim="two"), "field": ["1", "0", "0"],
     "checks": ["classify"]},
    {"name": "unknown-key", "ambient": E3, "field": ["1", "0", "0"], "checks": ["classify"],
     "extra": 1},
    {"name": "no-checks", "ambient": E3, "field": ["1", "0", "0"], "checks": []},
    {"name": "bad-expression", "ambient": E3, "field": ["1+", "0", "0"], "checks": ["classify"]},
    {"name": "second-line", "ambient": E3, "field": ["x1 +\n  * x2", "0", "0"],
     "checks": ["classify"]},
    {"name": "infinite-domain", "field": ["1", "0", "0"], "checks": ["classify"],
     "ambient": dict(E3, domain=[[-1, math.inf], [-1, 1], [-1, 1]])},
    {"name": "wide-domain", "field": ["1", "0", "0"], "checks": ["classify"],
     "ambient": dict(E3, domain=[[-1e308, 1e308], [-1, 1], [-1, 1]])},
    {"name": "wide-parameter-domain", "ambient": E3, "field": ["1", "0", "0"],
     "checks": ["rectifying"],
     "submanifold": {"dim": 2, "domain": [[-1e308, 1e308], [-1, 1]],
                     "immersion": ["u1", "u2", "0"]}},
]

# run in a child process whose PYTHONPATH is one checkout's src/
CHILD = """
import json, sys
from torseform import (builtin_names, builtin_scene, exit_code, load_scene,
                       render_report, report_to_json, run)
from torseform.scenes import with_seed
points, seeds = int(sys.argv[1]), [int(s) for s in sys.argv[2:]]

def record(load, checks=None):
    try:
        report = run(load(), checks, points=points)
    except Exception as err:
        return ["raised", type(err).__name__, str(err)]
    return [exit_code(report), report_to_json(report), render_report(report)]

out = {}
for name in builtin_names():
    for seed in seeds:
        load = lambda: with_seed(builtin_scene(name), seed)
        out[f"{name}-s{seed}"] = record(load)
        for check in builtin_scene(name).checks:
            out[f"single:{name}-s{seed}:{check}"] = record(load, [check])
for doc in json.load(sys.stdin):
    out[f"failure:{doc['name']}"] = record(lambda: load_scene(doc))
print(json.dumps(out))
"""


def reports(checkout: Path) -> dict:
    """{"<scene>-s<seed>", "single:<scene>-s<seed>:<check>" or
    "failure:<scene>": [exit code, JSON report, table] or ["raised",
    exception type, message]} computed by `checkout`."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(POINTS), *map(str, SEEDS)],
                          input=json.dumps(FAILURE_SCENES), capture_output=True,
                          text=True, env=env, check=True)
    return json.loads(proc.stdout)


def _parsed(record):
    if record is None or record[0] == "raised":
        return record
    return {"exit_code": record[0], "report": json.loads(record[1])}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _walk(mine, theirs, path, found):
    """Record in `found` the first path where structure, a key, an int or a
    string differs; count moved witness numbers; keep the largest relative
    move of any other float."""
    if isinstance(theirs, (dict, list)):
        same_shape = (type(mine) is type(theirs)
                      and (sorted(mine) == sorted(theirs) if isinstance(theirs, dict)
                           else len(mine) == len(theirs)))
        if not same_shape:
            found["mismatch"] = found["mismatch"] or path
            return
        for key in theirs if isinstance(theirs, dict) else range(len(theirs)):
            step = f".{key}" if isinstance(theirs, dict) else f"[{key}]"
            _walk(mine[key], theirs[key], path + step, found)
    elif (_is_number(mine) and _is_number(theirs)
          and (isinstance(mine, float) or isinstance(theirs, float))):
        if mine == theirs or (math.isnan(mine) and math.isnan(theirs)):
            return
        if ".witness" in path:
            found["witness"] += 1
            return
        move = abs(mine - theirs) / max(1.0, abs(theirs))
        if not move <= found["worst"][0]:
            found["worst"] = (move, path)
    elif type(mine) is not type(theirs) or mine != theirs:
        found["mismatch"] = found["mismatch"] or path


def how_it_differs(mine, theirs) -> str:
    """One line saying how two records of `reports` differ."""
    found = {"mismatch": None, "witness": 0, "worst": (0.0, None)}
    _walk(_parsed(mine), _parsed(theirs), "$", found)
    agree = ("exit code, statuses, verdicts, keys and strings agree" if found["mismatch"] is None
             else f"exit code, statuses, verdicts, keys or strings differ at {found['mismatch']}")
    move, at = found["worst"]
    largest = f"largest |Δ|/max(1, |x|) {move:.2e}" + (f" at {at}" if at else "")
    return f"{agree}; {found['witness']} witness numbers moved; {largest}"


def _statuses(record) -> dict:
    parsed = _parsed(record)
    if not isinstance(parsed, dict):
        return {}
    return {check["name"]: check["status"] for check in parsed["report"]["checks"]}


def status_moves(mine, theirs) -> list:
    """(check, status in theirs, status in mine) for each check whose status
    moved; '-' where one record has no such check."""
    old, new = _statuses(theirs), _statuses(mine)
    return [(name, old.get(name, "-"), new.get(name, "-"))
            for name in dict.fromkeys([*old, *new]) if old.get(name) != new.get(name)]


#: (name, key prefix) of each group of reports
GROUPS = (("built-in", ""), ("one-check-at-a-time", "single:"), ("failure-path", "failure:"))


def _group(key: str) -> str:
    """The key prefix of the group that holds `key`."""
    return next((prefix for _, prefix in GROUPS if prefix and key.startswith(prefix)), "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="checkout to compare against")
    args = parser.parse_args(argv)
    if not (args.other / "src" / "torseform").is_dir():
        parser.error(f"{args.other} holds no src/torseform")
    mine, theirs = reports(HERE), reports(args.other)
    keys = sorted(mine.keys() | theirs.keys())
    differing = [key for key in keys if mine.get(key) != theirs.get(key)]
    for key in keys:
        print(f"{key}: {'DIFFERS' if key in differing else 'same'}")
        if key in differing:
            print(f"  {how_it_differs(mine.get(key), theirs.get(key))}")
            for check, old, new in status_moves(mine.get(key), theirs.get(key)):
                print(f"  {check}: {old} → {new}")
    for group, prefix in GROUPS:
        group_keys = [key for key in keys if _group(key) == prefix]
        same = sum(key not in differing for key in group_keys)
        seeds = "each scene's seed" if prefix == "failure:" else f"seeds {SEEDS}"
        moves = [(old, new) for key in group_keys
                 for _, old, new in status_moves(mine.get(key), theirs.get(key))]
        print(f"{same} of {len(group_keys)} {group} reports byte-identical "
              f"(report_to_json, render_report and exit code or exception, "
              f"N = {POINTS}, {seeds}); status moves "
              + ", ".join(f"{old} → pass: {moves.count((old, 'pass'))}"
                          for old in ("fail", "error", "n/a")))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
