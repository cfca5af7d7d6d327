"""Command-line driver.

    torseform check <scene.json | builtin:NAME> [--checks a,b] [--seed N]
                    [--points N] [--json out.json]
    torseform list-builtins
    torseform eval <expr> --at x1=1,x2=2 [--order N]

Exit codes: 0 all checks pass, 1 any check failed, 2 scene/schema/usage
error, 3 internal numeric error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import runner
from .errors import DomainEvalError, GeometryError, SceneSchemaError
from .expr import eval_float, parse
from .jets import MAX_ORDER, eval_jet
from .scenes import builtin_names, builtin_scene, load_scene_file, with_seed


@functools.cache                # built once per process; parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torseform",
        description="Evaluate torse-forming field classes, rectifying "
                    "submanifold conditions and warped-product structure "
                    "on scene descriptions.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the checks of a scene")
    check.add_argument("scene", help="path to a scene JSON file or builtin:NAME")
    check.add_argument("--checks", default=None,
                       help="comma-separated subset of the scene's checks")
    check.add_argument("--seed", type=int, default=None,
                       help="override the scene seed")
    check.add_argument("--points", type=int, default=50,
                       help="sample points per check (default 50)")
    check.add_argument("--json", dest="json_out", default=None,
                       help="write the machine report to this file")

    sub.add_parser("list-builtins", help="list embedded scene names")

    ev = sub.add_parser("eval", help="evaluate an expression (debugging)")
    ev.add_argument("expr")
    ev.add_argument("--at", required=True,
                    help="comma-separated bindings, e.g. x1=1.5,x2=2")
    ev.add_argument("--order", type=int, default=0,
                    help=f"also print jet coefficients up to this order (<= {MAX_ORDER})")

    return parser


def _cmd_check(args) -> int:
    if args.scene.startswith("builtin:"):
        scene = builtin_scene(args.scene.split(":", 1)[1])
    else:
        scene = load_scene_file(args.scene)
    if args.seed is not None:
        scene = with_seed(scene, args.seed)
    checks = args.checks.split(",") if args.checks else None
    report = runner.run(scene, checks=checks, points=args.points)
    print(runner.render_report(report))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(runner.report_to_json(report))
            fh.write("\n")
    return runner.exit_code(report)


def _cmd_eval(args) -> int:
    env = {}
    for binding in args.at.split(","):
        if "=" not in binding:
            raise SceneSchemaError(f"binding '{binding}' is not name=value")
        name, _, value = binding.partition("=")
        env[name.strip()] = x = float(value)
        if not math.isfinite(x):
            raise SceneSchemaError(f"binding '{binding}' is not a finite number")
    ast = parse(args.expr, variables=env.keys())
    results = [("", eval_float(ast, env))]
    if args.order > 0:
        names = tuple(env.keys())
        jet = eval_jet(ast, [env[n] for n in names], args.order, names=names)
        for alpha in sorted(jet.coeffs):
            if sum(alpha) == 0:
                continue
            label = "*".join(f"d{names[i]}^{a}" if a > 1 else f"d{names[i]}"
                             for i, a in enumerate(alpha) if a)
            results.append((f"{label}: ", jet.partial(alpha)))
    bad = [f"{label or 'value '}{v}" for label, v in results if not math.isfinite(v)]
    if bad:                             # a non-finite result is a numeric error
        raise DomainEvalError(f"{bad[0]} is not finite", args.expr)
    print("\n".join(f"{label}{v}" for label, v in results))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "list-builtins":
            for name in builtin_names():
                print(name)
            return 0
        return _cmd_eval(args)
    except (ValueError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except GeometryError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
