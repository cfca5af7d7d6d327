"""Compare the built-in reports of this checkout with another's, byte for byte.

For each of the nine built-ins at seeds 42 and 7 and N = 200 points (the
18 reports tests/test_golden_reports.py holds), each checkout computes
`report_to_json(run(scene, points=N))`, the table `render_report` prints
for `torseform check` and `exit_code` of the report in its own process,
importing the package from its own src/.  The script
prints one line per report, `same` or `DIFFERS`, then a summary, and
exits 1 if any report, table or exit code differs:

    python tests/compare_reports.py OTHER_CHECKOUT

OTHER_CHECKOUT is any directory holding a src/torseform tree, for
example the parent commit exported with `git archive`.  Unlike the golden
test, nothing is compared within a tolerance: every digit, witness
coordinate, table line and exit code must agree.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
POINTS, SEEDS = 200, (42, 7)

# run in a child process whose PYTHONPATH is one checkout's src/
CHILD = """
import json, sys
from torseform import (builtin_names, builtin_scene, exit_code, render_report,
                       report_to_json, run)
from torseform.scenes import with_seed
points, seeds = int(sys.argv[1]), [int(s) for s in sys.argv[2:]]
out = {}
for name in builtin_names():
    for seed in seeds:
        report = run(with_seed(builtin_scene(name), seed), points=points)
        out[f"{name}-s{seed}"] = [exit_code(report), report_to_json(report),
                                  render_report(report)]
print(json.dumps(out))
"""


def reports(checkout: Path) -> dict:
    """{"<scene>-s<seed>": [exit code, JSON report, table]} computed by
    `checkout`."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(POINTS), *map(str, SEEDS)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


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
    print(f"{len(keys) - len(differing)} of {len(keys)} reports byte-identical "
          f"(report_to_json, render_report and exit code, N = {POINTS}, seeds {SEEDS})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
