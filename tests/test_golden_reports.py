"""Every built-in report stays what the reference commit wrote.

tests/data/reports/<scene>-s<seed>.json holds the exit code and the JSON
report of `run(builtin scene at that seed, points=200)` for the nine
built-ins at seeds 42 and 7.  Exit codes, statuses, verdicts, strings and
detail keys must match exactly; every number within 1e-12·max(1, |x|); a
witness must be present exactly where the golden has one.  Witness
coordinates are not compared: where a residual is constant up to round-off,
the argmax that picks the witness moves with the last bit.

Regenerate (from the commit whose behaviour is the reference):

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import math
from pathlib import Path

import pytest

from torseform import builtin_names, builtin_scene, exit_code, report_to_json, run
from torseform.scenes import with_seed

GOLDEN = Path(__file__).resolve().parent / "data" / "reports"
SEEDS = (42, 7)
POINTS = 200
REL = 1e-12


def current(name: str, seed: int) -> dict:
    report = run(with_seed(builtin_scene(name), seed), points=POINTS)
    return {"exit_code": exit_code(report), "report": json.loads(report_to_json(report))}


def assert_matches(got, want, path="$"):
    if path.endswith(".witness"):
        assert (got is None) == (want is None), path
        return
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float) or (isinstance(want, int) and not isinstance(want, bool)
                                     and isinstance(got, float)):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=REL * max(1.0, abs(want))), \
            f"{path}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", builtin_names())
def test_report_matches_golden(name, seed):
    want = json.loads((GOLDEN / f"{name}-s{seed}.json").read_text(encoding="utf-8"))
    assert_matches(current(name, seed), want)


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in builtin_names():
        for seed in SEEDS:
            path = GOLDEN / f"{name}-s{seed}.json"
            path.write_text(json.dumps(current(name, seed), indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
            print(path)
