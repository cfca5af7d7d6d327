"""Every report `run` makes is strict JSON: no number in it is NaN or
±Infinity, which `json.dumps` would write as the bare words NaN and Infinity.
A check whose numbers are not finite is an error, and a classification that
is not finite is a null block.

The scenes are the nine built-ins at seeds 42 and 7 and the failure-path
documents of tests/compare_reports.py that load, each at N = 12 and 50."""

from __future__ import annotations

import json

import pytest

from compare_reports import FAILURE_SCENES
from torseform import builtin_names, builtin_scene, load_scene, report_to_json, run
from torseform.errors import SceneSchemaError
from torseform.scenes import with_seed

POINTS = (12, 50)


def loads(doc):
    try:
        return load_scene(doc)
    except SceneSchemaError:
        return None


LOADED = [doc for doc in FAILURE_SCENES if loads(doc) is not None]


def strict(text: str):
    def refuse(word):
        raise AssertionError(f"{word} in the report")
    return json.loads(text, parse_constant=refuse)


def assert_strict(report):
    payload = strict(report_to_json(report))
    for check in payload["checks"]:
        assert (check["status"] == "error") == (check["residual"] is None
                                                and "error" in check["details"])


@pytest.mark.parametrize("points", POINTS)
@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("name", builtin_names())
def test_builtin_report_is_strict_json(name, seed, points):
    assert_strict(run(with_seed(builtin_scene(name), seed), points=points))


@pytest.mark.parametrize("points", POINTS)
@pytest.mark.parametrize("doc", LOADED, ids=[doc["name"] for doc in LOADED])
def test_failure_path_report_is_strict_json(doc, points):
    assert_strict(run(load_scene(doc), points=points))


def test_the_failure_paths_hold_the_overflowing_classification():
    # the one document whose classification overflowed: a strict report
    # here is the mend, not an absence of overflow
    assert "overflowing-class-residual" in [doc["name"] for doc in LOADED]
