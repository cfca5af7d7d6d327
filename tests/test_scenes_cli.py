"""Scene documents, sampling, the runner, and the command-line driver."""

import copy
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torseform import (Tolerances, builtin_names, builtin_scene, load_scene,
                       report_to_json, run, sample_ambient_points,
                       sample_parameter_points)
from torseform.errors import SceneSchemaError
from torseform.immersion import FramePacket
from torseform import runner as runner_module
from torseform.runner import exit_code, render_report
from torseform import scenes as scenes_module
from torseform.scenes import BUILTIN_DOCUMENTS, CHECK_NAMES, SCENE_SCHEMA, with_seed
from torseform import rectifying as rect_module
from torseform import warped as warped_module
from compare_reports import FAILURE_SCENES, TWISTED, TWISTED_FIBER, TWISTED_LAMBDA

REPO = Path(__file__).resolve().parents[1]

#: each check whose verdict judges several report terms: a built-in that
#: runs it, the function that makes its report, and the report's terms
REDUCED_CHECKS = [
    ("tangential-theorem", "clifford-torus", rect_module, "tangential_over",
     ["max_normal_derivative", "max_umbilic_defect"]),
    ("normal-theorem", "cone", rect_module, "normal_over",
     ["max_det", "max_h_vtan", "max_curvature_mismatch", "max_sectional_mismatch"]),
    # clifford-torus's field is not torqued; its report is made up, passing
    ("torqued-props", "clifford-torus", rect_module, "torqued_over",
     ["max_concircular_residual", "max_det", "max_umbilic_defect",
      "max_normal_derivative", "max_w_derivative_defect"]),
    ("ambient-decomposition", "warped-exp", warped_module, "verify_ambient_decomposition",
     ["max_geodesic_defect", "max_lambda_ode_defect", "max_connection_form_defect",
      "max_fiber_lambda_derivative"]),
    # cone is a hypersurface with tangent axis: rectifying judges the
    # normal-axis terms
    ("rectifying", "cone", rect_module, "normal_over",
     ["max_det", "max_h_vtan", "max_curvature_mismatch", "max_sectional_mismatch"]),
    # a proper rectifying surface: max_residual is the residual, and |A_{V^⊥}|
    # a detail the verdict judges
    ("rectifying", "rectifying-psi", rect_module, "rectifying_over",
     ["max_residual", "max_a_vperp"]),
]


def record_results(monkeypatch, owners, name, of=None) -> list:
    """Patch `name` in the module `owners` (or in each of a tuple of them) to
    record what it returns, or its positional argument `of`."""
    owners = owners if isinstance(owners, tuple) else (owners,)
    original, seen = getattr(owners[0], name), []

    def recorded(*args):
        result = original(*args)
        seen.append(result if of is None else args[of])
        return result

    for owner in owners:
        monkeypatch.setattr(owner, name, recorded)
    return seen


E3 = {"dim": 3, "metric": [["1"], ["0", "1"], ["0", "0", "1"]], "domain": [[-3, 3]] * 3}
#: a parallel field with no submanifold, and a radius-2 sphere with no field
FIELD_ONLY = {"name": "field-only", "ambient": E3, "field": ["1", "0", "0"],
              "checks": list(CHECK_NAMES)}
SPHERE_ONLY = {"name": "sphere-only", "ambient": E3, "checks": list(CHECK_NAMES),
               "submanifold": {"dim": 2, "domain": [[0.3, 2.8], [0, 6]],
                               "immersion": ["2*sin(u1)*cos(u2)", "2*sin(u1)*sin(u2)",
                                             "2*cos(u1)"]}}
#: a concircular field c·x, c = 1e150, with a finite fit, whose
#: anti-torqued residual |w + f v| squares entries near 1e300
OVERFLOWING_CLASS_RESIDUAL = {
    "name": "overflowing-class-residual", "field": ["1e150*x1", "1e150*x2"],
    "ambient": {"dim": 2, "metric": [["1"], ["0", "1"]], "domain": [[1, 2], [1, 2]]},
    "checks": ["geodesic-unit"], "seed": 44}
#: the drawn scene that first showed it, where f reaches 2.3e92
FUZZED_4D = {
    "name": "fuzzed-4d", "field": ["0", "0", "((tanh(x1))/(x3))*((log(x2))^300)", "1"],
    "ambient": {"dim": 4, "domain": [[0, 1], [0.1, 0.6], [0.1, 0.6], [0.5, 1.5]],
                "metric": [["1"], ["0", "1+(sqrt(((x2)^2)*(x3)))^2"], ["0", "0", "1"],
                           ["0", "0", "0", "1+(((sqrt(x2))+(x2))*(((0)-(1))-((x4)-(x1))))^2"]]},
    "checks": ["geodesic-unit"], "seed": 44}
#: rectifying-psi's field times 1 + 1e-4
NEAR_MISS_FIELD = [f"1.0001*({c})" for c in BUILTIN_DOCUMENTS["rectifying-psi"]["field"]]
#: the bounds a check compares against that no scene can set
FIXED_BOUNDS = ["a_vperp_tol", "parallel_normal_tol", "umbilic_tol", "det_tol",
                "h_tangent_tol", "curv_match_tol", "gauss_tol"]


def plane_in_e3(ambient=(), submanifold=()) -> str:
    """The plane x3 = 0 in E³ with a parallel field, its ambient and
    submanifold entries updated, as scene-file text."""
    doc = {"name": "plane", "ambient": dict(E3, **dict(ambient)), "field": ["1", "0", "0"],
           "checks": ["classify"],
           "submanifold": {"dim": 2, "immersion": ["u1", "u2", "0"],
                           "domain": [[-1, 1], [-1, 1]], **dict(submanifold)}}
    return json.dumps(doc)


#: scene files the schema admits and `load_scene_file` refuses, each with its
#: one line on stderr (<path> is the file's path)
LOAD_REFUSALS = {
    "ambient-domain-count": (plane_in_e3(ambient={"domain": [[-3, 3]] * 2}),
                             "$.ambient.domain: expected 3 intervals, got 2"),
    "metric-row-length": (plane_in_e3(ambient={"metric": [["1"], ["0", "1", "0", "0"],
                                                          ["0", "0", "1"]]}),
                          "$.ambient.metric[1]: row must have 2 (lower triangle) or 3 "
                          "entries, got 4"),
    "immersion-count": (plane_in_e3(submanifold={"immersion": ["u1", "u2"]}),
                        "$.submanifold.immersion: expected 3 components, got 2"),
    "parameter-domain-count": (plane_in_e3(submanifold={"domain": [[-1, 1]]}),
                               "$.submanifold.domain: expected 2 intervals, got 1"),
    "empty-parameter-interval": (plane_in_e3(submanifold={"domain": [[1, 1], [-1, 1]]}),
                                 "$.submanifold.domain: empty interval [1, 1]"),
    "immersion-parse": (plane_in_e3(submanifold={"immersion": ["u1", "u2+", "0"]}),
                        "$.submanifold.immersion: line 1:4: expected a number, identifier "
                        "or '(', found '<end>'"),
    "not-json": ('{"name": ', "<path>: not valid JSON: Expecting value: line 1 column 10 "
                              "(char 9)"),
}


def minimal_doc(**overrides):
    doc = {
        "name": "mini",
        "ambient": {"dim": 2,
                    "metric": [["1"], ["0", "1"]],
                    "domain": [[-1, 1], [-1, 1]]},
        "field": ["1", "0"],
        "checks": ["classify"],
    }
    doc.update(overrides)
    return doc


class TestSchema:
    def test_minimal_loads_with_defaults(self):
        scene = load_scene(minimal_doc())
        assert scene.seed == 42
        assert scene.exclude_radius == 0.0
        assert scene.tolerances.rect_tol == 1e-7

    def test_missing_field_and_submanifold(self):
        doc = minimal_doc()
        del doc["field"]
        with pytest.raises(SceneSchemaError) as err:
            load_scene(doc)
        assert "field" in str(err.value)

    def test_metric_dimension_mismatch(self):
        doc = minimal_doc()
        doc["ambient"]["dim"] = 3
        doc["ambient"]["domain"] = [[-1, 1]] * 3
        doc["field"] = ["1", "0", "0"]
        with pytest.raises(SceneSchemaError) as err:
            load_scene(doc)
        assert "metric" in str(err.value)

    def test_field_length_mismatch(self):
        with pytest.raises(SceneSchemaError) as err:
            load_scene(minimal_doc(field=["1"]))
        assert "$.field" in str(err.value)

    def test_submanifold_codimension_required(self):
        doc = minimal_doc()
        doc["submanifold"] = {"dim": 2, "immersion": ["u1", "u2"],
                              "domain": [[0, 1], [0, 1]]}
        with pytest.raises(SceneSchemaError) as err:
            load_scene(doc)
        assert "n < m" in str(err.value)

    def test_bad_expression_reports_path(self):
        doc = minimal_doc(field=["1+", "0"])
        with pytest.raises(SceneSchemaError) as err:
            load_scene(doc)
        assert "$.field" in str(err.value)

    def test_unknown_variable_in_metric(self):
        doc = minimal_doc()
        doc["ambient"]["metric"] = [["1"], ["0", "x3"]]
        with pytest.raises(SceneSchemaError):
            load_scene(doc)

    def test_unknown_check(self):
        with pytest.raises(SceneSchemaError) as err:
            load_scene(minimal_doc(checks=["frobnicate"]))
        assert "frobnicate" in str(err.value)

    @pytest.mark.parametrize("key", ["bogus_tol", "zero_h_tol", "svd_rank_tol",
                                     "decomp_geodesic_tol", "normal_keep_tol",
                                     *FIXED_BOUNDS])
    def test_unknown_tolerance(self, key):
        with pytest.raises(SceneSchemaError, match=f"unknown tolerance '{key}'"):
            load_scene(minimal_doc(tolerances={key: 1e-3}))

    def test_every_tolerance_is_read_by_the_code(self):
        # a field no code reads would be a knob a scene sets to no effect, and
        # a fixed bound no code reads would judge nothing
        code = "".join(path.read_text() for path in (REPO / "src" / "torseform").glob("*.py")
                       if path.name != "config.py")
        fields = [f.name for f in dataclasses.fields(Tolerances)]
        names = list(Tolerances.__annotations__)    # the fields, then the fixed bounds
        assert names == fields + FIXED_BOUNDS
        unread = [name for name in names if not re.search(rf"\.{name}\b", code)]
        assert unread == []

    @pytest.mark.parametrize("value", [60.5, float("nan"), float("inf")])
    def test_non_integral_sample_size_is_refused(self, value):
        with pytest.raises(SceneSchemaError,
                           match=r"\$\.tolerances: class_min_points must be an integer"):
            load_scene(minimal_doc(tolerances={"class_min_points": value}))

    def test_integral_float_sample_size_is_stored_as_an_int(self):
        scene = load_scene(minimal_doc(tolerances={"class_min_points": 60.0}))
        assert type(scene.tolerances.class_min_points) is int
        assert scene.tolerances.class_min_points == 60

    def test_tolerance_override_applied(self):
        scene = load_scene(minimal_doc(tolerances={"rect_tol": 1e-5}))
        assert scene.tolerances.rect_tol == 1e-5

    def test_schema_violation_reports_json_path(self):
        doc = minimal_doc()
        doc["ambient"]["dim"] = "two"
        with pytest.raises(SceneSchemaError) as err:
            load_scene(doc)
        assert "dim" in str(err.value)

    def test_empty_interval(self):
        doc = minimal_doc()
        doc["ambient"]["domain"] = [[1, -1], [-1, 1]]
        with pytest.raises(SceneSchemaError):
            load_scene(doc)

    def test_unknown_builtin(self):
        with pytest.raises(SceneSchemaError):
            builtin_scene("not-a-scene")

    # Python's json reads NaN and Infinity, which JSON has not; each of these
    # documents reached a verdict, or sampled with no excluded ball
    @pytest.mark.parametrize("field, change, where", [
        (["x1", "x2", "x3"], {"tolerances": {"class_tol": math.nan}},
         "$.tolerances.class_tol: nan"),
        (["x1^2", "x2", "x3"], {"tolerances": {"class_tol": math.inf}},
         "$.tolerances.class_tol: inf"),
        (["x1", "x2", "x3"], {"exclude_radius": math.nan}, "$.exclude_radius: nan"),
    ])
    def test_non_finite_number_is_refused(self, field, change, where):
        doc = dict(name="nonfinite", ambient=E3, field=field, checks=["classify"], **change)
        with pytest.raises(SceneSchemaError) as err:
            load_scene(doc)
        assert str(err.value) == f"{where} is not a finite number"

    # finite ends whose width overflows: each document reached a verdict at
    # sampled points with an infinite coordinate (classify passed, rectifying
    # passed in tangent-axis-hypersurface mode)
    @pytest.mark.parametrize("doc, where", [
        (dict(name="wide", ambient=dict(E3, domain=[[-1e308, 1e308], [-1, 1], [-1, 1]]),
              field=["1", "0", "0"], checks=["classify"]), "$.ambient.domain[0]"),
        (dict(name="wide-sub", ambient=E3, field=["1", "0", "0"], checks=["rectifying"],
              submanifold={"dim": 2, "domain": [[-1, 1], [-1e308, 1e308]],
                           "immersion": ["u1", "u2", "0"]}), "$.submanifold.domain[1]"),
    ], ids=["ambient", "submanifold"])
    def test_an_interval_too_wide_for_a_float_is_refused(self, doc, where):
        with pytest.raises(SceneSchemaError) as err:
            load_scene(doc)
        assert str(err.value) == (f"{where}: interval [-1e+308, 1e+308] is too wide: "
                                  "its width is not a finite number")
        key, index = ("ambient", 0) if where.startswith("$.ambient") else ("submanifold", 1)
        # a JSON integer end beyond float range raised OverflowError
        huge = copy.deepcopy(doc)
        huge[key]["domain"][index] = [-10**400, 1]
        with pytest.raises(SceneSchemaError) as err:
            load_scene(huge)
        assert str(err.value) == (f"{where}: interval [{-10**400}, 1] is too wide: "
                                  "its width is not a finite number")
        # the widest interval whose width is a float still loads
        narrower = copy.deepcopy(doc)
        narrower[key]["domain"][index] = [-8e307, 8e307]
        assert load_scene(narrower).name == doc["name"]


@pytest.mark.parametrize("doc", [
    {"name": "x"},
    minimal_doc(name=""),
    minimal_doc(seed=-3),
    minimal_doc(checks=[]),
    minimal_doc(extra=1),
    minimal_doc(ambient={"dim": 0, "metric": [], "domain": []}),
    minimal_doc(tolerances={"rect_tol": "small"}),
])
def test_schema_messages_are_jsonschemas(doc):
    # the validator is built once; its messages are those of jsonschema.validate
    import jsonschema
    from torseform.scenes import SCENE_SCHEMA

    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(doc, SCENE_SCHEMA)
    with pytest.raises(SceneSchemaError) as got:
        load_scene(doc)
    assert str(got.value) == f"{want.value.json_path}: {want.value.message}"


def _paths(node, path=()):
    """The path of every value in a document, the document's own first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


json_values = st.recursive(
    st.sampled_from([-1, -0.5, ""]) | st.none() | st.booleans() | st.integers(-5, 5)
    | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=2),
    max_leaves=4)


@st.composite
def mutated_builtins(draw):
    """A built-in document with one to three mutations: a key deleted, a
    value retyped (any value, or one with a lower bound to a value near it),
    an unknown key added (at the top level, in ambient, in submanifold or in
    tolerances), a list emptied or an interval lengthened."""
    doc = copy.deepcopy(BUILTIN_DOCUMENTS[draw(st.sampled_from(sorted(BUILTIN_DOCUMENTS)))])
    if draw(st.booleans()):
        doc["tolerances"] = {"rect_tol": 1e-7}
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        kind = draw(st.sampled_from(["delete", "retype", "bound", "add", "empty", "lengthen"]))
        if kind == "delete":
            keyed = [p for p in paths if p and isinstance(_at(doc, p[:-1]), dict)]
            if keyed:
                path = draw(st.sampled_from(keyed))
                del _at(doc, path[:-1])[path[-1]]
        elif kind == "retype":
            path = draw(st.sampled_from([p for p in paths if p]))
            _at(doc, path[:-1])[path[-1]] = draw(json_values)
        elif kind == "bound":     # a value with a minimum or a minLength, retyped
            bounded = [p for p in [("name",), ("ambient", "dim"), ("submanifold", "dim"),
                                   ("seed",), ("exclude_radius",)] if p in paths]
            if bounded:
                path = draw(st.sampled_from(bounded))
                _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(["", 0, -3, -0.5, 0.5, 2.0]))
        elif kind == "add":
            owners = [p for p in [(), ("ambient",), ("submanifold",), ("tolerances",)]
                      if p in paths and isinstance(_at(doc, p), dict)]
            if owners:
                key = draw(st.sampled_from(["extra", "rect_tol", "a b", "it's", "x1"]) | st.text())
                _at(doc, draw(st.sampled_from(owners)))[key] = draw(json_values)
        else:
            lists = [p for p in paths if isinstance(_at(doc, p), list)
                     and (kind == "empty" or "domain" in p[-2:-1])]
            if lists:
                target = _at(doc, draw(st.sampled_from(lists)))
                target.clear() if kind == "empty" else target.append(draw(st.floats(-3, 3)))
    return doc


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(mutated_builtins())
def test_schema_messages_of_mutated_builtins_are_jsonschemas(doc):
    # the message, and the error chosen among several, are best_match's
    import jsonschema

    want = jsonschema.exceptions.best_match(
        jsonschema.validators.validator_for(SCENE_SCHEMA)(SCENE_SCHEMA).iter_errors(doc))
    try:
        scenes_module._validate(doc)
        got = None
    except SceneSchemaError as err:
        got = str(err)
    assert got == (want and f"{want.json_path}: {want.message}")


class TestSampling:
    def test_exclusion_ball_respected(self):
        scene = builtin_scene("radial-r4")
        rng = np.random.default_rng(1)
        pts = sample_ambient_points(scene, 200, rng)
        assert len(pts) == 200
        assert min(np.linalg.norm(p) for p in pts) >= 0.1
        assert all(np.all(np.abs(p) <= 3.0) for p in pts)

    def test_parameter_points_inside_box(self):
        scene = builtin_scene("rectifying-psi")
        rng = np.random.default_rng(2)
        pts = sample_parameter_points(scene, 50, rng)
        for u in pts:
            assert 0.5 <= u[0] <= 3.0
            assert 0.1 <= u[1] <= 6.2

    def test_seeded_reproducibility(self):
        scene = builtin_scene("radial-r4")
        a = sample_ambient_points(scene, 20, np.random.default_rng(9))
        b = sample_ambient_points(scene, 20, np.random.default_rng(9))
        assert np.array_equal(np.array(a), np.array(b))


class TestBuiltins:
    def test_all_builtins_load(self):
        for name in builtin_names():
            scene = builtin_scene(name)
            assert scene.name == name

    def test_documented_verdicts(self):
        # every built-in produces its documented outcome (the unit-sphere
        # negative control is documented to fail)
        expected_exit = {name: 0 for name in builtin_names()}
        expected_exit["unit-sphere"] = 1
        for name in builtin_names():
            report = run(builtin_scene(name), points=25)
            assert exit_code(report) == expected_exit[name], (name, report)

    def test_with_seed_validates_the_seed(self):
        scene = builtin_scene("cone")
        seeded = with_seed(scene, 7)
        assert seeded.seed == 7 and seeded.document["seed"] == 7
        with pytest.raises(SceneSchemaError) as err:
            with_seed(scene, -3)
        assert str(err.value) == "$.seed: -3 is less than the minimum of 0"


class TestRunner:
    def test_deterministic_reports(self):
        a = report_to_json(run(builtin_scene("rectifying-psi"), points=15))
        b = report_to_json(run(builtin_scene("rectifying-psi"), points=15))
        assert a == b

    def test_checks_run_in_the_order_their_streams_are_seeded(self):
        # each check's random stream is seeded from its CHECK_NAMES index, and
        # checks run in _CHECKS order: a reorder of either changes every report
        assert tuple(runner_module._CHECKS) == CHECK_NAMES

    def test_check_subset(self):
        report = run(builtin_scene("clifford-torus"), checks=["classify"],
                     points=20)
        assert [c.name for c in report.checks] == ["classify"]

    def test_unknown_check_rejected(self):
        with pytest.raises(SceneSchemaError):
            run(builtin_scene("radial-r4"), checks=["nope"])

    def test_warp_gate_reports_na_on_non_rectifying_scene(self):
        report = run(builtin_scene("unit-sphere"),
                     checks=["rectifying", "warp-fit"], points=10)
        by_name = {c.name: c for c in report.checks}
        assert by_name["rectifying"].status == "fail"
        assert by_name["warp-fit"].status == "n/a"
        assert exit_code(report) == 1

    @pytest.mark.parametrize("change, residual", [
        # rectifying-psi's field times 1 + 1e-4 is rectifying still, but λ
        # is off the warping ODE by 0.77e-4 at the worst sample point
        ({"field": NEAR_MISS_FIELD}, 7.699e-5),
        # |2x/|x|| = 2: λ = |V^⊤| solves no warping ODE, and λ >= 1, outside
        # the tanh model, is not judged off the ODE
        ({"field": ["2*" + c for c in BUILTIN_DOCUMENTS["rectifying-psi"]["field"]]}, 2.309)],
        ids=["field-1e-4", "field-2x"])
    def test_warp_fit_fails_off_the_warping_ode(self, change, residual):
        doc = dict(BUILTIN_DOCUMENTS["rectifying-psi"], **change)
        report = run(load_scene(doc), checks=["rectifying", "warp-fit"], points=50)
        rectifying, warp = report.checks
        assert rectifying.status == "pass"
        assert warp.status == "fail"
        assert warp.residual == pytest.approx(residual, rel=1e-3)
        assert warp.details["ode_residual"] == warp.residual
        assert sorted(warp.details) == ["bound", "lambda_range", "ode_residual", "points"]
        assert exit_code(report) == 1

    def test_a_scene_ode_tol_is_read(self):
        # the near miss above passes under a bound the scene raises past it
        doc = dict(BUILTIN_DOCUMENTS["rectifying-psi"], field=NEAR_MISS_FIELD,
                   tolerances={"ode_tol": 1e-3})
        rectifying, warp = run(load_scene(doc), checks=["rectifying", "warp-fit"],
                               points=50).checks
        assert (rectifying.status, warp.status) == ("pass", "pass")
        assert warp.details["bound"] == 1e-3
        assert warp.residual == pytest.approx(7.699e-5, rel=1e-3)

    def test_a_nan_ode_residual_is_an_error(self, monkeypatch):
        ode = warped_module.warping_ode_over
        monkeypatch.setattr(warped_module, "warping_ode_over", lambda packet: dataclasses.replace(
            ode(packet), residual=np.full(len(packet.u), math.nan)))
        report = run(builtin_scene("rectifying-psi"), checks=["rectifying", "warp-fit"],
                     points=20)
        warp = report.checks[1]
        assert warp.status == "error" and warp.residual is None
        assert warp.details == {"error": "NonFiniteResidual",
                                "message": "residual nan is not finite"}
        assert exit_code(report) == 3

    def test_no_builtin_run_traces_a_curve(self, monkeypatch):
        traced = []
        monkeypatch.setattr(warped_module, "trace_integral_curve",
                            lambda *args, **kwargs: traced.append(args))
        for name in builtin_names():
            run(builtin_scene(name), points=20)
        assert traced == []

    @pytest.mark.parametrize("point, values, message", [
        ([math.inf, 0.5, 0.5], {}, "witness.point inf is not finite"),
        ([0.5, 0.5, 0.5], {"f": math.nan}, "witness.values.f nan is not finite"),
    ], ids=["point", "value"])
    def test_a_non_finite_witness_is_an_error(self, monkeypatch, point, values, message):
        # as a residual or a detail that is not finite: never a verdict, and
        # never a report holding a number that JSON has not
        witness = runner_module._witness
        monkeypatch.setattr(runner_module, "_witness",
                            lambda _, **found: witness(point, **{**found, **values}))
        report = run(builtin_scene("radial-r4"), checks=["classify"], points=20)
        classify = report.checks[0]
        assert classify.status == "error" and classify.residual is None
        assert classify.witness is None
        assert classify.details == {"error": "NonFiniteResidual", "message": message}
        assert exit_code(report) == 3
        text = report_to_json(report)
        assert "Infinity" not in text and "NaN" not in text

    def test_one_bound_decides_that_the_normal_component_vanishes(self):
        # |V^⊥| ≈ 7.07e-8 is within proper_tol = 1e-6: rectifying takes
        # tangent-axis-hypersurface mode, and both checks judge the
        # normal-axis terms
        doc = BUILTIN_DOCUMENTS["cone"]
        field = doc["field"][:2] + [doc["field"][2] + "+1e-7"]
        doc = dict(doc, field=field, tolerances={"proper_tol": 1e-6})
        report = run(load_scene(doc), checks=["rectifying", "normal-theorem"], points=50)
        normal, rectifying = report.checks
        assert rectifying.details["mode"] == "tangent-axis-hypersurface"
        assert normal.details["max_v_nor"] == pytest.approx(7.07e-8, rel=1e-3)
        assert (rectifying.status, normal.status) == ("pass", "pass")
        for term in ("max_det", "max_h_vtan", "max_curvature_mismatch",
                     "max_sectional_mismatch"):
            assert rectifying.details[term] == normal.details[term]
        assert rectifying.residual == normal.residual

    def test_scene_without_field_reports_na_for_field_checks(self):
        # one precondition of the run, whichever check reads the field
        report = run(load_scene(SPHERE_ONLY))
        assert [c.name for c in report.checks] == list(CHECK_NAMES)
        for check in report.checks:
            if check.name == "gauss-equation":
                assert check.status == "pass"
            else:
                assert (check.status, check.details) == (
                    "n/a", {"reason": "check needs a vector field"})
        assert exit_code(report) == 1

    def test_a_nan_in_a_nested_detail_is_an_error(self, monkeypatch):
        # classify's f_summary is also the report's classification block,
        # which is judged once, where the classification is made
        from torseform.classify import SceneClassification

        monkeypatch.setattr(SceneClassification, "f_summary",
                            lambda self: {"min": 1.0, "max": float("nan"), "mean": 1.0})
        report = run(builtin_scene("radial-r4"), checks=["classify"], points=20)
        [check] = report.checks
        assert check.status == "error" and check.residual is None
        assert check.details == {"error": "GeometryError",
                                 "message": "classification.f_summary.max nan is not finite"}
        assert report.classification is None

    @pytest.mark.parametrize("doc", [OVERFLOWING_CLASS_RESIDUAL, FUZZED_4D],
                             ids=["reduced", "fuzzed-4d"])
    def test_a_non_finite_classification_is_an_error(self, doc):
        # |w + f v| squares entries past float range where the fit is
        # finite: the report held "anti-torqued": Infinity, which strict
        # JSON has not, and geodesic-unit was n/a on the verdict it gave
        report = run(load_scene(doc), points=12)
        [check] = report.checks
        assert (check.name, check.status) == ("geodesic-unit", "error")
        assert check.details == {
            "error": "GeometryError",
            "message": "classification.residuals.anti-torqued inf is not finite"}
        assert report.classification is None and exit_code(report) == 3
        text = report_to_json(report)
        assert "Infinity" not in text and "NaN" not in text

    def test_classification_block_present(self):
        report = run(builtin_scene("radial-r4"), points=20)
        assert report.classification["verdict"] == "anti-torqued"
        payload = json.loads(report_to_json(report))
        assert payload["classification"]["f_summary"]["min"] > 0

    @pytest.mark.parametrize("override, status", [
        ({}, "pass"),
        # radial-r4's max |∇̃_V V| is a few 1e-16
        ({"geodesic_tol": 1e-16}, "fail"),
        # and its |V| is 1 to within one ulp, not at every point exactly
        ({"unit_norm_tol": 1e-16}, "n/a")])
    def test_geodesic_unit_tolerances_are_scene_overrides(self, override, status):
        doc = dict(BUILTIN_DOCUMENTS["radial-r4"], tolerances=override)
        by_name = {c.name: c for c in run(load_scene(doc), points=200).checks}
        check = by_name["geodesic-unit"]
        assert check.status == status
        if status == "n/a":
            # the first point off the unit sphere is named, with |V| in full
            assert re.fullmatch(r"field is not unit at \[.*\]: \|V\| = [0-9.]+",
                                check.details["reason"])
        else:
            assert check.details["bound"] == override.get("geodesic_tol", 1e-8)

    @pytest.mark.parametrize("override, status", [
        ({}, "pass"),
        # radial-r4's max |∇̃_{E₁}E₁| is 6.4e-17, and its largest defect of
        # items (b), (c), (d) 2.2e-16
        ({"geodesic_tol": 1e-17}, "fail"),
        ({"decomp_tol": 1e-17}, "fail")])
    def test_ambient_decomposition_tolerances_are_scene_overrides(self, override, status):
        doc = dict(BUILTIN_DOCUMENTS["radial-r4"], tolerances=override)
        report = run(load_scene(doc), checks=["classify", "ambient-decomposition"],
                     points=50)
        check = report.checks[1]
        assert check.status == status
        details = check.details
        if "geodesic_tol" in override:
            assert details["max_geodesic_defect"] > override["geodesic_tol"]
            assert max(details[k] for k in ("max_lambda_ode_defect",
                                             "max_connection_form_defect",
                                             "max_fiber_lambda_derivative")) <= 1e-7
        if "decomp_tol" in override:
            assert details["max_geodesic_defect"] <= 1e-8

    @pytest.mark.parametrize("override, moved", [({}, True), ({"null_dir_tol": 1e300}, False)])
    def test_null_direction_floor_is_a_scene_override(self, monkeypatch, override, moved):
        # torqued-props, normal case, on a fiber of a twisted product: each
        # tangent e_i made orthogonal to W^⊤ is a direction X unless |X|² is
        # below the floor; the frame matrix of ∇̃V is replaced by ones, so
        # that ∇̃_X V has a normal part and |D_X V^⊥| reads 0 exactly where X
        # counts as zero
        lam = "exp(x1)*(1+x2^2/4)"
        doc = {"name": "twisted-fiber", "ambient": {
                   "dim": 3, "metric": [["1"], ["0", f"({lam})^2"], ["0", "0", f"({lam})^2"]],
                   "domain": [[-0.8, 0.8]] * 3},
               "field": [lam, "0", "0"],
               "submanifold": {"dim": 2, "immersion": ["0.2", "u1", "u2"],
                               "domain": [[-0.8, 0.8], [-0.8, 0.8]]},
               "checks": ["torqued-props"], "seed": 3, "tolerances": override}
        monkeypatch.setattr(FramePacket, "dv_frame",
                            property(lambda packet: np.ones_like(packet.tangents)))
        check = run(load_scene(doc), points=60).checks[0]
        assert check.details["case"] == "normal"
        assert (check.details["max_normal_derivative"] > 0.0) == moved

    def test_render_contains_rows(self):
        report = run(builtin_scene("cone"), points=10)
        text = render_report(report)
        assert "normal-theorem" in text and "pass" in text

    def test_unclassifiable_field_fails_classify(self):
        doc = minimal_doc(
            name="unclassifiable",
            field=["exp(x2)", "exp(x1)"],
            checks=["classify", "geodesic-unit"],
        )
        doc["ambient"]["domain"] = [[0.2, 1.5], [0.2, 1.5]]
        report = run(load_scene(doc), points=80)
        by_name = {c.name: c for c in report.checks}
        assert by_name["classify"].status == "fail"
        assert by_name["classify"].details["verdict"] == "none"
        assert by_name["geodesic-unit"].status == "n/a"
        assert exit_code(report) == 1

    def test_inconsistent_sample_maps_to_fail_not_error(self, monkeypatch):
        import torseform.runner as runner_mod
        from torseform.errors import InconsistentSampleError

        def boom(*args, **kwargs):
            raise InconsistentSampleError("mixed", {"none": 3, "torqued": 2})

        monkeypatch.setattr(runner_mod, "classify_field", boom)
        report = runner_mod.run(builtin_scene("radial-r4"),
                                checks=["classify", "geodesic-unit"], points=10)
        by_name = {c.name: c for c in report.checks}
        assert by_name["classify"].status == "fail"
        assert by_name["classify"].details["verdicts"] == {"none": 3, "torqued": 2}
        assert by_name["geodesic-unit"].status == "n/a"
        assert exit_code(report) == 1


def run_python(*args):
    # the child imports this checkout's package, installed or not
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, cwd=str(REPO), env=dict(os.environ, PYTHONPATH=path))


def run_cli(*args):
    return run_python("-m", "torseform", *args)


class TestCli:
    def test_list_builtins(self):
        proc = run_cli("list-builtins")
        assert proc.returncode == 0
        assert "rectifying-psi" in proc.stdout

    def test_check_builtin_pass(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("check", "builtin:cone", "--points", "10",
                       "--json", str(out))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(out.read_text())
        assert payload["scene"] == "cone"
        assert all(c["status"] == "pass" for c in payload["checks"])

    def test_check_builtin_fail_exit_one(self):
        proc = run_cli("check", "builtin:unit-sphere", "--points", "10")
        assert proc.returncode == 1

    def test_check_scene_file(self, tmp_path):
        doc = minimal_doc(name="from-file")
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("check", str(path), "--points", "50")
        assert proc.returncode == 0, proc.stderr
        assert "from-file" in proc.stdout

    def test_back_to_back_calls_share_no_arguments(self, tmp_path, capsys):
        # the parser is built once per process; no option of one call
        # reaches the next
        from torseform import cli

        out = tmp_path / "first.json"
        assert cli.main(["check", "builtin:radial-r4", "--seed", "7", "--checks",
                         "classify", "--points", "10", "--json", str(out)]) == 0
        first = capsys.readouterr().out
        out.unlink()
        assert cli.main(["list-builtins"]) == 0
        assert "radial-r4" in capsys.readouterr().out.split()
        assert cli.main(["check", "builtin:radial-r4", "--points", "10"]) == 0
        second = capsys.readouterr().out
        assert "seed: 7" in first and "seed: 42" in second
        assert "geodesic-unit" not in first and "geodesic-unit" in second
        assert not out.exists()
        args = cli._build_parser().parse_args(["check", "builtin:radial-r4"])
        assert (args.seed, args.checks, args.json_out, args.points) == (None, None, None, 50)
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("name", builtin_names())
    def test_builtin_document_as_scene_file(self, name, tmp_path):
        # a built-in written out as a scene file reports what builtin:NAME does
        from torseform import cli

        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(BUILTIN_DOCUMENTS[name]))
        outs = tmp_path / "file.json", tmp_path / "builtin.json"
        codes = [cli.main(["check", scene, "--points", "20", "--json", str(out)])
                 for scene, out in zip((str(path), f"builtin:{name}"), outs)]
        assert codes[0] == codes[1]
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_schema_error_exit_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x"}))
        proc = run_cli("check", str(path))
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_non_integral_sample_size_exit_two(self, tmp_path):
        # rng.random would raise a TypeError on a float sample size
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(dict(BUILTIN_DOCUMENTS["radial-r4"],
                                        tolerances={"class_min_points": 60.5})))
        proc = run_cli("check", str(path))
        assert proc.returncode == 2
        assert "class_min_points must be an integer" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_infinite_domain_end_exit_two(self, tmp_path):
        # this scene passed classify at a witness with an infinite coordinate
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"name": "wide", "ambient": dict(E3, domain=[[-1, math.inf],
                                                                                [-1, 1], [-1, 1]]),
                                    "field": ["1", "0", "0"], "checks": ["classify"]}))
        assert "Infinity" in path.read_text()
        proc = run_cli("check", str(path))
        assert proc.returncode == 2
        assert proc.stderr == "error: $.ambient.domain[0][1]: inf is not a finite number\n"

    @pytest.mark.parametrize("lo", [-1e308, -10**400], ids=["float", "integer"])
    def test_too_wide_domain_exit_two(self, tmp_path, lo):
        # finite ends 1e308 apart: this scene passed classify at a witness
        # with an infinite coordinate, and its report held 'Infinity'; an
        # integer end beyond float range died with an OverflowError traceback
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"name": "wide", "ambient": dict(E3, domain=[[lo, 1e308],
                                                                                [-1, 1], [-1, 1]]),
                                    "field": ["1", "0", "0"], "checks": ["classify"]}))
        proc = run_cli("check", str(path), "--points", "20")
        assert proc.returncode == 2
        assert proc.stderr == (f"error: $.ambient.domain[0]: interval [{lo}, 1e+308] is too "
                               "wide: its width is not a finite number\n")

    @pytest.mark.parametrize("case", LOAD_REFUSALS)
    def test_load_refusal_exit_two(self, case, tmp_path, capsys):
        from torseform import cli

        text, message = LOAD_REFUSALS[case]
        path = tmp_path / "scene.json"
        path.write_text(text)
        assert cli.main(["check", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message.replace('<path>', str(path))}\n"

    def test_a_check_never_imports_jsonschema(self):
        # jsonschema is the tests' oracle for the scene validator, not a
        # dependency: a check in a fresh interpreter never imports it
        code = ("import sys, torseform\n"
                "from torseform import cli\n"
                "code = cli.main(['check', 'builtin:radial-r4', '--points', '50'])\n"
                "print(code, 'jsonschema' in sys.modules)\n")
        proc = run_python("-c", code)
        assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr

    def test_integral_float_dims_report_as_integer_dims(self, tmp_path):
        # the schema lets 3.0 through as an integer; chart_names(3.0) would
        # raise a TypeError
        doc = BUILTIN_DOCUMENTS["cone"]
        floats = dict(doc, ambient=dict(doc["ambient"], dim=3.0),
                      submanifold=dict(doc["submanifold"], dim=2.0))
        outs = []
        for name, document in (("ints", doc), ("floats", floats)):
            path, out = tmp_path / f"{name}.json", tmp_path / f"{name}-report.json"
            path.write_text(json.dumps(document))
            proc = run_cli("check", str(path), "--points", "20", "--json", str(out))
            assert proc.returncode == 0, proc.stderr
            assert "Traceback" not in proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_file_exit_two(self):
        proc = run_cli("check", "/nonexistent/scene.json")
        assert proc.returncode == 2

    def test_overflowing_field_is_numeric_error_not_usage_error(self, tmp_path):
        # x1^300 overflows on x1 in [10, 30]: the fit's normal equations are
        # non-finite, which must be reported per check with exit code 3
        from torseform import cli

        doc = minimal_doc(name="overflow", field=["x1^300", "x2", "x3"])
        doc["ambient"] = {"dim": 3, "metric": [["1"], ["0", "1"], ["0", "0", "1"]],
                          "domain": [[10, 30], [1, 2], [1, 2]]}
        path, out = tmp_path / "overflow.json", tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        with np.errstate(all="ignore"):
            code = cli.main(["check", str(path), "--json", str(out)])
        assert code == 3
        payload = json.loads(out.read_text())
        [check] = payload["checks"]
        assert check["name"] == "classify"
        assert check["status"] == "error"
        assert check["details"]["error"] == "SingularFitError"

    def test_non_finite_fit_is_an_error_not_a_verdict(self, tmp_path):
        # V = 1e308·(x − 1e-200) is finite, but tr ∇V = 3e308 overflows: f is
        # not finite at any point, which is an error, not the verdict `none`
        from torseform import cli

        doc = {"name": "nan-trace", "checks": ["classify"],
               "ambient": {"dim": 3, "metric": [["1"], ["0", "1"], ["0", "0", "1"]],
                           "domain": [[2e-200, 3e-200]] * 3},
               "field": [f"1e308*(x{i}-1e-200)" for i in (1, 2, 3)]}
        path, out = tmp_path / "nan-trace.json", tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["check", str(path), "--json", str(out)])
        assert code == 3
        [check] = json.loads(out.read_text())["checks"]
        assert check["status"] == "error"
        assert check["details"]["error"] == "SingularFitError"
        assert check["details"]["message"].startswith("torse-forming fit is not finite at [")

    def test_non_finite_residual_is_an_error_not_a_verdict(self, tmp_path):
        # Ψ's first component overflows to inf, so both residuals are NaN:
        # a NaN never yields pass or fail, and the run exits 3
        from torseform import cli

        doc = minimal_doc(name="non-finite", field=["1", "0", "0"],
                          checks=["gauss-equation", "rectifying"])
        doc["ambient"] = {"dim": 3, "metric": [["1"], ["0", "1"], ["0", "0", "1"]],
                          "domain": [[-3, 3], [-3, 3], [-3, 3]]}
        doc["submanifold"] = {"dim": 2, "immersion": ["u1*u1*1e300*1e300", "u2", "0"],
                              "domain": [[1, 2], [-1, 1]]}
        path, out = tmp_path / "non-finite.json", tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["check", str(path), "--json", str(out)]) == 3
        checks = json.loads(out.read_text())["checks"]
        assert [c["name"] for c in checks] == ["gauss-equation", "rectifying"]
        for check in checks:
            assert check["status"] == "error" and check["residual"] is None
            assert check["details"]["error"] == "NonFiniteResidual"

    @pytest.mark.parametrize("check, scene, module, function, terms, term", [
        pytest.param(check, scene, module, function, terms, term, id=f"{check}-{term}")
        for check, scene, module, function, terms in REDUCED_CHECKS for term in terms])
    def test_a_nan_in_any_term_of_a_reduced_check_is_an_error(
            self, monkeypatch, check, scene, module, function, terms, term):
        # the residual is the largest of the report's terms: a NaN in any of
        # them, not only the first (which Python's max would keep), is an error
        original = getattr(module, function)

        def with_nan(*args):
            if check == "torqued-props":
                rep = rect_module.TorquedCaseReport(dict.fromkeys(terms, 0.0), True,
                                                    case="tangent")
            else:
                rep = original(*args)
                # the report judges exactly the terms named here
                assert sorted(rep.terms) == sorted(terms)
            return dataclasses.replace(rep, terms={**rep.terms, term: float("nan")})

        monkeypatch.setattr(module, function, with_nan)
        report = run(builtin_scene(scene), checks=[check], points=20)
        [result] = report.checks
        assert result.status == "error" and result.residual is None
        # a judged term that is not the residual is named
        key = term if term == "max_a_vperp" else "residual"
        assert result.details == {"error": "NonFiniteResidual",
                                  "message": f"{key} nan is not finite"}
        assert exit_code(report) == 3

    def test_torqued_props_judges_the_terms_its_row_names(self, monkeypatch):
        # the twisted product's fiber, to which the torqued field is normal
        reports = record_results(monkeypatch, rect_module, "torqued_over")
        doc = {"name": "twisted-fiber", "ambient": TWISTED, "submanifold": TWISTED_FIBER,
               "field": [TWISTED_LAMBDA, "0", "0"], "checks": ["classify", "torqued-props"]}
        report = run(load_scene(doc), points=20)
        assert [c.status for c in report.checks] == ["pass", "pass"]
        [terms] = [terms for check, *_, terms in REDUCED_CHECKS if check == "torqued-props"]
        [rep] = reports
        assert rep.case == "normal" and sorted(rep.terms) == sorted(terms)

    @pytest.mark.parametrize("points", [20, 200])
    @pytest.mark.parametrize("name, check, component", [
        ("cone-nan-field", "normal-theorem", "|V^⊥|"),
        ("clifford-torus-nan-field", "tangential-theorem", "|V^⊤|"),
        ("twisted-fiber-nan-field", "torqued-props", "|V^⊤|")])
    def test_a_nan_component_is_an_error_not_a_vanishing_precondition(
            self, name, check, component, points):
        # V is NaN on the whole sample: its component neither vanishes nor
        # not, so the check errs (exit 3), naming it, and is not n/a (exit 1)
        [doc] = [doc for doc in FAILURE_SCENES if doc["name"] == name]
        report = run(load_scene(doc), points=points)
        [result] = [c for c in report.checks if c.name == check]
        assert result.status == "error" and result.residual is None
        assert result.details["error"] == "GeometryError"
        assert result.details["message"].startswith(f"max {component} = nan is not finite at u=[")
        assert exit_code(report) == 3

    @pytest.mark.parametrize("points", [20, 200])
    @pytest.mark.parametrize("checks", [["warp-fit"], ["rectifying", "warp-fit"]])
    def test_warp_fit_on_a_nan_field_is_an_error_not_a_failed_precondition(self, checks,
                                                                          points):
        # a NaN rectifying term neither passes nor fails: warp-fit errs
        # (exit 3), naming it, and is not n/a; rectifying keeps its own error
        [doc] = [doc for doc in FAILURE_SCENES if doc["name"] == "rectifying-psi-nan-field"]
        report = run(load_scene(dict(doc, checks=checks)), points=points)
        *rectifying, warp_fit = report.checks
        assert warp_fit.name == "warp-fit" and warp_fit.status == "error"
        assert warp_fit.details == {"error": "GeometryError",
                                    "message": "rectifying max_residual nan is not finite"}
        assert [(c.status, c.details["error"]) for c in rectifying] == (
            [("error", "NonFiniteResidual")] if rectifying else [])
        assert exit_code(report) == 3

    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("name", builtin_names())
    def test_a_reduced_check_reports_the_maxima_of_its_table(self, monkeypatch, name, seed):
        # one reducer: the residual is the largest judged term (rectifying in
        # proper mode: its first, max_residual), each judged term in the
        # details is the maximum of its values, and a witness is a row of the
        # run's sample
        tables = record_results(monkeypatch, (rect_module, warped_module), "judge", of=0)
        samples = [record_results(monkeypatch, runner_module, f"sample_{kind}_points")
                   for kind in ("parameter", "ambient")]
        scene = with_seed(builtin_scene(name), seed)
        for check in set(scene.checks) & {row[0] for row in REDUCED_CHECKS}:
            for seen in (tables, *samples):
                seen.clear()
            [result] = run(scene, checks=[check], points=50).checks
            maxima = {key: float(np.max(values)) for key, (values, _) in tables[-1].items()}
            if result.details.get("mode") == "proper-rectifying":
                assert result.residual == maxima.pop(next(iter(maxima)))
            else:
                assert result.residual == max(maxima.values())
            assert {key: result.details[key] for key in maxima} == maxima
            if result.witness is not None:
                [sample] = [rows for seen in samples for rows in seen]
                assert result.witness["point"] in np.asarray(sample).tolist()

    def test_scene_without_submanifold_reports_na_for_submanifold_checks(self, tmp_path):
        # the run is not aborted: each check that needs a submanifold is n/a
        from torseform import cli

        path, out = tmp_path / "field-only.json", tmp_path / "report.json"
        path.write_text(json.dumps(FIELD_ONLY))
        assert cli.main(["check", str(path), "--json", str(out)]) == 1
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert list(checks) == list(CHECK_NAMES)
        assert checks["classify"]["status"] == "pass"
        for name in ("tangential-theorem", "normal-theorem", "torqued-props",
                     "gauss-equation", "rectifying", "warp-fit"):
            assert checks[name]["status"] == "n/a"
            assert checks[name]["details"] == {"reason": "check needs a submanifold"}

    def test_overflowing_field_prints_no_numpy_warnings(self, tmp_path):
        # the non-finite values reach the verdict guards; numpy does not
        # announce them on stderr before the report
        doc = minimal_doc(name="overflow", field=["x1^300", "x2", "x3"])
        doc["ambient"] = {"dim": 3, "metric": [["1"], ["0", "1"], ["0", "0", "1"]],
                          "domain": [[10, 30], [1, 2], [1, 2]]}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("check", str(path))
        assert proc.returncode == 3
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr == ""

    def test_byte_identical_machine_reports(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            proc = run_cli("check", "builtin:rectifying-psi", "--points", "12",
                           "--json", str(out))
            assert proc.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_sample(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("check", "builtin:radial-r4", "--points", "10",
                "--json", str(out1))
        run_cli("check", "builtin:radial-r4", "--points", "10",
                "--seed", "7", "--json", str(out2))
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        assert a["seed"] == 42 and b["seed"] == 7
        assert a["checks"][0]["witness"] != b["checks"][0]["witness"]

    def test_seed_override_loads_the_scene_once(self, monkeypatch, tmp_path):
        from torseform import cli
        import torseform.scenes as scenes_mod

        loads = {"calls": 0}
        load = scenes_mod.load_scene

        def counted(document):
            loads["calls"] += 1
            return load(document)

        monkeypatch.setattr(scenes_mod, "load_scene", counted)
        out = tmp_path / "r.json"
        code = cli.main(["check", "builtin:cone", "--points", "10", "--seed", "7",
                         "--json", str(out)])
        assert code == 0
        assert loads["calls"] == 1
        assert json.loads(out.read_text())["seed"] == 7

    def test_negative_seed_is_a_usage_error(self):
        proc = run_cli("check", "builtin:cone", "--points", "10", "--seed", "-1")
        assert proc.returncode == 2
        assert "$.seed" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_points_below_one_is_a_usage_error(self, points):
        # refused before any sampling, with the count in the message
        proc = run_cli("check", "builtin:unit-sphere", "--points", points)
        assert proc.returncode == 2
        assert proc.stderr == f"error: points must be >= 1, got {points}\n"

    def test_eval_subcommand(self):
        proc = run_cli("eval", "tanh(asinh(x1))", "--at", "x1=1")
        assert proc.returncode == 0
        assert abs(float(proc.stdout.strip().splitlines()[0]) - 0.7071067811865475) < 1e-12

    def test_eval_with_partials(self):
        proc = run_cli("eval", "x1^2*x2", "--at", "x1=2,x2=3", "--order", "2")
        assert proc.returncode == 0
        assert "dx1: 12.0" in proc.stdout

    def test_eval_unknown_identifier_exit_two(self):
        proc = run_cli("eval", "x1+zz", "--at", "x1=1")
        assert proc.returncode == 2

    def test_eval_overflowing_literal_exit_two(self):
        # 1e400 is inf as a float; it is a parse error, not a traceback when
        # the division by zero is reported
        proc = run_cli("eval", "1e400/(x1-x1)", "--at", "x1=1")
        assert proc.returncode == 2
        assert "out of range" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_eval_overflowing_value_is_a_numeric_error(self):
        # x1*x1 overflows to inf without a function row to catch it, as
        # exp(x1) at 1000 is caught: exit 3, nothing printed
        proc = run_cli("eval", "x1*x1", "--at", "x1=1e200")
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == "numeric error: value inf is not finite in subexpression 'x1*x1'\n"

    def test_eval_non_finite_jet_coefficient_is_a_numeric_error(self):
        # sqrt at 1e-300 is finite, its second derivative -1/(4 x^1.5) is
        # not, and the row says so; 1e308*x1*x1 calls no row, and its first
        # derivative 2e308 overflows in the jet arithmetic
        for src, at, reason in [("sqrt(x1)", "x1=1e-300", "sqrt is not finite at 1e-300"),
                                ("1e308*x1*x1", "x1=1", "dx1: inf is not finite")]:
            proc = run_cli("eval", src, "--at", at, "--order", "2")
            assert proc.returncode == 3 and proc.stdout == ""
            assert reason in proc.stderr and "not finite" in proc.stderr
            assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("src, at, order, line", [
        ("1e308*x1*x1", "x1=1", "1", "dx1: inf is not finite in subexpression '1e308*x1*x1'"),
        ("exp(x1)", "x1=1000", "0", "exp is not finite at 1000.0 in subexpression 'exp(x1)'"),
        ("sqrt(x1)", "x1=1e-300", "2",
         "sqrt is not finite at 1e-300 in subexpression 'sqrt(x1)'"),
    ])
    def test_eval_numeric_error_is_the_only_line_on_stderr(self, src, at, order, line):
        # no numpy RuntimeWarning precedes it (pytest's warning filter does
        # not reach the child process)
        proc = run_cli("eval", src, "--at", at, "--order", order)
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == f"numeric error: {line}\n"

    def test_eval_malformed_binding_is_a_usage_error(self):
        proc = run_cli("eval", "x1", "--at", "x1")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: binding 'x1' is not name=value\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e400"])
    def test_eval_non_finite_binding_is_a_usage_error(self, value):
        # as a 1e400 literal in the expression is
        proc = run_cli("eval", "x1+x2", "--at", f"x1=1,x2={value}")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"error: binding 'x2={value}' is not a finite number\n"

    def test_check_scene_with_overflowing_literal_exit_two(self, tmp_path):
        path, out = tmp_path / "overflow-literal.json", tmp_path / "report.json"
        path.write_text(json.dumps(minimal_doc(field=["1", "sqrt(x2-1e400)"])))
        proc = run_cli("check", str(path), "--json", str(out))
        assert proc.returncode == 2
        assert "$.field" in proc.stderr and "out of range" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_checks_flag_selects_subset(self, tmp_path):
        out = tmp_path / "r.json"
        proc = run_cli("check", "builtin:clifford-torus", "--checks",
                       "classify", "--points", "20", "--json", str(out))
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        assert [c["name"] for c in payload["checks"]] == ["classify"]
