"""Scene documents, sampling, the runner, and the command-line driver."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from torseform import (builtin_names, builtin_scene, load_scene,
                       load_scene_file, report_to_json, run,
                       sample_ambient_points, sample_parameter_points)
from torseform.errors import SceneSchemaError
from torseform.runner import exit_code, render_report
from torseform.scenes import BUILTIN_DOCUMENTS

REPO = Path(__file__).resolve().parents[1]


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

    def test_unknown_tolerance(self):
        with pytest.raises(SceneSchemaError):
            load_scene(minimal_doc(tolerances={"bogus_tol": 1e-3}))

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

    def test_exported_files_in_sync(self):
        scene_dir = REPO / "scenes"
        for name, doc in BUILTIN_DOCUMENTS.items():
            path = scene_dir / f"{name}.json"
            assert path.exists(), f"missing exported scene {path}"
            assert json.loads(path.read_text()) == doc

    def test_exported_files_load(self):
        for name in builtin_names():
            scene = load_scene_file(REPO / "scenes" / f"{name}.json")
            assert scene.name == name


class TestRunner:
    def test_deterministic_reports(self):
        a = report_to_json(run(builtin_scene("rectifying-psi"), points=15))
        b = report_to_json(run(builtin_scene("rectifying-psi"), points=15))
        assert a == b

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

    def test_classification_block_present(self):
        report = run(builtin_scene("radial-r4"), points=20)
        assert report.classification["verdict"] == "anti-torqued"
        payload = json.loads(report_to_json(report))
        assert payload["classification"]["f_summary"]["min"] > 0

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


def run_cli(*args):
    # the child imports this checkout's package, installed or not
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "torseform", *args],
        capture_output=True, text=True, cwd=str(REPO), env=dict(os.environ, PYTHONPATH=path))


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

    def test_schema_error_exit_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x"}))
        proc = run_cli("check", str(path))
        assert proc.returncode == 2
        assert "error" in proc.stderr

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
