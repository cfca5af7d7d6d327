"""Scene documents: JSON schema, validation, built-in scenes, sampling.

A scene is a single JSON document::

    {
      "name": "...",
      "ambient": {"dim": m, "metric": [[expr..]..], "domain": [[lo, hi]..]},
      "field": [expr..],                      # optional, m components
      "submanifold": {"dim": n, "immersion": [expr..], "domain": [[lo,hi]..]},
      "checks": ["classify", ...],
      "seed": 42,                             # optional
      "tolerances": {"rect_tol": 1e-7, ...},  # optional overrides by name
      "exclude_radius": 0.1,                  # optional: reject |x| < r
      "expected_verdict": "anti-torqued"      # optional documentation
    }

Metric rows may give the lower triangle (row i has i+1 entries) or the full
row; only the lower triangle is read and it is mirrored.  Ambient expressions
use variables x1..xm, immersion expressions u1..un.  At least one of field /
submanifold must be present.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULT, TOLERANCE_NAMES, Tolerances
from .errors import (DomainEvalError, GeometryError, ParseError, SamplingError,
                     SceneSchemaError)
from .immersion import Immersion
from .jets import chart_names, jet_variables
from .linalg import norm
from .metric import MetricField, VectorField, euclidean_rows

CHECK_NAMES = (
    "classify",
    "geodesic-unit",
    "tangential-theorem",
    "normal-theorem",
    "torqued-props",
    "gauss-equation",
    "rectifying",
    "warp-fit",
    "ambient-decomposition",
)

_interval = {"type": "array", "items": {"type": "number"},
             "minItems": 2, "maxItems": 2}

SCENE_SCHEMA = {
    "type": "object",
    "required": ["name", "ambient", "checks"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "ambient": {
            "type": "object",
            "required": ["dim", "metric", "domain"],
            "additionalProperties": False,
            "properties": {
                "dim": {"type": "integer", "minimum": 1},
                "metric": {"type": "array",
                           "items": {"type": "array", "items": {"type": "string"}}},
                "domain": {"type": "array", "items": _interval},
            },
        },
        "field": {"type": "array", "items": {"type": "string"}},
        "submanifold": {
            "type": "object",
            "required": ["dim", "immersion", "domain"],
            "additionalProperties": False,
            "properties": {
                "dim": {"type": "integer", "minimum": 1},
                "immersion": {"type": "array", "items": {"type": "string"}},
                "domain": {"type": "array", "items": _interval},
            },
        },
        "checks": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "seed": {"type": "integer", "minimum": 0},
        "tolerances": {"type": "object", "additionalProperties": {"type": "number"}},
        "exclude_radius": {"type": "number", "minimum": 0},
        "expected_verdict": {"type": "string"},
    },
}


@dataclass(frozen=True)
class Scene:
    name: str
    dim: int
    metric: MetricField
    domain: tuple
    field: VectorField | None
    immersion: Immersion | None
    checks: tuple
    seed: int
    tolerances: Tolerances
    exclude_radius: float
    expected_verdict: str | None
    document: dict


def _fail(path: str, message: str):
    raise SceneSchemaError(f"{path}: {message}")


_TYPES = {"object": dict, "array": list, "string": str, "integer": int, "number": numbers.Number}
_NAME = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")


def _is(instance, kind: str) -> bool:
    """jsonschema's type rule: a bool is not a number, an integral float is an integer."""
    if kind == "integer" and isinstance(instance, float):
        return instance.is_integer()
    return isinstance(instance, _TYPES[kind]) and not isinstance(instance, bool)


def _errors(instance, schema: dict, path: tuple):
    """(path, message) of each error of `instance` under `schema`, with
    jsonschema's messages and in its order, for the keywords SCENE_SCHEMA uses.
    An instance of the wrong type has no other error that best_match picks."""
    kind = schema["type"]
    if not _is(instance, kind):
        yield path, f"{instance!r} is not of type {kind!r}"
    elif kind == "object":
        known, extra = schema.get("properties", {}), schema.get("additionalProperties", True)
        yield from ((path, f"{key!r} is a required property")
                    for key in schema.get("required", ()) if key not in instance)
        extras = sorted((key for key in instance if key not in known), key=str)
        if extra is False and extras:
            yield path, (f"Additional properties are not allowed ({', '.join(map(repr, extras))} "
                         f"{'was' if len(extras) == 1 else 'were'} unexpected)")
        for key in extras if isinstance(extra, dict) else ():
            yield from _errors(instance[key], extra, path + (key,))
        for key, sub in known.items():
            if key in instance:
                yield from _errors(instance[key], sub, path + (key,))
    elif kind in ("array", "string"):
        least = schema.get("minItems", schema.get("minLength", 0))
        if len(instance) < least:
            yield path, f"{instance!r} {'should be non-empty' if least == 1 else 'is too short'}"
        if len(instance) > schema.get("maxItems", math.inf):
            yield path, f"{instance!r} is too long"
        for i, item in enumerate(instance if kind == "array" else ()):
            yield from _errors(item, schema["items"], path + (i,))
    elif instance < schema.get("minimum", -math.inf):
        yield path, f"{instance!r} is less than the minimum of {schema['minimum']!r}"


def _nonfinite(instance, path: tuple):
    """(path, message) of each float in `instance` that is not finite."""
    if isinstance(instance, (dict, list)):
        for key, value in instance.items() if isinstance(instance, dict) else enumerate(instance):
            yield from _nonfinite(value, path + (key,))
    elif isinstance(instance, float) and not math.isfinite(instance):
        yield path, f"{instance!r} is not a finite number"


def _refuse_too_wide(key: str, domain) -> None:
    """Refuse the first interval of `domain` whose width is not a finite
    float: finite ends whose difference overflows, or a JSON integer end
    beyond float range, would sample points that are not finite."""
    for i, (lo, hi) in enumerate(domain):
        try:
            if math.isfinite(float(hi) - float(lo)):
                continue
        except OverflowError:       # int too large to convert to float
            pass
        _fail(f"$.{key}.domain[{i}]", f"interval [{lo}, {hi}] is too wide: "
              "its width is not a finite number")


def _json_path(path: tuple) -> str:
    """jsonschema's JSONPath: $.key, $[index], or $['key'] for a key that is no name."""
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" if _NAME.match(k) else
                         "['" + k.replace("\\", "\\\\").replace("'", "\\'") + "']" for k in path)


def _validate(instance, schema: dict = SCENE_SCHEMA, path: tuple = ()):
    """Raise SceneSchemaError for the error jsonschema.validate would raise, chosen
    as best_match chooses: the shortest path, the largest sibling, the first met."""
    errors = list(_errors(instance, schema, path))
    if errors:
        path, message = max(errors, key=lambda e: (-len(e[0]), e[0]))
        _fail(_json_path(path), message)


def load_scene(document: dict) -> Scene:
    """Validate a scene document and compile its expressions."""
    _validate(document)

    amb = document["ambient"]
    m = int(amb["dim"])         # the schema counts 3.0 as an integer, too
    if len(amb["domain"]) != m:
        _fail("$.ambient.domain", f"expected {m} intervals, got {len(amb['domain'])}")
    if len(amb["metric"]) != m:
        _fail("$.ambient.metric", f"expected {m} rows for dim {m}, got {len(amb['metric'])}")
    for i, row in enumerate(amb["metric"]):
        if len(row) not in (i + 1, m):
            _fail(f"$.ambient.metric[{i}]",
                  f"row must have {i + 1} (lower triangle) or {m} entries, got {len(row)}")
    for lo, hi in amb["domain"]:
        if not lo < hi:
            _fail("$.ambient.domain", f"empty interval [{lo}, {hi}]")

    overrides = dict(document.get("tolerances", {}))
    for key, value in overrides.items():
        if key not in TOLERANCE_NAMES:
            _fail("$.tolerances", f"unknown tolerance '{key}'")
        if isinstance(getattr(DEFAULT, key), int):      # a count, such as a sample size
            if isinstance(value, float) and not value.is_integer():
                _fail("$.tolerances", f"{key} must be an integer, got {value!r}")
            overrides[key] = int(value)
    tolerances = DEFAULT.override(**overrides) if overrides else DEFAULT

    try:
        metric = MetricField(amb["metric"], spd_tol=tolerances.spd_tol)
    except ParseError as err:
        raise SceneSchemaError(f"$.ambient.metric: {err}") from err

    field = None
    if "field" in document:
        if len(document["field"]) != m:
            _fail("$.field", f"expected {m} components, got {len(document['field'])}")
        try:
            field = VectorField(document["field"], dim=m)
        except ParseError as err:
            raise SceneSchemaError(f"$.field: {err}") from err

    immersion = None
    if "submanifold" in document:
        sub = document["submanifold"]
        n = int(sub["dim"])
        if not 1 <= n < m:
            _fail("$.submanifold.dim", f"need 1 <= n < m, got n={n}, m={m}")
        if len(sub["immersion"]) != m:
            _fail("$.submanifold.immersion",
                  f"expected {m} components, got {len(sub['immersion'])}")
        if len(sub["domain"]) != n:
            _fail("$.submanifold.domain",
                  f"expected {n} intervals, got {len(sub['domain'])}")
        for lo, hi in sub["domain"]:
            if not lo < hi:
                _fail("$.submanifold.domain", f"empty interval [{lo}, {hi}]")
        try:
            immersion = Immersion(sub["immersion"], n=n, domain=sub["domain"])
        except ParseError as err:
            raise SceneSchemaError(f"$.submanifold.immersion: {err}") from err
        except OverflowError:       # an integer end beyond float range
            _refuse_too_wide("submanifold", sub["domain"])
            raise

    if field is None and immersion is None:
        _fail("$", "at least one of 'field' / 'submanifold' must be present")

    checks = tuple(document["checks"])
    for c in checks:
        if c not in CHECK_NAMES:
            _fail("$.checks", f"unknown check '{c}' (known: {', '.join(CHECK_NAMES)})")
    # a document refused for any other reason keeps its message
    for path, message in _nonfinite(document, ()):
        _fail(_json_path(path), message)
    for key in ("ambient", "submanifold") if immersion else ("ambient",):
        _refuse_too_wide(key, document[key]["domain"])

    return Scene(
        name=document["name"],
        dim=m,
        metric=metric,
        domain=tuple((float(lo), float(hi)) for lo, hi in amb["domain"]),
        field=field,
        immersion=immersion,
        checks=checks,
        seed=int(document.get("seed", 42)),
        tolerances=tolerances,
        exclude_radius=float(document.get("exclude_radius", 0.0)),
        expected_verdict=document.get("expected_verdict"),
        document=json.loads(json.dumps(document)),
    )


def with_seed(scene: Scene, seed: int) -> Scene:
    """The scene with another seed: only the seed is validated, as the rest
    of the document was when the scene was loaded, and nothing is parsed."""
    _validate(seed, SCENE_SCHEMA["properties"]["seed"], ("seed",))
    return replace(scene, seed=seed, document=dict(scene.document, seed=seed))


def load_scene_file(path) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise SceneSchemaError(f"{path}: not valid JSON: {err}") from err
    return load_scene(doc)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _admissible(scene: Scene, xs) -> np.ndarray:
    """Whether each row of xs lies outside the excluded ball with the field
    at least min_field_norm there; one run of the field's tape, which
    raises where a row's field evaluation does."""
    keep = ~(norm(xs) < scene.exclude_radius)
    if scene.field is not None and keep.any():
        env = jet_variables(chart_names(scene.dim), xs[keep], 0)
        comps = np.stack([jet.value for jet in scene.field.component_jets(env)], axis=-1)
        keep[keep] = ~(norm(comps) < scene.tolerances.min_field_norm)
    return keep


def _rejection_sample(box, count, rng, admissible):
    """count points of the box that pass admissible(rows), drawn uniformly in
    order.  Each block draws exactly the candidates still needed, so the
    points, the attempt limit and the generator's state afterwards are those
    of drawing and testing one candidate at a time.  A block whose test
    raises is tested again one row at a time, and a candidate whose own test
    raises DomainEvalError is rejected."""
    lows = np.array([lo for lo, _ in box])
    highs = np.array([hi for _, hi in box])

    def single(x):
        try:
            return admissible(x[None])[0]
        except DomainEvalError:
            return False

    out = []
    attempts = 0
    limit = 1000 * count
    while len(out) < count:
        if attempts >= limit:
            raise SamplingError(
                f"could not draw {count} admissible points in {limit} attempts")
        size = min(count - len(out), limit - attempts)
        block = lows + (highs - lows) * rng.random((size, len(box)))
        attempts += size
        try:
            keep = admissible(block)
        except GeometryError:
            keep = [single(x) for x in block]
        out.extend(block[np.asarray(keep, dtype=bool)])
    return out


def sample_ambient_points(scene: Scene, count: int, rng) -> list:
    """Uniform points of the ambient box, skipping the excluded ball and
    points where the field vanishes."""
    return _rejection_sample(scene.domain, count, rng, lambda xs: _admissible(scene, xs))


def sample_parameter_points(scene: Scene, count: int, rng) -> list:
    """Uniform points of the parameter box whose images are admissible."""
    if scene.immersion is None:
        raise SceneSchemaError(f"scene '{scene.name}' has no submanifold")

    def admissible(us):
        xs = np.stack([p.value for p in scene.immersion.jets(us, 0)], axis=-1)
        return _admissible(scene, xs)

    return _rejection_sample(scene.immersion.domain, count, rng, admissible)


# ---------------------------------------------------------------------------
# Built-in scenes
# ---------------------------------------------------------------------------

def _radial_unit_field(m):
    r = "sqrt(" + "+".join(f"x{i + 1}^2" for i in range(m)) + ")"
    return [f"x{i + 1}/{r}" for i in range(m)]


_BOX3 = [[-3, 3]] * 3
_BOX4 = [[-3, 3]] * 4

BUILTIN_DOCUMENTS = {
    # unit radial field on the punctured 4-space: the reference anti-torqued
    # field with conformal scalar 1/|x|
    "radial-r4": {
        "name": "radial-r4",
        "ambient": {"dim": 4, "metric": euclidean_rows(4), "domain": _BOX4},
        "field": _radial_unit_field(4),
        "checks": ["classify", "geodesic-unit"],
        "seed": 42,
        "exclude_radius": 0.1,
        "expected_verdict": "anti-torqued",
    },
    # flat torus S^1(r) x S^1(r) with r = 1/sqrt(2): the axis is normal,
    # parallel in the normal bundle, and an umbilic direction (A = -Id)
    "clifford-torus": {
        "name": "clifford-torus",
        "ambient": {"dim": 4, "metric": euclidean_rows(4), "domain": _BOX4},
        "field": _radial_unit_field(4),
        "submanifold": {
            "dim": 2,
            "immersion": ["cos(u1)/sqrt(2)", "sin(u1)/sqrt(2)",
                          "cos(u2)/sqrt(2)", "sin(u2)/sqrt(2)"],
            "domain": [[0.1, 6.2], [0.1, 6.2]],
        },
        "checks": ["classify", "tangential-theorem", "gauss-equation"],
        "seed": 42,
        "exclude_radius": 0.1,
        "expected_verdict": "anti-torqued",
    },
    # ruled surface r(s,t) = c(s) + t c'(s) over a unit-speed geodesic circle
    # of the unit sphere; the radial axis is everywhere tangent
    "tangent-developable": {
        "name": "tangent-developable",
        "ambient": {"dim": 3, "metric": euclidean_rows(3), "domain": _BOX3},
        "field": _radial_unit_field(3),
        "submanifold": {
            "dim": 2,
            "immersion": ["cos(u1)-u2*sin(u1)", "sin(u1)+u2*cos(u1)", "0"],
            "domain": [[0.1, 6.2], [0.25, 2.0]],
        },
        "checks": ["normal-theorem", "gauss-equation"],
        "seed": 42,
        "exclude_radius": 0.1,
    },
    # cone x1^2 + x2^2 = x3^2 without its vertex; radial axis tangent and
    # every shape operator singular
    "cone": {
        "name": "cone",
        "ambient": {"dim": 3, "metric": euclidean_rows(3), "domain": _BOX3},
        "field": _radial_unit_field(3),
        "submanifold": {
            "dim": 2,
            "immersion": ["u1*cos(u2)", "u1*sin(u2)", "u1"],
            "domain": [[0.5, 2.0], [0.1, 6.2]],
        },
        "checks": ["normal-theorem", "gauss-equation"],
        "seed": 42,
        "exclude_radius": 0.1,
    },
    # proper rectifying surface Psi = sqrt(1+s^2) * Omega(s, t): a cone with
    # vertex on the unit sphere over a circle orthogonal to the vertex, so
    # |Psi|^2 = 1 + s^2, V^perp is the (scaled) vertex direction, the second
    # fundamental form has rank 1 orthogonal to V^perp, and |V^tan| along the
    # axis curves is s/sqrt(1+s^2)
    "rectifying-psi": {
        "name": "rectifying-psi",
        "ambient": {"dim": 4, "metric": euclidean_rows(4), "domain": _BOX4},
        "field": _radial_unit_field(4),
        "submanifold": {
            "dim": 2,
            "immersion": ["0.8*u1*cos(u2)",
                          "0.8*u1*sin(u2)",
                          "0.6*u1",
                          "1"],
            "domain": [[0.5, 3.0], [0.1, 6.2]],
        },
        "checks": ["rectifying", "warp-fit", "gauss-equation"],
        "seed": 42,
        "exclude_radius": 0.1,
    },
    # product chart with metric ds^2 + e^{2s}(dx^2+dy^2); d/ds is anti-torqued
    # with constant conformal scalar 1
    "warped-exp": {
        "name": "warped-exp",
        "ambient": {
            "dim": 3,
            "metric": [["1"], ["0", "exp(2*x1)"], ["0", "0", "exp(2*x1)"]],
            "domain": [[0.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]],
        },
        "field": ["1", "0", "0"],
        "checks": ["classify", "ambient-decomposition"],
        "seed": 42,
        "expected_verdict": "anti-torqued",
    },
    # same construction with lambda = cosh(s), conformal scalar tanh(s)
    "warped-cosh": {
        "name": "warped-cosh",
        "ambient": {
            "dim": 3,
            "metric": [["1"], ["0", "cosh(x1)^2"], ["0", "0", "cosh(x1)^2"]],
            "domain": [[0.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]],
        },
        "field": ["1", "0", "0"],
        "checks": ["classify", "ambient-decomposition"],
        "seed": 42,
        "expected_verdict": "anti-torqued",
    },
    # radius-2 sphere in 3-space: totally umbilical hypersurface with the
    # radial axis normal
    "hypersphere": {
        "name": "hypersphere",
        "ambient": {"dim": 3, "metric": euclidean_rows(3), "domain": _BOX3},
        "field": _radial_unit_field(3),
        "submanifold": {
            "dim": 2,
            "immersion": ["2*sin(u1)*cos(u2)", "2*sin(u1)*sin(u2)", "2*cos(u1)"],
            "domain": [[0.3, 2.8], [0.1, 6.2]],
        },
        "checks": ["tangential-theorem", "gauss-equation"],
        "seed": 42,
        "exclude_radius": 0.1,
    },
    # negative control: the unit sphere with radial axis is umbilic, not
    # rectifying; the rectifying check is documented to fail with residual 1
    "unit-sphere": {
        "name": "unit-sphere",
        "ambient": {"dim": 3, "metric": euclidean_rows(3), "domain": _BOX3},
        "field": _radial_unit_field(3),
        "submanifold": {
            "dim": 2,
            "immersion": ["sin(u1)*cos(u2)", "sin(u1)*sin(u2)", "cos(u1)"],
            "domain": [[0.3, 2.8], [0.1, 6.2]],
        },
        "checks": ["rectifying"],
        "seed": 42,
        "exclude_radius": 0.1,
    },
}


def builtin_names() -> tuple:
    return tuple(BUILTIN_DOCUMENTS)


def builtin_scene(name: str) -> Scene:
    try:
        doc = BUILTIN_DOCUMENTS[name]
    except KeyError:
        raise SceneSchemaError(
            f"unknown built-in scene '{name}' "
            f"(known: {', '.join(BUILTIN_DOCUMENTS)})") from None
    return load_scene(doc)
