"""One rounding rule for every function row: a row runs on numpy's kernels
at a float as over a batch (a float is a batch of one point), so a point's
value and derivatives are bitwise those of any batch holding it, and a
point and a batch fail with the same message at the same argument."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from torseform import eval_float, eval_jet, parse
from torseform.errors import DomainEvalError, JetDomainError
from torseform.expr import FUNCTIONS, row
from torseform.jets import Jet, call

N = 10_000


def _uniform(lo, hi):
    return lambda rng: rng.uniform(lo, hi, N)


# (name, params, in-domain arguments): every row, and pow at whole,
# negative and fractional exponents
ROWS = [
    ("sin", (), _uniform(-10.0, 10.0)),
    ("cos", (), _uniform(-10.0, 10.0)),
    ("tan", (), _uniform(-1.5, 1.5)),
    ("sinh", (), _uniform(-20.0, 20.0)),
    ("cosh", (), _uniform(-20.0, 20.0)),
    ("tanh", (), _uniform(-20.0, 20.0)),
    ("asinh", (), _uniform(-50.0, 50.0)),
    ("atanh", (), _uniform(-0.999, 0.999)),
    ("atan", (), _uniform(-50.0, 50.0)),
    ("sqrt", (), _uniform(1e-3, 100.0)),
    ("exp", (), _uniform(-20.0, 20.0)),
    ("log", (), _uniform(1e-3, 100.0)),
    ("abs", (), lambda rng: rng.uniform(0.1, 10.0, N) * rng.choice([-1.0, 1.0], N)),
] + [("pow", (p,), _uniform(-10.0, 10.0)) for p in (2.0, 3.0, -1.0, -3.0)
     ] + [("pow", (p,), _uniform(1e-2, 10.0)) for p in (0.5, -0.5, 1.5, -2.5)]


def _ids(case):
    name, params, _ = case
    return f"{name}{params[0]!r}" if params else name


def test_every_row_is_covered():
    assert {name for name, _, _ in ROWS} == set(FUNCTIONS)


@pytest.mark.parametrize("case", ROWS, ids=map(_ids, ROWS))
def test_a_float_rounds_as_a_batch(case):
    name, params, draw = case
    xs = draw(np.random.default_rng(12))
    # order 0 by the public call, orders 1 to 3 by the row
    values = [call(name, x, *params) for x in xs.tolist()]
    assert all(type(v) is float for v in values)
    assert np.array(values).tobytes() == np.asarray(call(name, xs, *params)).tobytes()
    for k in range(1, 4):
        batch = row(name, xs, k, *params)
        points = [row(name, x, k, *params) for x in xs.tolist()]
        assert all(type(v) is float for phi in points for v in phi)
        for j in range(k + 1):
            want = np.broadcast_to(np.asarray(batch[j], dtype=float), xs.shape)
            got = np.array([phi[j] for phi in points])
            assert got.tobytes() == want.tobytes(), (name, params, k, j,
                                                     int((got != want).sum()))


@pytest.mark.parametrize("src, bad, order, reason", [
    ("exp(x1)", 800.0, 0, "exp is not finite at 800.0"),
    ("cosh(x1)", 1000.0, 0, "cosh is not finite at 1000.0"),
    ("pow(x1, -3)", 1e-110, 0, "pow is not finite at 1e-110"),
    ("sqrt(x1)", 1e-300, 2, "sqrt is not finite at 1e-300"),
    ("pow(x1, -0.5)", 1e-200, 3, "pow is not finite at 1e-200"),
    ("log(x1)", -1.0, 0, "log of non-positive value -1.0"),
    ("atanh(x1)", 1.5, 0, "atanh outside (-1, 1) at 1.5"),
])
def test_a_float_a_point_jet_and_a_batch_fail_alike(src, bad, order, reason):
    # the batch fails at its second point, and at its third
    ast, k = parse(src), max(order, 1)
    evaluations = [lambda: eval_jet(ast, [bad], k),
                   lambda: eval_jet(ast, np.array([[0.5], [bad], [2.0 * bad]]), k)]
    if order == 0:
        evaluations.append(lambda: eval_float(ast, {"x1": bad}))
    for evaluate in evaluations:
        with pytest.raises(DomainEvalError) as err:
            evaluate()
        assert str(err.value) == f"{reason} in subexpression '{src}'"


def _jet(value):
    """The order-1 jet of x1 at a float or over an array of values."""
    return Jet.variable(0, value, 1, 1)


@pytest.mark.parametrize("evaluate, reason", [
    (lambda: call("exp", 800.0), "exp is not finite at 800.0"),
    (lambda: call("exp", np.array([1.0, 800.0, 900.0])), "exp is not finite at 800.0"),
    (lambda: call("cosh", _jet(1000.0)), "cosh is not finite at 1000.0"),
    (lambda: 1.0 / _jet(1e-320), "pow is not finite at 1e-320"),
    (lambda: 1.0 / _jet(np.array([1.0, 1e-320])), "pow is not finite at 1e-320"),
    (lambda: _jet(1e200) ** 2.0, "pow is not finite at 1e+200"),
    (lambda: _jet(np.array([2.0, 1e200])) ** 2.0, "pow is not finite at 1e+200"),
], ids=["float", "batch", "point-jet", "point-reciprocal", "batch-reciprocal",
        "point-power", "batch-power"])
def test_a_row_outside_a_tape_fails_without_a_numpy_warning(evaluate, reason):
    # outside any quiet scope (a check run or a tape run), the row holds its own
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(JetDomainError) as err:
            evaluate()
    assert str(err.value) == reason
