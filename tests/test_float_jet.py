"""The order-1 point jet on Python floats against `Jet`: one tape run over
FloatJet seeds gives every value and partial of the order-1 `Jet` run at the
point bit for bit, signed zeros included, and fails where it fails with the
same message."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torseform import builtin_names, builtin_scene
from torseform.errors import DomainEvalError
from torseform.expr import FUNCTIONS, BinOp, Call, Neg, Num, Tape, Var, parse
from torseform.jets import eval_jet_env, float_jacobian, jet_variables

NAMES = ("u1", "u2")


def bits(x) -> bytes:
    return struct.pack("<d", float(x))


def jet_path(tape, point):
    """(values, Jacobian rows) of the order-1 `Jet` run at the point."""
    jets = eval_jet_env(tape, jet_variables(NAMES, point, 1))
    return [j.value for j in jets], [j.gradient().tolist() for j in jets]


def outcome(fn, tape, point):
    try:
        values, rows = fn(tape, point)
    except DomainEvalError as err:
        return "raised", str(err)
    return ([bits(v) for v in values], [[bits(d) for d in row] for row in rows])


def assert_same(tape, point):
    want = outcome(jet_path, tape, point)
    got = outcome(lambda t, p: float_jacobian(t, NAMES, p), tape, point)
    assert got == want


# ---------------------------------------------------------------------------
# Random expressions over every row, the arithmetic, squares and powers
# ---------------------------------------------------------------------------

literals = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e300]),
                     st.floats(-8.0, 8.0, allow_nan=False))
leaves = st.one_of(literals.map(Num), st.sampled_from(NAMES).map(Var))
operators = st.sampled_from("+-*/")


def _compound(kids):
    rows = st.sampled_from([f for f, row in FUNCTIONS.items() if row.arity == 1])
    powers = st.sampled_from([2.0, 3.0, -1.0, -2.0, 0.5, -0.5, 1.5])
    return st.one_of(
        st.builds(lambda f, a: Call(f, (a,)), rows, kids),
        st.builds(Neg, kids),
        st.builds(BinOp, operators, kids, kids),
        st.builds(lambda op, a, c: BinOp(op, a, Num(c)), operators, kids, literals),
        st.builds(lambda op, c, a: BinOp(op, Num(c), a), operators, literals, kids),
        st.builds(lambda a: BinOp("^", a, Num(2.0)), kids),                 # a square
        st.builds(lambda a, p: BinOp("^", a, Num(p)), kids, powers),        # literal power
        st.builds(lambda a, p: Call("pow", (a, Num(p))), kids, powers),
        st.builds(lambda a, b: BinOp("^", a, b), kids, kids),               # jet exponent
    )


expressions = st.recursive(leaves, _compound, max_leaves=8)
SPREAD = np.random.default_rng(5).uniform(-3.0, 3.0, size=(12, 2)).tolist()
coordinates = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                        st.floats(-4.0, 4.0, allow_nan=False))


@settings(max_examples=600, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(expressions, min_size=1, max_size=4), coordinates, coordinates)
def test_random_tapes_agree_bit_for_bit(exprs, u1, u2):
    # the drawn point, then a fixed spread of points, as drawn points favour
    # the simplest values
    tape = Tape(exprs)
    for point in [[u1, u2]] + SPREAD:
        assert_same(tape, point)


def test_the_strategy_reaches_every_row():
    # it draws every row of arity 1 by name and 'pow' by its own branches
    assert {f for f, row in FUNCTIONS.items() if row.arity != 1} == {"pow"}


@pytest.mark.parametrize("source", [
    "u1^u2", "2^u1", "u1^(u2*0)", "(u1+1)^2", "u1^-1", "u1^-2", "u2^0.5", "pow(u1, 3)",
    "-u1*u2 - u2/u1", "1 - u1", "3/u1", "u1/4", "u1/3", "-(u1*0)", "u1*0 - u2*0"])
@pytest.mark.parametrize("point", [[1.5, 0.25], [-0.0, 2.0], [0.0, -0.0], [-1.25, 3.0]])
def test_written_cases_agree(source, point):
    assert_same(Tape([parse(source)]), point)


def test_literal_only_outputs_have_zero_partials():
    tape = Tape([parse("2*3"), parse("-0.0"), parse("u1*u2"), parse("sin(1)")])
    values, rows = float_jacobian(tape, NAMES, [0.5, -2.0])
    assert [bits(d) for d in rows[1]] == [bits(0.0)] * 2
    assert_same(tape, [0.5, -2.0])


@pytest.mark.parametrize("source, point, message", [
    ("u2/u1", [0.0, 1.0], "division by zero"),
    ("u2/(u1-u1)", [1.0, 1.0], "division by zero"),
    ("u1/0", [1.0, 1.0], "division by zero"),
    ("sqrt(u1)", [-1.0, 1.0], "sqrt of negative value"),
    ("sqrt(u1)", [0.0, 1.0], "sqrt is not differentiable at 0"),
    ("log(u1)", [0.0, 1.0], "log of non-positive value"),
    ("exp(u1*1000)", [1.0, 1.0], "exp is not finite"),
    ("u1^u2", [-1.0, 0.5], "log of non-positive value"),
    ("atanh(u1)", [1.0, 1.0], "atanh outside"),
])
def test_domain_errors_agree(source, point, message):
    tape = Tape([parse("u1+u2"), parse(source)])
    want = outcome(jet_path, tape, point)
    assert want[0] == "raised" and message in want[1]
    assert_same(tape, point)


# ---------------------------------------------------------------------------
# Every built-in immersion at random parameter points
# ---------------------------------------------------------------------------

IMMERSED = [name for name in builtin_names() if builtin_scene(name).immersion is not None]


@pytest.mark.parametrize("name", IMMERSED)
def test_builtin_immersions_agree(name):
    imm = builtin_scene(name).immersion
    lo, hi = np.array(imm.domain).T
    for u in np.random.default_rng(3).uniform(lo, hi, size=(1000, imm.n)):
        jets = imm.jets(u, 1)
        values, rows = float_jacobian(imm.tape, imm.var_names, u)
        assert list(map(bits, values)) == [bits(j.value) for j in jets]
        assert [list(map(bits, r)) for r in rows] == [list(map(bits, j.d[1])) for j in jets]
