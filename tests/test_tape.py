"""Fields, metrics and immersions evaluate their expressions with one flat
tape each (torseform.expr.Tape).  The recursive walker below is the tape's
oracle: it evaluates one expression node by node, in post-order, as the
evaluator did before the tape.  The tape must give the walker's values bit
for bit, every derivative tensor included, and raise the walker's errors."""

from __future__ import annotations

import inspect
import itertools
import math
import operator

import numpy as np
import pytest

from conftest import random_expression
from torseform import (Immersion, MetricField, VectorField, build_warped_ambient,
                       builtin_names, builtin_scene, eval_float)
from torseform.errors import DomainEvalError, JetDomainError
from torseform.expr import (FUNCTIONS, BinOp, Call, Neg, Num, Tape, Var, apply, parse,
                            row, to_source)
from torseform.jets import Jet, call, eval_jet_env, jet_variables

ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def walk(expr, env, call):
    """expr over env: literals are floats, call(name, *args) applies the
    FUNCTIONS row `name` and '^' is a call of 'pow'; a failing node raises
    DomainEvalError with its subexpression."""
    def failed(exc, node):
        reason = "division by zero" if isinstance(exc, ZeroDivisionError) else str(exc)
        return DomainEvalError(reason or type(exc).__name__, to_source(node))

    def ev(node):
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Var):
            try:
                return env[node.name]
            except KeyError:
                raise DomainEvalError(f"unbound variable '{node.name}'", node.name) from None
        if isinstance(node, Neg):
            return -ev(node.arg)
        if isinstance(node, BinOp):
            left, right = ev(node.left), ev(node.right)
            try:
                if node.op == "^":
                    return call("pow", left, right)
                return ARITHMETIC[node.op](left, right)
            except (ZeroDivisionError, ValueError, OverflowError) as exc:
                raise failed(exc, node) from exc
        args = [ev(a) for a in node.args]
        try:
            return call(node.func, *args)
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise failed(exc, node) from exc

    return ev(expr)


def float_call(name, x, *params):
    """The row's value at a float by the one rounding rule: run as
    np.float64, a batch of one point, returned as a float, and a value that
    is not finite fails as it would over a batch."""
    with np.errstate(all="ignore"):
        value = FUNCTIONS[name].derivatives(np.float64(x), 0, *params)[0]
    if not np.isfinite(value):
        raise JetDomainError(f"{name} is not finite at {x!r}")
    return float(value)


def walked(exprs, env):
    """Each expression walked on its own, over floats or jets; a constant
    over jets is a constant jet."""
    probe = next(iter(env.values()))
    if not isinstance(probe, Jet):
        return [walk(e, env, float_call) for e in exprs]
    out = [walk(e, env, call) for e in exprs]
    return [v if isinstance(v, Jet) else Jet.constant(v, probe.nvars, probe.order, probe.batch)
            for v in out]


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except DomainEvalError as err:
        return type(err), str(err)


def bits(value) -> tuple:
    """Every number a float or a jet holds, as (shape, raw bytes) per part."""
    parts = value.d if isinstance(value, Jet) else [value]
    return tuple((np.shape(p), np.asarray(p, dtype=float).tobytes()) for p in parts)


def assert_tape_is_walker(tape, exprs, names, point_sets):
    """At each point set (one point, or a batch) and every order: the values
    of the tape of `exprs`, or its error, are those of walking each
    expression on its own (parsed again from its source, so that nothing is
    shared)."""
    singles = [parse(to_source(e)) for e in exprs]
    for points in point_sets:
        for order in range(4):
            env = jet_variables(names, points, order)
            got, want = outcome(eval_jet_env, tape, env), outcome(walked, singles, env)
            assert got[0] == want[0]
            if got[0] == "ok":
                assert [type(v) for v in got[1]] == [type(v) for v in want[1]]
                assert [bits(v) for v in got[1]] == [bits(v) for v in want[1]]
            else:
                assert got == want


def tape_sources(owner):
    """The expressions of a field's, immersion's or metric's tape, in tape
    order: a metric's lower triangle, row by row."""
    if isinstance(owner, MetricField):
        return [e for i, row in enumerate(owner.exprs) for e in row[:i + 1]]
    return owner.exprs


def warped_metric(lam):
    """The dense, non-constant metric of a warped chart over a 3-d fiber."""
    fiber = [["1.1+0.4*x3^2"], ["0.2*sin(x2)", "2.1+cos(x3)"],
             ["0.1*x4", "0.15*x2", "1.0+0.2*x4^2"]]
    return build_warped_ambient(lam, fiber, (0.2, 1.2), [[-1.0, 1.0]] * 3).metric


def random_sources(seed):
    # random expressions, and compositions that repeat them so that
    # subtrees are shared within and across components
    rng = np.random.default_rng(seed)
    a, b, c = (random_expression(rng, 3, depth=3) for _ in range(3))
    return [a, f"({a})*({b})", f"sin({a})-({b})", f"({b})/(1.5+({a})^2)", c]


class TestTapeIsTheWalker:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_expressions(self, seed):
        exprs = [parse(src) for src in random_sources(seed)]
        rng = np.random.default_rng(100 + seed)
        assert_tape_is_walker(Tape(exprs), exprs, ("x1", "x2", "x3"),
                              [rng.uniform(-2, 2, size=3), rng.uniform(-2, 2, size=(7, 3))])

    @pytest.mark.parametrize("name", builtin_names())
    def test_builtin_fields_metrics_and_immersions(self, name):
        scene = builtin_scene(name)
        rng = np.random.default_rng(7)
        parts = [(scene.metric, scene.domain)]
        if scene.field is not None:
            parts.append((scene.field, scene.domain))
        if scene.immersion is not None:
            parts.append((scene.immersion, scene.immersion.domain))
        for owner, box in parts:
            lo, hi = np.array(box).T
            assert_tape_is_walker(owner.tape, tape_sources(owner), owner.var_names,
                                  [lo + (hi - lo) * rng.random(len(lo)),
                                   lo + (hi - lo) * rng.random((6, len(lo)))])

    @pytest.mark.parametrize("lam", ["1.2*cosh(0.7*x1)", "2.2+sin(x1)"])
    def test_dense_warped_metric(self, lam):
        metric = warped_metric(lam)
        rng = np.random.default_rng(3)
        assert_tape_is_walker(metric.tape, tape_sources(metric), metric.var_names,
                              [rng.uniform(-1, 1, size=4), rng.uniform(-1, 1, size=(6, 4))])


class TestOneProgram:
    """One function applies a row to a float, a batch or a jet, and a tape
    binds it into its program once, when it is built."""

    def test_jets_call_is_expr_apply(self):
        assert call is apply

    def test_a_run_takes_only_its_environment(self):
        assert list(inspect.signature(Tape.run).parameters) == ["self", "env"]

    def test_one_program_runs_floats_point_jets_and_batches(self):
        exprs = [parse("sin(x1)*x2^2+x1^x2"), parse("exp(x2)/x1-sqrt(x1)")]
        tape = Tape(exprs)
        program = list(tape.program)
        names = ("x1", "x2")
        envs = [{"x1": 0.7, "x2": 1.3}, jet_variables(names, [0.7, 1.3], 2),
                jet_variables(names, [[0.7, 1.3], [1.1, 0.4]], 3)]
        for env in envs:
            got = tape.run(env)
            assert [bits(v) for v in got] == [bits(v) for v in walked(exprs, env)]
            assert len(tape.program) == len(program)
            assert all(a is b for new, old in zip(tape.program, program)
                       for a, b in zip(new, old))


class TestTapeErrors:
    @pytest.mark.parametrize("sources", [
        ["log(x1-2)+sqrt(x2-5)"],                       # both fail: log comes first
        ["sqrt(x2-5)+log(x1-2)"],                       # both fail: sqrt comes first
        ["x2*x3", "(x2*x3)+log(x1-2)", "cos(log(x1-2))"],  # shared, first in component 2
        ["x3/(x2-x2)", "log(x1-2)"],                    # division by zero first
        ["(x3-x3-1)^1.5*x1", "atanh(x1)"],              # pow's domain, then atanh's
        ["2^x1+log(x1-x1)"],                            # a varying exponent passes, log fails
    ])
    @pytest.mark.parametrize("points", [[1.0, 1.0, 0.0], [[1.5, 0.5, 0.2], [1.0, 1.0, 0.0]]])
    def test_first_failing_subtree_in_post_order_wins(self, sources, points):
        points = np.array(points)
        exprs = [parse(src) for src in sources]
        tape = Tape(exprs)
        for order in range(3):
            env = jet_variables(("x1", "x2", "x3"), points, order)
            got, want = outcome(eval_jet_env, tape, env), outcome(walked, exprs, env)
            assert got[0] is DomainEvalError
            assert got == want

    @pytest.mark.parametrize("src", ["log(x1-2)+y", "y+log(x1-2)", "x1+y*log(x1-2)"])
    def test_an_unbound_variable_raises_where_a_walk_meets_it(self, src):
        env = {"x1": 1.0}
        got = outcome(eval_float, parse(src), env)
        want = outcome(walk, parse(src), env, float_call)
        assert got[0] is DomainEvalError
        assert got == want

    def test_signed_zero_literals_stay_apart(self):
        exprs = [BinOp("*", Var("x1"), Num(0.0)), BinOp("*", Var("x1"), Num(-0.0)),
                 Num(-0.0), Neg(Num(0.0)), Num(0.0)]
        tape = Tape(exprs)
        # x1*0.0 again is the first instruction; x1*-0.0 and -(0.0) are their own
        assert len(Tape(exprs[:2] + [BinOp("*", Var("x1"), Num(0.0))]).code) == 2
        assert len(tape.code) == 3
        values = eval_float(tape, {"x1": 2.0})
        assert [math.copysign(1.0, v) for v in values] == [1.0, -1.0, -1.0, -1.0, 1.0]
        for order in range(3):
            env = jet_variables(("x1",), np.array([[2.0], [-3.0]]), order)
            assert ([bits(v) for v in eval_jet_env(tape, env)]
                    == [bits(v) for v in walked(exprs, env)])

    def test_a_run_holds_only_live_values(self):
        # a chain of n calls needs one register beyond its variable, whatever n
        tape = Tape([parse("sin(cos(sin(cos(sin(x1)))))"), Call("exp", (Var("x2"),))])
        assert len(tape.blank) == 2
        assert eval_float(tape, {"x1": 0.5, "x2": 1.0}) == [
            math.sin(math.cos(math.sin(math.cos(math.sin(0.5))))), math.exp(1.0)]
        assert tape.blank == [None, None]


def order_zero_values(imm):
    """Ψ's order-0 jets at u, or at each point of a batch, as their values
    with the batch axis first."""
    def read(u):
        jets = imm.jets(u, 0)
        assert all(isinstance(p, Jet) and p.order == 0 for p in jets)
        return np.moveaxis(np.array([p.value for p in jets]), 0, -1)
    return read


class TestOrderZeroPoints:
    """Order 0 at a point reads as its row of a batch of distinct points,
    byte for byte: a / b is a × (1/b) at both.  Variable exponents such as
    2^x1 are left out: a batch whose exponent differs between its points
    takes exp(log(base)·exponent), a point the 'pow' row, a separate break."""

    @staticmethod
    def same(got, want):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def rows(self, read, points):
        for point, want in zip(points, read(points)):
            self.same(read(point), want)

    def immersion_rows(self, imm, us):
        values = order_zero_values(imm)
        self.rows(values, us)
        for u, want in zip(us, values(us)):
            self.same(imm.point(u), want)

    @pytest.mark.parametrize("name", builtin_names())
    def test_field_components_and_immersion_points(self, name):
        scene = builtin_scene(name)
        rng = np.random.default_rng(11)
        if scene.field is not None:
            lo, hi = np.array(scene.domain).T
            xs = lo + (hi - lo) * rng.random((5, len(lo)))
            self.rows(lambda x: scene.field.at(x, 0).components, xs)
            if not scene.metric.constant:
                self.rows(lambda x: scene.metric.at(x, 0).g, xs)
        if scene.immersion is not None:
            lo, hi = np.array(scene.immersion.domain).T
            self.immersion_rows(scene.immersion, lo + (hi - lo) * rng.random((5, len(lo))))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_field_components(self, seed):
        field = VectorField(random_sources(seed)[:3])
        self.rows(lambda x: field.at(x, 0).components,
                  np.random.default_rng(seed).uniform(-2, 2, size=(5, 3)))

    def test_metric_on_a_non_constant_warped_chart(self):
        metric = warped_metric("1.2*cosh(0.7*x1)")
        assert not metric.constant
        self.rows(lambda x: metric.at(x, 0).g,
                  np.random.default_rng(5).uniform(-1, 1, size=(5, 4)))

    def test_a_curved_metric_with_divisions(self):
        metric = MetricField([["2+1/(1+x1^2)"], ["x1/(9+x2)", "1+exp(2*x1)/(2+x2^2)"]])
        assert not metric.constant
        self.rows(lambda x: metric.at(x, 0).g,
                  np.random.default_rng(2).uniform(-2, 2, size=(40, 2)))

    def test_a_quotient_at_a_point(self):
        # at u1 = -1.25 a float division rounds 3/u1 and u1/3 once, a batch's
        # a × (1/b) twice, one ulp apart
        self.immersion_rows(Immersion(["3/u1", "u1/3"], 1), np.array([[-1.25], [0.7]]))


class TestSquare:
    """x^2 with the literal exponent 2 is one square instruction, x * x, that
    gives the 'pow' row's bits and raises its error."""

    def test_a_square_holds_no_pow_instruction(self):
        for src in ("x1^2", "x1^2.0", "(x1+x2)^2", "sin(x1^2)^2"):
            assert all(op != "pow" for op, *_ in Tape([parse(src)]).code), src
        assert [op for op, *_ in Tape([parse("x1^3")]).code] == ["pow"]
        # x1*x1 and x1^2 stay apart, each with its own subtree
        tape = Tape([parse("x1*x1"), parse("x1^2")])
        assert len(tape.code) == 2 and tape.code[0][0] is not tape.code[1][0]
        assert [to_source(node) for node in tape.nodes] == ["x1*x1", "x1^2"]

    def test_a_float_square_is_the_pow_row(self):
        # 10^5 arguments of both signs over 308 decades, squares subnormal included
        rng = np.random.default_rng(19)
        xs = (10.0 ** rng.uniform(-162.0, 154.0, 100_000)
              * rng.choice([-1.0, 1.0], 100_000)).tolist()
        tape = Tape([parse("x1^2")])
        got = [eval_float(tape, {"x1": x})[0] for x in xs]
        want = [row("pow", x, 0, 2.0)[0] for x in xs]
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("batch", [(), (9,)])
    @pytest.mark.parametrize("order", range(4))
    def test_a_jet_square_is_the_pow_composition(self, order, batch):
        # derivative entries nonzero and of normal size: the Leibniz terms of
        # x·x are the composition's doubled exactly
        rng = np.random.default_rng([order, len(batch)])
        tape = Tape([parse("x1^2")])
        for _ in range(50):
            d = [rng.standard_normal(batch) if batch else float(rng.standard_normal())]
            for k in range(1, order + 1):
                t = rng.standard_normal((3,) * k + batch)
                d.append(sum(t.transpose(perm + tuple(range(k, t.ndim)))  # symmetric
                             for perm in itertools.permutations(range(k))))
            x = Jet(order, 3, d)
            assert bits(tape.run({"x1": x})[0]) == bits(call("pow", x, 2.0))

    @pytest.mark.parametrize("bad, reason", [(1e200, "pow is not finite at 1e+200"),
                                             (math.nan, "pow is not finite at nan")])
    def test_a_square_that_is_not_finite_fails_as_pow(self, bad, reason):
        # at a float, a point jet and a batch whose second point is bad
        ast = parse("x1^2")
        envs = [{"x1": bad}] + [jet_variables(("x1",), points, order) for order in range(4)
                                for points in ([bad], [[0.5], [bad], [1e300]])]
        for env in envs:
            got = outcome(eval_jet_env, Tape([ast]), env)
            assert got == (DomainEvalError, f"{reason} in subexpression 'x1^2'")
            assert got == outcome(walked, [ast], env)

    def test_a_failure_names_the_square_or_the_product(self):
        exprs = [parse("x1*x1"), parse("exp(x1^2)"), parse("1/(x1*x1)")]
        for x, failing in ((1e200, "x1^2"), (1e-200, "1/(x1*x1)")):
            for order in (0, 2):
                env = jet_variables(("x1",), [x], order)
                got = outcome(eval_jet_env, Tape(exprs), env)
                assert got[0] is DomainEvalError and got[1].endswith(f"'{failing}'")
                assert got == outcome(walked, exprs, env)
