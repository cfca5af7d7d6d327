"""Jet arithmetic against finite-difference and closed-form oracles."""

import math

import numpy as np
import pytest

from conftest import fd_gradient, fd_second, random_expression
from torseform import Jet, eval_float, eval_jet, eval_jet_env, parse
from torseform.errors import DomainEvalError
from torseform.jets import jet_variables


class TestExamples:
    def test_polynomial(self):
        jet = eval_jet(parse("x1*x1 + x2"), [2.0, 3.0], 2)
        assert jet.value == 7.0
        assert jet.gradient().tolist() == [4.0, 1.0]
        # Taylor coefficient for the (2, 0) index, i.e. second derivative / 2!
        assert jet.coefficient((2, 0)) == 1.0

    def test_tanh_asinh_value(self):
        jet = eval_jet(parse("tanh(asinh(x1))"), [1.0], 0)
        assert jet.value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)

    def test_norm_gradient_fd(self):
        ast = parse("sqrt(x1^2+x2^2)")
        jet = eval_jet(ast, [3.0, 4.0], 1)
        assert jet.value == pytest.approx(5.0)
        fn = lambda x: eval_float(ast, {"x1": x[0], "x2": x[1]})
        for i in range(2):
            assert jet.gradient()[i] == pytest.approx(
                fd_gradient(fn, [3.0, 4.0], i), abs=1e-10)
        assert jet.gradient().tolist() == pytest.approx([0.6, 0.8])


class TestArithmetic:
    def test_mul_truncation_exact(self):
        # (1 + x)^2 * (1 - x) expanded to order 3 around 0.collect
        x = Jet.variable(0, 0.0, 1, 3)
        out = (1 + x) * (1 + x) * (1 - x)
        # 1 + x - x^2 - x^3
        assert out.coefficient((0,)) == 1.0
        assert out.coefficient((1,)) == 1.0
        assert out.coefficient((2,)) == -1.0
        assert out.coefficient((3,)) == -1.0

    def test_division_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = rng.uniform(0.5, 2.0, size=2)
            a = eval_jet(parse("1.7 + sin(x1)*x2"), p, 3)
            b = eval_jet(parse("2.5 + cos(x1+x2)"), p, 3)
            back = (a / b) * b
            for alpha, coeff in a.coeffs.items():
                assert back.coefficient(alpha) == pytest.approx(coeff, abs=1e-12)

    def test_integer_negative_power(self):
        jet = eval_jet(parse("x1^-2"), [2.0], 2)
        assert jet.value == pytest.approx(0.25)
        assert jet.partial((1,)) == pytest.approx(-2.0 / 8.0)
        assert jet.partial((2,)) == pytest.approx(6.0 / 16.0)

    def test_variable_exponent(self):
        jet = eval_jet(parse("x1^x2"), [2.0, 3.0], 1)
        assert jet.value == pytest.approx(8.0)
        assert jet.gradient()[0] == pytest.approx(3.0 * 4.0)        # p x^(p-1)
        assert jet.gradient()[1] == pytest.approx(8.0 * math.log(2.0))


def _substitute(outer_ast, inner_ast):
    """Replace every variable of the outer AST with the inner AST."""
    from torseform.expr import BinOp, Call, Neg, Var

    def subst(node):
        if isinstance(node, Var):
            return inner_ast
        if isinstance(node, Neg):
            return Neg(subst(node.arg))
        if isinstance(node, BinOp):
            return BinOp(node.op, subst(node.left), subst(node.right))
        if isinstance(node, Call):
            return Call(node.func, tuple(subst(a) for a in node.args))
        return node

    return subst(outer_ast)


class TestCompositionConsistency:
    """Composing then evaluating equals evaluating then composing."""

    def test_textual_vs_jet_environment_composition(self):
        rng = np.random.default_rng(123)
        outer_srcs = ["tanh(x1)", "sqrt(1.3+x1^2)", "exp(sin(x1))",
                      "log(1.2+x1^2)", "atan(x1)*x1", "1/(2.1+x1^2)"]
        inner_srcs = ["sin(x1)+0.3*x1", "asinh(x1*x1)", "cos(x1)-x1",
                      "x1/(1.4+x1^2)"]
        for _ in range(40):
            outer = parse(str(rng.choice(outer_srcs)))
            inner_src = str(rng.choice(inner_srcs))
            point = float(rng.uniform(-1.5, 1.5))
            inner_jet = eval_jet(parse(inner_src), [point], 3)
            via_env = eval_jet_env(outer, {"x1": inner_jet})
            textual = eval_jet(_substitute(outer, parse(inner_src)), [point], 3)
            for alpha in via_env.coeffs | textual.coeffs:
                assert via_env.coefficient(alpha) == pytest.approx(
                    textual.coefficient(alpha), abs=1e-11), (alpha, inner_src)


class TestFiniteDifferenceOracle:
    def test_random_expressions_match_richardson_fd(self):
        rng = np.random.default_rng(987654321)
        checked = 0
        while checked < 100:
            nvars = int(rng.integers(1, 4))
            src = random_expression(rng, nvars)
            ast = parse(src)
            point = rng.uniform(-2.0, 2.0, size=nvars)
            names = [f"x{i + 1}" for i in range(nvars)]
            fn = lambda x: eval_float(ast, dict(zip(names, map(float, x))))
            jet = eval_jet(ast, point, 2)
            grad = jet.gradient()
            hess = jet.hessian()
            for i in range(nvars):
                ref = fd_gradient(fn, point, i)
                assert abs(grad[i] - ref) <= 1e-6 * max(1.0, abs(ref)), src
                for j in range(i, nvars):
                    ref2 = fd_second(fn, point, i, j)
                    assert abs(hess[i, j] - ref2) <= 1e-6 * max(1.0, abs(ref2)), src
            checked += 1


class TestDomains:
    def test_sqrt_nonpositive(self):
        with pytest.raises(DomainEvalError) as err:
            eval_jet(parse("sqrt(x1)"), [-1.0], 1)
        assert "sqrt(x1)" in str(err.value)

    def test_log_nonpositive(self):
        with pytest.raises(DomainEvalError):
            eval_jet(parse("log(x1-2)"), [1.0], 1)

    def test_division_by_zero(self):
        with pytest.raises(DomainEvalError) as err:
            eval_jet(parse("x2/(x1*x1-4)"), [2.0, 1.0], 1)
        assert "x1*x1-4" in str(err.value)

    def test_abs_kink(self):
        with pytest.raises(DomainEvalError):
            eval_jet(parse("abs(x1)"), [0.0], 1)
        jet = eval_jet(parse("abs(x1)"), [-2.0], 1)
        assert jet.value == 2.0 and jet.gradient()[0] == -1.0

    def test_order_cap(self):
        with pytest.raises(ValueError):
            eval_jet(parse("x1"), [1.0], 4)

    def test_env_mixing_guard(self):
        env = jet_variables(["x1", "x2"], [1.0, 2.0], 2)
        other = Jet.variable(0, 1.0, 3, 2)
        with pytest.raises(ValueError):
            env["x1"] + other
