"""The function table against sympy's exact derivatives, its one domain rule
shared by float and jet evaluation, and third-order jets against sympy."""

import itertools

import numpy as np
import pytest

from torseform import eval_float, eval_jet, parse
from torseform.errors import DomainEvalError
from torseform.expr import FUNCTIONS

sp = pytest.importorskip("sympy")

X = sp.Symbol("x", real=True)
SYMPY = {"sin": sp.sin, "cos": sp.cos, "tan": sp.tan, "sinh": sp.sinh,
         "cosh": sp.cosh, "tanh": sp.tanh, "asinh": sp.asinh, "atanh": sp.atanh,
         "atan": sp.atan, "sqrt": sp.sqrt, "exp": sp.exp, "log": sp.log,
         "abs": sp.Abs}
# in-domain points, kept away from each function's singularities
POINTS = {name: (-1.3, -0.4, 0.7, 2.1) for name in SYMPY}
POINTS.update({"atanh": (-0.8, -0.3, 0.5, 0.9), "sqrt": (0.2, 0.9, 2.5),
               "log": (0.2, 0.9, 2.5), "tan": (-1.3, -0.4, 0.7, 1.4)})
WHOLE_EXPONENTS = (0, 1, 2, 3, 5, -1, -2, -3)
FRACTIONAL_EXPONENTS = (sp.Rational(1, 2), sp.Rational(-3, 2), sp.Rational(5, 2),
                        sp.Rational(1, 3))


def _exact(expr, x, k):
    return float(sp.diff(expr, X, k).subs(X, sp.Float(x, 30)).evalf(30))


def _assert_row(got, expr, x, label):
    assert len(got) == 4, label
    for k in range(4):
        ref = _exact(expr, x, k)
        assert abs(got[k] - ref) <= 1e-13 * max(1.0, abs(ref)), (label, k, got[k], ref)


class TestRowsAgainstSympy:
    def test_every_function_is_checked(self):
        assert set(FUNCTIONS) == set(SYMPY) | {"pow"}
        assert FUNCTIONS["pow"].arity == 2
        assert all(FUNCTIONS[name].arity == 1 for name in SYMPY)

    @pytest.mark.parametrize("name", sorted(SYMPY))
    def test_unary_rows_to_order_three(self, name):
        row = FUNCTIONS[name].derivatives
        for x in POINTS[name]:
            _assert_row(row(x, 3), SYMPY[name](X), x, (name, x))
            for k in range(3):
                assert row(x, k) == row(x, 3)[:k + 1], (name, x, k)

    def test_pow_row_to_order_three(self):
        row = FUNCTIONS["pow"].derivatives
        for p in WHOLE_EXPONENTS:
            for x in (-1.7, -0.6, 0.4, 1.9):
                _assert_row(row(x, 3, float(p)), X ** p, x, ("pow", x, p))
        for p in FRACTIONAL_EXPONENTS:
            for x in (0.3, 1.1, 2.6):
                _assert_row(row(x, 3, float(p)), X ** p, x, ("pow", x, p))


class TestOneDomainRule:
    """A value is defined wherever eval_float defines it, derivatives need
    the open domain, and both evaluators give the same message."""

    @pytest.mark.parametrize("src, x, value", [
        ("sqrt(x1)", 0.0, 0.0), ("abs(x1)", 0.0, 0.0), ("x1^0.5", 0.0, 0.0),
        ("x1^2", 0.0, 0.0), ("x1^0", 0.0, 1.0), ("pow(x1, 3)", -2.0, -8.0),
        ("x1^x1", -2.0, 0.25),
    ])
    def test_jet_value_defined_where_float_value_is(self, src, x, value):
        ast = parse(src)
        assert eval_float(ast, {"x1": x}) == value
        assert eval_jet(ast, [x], 0).value == value

    @pytest.mark.parametrize("src, x", [
        ("sqrt(x1)", 0.0), ("abs(x1)", 0.0), ("x1^0.5", 0.0), ("x1^2.5", 0.0),
    ])
    def test_derivatives_need_the_open_domain(self, src, x):
        for order in (1, 2, 3):
            with pytest.raises(DomainEvalError):
                eval_jet(parse(src), [x], order)

    def test_whole_powers_are_smooth_at_zero(self):
        jet = eval_jet(parse("x1^3 + x1^2"), [0.0], 3)
        assert [jet.partial((k,)) for k in range(4)] == [0.0, 0.0, 2.0, 6.0]

    @pytest.mark.parametrize("src, x", [
        ("log(x1)", -1.0), ("log(x1)", 0.0), ("sqrt(x1)", -1.0), ("atanh(x1)", 1.0),
        ("atanh(x1)", -2.0), ("1/(x1-1)", 1.0), ("x1^-2", 0.0), ("x1^0.5", -4.0),
        ("pow(x1, 1.5)", -1.0), ("exp(x1)", 1000.0), ("cosh(x1)", 1000.0),
    ])
    def test_same_message_from_both_evaluators(self, src, x):
        ast = parse(src)
        with pytest.raises(DomainEvalError) as by_float:
            eval_float(ast, {"x1": x})
        for order in (0, 1, 3):
            with pytest.raises(DomainEvalError) as by_jet:
                eval_jet(ast, [x], order)
            assert str(by_jet.value) == str(by_float.value), order

    def test_log_domain_message_is_not_the_libm_one(self):
        with pytest.raises(DomainEvalError) as err:
            eval_float(parse("log(x1)"), {"x1": -1.0})
        assert "log of non-positive value" in str(err.value)


def _sympy_expression(src, names):
    symbols = {n: sp.Symbol(n, real=True) for n in names}
    return sp.sympify(src, locals=dict(symbols, pow=sp.Pow, abs=sp.Abs),
                      convert_xor=True), [symbols[n] for n in names]


class TestThirdOrderJetsAgainstSympy:
    @pytest.mark.parametrize("src, point", [
        ("x1*x2*x3 + sin(x1*x2)*x3^2", (0.7, -1.1, 0.4)),
        ("(x1 + x2^2)/(1.5 + x3*x3) - x2/x1", (1.3, 0.6, -0.8)),
        ("x1^x2 + x2^(x1*x3)", (1.4, 0.8, 0.6)),
        ("exp(sin(x1)*x2)*log(2 + x2^2)", (0.9, -0.5)),
        ("tanh(x1 - x2)*sqrt(x1^2 + x2^2 + x3^2)", (0.5, 1.2, -0.7)),
        ("atan(x1/x2) + asinh(x1*x2) - cos(x3)^3", (0.8, 1.6, 0.3)),
        ("pow(x2, 2.5)*atanh(x1/3) + abs(x1 - x2)", (-0.9, 1.7)),
        ("1/sqrt(x1^2 + x2^2)^3 + cosh(x1)/sinh(x2) - tan(x1*x2)", (0.6, 0.9)),
    ])
    def test_mixed_third_partials(self, src, point):
        names = [f"x{i + 1}" for i in range(len(point))]
        expr, symbols = _sympy_expression(src, names)
        at = {s: sp.Float(v, 30) for s, v in zip(symbols, point)}
        jet = eval_jet(parse(src), point, 3)
        assert jet.order == 3
        n = len(point)
        exact = {(): expr}      # exact partials are symmetric: one per sorted index
        for k in range(1, 4):
            for idx in itertools.combinations_with_replacement(range(n), k):
                exact[idx] = sp.diff(exact[idx[:-1]], symbols[idx[-1]])
        refs = {idx: float(e.subs(at).evalf(30)) for idx, e in exact.items()}
        for k in range(1, 4):
            assert jet.d[k].shape == (n,) * k
            for idx in itertools.product(range(n), repeat=k):
                ref = refs[tuple(sorted(idx))]
                got = jet.d[k][idx]
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (src, idx, got, ref)

    def test_coeffs_view_is_read_only(self):
        jet = eval_jet(parse("x1*x2"), (1.0, 2.0), 2)
        with pytest.raises(TypeError):
            jet.coeffs[(0, 0)] = 5.0
        assert jet.coeffs[(1, 1)] == 1.0 and np.isclose(jet.coefficient((1, 1)), 1.0)
