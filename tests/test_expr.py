"""Parser, printer and float evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torseform import eval_float, parse, to_source
from torseform.errors import DomainEvalError, ParseError
from torseform.expr import FUNCTIONS, BinOp, Call, Neg, Num, Var


def ev(src, **env):
    return eval_float(parse(src), env)


class TestParsing:
    def test_precedence_unary_minus_binds_looser_than_power(self):
        ast = parse("-x1^2")
        assert ast == Neg(BinOp("^", Var("x1"), Num(2.0)))
        assert ev("-x1^2", x1=3.0) == -9.0
        assert ev("(-x1)^2", x1=3.0) == 9.0

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_left_associative_sub_div(self):
        assert ev("10-4-3") == 3.0
        assert ev("24/4/3") == 2.0

    def test_mul_add_precedence(self):
        assert ev("2+3*4^2") == 50.0

    def test_call_and_whitespace(self):
        assert ev("  sin( x1 ) + cos(0) ", x1=0.0) == 1.0
        assert ev("pow(2, 10)") == 1024.0

    def test_radial_conformal_scalar_shape(self):
        src = "1/sqrt(x1^2+x2^2+x3^2+x4^2)"
        assert ev(src, x1=2.0, x2=0.0, x3=0.0, x4=0.0) == pytest.approx(0.5)

    def test_closed_form_tanh_asinh(self):
        assert ev("tanh(asinh(s))", s=1.0) == pytest.approx(1 / math.sqrt(2))

    def test_unknown_identifier_rejected_with_position(self):
        with pytest.raises(ParseError) as err:
            parse("x1 + bogus", variables={"x1"})
        assert "bogus" in str(err.value)
        assert err.value.line == 1
        assert err.value.col == 6

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("1 + * 2")
        assert err.value.col == 5

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("1 + 2 2")

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse("foo(1)")

    def test_function_without_arguments(self):
        with pytest.raises(ParseError):
            parse("sin + 1")

    def test_arity_checked(self):
        with pytest.raises(ParseError):
            parse("pow(2)")
        with pytest.raises(ParseError):
            parse("sin(1, 2)")

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse("1 ? 2")

    @pytest.mark.parametrize("src, col", [("1e400", 1), ("x1 + 2.5e309*x1", 6),
                                          ("sqrt(x2-1e400)", 9)])
    def test_overflowing_literal_rejected_with_position(self, src, col):
        with pytest.raises(ParseError) as err:
            parse(src)
        assert "out of range" in str(err.value)
        assert (err.value.line, err.value.col) == (1, col)

    @pytest.mark.parametrize("src, line, col, message", [
        ("x1 +\n* x2", 2, 1, "expected a number, identifier or '(', found '*'"),
        ("x1\r\n  + ?", 2, 5, "unexpected character '?'"),
        ("\t\tx1 + foo(1)", 1, 8, "unknown function 'foo'"),
        ("x1 *\r\n\t(x2 + 1", 2, 9, "expected ')', found '<end>'"),
        ("sin(x1,\n\n   2)", 1, 1, "'sin' takes 1 argument(s), got 2"),
        ("x1\n+ 1e400", 2, 3, "number 1e400 is out of range"),
        ("x1\n\tx2", 2, 2, "unexpected trailing input 'x2'"),
        ("x1 + bogus\n", 1, 6, "unknown identifier 'bogus'"),
        ("x1 +", 1, 5, "expected a number, identifier or '(', found '<end>'"),
        ("x1 + \n  ", 2, 3, "expected a number, identifier or '(', found '<end>'"),
        ("(x1\r\n", 2, 1, "expected ')', found '<end>'"),
    ])
    def test_positions_past_newlines_and_tabs_and_at_the_end(self, src, line, col, message):
        # only "\n" ends a line; "\r" and a tab are one column each, and the
        # end of input is the column after the last character
        with pytest.raises(ParseError) as err:
            parse(src, variables={"x1", "x2"})
        assert (err.value.line, err.value.col) == (line, col)
        assert str(err.value) == f"line {line}:{col}: {message}"


names = st.from_regex(r"[A-Za-z_][A-Za-z_0-9]{0,3}", fullmatch=True).filter(
    lambda name: name not in FUNCTIONS)
# a parsed number is never negative: "-1" is Neg(Num(1.0))
numbers = st.floats(min_value=0.0, allow_infinity=False).map(abs)


def _compound(kids):
    return st.one_of(
        st.builds(Neg, kids),
        st.builds(BinOp, st.sampled_from("+-*/^"), kids, kids),
        st.sampled_from(sorted(FUNCTIONS)).flatmap(lambda f: st.builds(
            lambda args: Call(f, tuple(args)),
            st.lists(kids, min_size=FUNCTIONS[f].arity, max_size=FUNCTIONS[f].arity))),
    )


asts = st.recursive(st.one_of(numbers.map(Num), names.map(Var)), _compound, max_leaves=12)


class TestPrinter:
    @pytest.mark.parametrize("src", [
        "x1+x2*x3", "(x1+x2)*x3", "-x1^2", "(-x1)^2", "x1^x2^x3",
        "(x1^x2)^x3", "x1-(x2-x3)", "x1/(x2/x3)", "pow(x1, 2)+sin(x2)",
        "1/sqrt(x1^2+x2^2)",
    ])
    def test_round_trip_fixed(self, src):
        ast = parse(src)
        assert parse(to_source(ast)) == ast

    def test_round_trip_random_asts(self):
        rng = np.random.default_rng(20240811)
        funcs1 = ["sin", "cos", "tanh", "asinh", "sqrt", "exp", "log", "abs",
                  "atan", "atanh", "sinh", "cosh", "tan"]

        def build(depth):
            if depth == 0:
                if rng.random() < 0.5:
                    return Var(f"x{rng.integers(1, 4)}")
                value = round(float(rng.uniform(0, 9)), 3)
                return Num(float(value))
            pick = rng.integers(0, 7)
            if pick == 0:
                return Neg(build(depth - 1))
            if pick == 1:
                return Call(str(rng.choice(funcs1)), (build(depth - 1),))
            if pick == 2:
                return Call("pow", (build(depth - 1), build(depth - 1)))
            op = str(rng.choice(["+", "-", "*", "/", "^"]))
            return BinOp(op, build(depth - 1), build(depth - 1))

        for _ in range(300):
            ast = build(int(rng.integers(1, 5)))
            assert parse(to_source(ast)) == ast

    @settings(max_examples=500, deadline=None, database=None, derandomize=True)
    @given(asts)
    def test_round_trip_drawn_asts(self, ast):
        assert parse(to_source(ast)) == ast


class TestEvaluationErrors:
    def test_division_by_zero_reports_subexpression(self):
        with pytest.raises(DomainEvalError) as err:
            ev("1/(x1-1)", x1=1.0)
        assert "x1-1" in str(err.value)

    def test_log_domain(self):
        with pytest.raises(DomainEvalError) as err:
            ev("log(x1)", x1=-2.0)
        assert "log" in str(err.value)

    def test_sqrt_domain(self):
        with pytest.raises(DomainEvalError):
            ev("sqrt(x1)", x1=-1.0)

    def test_atanh_domain(self):
        with pytest.raises(DomainEvalError):
            ev("atanh(x1)", x1=2.0)

    def test_fractional_power_of_negative(self):
        with pytest.raises(DomainEvalError):
            ev("x1^0.5", x1=-4.0)

    def test_integer_power_of_negative_is_fine(self):
        assert ev("x1^3", x1=-2.0) == -8.0
