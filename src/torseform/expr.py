"""Arithmetic expression language used by scene files.

Grammar, loosest to tightest binding::

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?        right-associative, binds above unary minus
    atom   := NUMBER | IDENT | IDENT "(" expr ("," expr)* ")" | "(" expr ")"

so "-x1^2" parses as -(x1^2) and "2^3^2" as 2^(3^2).  Whitespace is
insignificant.  When a variable set is supplied, identifiers outside it are
rejected at parse time with their position, as are literals that overflow.

FUNCTIONS is the one table of calls (sin cos tan sinh cosh tanh asinh atanh
atan sqrt exp log abs pow): arity plus a row of derivatives at a point (or at
every point of a batch), read by float evaluation here and by the jet engine
in `torseform.jets`.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Union

import numpy as np

from .errors import DomainEvalError, JetDomainError, ParseError

# ---------------------------------------------------------------------------
# Function table: the one place that knows the supported calls
# ---------------------------------------------------------------------------

class Function(NamedTuple):
    """``derivatives(x, k, *params)`` returns [φ(x), φ′(x), …, φ⁽ᵏ⁾(x)], k <= 3,
    for φ the function of its first argument, further arguments (the exponent
    of pow) held fixed.  x is a float, or an array holding one value per point
    of a batch; a row uses math for the one and numpy for the other.  It
    raises on a domain violation (at any point of a batch): the value needs x
    in the domain, derivatives of order >= 1 need x in its interior."""

    arity: int
    derivatives: Callable


class _ArrayMath:
    """numpy's ufuncs under the names of the math module."""

    sin, cos, tan, sinh, cosh, tanh = np.sin, np.cos, np.tan, np.sinh, np.cosh, np.tanh
    asinh, atanh, atan = np.arcsinh, np.arctanh, np.arctan
    sqrt, exp, log, pow, copysign = np.sqrt, np.exp, np.log, np.power, np.copysign


def _lib(x):
    """math at a float, numpy at an array of values."""
    return math if isinstance(x, float) else _ArrayMath


def _anywhere(bad) -> bool:
    """`bad` at a float, or at any point of an array."""
    return bad if bad.__class__ is bool else bool(bad.any())


def _outside(what: str, x, bad) -> JetDomainError:
    """The domain error for x (at the first point of an array where `bad`)."""
    return JetDomainError(f"{what} {float(x if np.ndim(x) == 0 else x[bad][0])!r}")


def _cyclic(f, g, sign, k):
    """sin, cos, sinh, cosh: φ'' = sign·φ, so the derivatives cycle through f, g."""
    return [f, g, sign * f, sign * g][:k + 1]


def _tan_like(t, sign, k):
    """tan (sign 1) and tanh (sign -1) from their value t: φ' = 1 + sign·t²."""
    d1 = 1.0 + sign * t * t
    return [t, d1, 2.0 * sign * t * d1, d1 * (2.0 * sign + 6.0 * t * t)][:k + 1]


def _atan_like(value, x, sign, k):
    """atan (sign 1) and atanh (sign -1): φ' = 1 / (1 + sign·x²)."""
    d1 = 1.0 / (1.0 + sign * x * x)
    return [value, d1, -2.0 * sign * x * d1 * d1, (6.0 * x * x - 2.0 * sign) * d1 ** 3][:k + 1]


def _atanh(x, k):
    if _anywhere(abs(x) >= 1.0):
        raise _outside("atanh outside (-1, 1) at", x, abs(x) >= 1.0)
    return _atan_like(_lib(x).atanh(x), x, -1.0, k)


def _asinh(x, k):
    w = 1.0 + x * x
    return [_lib(x).asinh(x), w ** -0.5, -x * w ** -1.5, (2.0 * x * x - 1.0) * w ** -2.5][:k + 1]


def _log(x, k):
    if _anywhere(x <= 0.0):
        raise _outside("log of non-positive value", x, x <= 0.0)
    r = 1.0 / x
    return [_lib(x).log(x), r, -r * r, 2.0 * r * r * r][:k + 1]


def _sqrt(x, k):
    if _anywhere(x < 0.0):
        raise _outside("sqrt of negative value", x, x < 0.0)
    r = _lib(x).sqrt(x)
    if k == 0:
        return [r]
    if _anywhere(x == 0.0):
        raise JetDomainError("sqrt is not differentiable at 0")
    d1 = 0.5 / r
    d2 = -0.5 * d1 / x
    return [r, d1, d2, -1.5 * d2 / x][:k + 1]


def _abs(x, k):
    if k and _anywhere(x == 0.0):
        raise JetDomainError("abs is not differentiable at 0")
    return [abs(x), _lib(x).copysign(1.0, x), 0.0, 0.0][:k + 1]


def _pow(x, k, p):
    """x^p and its x-derivatives for a constant exponent p."""
    whole = float(p).is_integer()
    if not whole and _anywhere(x < 0.0):
        raise _outside(f"non-integer power {float(p)!r} of negative value", x, x < 0.0)
    if p < 0.0 and _anywhere(x == 0.0):
        raise JetDomainError("division by zero")
    if k and not whole and _anywhere(x == 0.0):
        raise JetDomainError(f"non-integer power {float(p)!r} is not differentiable at 0")
    power = _lib(x).pow
    out, c = [], 1.0
    for j in range(k + 1):
        # c = p (p-1) ... (p-j+1), 0 past a non-negative integer p; a negative
        # integer power divides, so that 1/x is correctly rounded
        if not c:
            out.append(0.0)
        elif whole and p < j:
            out.append(c / power(x, j - p))
        else:
            out.append(c * power(x, p - j))
        c *= p - j
    return out


FUNCTIONS = {
    "sin": Function(1, lambda x, k: _cyclic(_lib(x).sin(x), _lib(x).cos(x), -1.0, k)),
    "cos": Function(1, lambda x, k: _cyclic(_lib(x).cos(x), -_lib(x).sin(x), -1.0, k)),
    "tan": Function(1, lambda x, k: _tan_like(_lib(x).tan(x), 1.0, k)),
    "sinh": Function(1, lambda x, k: _cyclic(_lib(x).sinh(x), _lib(x).cosh(x), 1.0, k)),
    "cosh": Function(1, lambda x, k: _cyclic(_lib(x).cosh(x), _lib(x).sinh(x), 1.0, k)),
    "tanh": Function(1, lambda x, k: _tan_like(_lib(x).tanh(x), -1.0, k)),
    "asinh": Function(1, _asinh),
    "atanh": Function(1, _atanh),
    "atan": Function(1, lambda x, k: _atan_like(_lib(x).atan(x), x, 1.0, k)),
    "sqrt": Function(1, _sqrt),
    "exp": Function(1, lambda x, k: [_lib(x).exp(x)] * (k + 1)),
    "log": Function(1, _log),
    "abs": Function(1, _abs),
    "pow": Function(2, _pow),
}


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


Expr = Union[Num, Var, Neg, BinOp, Call]


def free_variables(expr: Expr) -> frozenset:
    """Names of all variables occurring in the expression."""
    if isinstance(expr, Num):
        return frozenset()
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, Neg):
        return free_variables(expr.arg)
    if isinstance(expr, BinOp):
        return free_variables(expr.left) | free_variables(expr.right)
    return frozenset().union(*(free_variables(a) for a in expr.args)) if expr.args else frozenset()


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str  # "num" | "ident" | "op" | "eof"
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^(),])
      | (?P<ws>[ \t\r\n]+)
      | (?P<bad>.)""",
    re.VERBOSE,
)


def tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        chunk = m.group()
        if kind == "ws":
            nl = chunk.count("\n")
            if nl:
                line += nl
                col = len(chunk) - chunk.rfind("\n")
            else:
                col += len(chunk)
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {chunk!r}", line, col)
        tokens.append(Token(kind, chunk, line, col))
        col += len(chunk)
    tokens.append(Token("eof", "<end>", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent)
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = None if variables is None else frozenset(variables)

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, expected: str):
        tok = self.peek()
        raise ParseError(f"expected {expected}, found {tok.text!r}", tok.line, tok.col)

    def expect_op(self, text: str):
        tok = self.peek()
        if tok.kind == "op" and tok.text == text:
            return self.advance()
        self.error(f"'{text}'")

    def at_op(self, *texts) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in texts

    def expression(self) -> Expr:
        node = self.term()
        while self.at_op("+", "-"):
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.at_op("*", "/"):
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.at_op("-"):
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.at_op("^"):
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError(f"number {tok.text} is out of range", tok.line, tok.col)
            return Num(value)
        if tok.kind == "ident":
            self.advance()
            if self.at_op("("):
                if tok.text not in FUNCTIONS:
                    raise ParseError(f"unknown function '{tok.text}'", tok.line, tok.col)
                self.advance()
                args = [self.expression()]
                while self.at_op(","):
                    self.advance()
                    args.append(self.expression())
                self.expect_op(")")
                arity = FUNCTIONS[tok.text].arity
                if len(args) != arity:
                    raise ParseError(
                        f"'{tok.text}' takes {arity} argument(s), got {len(args)}",
                        tok.line, tok.col)
                return Call(tok.text, tuple(args))
            if tok.text in FUNCTIONS:
                raise ParseError(f"function '{tok.text}' used without arguments",
                                 tok.line, tok.col)
            if self.variables is not None and tok.text not in self.variables:
                raise ParseError(f"unknown identifier '{tok.text}'", tok.line, tok.col)
            return Var(tok.text)
        if self.at_op("("):
            self.advance()
            node = self.expression()
            self.expect_op(")")
            return node
        self.error("a number, identifier or '('")


def parse(text: str, variables: Iterable[str] | None = None) -> Expr:
    """Parse an expression; when `variables` is given, any identifier outside
    that set is a ParseError at its position."""
    parser = _Parser(tokenize(text), variables)
    node = parser.expression()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return node


# ---------------------------------------------------------------------------
# Printer (minimal parentheses; print -> parse is the identity on parsed ASTs)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, (Var, Call)):
        return _PREC_ATOM
    if isinstance(e, Num):
        return _PREC_ATOM if e.value >= 0 else _PREC_UNARY
    if isinstance(e, Neg):
        return _PREC_UNARY
    return {"+": _PREC_ADD, "-": _PREC_ADD,
            "*": _PREC_MUL, "/": _PREC_MUL,
            "^": _PREC_POW}[e.op]


def _num_text(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def to_source(e: Expr) -> str:
    """Render the AST back to expression syntax."""
    def render(node: Expr, slot: int) -> str:
        text = _render(node)
        return f"({text})" if _prec(node) < slot else text

    def _render(node: Expr) -> str:
        if isinstance(node, Num):
            if node.value < 0:
                return "-" + _num_text(-node.value)
            return _num_text(node.value)
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Neg):
            return "-" + render(node.arg, _PREC_UNARY)
        if isinstance(node, Call):
            return node.func + "(" + ", ".join(render(a, _PREC_ADD) for a in node.args) + ")"
        if node.op in "+-":
            return render(node.left, _PREC_ADD) + node.op + render(node.right, _PREC_MUL)
        if node.op in "*/":
            return render(node.left, _PREC_MUL) + node.op + render(node.right, _PREC_UNARY)
        # '^': base must be an atom, exponent may be a unary chain
        return render(node.left, _PREC_ATOM) + "^" + render(node.right, _PREC_UNARY)

    return _render(e)


# ---------------------------------------------------------------------------
# Evaluation (one walker; floats and jets differ only in how they call a row)
# ---------------------------------------------------------------------------

_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def evaluate(expr: Expr, env: Mapping, *, call: Callable):
    """Evaluate `expr` with variable bindings from `env`.

    Literals evaluate to plain floats; `call(name, *args)` applies the
    FUNCTIONS row `name`, and '^' is a call of 'pow'.  Domain failures are
    reported with the offending subexpression.
    """
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
            left = ev(node.left)
            right = ev(node.right)
            try:
                if node.op == "^":
                    return call("pow", left, right)
                return _ARITHMETIC[node.op](left, right)
            except (ZeroDivisionError, ValueError, OverflowError) as exc:
                raise _domain_error(exc, node) from exc
        args = [ev(a) for a in node.args]
        try:
            return call(node.func, *args)
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise _domain_error(exc, node) from exc

    return ev(expr)


def _domain_error(exc: Exception, node: Expr) -> DomainEvalError:
    # float '/' says "float division by zero", a zero reciprocal in a jet
    # "division by zero": both evaluators report the same reason
    reason = "division by zero" if isinstance(exc, ZeroDivisionError) else str(exc)
    return DomainEvalError(reason or type(exc).__name__, to_source(node))


def _float_call(name: str, x: float, *params: float) -> float:
    return FUNCTIONS[name].derivatives(x, 0, *params)[0]


def eval_float(expr: Expr, env: Mapping[str, float]) -> float:
    """Plain floating-point evaluation."""
    return evaluate(expr, env, call=_float_call)


def ensure_expr(e, variables=None) -> Expr:
    """Accept an AST, a source string, or a bare number."""
    if isinstance(e, (Num, Var, Neg, BinOp, Call)):
        return e
    if isinstance(e, str):
        return parse(e, variables)
    return Num(float(e))
