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
atan sqrt exp log abs pow): arity plus a row of derivatives on numpy's
kernels, run by `row` at a float as at a 1-point batch, and applied by
`apply` to a float, a batch or a jet, for float evaluation here and for the
jet engine in `torseform.jets` alike; a tape looks up each row it calls
once, when it is built.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
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
    of pow) held fixed, at x holding one value per point of a batch.  A row
    is built from numpy's ufuncs and np.power, never ``**`` (libm's pow on a
    scalar), and `row` runs a float as a 1-point batch, so a float's value
    and errors are a batch's.  It raises on a domain violation (at any point
    of a batch): the value needs x in the domain, derivatives of order >= 1
    need x in its interior."""

    arity: int
    derivatives: Callable


def _anywhere(bad) -> bool:
    """`bad` at a point, or at any point of an array."""
    return bool(bad.any() if isinstance(bad, np.ndarray) else bad)


def _raise_where(bad, what: str, x):
    """The domain error for the first value of x where `bad`, if there is one."""
    if _anywhere(bad):
        raise JetDomainError(f"{what} {float(np.extract(bad, x)[0])!r}")


def _cyclic(f, g, sign, x, k):
    """sin, cos, sinh, cosh: φ'' = sign·φ, so the derivatives cycle through f(x), g(x)."""
    if k == 0:
        return [f(x)]
    value, d1 = f(x), g(x)
    return [value, d1, sign * value, sign * d1][:k + 1]


def _tan_like(t, sign, k):
    """tan (sign 1) and tanh (sign -1) from their value t: φ' = 1 + sign·t²."""
    d1 = 1.0 + sign * t * t
    return [t, d1, 2.0 * sign * t * d1, d1 * (2.0 * sign + 6.0 * t * t)][:k + 1]


def _atan_like(value, x, sign, k):
    """atan (sign 1) and atanh (sign -1): φ' = 1 / (1 + sign·x²)."""
    d1 = 1.0 / (1.0 + sign * x * x)
    return [value, d1, -2.0 * sign * x * d1 * d1,
            (6.0 * x * x - 2.0 * sign) * np.power(d1, 3)][:k + 1]


def _atanh(x, k):
    _raise_where(abs(x) >= 1.0, "atanh outside (-1, 1) at", x)
    return _atan_like(np.arctanh(x), x, -1.0, k)


def _asinh(x, k):
    w = 1.0 + x * x
    return [np.arcsinh(x), np.power(w, -0.5), -x * np.power(w, -1.5),
            (2.0 * x * x - 1.0) * np.power(w, -2.5)][:k + 1]


def _log(x, k):
    _raise_where(x <= 0.0, "log of non-positive value", x)
    r = 1.0 / x
    return [np.log(x), r, -r * r, 2.0 * r * r * r][:k + 1]


def _sqrt(x, k):
    _raise_where(x < 0.0, "sqrt of negative value", x)
    r = np.sqrt(x)
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
    return [np.abs(x), np.copysign(1.0, x), 0.0, 0.0][:k + 1]


def _pow(x, k, p):
    """x^p and its x-derivatives for a constant exponent p."""
    whole = float(p).is_integer()
    if not whole:
        _raise_where(x < 0.0, f"non-integer power {float(p)!r} of negative value", x)
    if p < 0.0 and _anywhere(x == 0.0):
        raise JetDomainError("division by zero")
    if k and not whole and _anywhere(x == 0.0):
        raise JetDomainError(f"non-integer power {float(p)!r} is not differentiable at 0")
    out, c = [], 1.0
    for j in range(k + 1):
        # c = p (p-1) ... (p-j+1), 0 past a non-negative integer p; a negative
        # integer power divides, so that 1/x is correctly rounded
        if not c:
            out.append(0.0)
        elif whole and p < j:
            out.append(c / np.power(x, j - p))
        else:
            out.append(c * np.power(x, p - j))
        c *= p - j
    return out


FUNCTIONS = {
    "sin": Function(1, functools.partial(_cyclic, np.sin, np.cos, -1.0)),
    "cos": Function(1, functools.partial(_cyclic, np.cos, lambda t: -np.sin(t), -1.0)),
    "tan": Function(1, lambda x, k: _tan_like(np.tan(x), 1.0, k)),
    "sinh": Function(1, functools.partial(_cyclic, np.sinh, np.cosh, 1.0)),
    "cosh": Function(1, functools.partial(_cyclic, np.cosh, np.sinh, 1.0)),
    "tanh": Function(1, lambda x, k: _tan_like(np.tanh(x), -1.0, k)),
    "asinh": Function(1, _asinh),
    "atanh": Function(1, _atanh),
    "atan": Function(1, lambda x, k: _atan_like(np.arctan(x), x, 1.0, k)),
    "sqrt": Function(1, _sqrt),
    "exp": Function(1, lambda x, k: [np.exp(x)] * (k + 1)),
    "log": Function(1, _log),
    "abs": Function(1, _abs),
    "pow": Function(2, _pow),
}


_QUIET = contextvars.ContextVar("quiet", default=False)


class quiet:
    """A scope in which numpy warns of nothing, as callers judge a non-finite result;
    only the outermost of nested scopes sets _QUIET and enters np.errstate."""

    def __enter__(self):
        self.outer = None if _QUIET.get() else (_QUIET.set(True), np.errstate(all="ignore"))
        if self.outer:
            self.outer[1].__enter__()

    def __exit__(self, *exc):
        if self.outer:
            self.outer[1].__exit__(*exc)
            _QUIET.reset(self.outer[0])


def _row(name: str, derivatives, x, k: int, params) -> list:
    """`row` with the row's derivatives in hand, as a tape holds them."""
    if not _QUIET.get():        # a nested scope would cost a sixth of a row at a float
        with quiet():
            return _row(name, derivatives, x, k, params)
    if not isinstance(x, np.ndarray):
        # floats, so that '/' by zero still raises; math.isfinite gives
        # np.isfinite's answer ~3 µs sooner per row
        phi = list(map(float, derivatives(np.float64(x), k, *params)))
        if all(map(math.isfinite, phi)):
            return phi
        raise JetDomainError(f"{name} is not finite at {float(x)!r}")
    phi = derivatives(x, k, *params)
    finite = functools.reduce(operator.and_, map(np.isfinite, phi))
    if finite.all():
        return phi
    raise JetDomainError(f"{name} is not finite at {float(np.extract(~finite, x)[0])!r}")


def row(name: str, x, k: int, *params) -> list:
    """The FUNCTIONS row `name` to order k at x, a float or an array of
    values (one per point of a batch).  A float is run as np.float64, a
    batch of one point, and its results come back as floats.  JetDomainError
    at the first argument where a value or a derivative is not finite; numpy
    warns of nothing, within a quiet scope."""
    return _row(name, FUNCTIONS[name].derivatives, x, k, params)


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


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^(),])
      | (?P<ws>[ \t\r\n]+)
      | (?P<bad>.)""",
    re.VERBOSE,
)


def _error(text: str, offset: int, message: str) -> ParseError:
    """The ParseError at `offset` of `text`, with its 1-based line:col; only
    "\n" ends a line, so "\r" and a tab are one column each."""
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - text.rfind("\n", 0, offset))


def tokenize(text: str) -> list:
    """(kind, text, offset) of each token, kind "num", "ident" or "op", then
    ("eof", "<end>", len(text)); no two kinds share a token text."""
    tokens = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN_RE.finditer(text)
              if m.lastgroup != "ws"]
    for kind, chunk, offset in tokens:
        if kind == "bad":
            raise _error(text, offset, f"unexpected character {chunk!r}")
    return tokens + [("eof", "<end>", len(text))]


# ---------------------------------------------------------------------------
# Parser (recursive descent)
# ---------------------------------------------------------------------------

def parse(text: str, variables: Iterable[str] | None = None) -> Expr:
    """Parse an expression; when `variables` is given, any identifier outside
    that set is a ParseError at its position."""
    tokens, pos = tokenize(text), 0
    names = None if variables is None else frozenset(variables)

    def fail(message, token):
        raise _error(text, token[2], message)

    def at(*ops) -> bool:       # whether the next token is one of the operators `ops`
        return tokens[pos][1] in ops

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expect(op):
        if not at(op):
            fail(f"expected '{op}', found {tokens[pos][1]!r}", tokens[pos])
        take()

    def expression() -> Expr:
        node = term()
        while at("+", "-"):
            node = BinOp(take()[1], node, term())
        return node

    def term() -> Expr:
        node = unary()
        while at("*", "/"):
            node = BinOp(take()[1], node, unary())
        return node

    def unary() -> Expr:
        if at("-"):
            take()
            return Neg(unary())
        base = atom()
        if at("^"):                 # power := atom ("^" unary)?
            take()
            return BinOp("^", base, unary())
        return base

    def atom() -> Expr:
        kind, word, _ = token = take()
        if kind == "num":
            value = float(word)
            if not math.isfinite(value):
                fail(f"number {word} is out of range", token)
            return Num(value)
        if kind == "ident":
            if at("("):
                if word not in FUNCTIONS:
                    fail(f"unknown function '{word}'", token)
                take()
                args = [expression()]
                while at(","):
                    take()
                    args.append(expression())
                expect(")")
                arity = FUNCTIONS[word].arity
                if len(args) != arity:
                    fail(f"'{word}' takes {arity} argument(s), got {len(args)}", token)
                return Call(word, tuple(args))
            if word in FUNCTIONS:
                fail(f"function '{word}' used without arguments", token)
            if names is not None and word not in names:
                fail(f"unknown identifier '{word}'", token)
            return Var(word)
        if word == "(":
            node = expression()
            expect(")")
            return node
        fail(f"expected a number, identifier or '(', found {word!r}", token)

    node = expression()
    if tokens[pos][0] != "eof":
        fail(f"unexpected trailing input {tokens[pos][1]!r}", tokens[pos])
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
# Evaluation (one tape over floats and jets alike)
# ---------------------------------------------------------------------------

_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_TWO = Num(2.0)


def _apply(name: str, derivatives, x, *params):
    """`apply` with the row's derivatives in hand, as a tape holds them."""
    if params and hasattr(params[0], "d"):
        exponent = params[0]
        p = exponent.value
        if np.ndim(p):                  # one exponent for a whole batch, if it is one
            p = p[0] if (p == p[0]).all() else None
        if p is None or not exponent.is_constant():
            return apply("exp", apply("log", x) * exponent)
        params = (float(p),)
    if not hasattr(x, "d"):
        return _row(name, derivatives, x, 0, params)[0]
    return x.compose(_row(name, derivatives, x.d[0], x.order, params))


def apply(name: str, x, *params):
    """The function `name` of FUNCTIONS at a float, a batch's values or a jet
    (told by its derivative list `d`), by `row`, so a point's results and
    errors are those of a batch holding it; `params` are held fixed (pow's
    exponent).  A varying jet exponent, or one that differs between the
    points of a batch, goes through exp(exponent·log(base))."""
    return _apply(name, FUNCTIONS[name].derivatives, x, *params)


def _square(x):
    """x^2 at a float or a jet as x * x; a value that is not finite (at any
    point of a batch) is the 'pow' row's, which raises as '^' would."""
    if hasattr(x, "d"):                 # a jet
        square = x * x
        value = square.d[0]
        if math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all():
            return square
    else:
        x = float(x)
        square = x * x
        if math.isfinite(square):
            return square
    return apply("pow", x, 2.0)


class Tape:
    """A flat program for a sequence of expressions: one instruction per
    structurally distinct compound subtree (literals keyed by value and
    sign), in the post-order in which a recursive walk would first compute
    it, so a subtree they share is computed once per run.  An instruction
    writes a register that nothing reads any more, so a run holds no more
    values than a walk would.  `nodes[k]` is instruction k's subtree, named
    when it fails; the tape keeps no copy of the expressions.

    `x^2` with the literal exponent 2 is one square instruction, `x * x`, of
    its own op (so it stays apart from an `x*x` in the same tape): it gives
    the 'pow' row's bits, as np.power(x, 2.0) is x·x and the Leibniz jet of
    x·x doubles Faà di Bruno's terms exactly (but for derivative entries in
    the subnormal range and the sign of a zero order-3 entry), and a square
    that is not finite calls the 'pow' row, which raises its own error.
    `program` is `code` with each row bound to `apply` and its derivatives
    once, here: one program runs over floats, point jets and batches alike."""

    def __init__(self, exprs):
        self.nodes, self.first_read = [], {}    # variable -> instructions before its read
        literals, operands, placed = {}, [], {}

        def visit(node):    # -> the key of node's register: literal, name or instruction
            if isinstance(node, Num):
                key = (node.value, math.copysign(1.0, node.value))
                literals[key] = node.value
            elif isinstance(node, Var):
                key = node.name
                self.first_read.setdefault(key, len(self.nodes))
            else:
                op, kids = ((operator.neg, (node.arg,)) if isinstance(node, Neg) else
                            (node.func, node.args) if isinstance(node, Call) else
                            (_square, (node.left,)) if node.op == "^" and node.right == _TWO
                            else (_ARITHMETIC.get(node.op, "pow"), (node.left, node.right)))
                args = tuple(map(visit, kids))
                key = placed.setdefault((type(node), op) + args, len(placed))
                if key == len(self.nodes):
                    self.nodes.append(node)
                    operands.append((op, args))
            return key

        outputs = [visit(e) for e in exprs]
        self.literals, self.names = list(literals.values()), tuple(self.first_read)
        register = {key: i for i, key in enumerate([*literals, *self.names])}
        fresh = itertools.count(len(register))
        last_read = {a: k for k, (_, args) in enumerate(operands) for a in args}
        last_read.update((o, len(operands)) for o in outputs)
        free, self.code = [], []
        for k, (op, args) in enumerate(operands):
            src = [register[a] for a in args] + [None]
            free += [register[a] for a in dict.fromkeys(args)
                     if isinstance(a, int) and last_read[a] == k]
            register[k] = free.pop() if free else next(fresh)
            self.code.append((op, src[0], src[1], register[k]))
        self.blank = [None] * (next(fresh) - len(self.literals) - len(self.names))
        self.outputs = [register[o] for o in outputs]
        self.program = [(functools.partial(_apply, op, FUNCTIONS[op].derivatives)
                         if isinstance(op, str) else op, a, b, d)
                        for op, a, b, d in self.code]

    def run(self, env: Mapping) -> list:
        """The value of each expression over `env`, of floats or of jets;
        literals are floats, and `apply` applies a FUNCTIONS row ('^' calls
        'pow', a square only when it is not finite).  A domain failure or an
        unbound variable is raised where a walk would meet it."""
        if not _QUIET.get():            # outside any scope, a run holds its own
            with quiet():
                return self.run(env)
        program = self.program
        try:
            regs, unbound = self.literals + [env[n] for n in self.names] + self.blank, None
        except KeyError:
            unbound = next(n for n in self.names if n not in env)
            regs = self.literals + [env.get(n) for n in self.names] + self.blank
            program = program[:self.first_read[unbound]]
        try:
            for k, (fn, a, b, d) in enumerate(program):
                regs[d] = fn(regs[a]) if b is None else fn(regs[a], regs[b])
        except (ZeroDivisionError, ValueError) as exc:
            raise _domain_error(exc, self.nodes[k]) from exc
        if unbound is not None:
            raise DomainEvalError(f"unbound variable '{unbound}'", unbound)
        return [regs[i] for i in self.outputs]


def _domain_error(exc: Exception, node: Expr) -> DomainEvalError:
    # float '/' says "float division by zero", a zero reciprocal in a jet
    # "division by zero": both evaluators report the same reason
    reason = "division by zero" if isinstance(exc, ZeroDivisionError) else str(exc)
    return DomainEvalError(reason or type(exc).__name__, to_source(node))


def eval_float(expr, env: Mapping[str, float]):
    """Plain floating-point evaluation of an expression, or of every
    expression of a Tape (a list)."""
    if isinstance(expr, Tape):
        return expr.run(env)
    return Tape((expr,)).run(env)[0]


def ensure_expr(e, variables=None) -> Expr:
    """Accept an AST, a source string, or a bare number."""
    if isinstance(e, (Num, Var, Neg, BinOp, Call)):
        return e
    if isinstance(e, str):
        return parse(e, variables)
    return Num(float(e))
