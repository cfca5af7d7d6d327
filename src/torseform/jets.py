"""Truncated multivariate Taylor jets (order <= 3) as dense derivative tensors.

A Jet of order K in n variables holds d[0..K]: d[0] is the value and d[k] the
tensor of k-th partial derivatives, shape (n,)*k + batch.  At one point the
batch shape is () and d[0] is a float; over a sample of N points it is (N,),
a trailing axis, so that the arithmetic below is the same in both cases and
one run of an expression evaluates it at every point.  A point is seeded as
jets at every order, order 0 included, so its values are its batch row's:
a / b is a × (1/b) at a point as over a batch.  Products follow
Leibniz's rule; every elementary function, constant power and reciprocal
goes through one Faà di Bruno composition fed with the function's
derivatives at the point, read from the single function table
`expr.FUNCTIONS` by `expr.row`, which rounds a point as a batch.  Every
derivative the toolkit consumes is therefore exact to round-off; finite
differences exist only as a test oracle.
"""

from __future__ import annotations

import itertools
import math
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import expr as ex
from .linalg import item

MAX_ORDER = 3


def _sym3(t: np.ndarray) -> np.ndarray:
    """t[i,j,k] + t[j,i,k] + t[k,i,j] for t symmetric in its derivative axes
    j, k; the result keeps that symmetry exactly.  A batch axis stays last."""
    batch = tuple(range(3, t.ndim))
    return t + (t.transpose((1, 0, 2) + batch) + t.transpose((1, 2, 0) + batch))


class Jet:
    """Value plus partial derivatives up to `order` in `nvars` variables, at
    one point or at each point of a batch (see the module docstring); jets
    combined with each other share their batch.  Supports +, -, *, /, **
    with jets and floats; functions of the expression language are applied
    with `call`."""

    __slots__ = ("order", "nvars", "d")

    def __init__(self, order: int, nvars: int, d: list):
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
        self.order = order
        self.nvars = nvars
        self.d = d

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value: float, nvars: int, order: int, batch: tuple = ()) -> "Jet":
        d0 = np.full(batch, float(value)) if batch else float(value)
        return cls(order, nvars, [d0] + [np.zeros((nvars,) * k + batch)
                                         for k in range(1, order + 1)])

    @classmethod
    def variable(cls, index: int, value, nvars: int, order: int) -> "Jet":
        """The coordinate `index` at a point (a float value) or at each point
        of a batch (an (N,) array of values)."""
        batched = isinstance(value, np.ndarray) and value.ndim > 0
        batch = value.shape if batched else ()
        d = [np.array(value, dtype=float) if batched else float(value)]
        d += [np.zeros((nvars,) * k + batch) for k in range(1, order + 1)]
        if order >= 1:
            d[1][index] = 1.0
        return cls(order, nvars, d)

    # -- accessors -----------------------------------------------------------

    @property
    def value(self):
        return self.d[0]

    @property
    def batch(self) -> tuple:
        """() at one point, (N,) over N points."""
        d0 = self.d[0]
        return d0.shape if isinstance(d0, np.ndarray) else ()

    def partial(self, alpha) -> float:
        """True partial derivative ∂^α f (0 above the order)."""
        k = sum(alpha)
        if k > self.order:
            return 0.0
        if k == 0:
            return self.d[0]
        return item(self.d[k][tuple(i for i, a in enumerate(alpha) for _ in range(a))])

    def coefficient(self, alpha) -> float:
        """Taylor coefficient ∂^α f / α!."""
        return self.partial(alpha) / math.prod(math.factorial(a) for a in alpha)

    @property
    def coeffs(self) -> Mapping:
        """Read-only {α: Taylor coefficient} for every multi-index |α| <= order."""
        out = {}
        for k in range(self.order + 1):
            for idx in itertools.combinations_with_replacement(range(self.nvars), k):
                alpha = tuple(idx.count(i) for i in range(self.nvars))
                out[alpha] = self.coefficient(alpha)
        return MappingProxyType(out)

    def gradient(self) -> np.ndarray:
        return self.d[1].copy() if self.order >= 1 else np.zeros((self.nvars,) + self.batch)

    def hessian(self) -> np.ndarray:
        return (self.d[2].copy() if self.order >= 2
                else np.zeros((self.nvars, self.nvars) + self.batch))

    def is_constant(self) -> bool:
        """No derivative is nonzero (at any point of a batch)."""
        return not any(t.any() for t in self.d[1:])

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.order, self.nvars, [self.d[0] + float(other)] + self.d[1:])
        if other.nvars != self.nvars:
            raise ValueError("jets over different variable sets")
        d = [a + b for a, b in zip(self.d, other.d)]
        return Jet(len(d) - 1, self.nvars, d)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return Jet(self.order, self.nvars, [-t for t in self.d])

    def __mul__(self, other):
        if not isinstance(other, Jet):
            c = float(other)
            return Jet(self.order, self.nvars, [c * t for t in self.d])
        if other.nvars != self.nvars:
            raise ValueError("jets over different variable sets")
        order = min(self.order, other.order)
        a, b = self.d, other.d
        d = [a[0] * b[0]]
        if order >= 1:
            d.append(a[0] * b[1] + b[0] * a[1])
        if order >= 2:
            ab = a[1][:, None] * b[1]
            d.append(a[0] * b[2] + b[0] * a[2] + (ab + ab.swapaxes(0, 1)))
        if order >= 3:
            t = a[1][:, None, None] * b[2] + b[1][:, None, None] * a[2]
            d.append(a[0] * b[3] + b[0] * a[3] + _sym3(t))
        return Jet(order, self.nvars, d)

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet":
        return call("pow", self, -1.0)

    def __truediv__(self, other):
        """a × (1/b), as a tape computes it (`expr._divide`) with one 1/b
        for every division by b."""
        if not isinstance(other, Jet):
            return self * (1.0 / float(other))
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, p):
        return call("pow", self, p)

    # -- composition -------------------------------------------------------------

    def compose(self, phi: Sequence[float]) -> "Jet":
        """φ∘f by Faà di Bruno's formula from phi = [φ(f₀), φ′(f₀), …]."""
        u = self.d
        d = [phi[0]]
        if self.order >= 1:
            d.append(phi[1] * u[1])
        if self.order >= 2:
            uu = u[1][:, None] * u[1]
            d.append(phi[1] * u[2] + phi[2] * uu)
        if self.order >= 3:
            d.append(phi[1] * u[3] + phi[2] * _sym3(u[1][:, None, None] * u[2])
                     + phi[3] * (u[1][:, None, None] * uu))
        return Jet(self.order, self.nvars, d)

    def __repr__(self):
        return f"Jet(order={self.order}, nvars={self.nvars}, value={self.value!r})"


#: the function `name` of expr.FUNCTIONS at a float, a batch or a jet: expr.apply
call = ex.apply


def chart_names(dim: int, prefix: str = "x") -> tuple:
    return tuple(f"{prefix}{i + 1}" for i in range(dim))


def jet_variables(names: Sequence[str], values, order: int) -> dict:
    """Seed jets for the chart variables at a point (n values) or at each
    point of a batch (an (N, n) array), at every order alike, so that a
    point's results are its row of a batch's."""
    n = len(names)
    columns = chart_points(values, n).T
    return {name: Jet.variable(i, columns[i], n, order) for i, name in enumerate(names)}


def chart_points(values, n: int) -> np.ndarray:
    """values as a point of an n-dimensional chart or an (N, n) array of
    points; ValueError for any other shape."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1:] != (n,) or values.ndim > 2:
        raise ValueError("names/values length mismatch")
    return values


def eval_jet_env(expression, env: Mapping[str, Jet]):
    """Evaluate an expression, or every expression of a Tape (a list), over
    an environment of jets sharing variable set, order and batch; literals
    stay floats until they meet a jet, and a constant result is a constant
    jet."""
    probe = next(iter(env.values()))
    tape = expression if isinstance(expression, ex.Tape) else ex.Tape((expression,))
    out = [v if isinstance(v, Jet) else Jet.constant(v, probe.nvars, probe.order, probe.batch)
           for v in tape.run(env)]
    return out if tape is expression else out[0]


def eval_jet(expression: ex.Expr, point: Sequence[float], order: int,
             names: Sequence[str] | None = None) -> Jet:
    """Jet of the expression at `point`, or at each row of an (N, n) array of
    points.  Variables default to x1..xn bound positionally to the point
    coordinates."""
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}")
    if names is None:
        names = chart_names(np.shape(point)[-1])
    return eval_jet_env(expression, jet_variables(names, point, order))
