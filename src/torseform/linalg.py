"""Small dense linear-algebra helpers with explicit tolerance behavior.

Every helper takes one matrix or a stack of them with a leading batch axis
(a sample of points) and applies the same rule at each point.  An SPD matrix
is factored once, g = L Lᵀ; L⁻¹ comes from that factor (`lower_inverse`), and
no general LU solve runs on a triangular matrix.  A pivot recurrence on floats
finds where a stack that LAPACK refuses fails; `frame_collapses` is the one
collapse test of a Gram-Schmidt.  `judge` is the one verdict of a reduced
check, each term's maximum over the sample against its bound.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import SingularMetricError


def item(x):
    """x as a float when it holds one point's value; a batch's values as they
    are."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def dot(u, v):
    """u · v over the last axis: at a single point exactly u @ v, and over a
    batch the same product point by point (not einsum's own summation)."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def mv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a x for a matrix and a vector, or for stacks of them."""
    return (a @ x[..., None])[..., 0]


def norm(x, rank: int = 1):
    """Euclidean (Frobenius) norm over the last `rank` axes, summed as
    np.linalg.norm sums a single vector or matrix."""
    flat = x.reshape(x.shape[:x.ndim - rank] + (-1,))
    return np.sqrt(dot(flat, flat))


def first_where(bad, values):
    """values at the first point of a batch where `bad` holds; at a single
    point, values themselves."""
    return values if np.ndim(bad) == 0 else values[int(np.argmax(bad))]


def _pivot_recurrence(a: np.ndarray):
    """(L, pivots) of one matrix as lists of Python floats, by the textbook
    recurrence, pivot d_j = a_jj − Σ_k<j L_jk², for a matrix LAPACK's
    factorisation refuses.  L's rows are its lower triangle; the rows and the
    pivots after a pivot that is not positive are NaN."""
    m, L, pivots = len(a), [], []
    for j, row in enumerate(a.tolist()):
        lj = []
        for k in range(j):
            lj.append((row[k] - sum(map(operator.mul, lj, L[k]))) / L[k][k])
        pivot = row[j] - sum(map(operator.mul, lj, lj))
        pivots.append(pivot)
        if not pivot > 0.0:
            return L + [[math.nan] * m] * (m - j), pivots + [math.nan] * (m - j - 1)
        L.append(lj + [math.sqrt(pivot)])
    return L, pivots


def cholesky_pivots(a: np.ndarray):
    """(L, pivots): the lower Cholesky factor of a symmetric matrix (or of
    each of a stack) and its pivots diag(L)², with no floor on them; after a
    pivot that is not positive, L is NaN."""
    a = np.asarray(a, dtype=float)
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:       # LAPACK met a pivot <= 0: find which, slice by slice
        L, pivots = zip(*map(_pivot_recurrence, a.reshape((-1,) + a.shape[-2:])))
        L = [row + [0.0] * (a.shape[-1] - len(row)) for rows in L for row in rows]
        return np.reshape(L, a.shape), np.reshape(pivots, a.shape[:-1])
    return L, np.diagonal(L, axis1=-2, axis2=-1) ** 2


def frame_collapses(pivots, gram, tol):
    """Where a Gram-Schmidt in order collapses, at each point of a stack: with
    gram = L Lᵀ the Gram matrix of v_1..v_m, the residual of v_i against the
    earlier ones has norm L_ii, pivots[i] = L_ii², and the frame collapses
    where one residual is tol·max(1, |v_i|) or less."""
    length2 = np.diagonal(gram, axis1=-2, axis2=-1)
    return np.any(pivots <= tol ** 2 * np.maximum(1.0, length2), axis=-1)


def cholesky_spd(a: np.ndarray, spd_tol: float) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix (or of each of a stack).

    Raises SingularMetricError when a pivot is spd_tol or below (at any point
    of a stack: it names the first such point and, there, the first such
    pivot); positive definiteness is a hard requirement, not a warning.
    """
    L, pivots = cholesky_pivots(a)
    refuse_pivots(pivots, ~(pivots > spd_tol), spd_tol)
    return L


def refuse_pivots(pivots, bad, spd_tol: float) -> None:
    """Raise SingularMetricError where `bad` holds, naming the first such
    point of a stack and, there, the first such pivot."""
    if bad.any():
        where = tuple(np.argwhere(bad)[0])
        raise SingularMetricError(
            f"matrix is not positive definite: pivot {where[-1]} is "
            f"{pivots[where]:.3e} (tol {spd_tol:.1e})")


def lower_inverse(L: np.ndarray) -> np.ndarray:
    """C = L⁻¹ for a lower-triangular L (or each of a stack), row by row:
    C_ii = 1 / L_ii, C[i, :i] = −L[i, :i] C[:i, :i] / L_ii, one batched product
    per row.  A slice of a stack's C is that slice's own C, bit for bit."""
    d, C = np.diagonal(L, axis1=-2, axis2=-1), np.zeros(L.shape)
    np.einsum("...ii->...i", C)[...] = 1.0 / d       # a view of C's diagonal
    for i in range(1, L.shape[-1]):
        C[..., i, :i] = (L[..., i, None, :i] @ C[..., :i, :i])[..., 0, :] / -d[..., i, None]
    return C


def solve_spd(a: np.ndarray, b: np.ndarray, spd_tol: float) -> np.ndarray:
    """Solve a x = b for symmetric positive definite a (..., m, m) and a vector
    b (..., m): cholesky_spd checks a's pivots, and raises its own error,
    then one LAPACK solve of a."""
    a = np.asarray(a, dtype=float)
    cholesky_spd(a, spd_tol)
    return np.linalg.solve(a, np.asarray(b, dtype=float)[..., None])[..., 0]


def orthonormalize(rows: np.ndarray, factor: np.ndarray, coframe: np.ndarray) -> np.ndarray:
    """The m − k rows that complete k g-orthonormal rows (..., k, m) to a
    g-orthonormal basis, given g's Cholesky factor L (g = L Lᵀ) and C = L⁻¹.

    In the coordinates Lᵀv, where g is the dot product, the rows are the
    orthonormal columns of (rows L)ᵀ; the last m − k columns of its complete
    QR factorisation span their orthogonal complement, and C maps them back.
    A slice of a stack's result is that slice's own result, bit for bit.
    """
    k = rows.shape[-2]
    q = np.linalg.qr(np.swapaxes(rows @ factor, -1, -2), mode="complete")[0]
    return np.swapaxes(q[..., :, k:], -1, -2) @ coframe


def reduce_max(values) -> float:
    """Largest value, 0 for none.  A NaN propagates, where Python's max
    drops it whenever it is not the first argument."""
    return float(np.max(values, initial=0.0))


def worst(values) -> tuple[float, int]:
    """(largest value, index of its first occurrence); a NaN counts as the
    largest, so it is what gets reported."""
    index = int(np.argmax(values))
    return float(values[index]), index


def judge(table: dict) -> tuple[dict, bool]:
    """({key: reduce_max(values)}, whether every maximum is within its bound)
    for a table {key: (values over the sample, bound)}; a NaN maximum is
    within no bound, so it never passes."""
    terms = {key: reduce_max(values) for key, (values, _) in table.items()}
    return terms, all(terms[key] <= bound for key, (_, bound) in table.items())


@dataclass(frozen=True)
class Judged:
    """A reduced check's report, `Judged(*judge(table), ...)`; its terms read
    as attributes too (`rep.max_det`)."""

    terms: dict
    passed: bool

    def __getattr__(self, name):
        try:
            return vars(self)["terms"][name]
        except KeyError:
            raise AttributeError(name) from None
