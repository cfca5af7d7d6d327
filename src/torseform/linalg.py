"""Small dense linear-algebra helpers with explicit tolerance behavior.

Every helper takes one matrix or a stack of them with a leading batch axis
(a sample of points) and applies the same rule at each point.
"""

from __future__ import annotations

import functools

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


def norm(x, rank: int = 1):
    """Euclidean (Frobenius) norm over the last `rank` axes, summed as
    np.linalg.norm sums a single vector or matrix."""
    flat = x.reshape(x.shape[:x.ndim - rank] + (-1,))
    return np.sqrt(dot(flat, flat))


@functools.cache
def _eye(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def first_where(bad, values):
    """values at the first point of a batch where `bad` holds; at a single
    point, values themselves."""
    return values if np.ndim(bad) == 0 else values[int(np.argmax(bad))]


def _cholesky_recurrence(a: np.ndarray):
    """(L, pivots) by the textbook recurrence, pivot d_j = a_jj − Σ_k<j L_jk²,
    at each point; NaN after a pivot that is not positive."""
    L = np.zeros_like(a)
    d = np.zeros(a.shape[:-1])
    with np.errstate(all="ignore"):
        for j in range(a.shape[-1]):
            col = a[..., j:, j] - dot(L[..., j:, :j], L[..., j, None, :j])
            d[..., j] = col[..., 0]
            L[..., j:, j] = col / np.sqrt(col[..., :1])
    return L, d


def cholesky_spd(a: np.ndarray, spd_tol: float) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix (or of each of a stack).

    Raises SingularMetricError when a pivot is spd_tol or below (at any point
    of a stack: it names the first such point and, there, the first such
    pivot); positive definiteness is a hard requirement, not a warning.
    """
    a = np.asarray(a, dtype=float)
    try:
        L = np.linalg.cholesky(a)
        pivots = np.diagonal(L, axis1=-2, axis2=-1) ** 2
    except np.linalg.LinAlgError:       # LAPACK met a pivot <= 0: find which
        L, pivots = _cholesky_recurrence(a)
    bad = ~(pivots > spd_tol)
    if bad.any():
        where = tuple(np.argwhere(bad)[0])
        raise SingularMetricError(
            f"matrix is not positive definite: pivot {where[-1]} is "
            f"{pivots[where]:.3e} (tol {spd_tol:.1e})")
    return L


def cholesky_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with L Lᵀ x = b for a Cholesky factor L and a matrix b (or stacks)."""
    return np.linalg.solve(np.swapaxes(L, -1, -2), np.linalg.solve(L, b))


def solve_spd(a: np.ndarray, b: np.ndarray, spd_tol: float) -> np.ndarray:
    """Solve a x = b for symmetric positive definite a (..., m, m) and a
    right-hand side vector b (..., m) via Cholesky."""
    b = np.asarray(b, dtype=float)
    return cholesky_solve(cholesky_spd(a, spd_tol), b[..., None])[..., 0]


def orthonormalize(candidates, gram: np.ndarray, *, keep_tol: float,
                   start_basis=None, want: int | None = None):
    """Modified Gram-Schmidt under the inner product <u, v> = u' gram v, at
    one point or at each point of a stack of grams (..., m, m).

    Candidates, the rows of an (ncand, m) array that is the same at every
    point, are processed in order (deterministic lowest-index tie-breaking);
    a candidate whose residual norm falls to keep_tol times max(1, its own
    norm) is dropped.  Two orthogonalization passes are made for numerical
    stability.  The rows of start_basis, an (nstart, m) or (..., nstart, m)
    array, fill the first slots; the k-th candidate a point keeps goes to the k-th slot after
    them, and once a point has kept `want` it keeps no more.  Slots a point
    does not fill stay zero, so they project nothing.

    Returns (basis, rows, kept): basis (..., slots, m) with slots = len(start
    basis) + (want or ncand); rows (..., slots, ncand) expresses each basis
    vector as a combination of the candidates (zero rows for the start
    basis); kept (...) counts the candidates kept at each point.
    """
    gram = np.asarray(gram, dtype=float)
    batch, m = gram.shape[:-2], gram.shape[-1]
    candidates = np.asarray(candidates, dtype=float)
    ncand = len(candidates)
    # residual norm² at or below which each candidate is dropped
    vv = (candidates @ gram * candidates).sum(axis=-1)
    drop_at = keep_tol ** 2 * np.maximum(1.0, vv)
    # each candidate with its coefficients, [v | e_idx], is updated as one row
    work = np.concatenate((candidates, _eye(ncand)), axis=1)
    nstart = 0 if start_basis is None else np.shape(start_basis)[-2]
    slots = nstart + (ncand if want is None else want)
    # slot s holds [basis vector b | its row] and b @ gram; one more slot at
    # the end takes the writes of points that have filled every slot
    store = np.zeros(batch + (slots + 1, m + ncand))
    gstore = np.zeros(batch + (slots + 1, 1, m))
    if nstart:
        store[..., :nstart, :m] = start_basis
        gstore[..., :nstart, :, :] = store[..., :nstart, None, :m] @ gram[..., None, :, :]
    views = [(gstore[..., s, :, :], store[..., s, :]) for s in range(slots)]
    at_points = np.indices(batch, sparse=True)
    count = np.full(batch, nstart)            # slots filled so far, per point
    for idx in range(ncand):
        wr = work[idx]
        for _ in range(2):
            for gb, br in views[:int(count.max())]:
                wr = wr - (gb @ wr[..., :m, None])[..., 0] * br
        w = wr[..., None, :m]
        norm_w_sq = (w @ gram @ w[..., 0, :, None])[..., 0, 0]
        drop = drop_at[..., idx]
        keep = ~(norm_w_sq <= drop)
        if want is not None:
            keep &= count < slots
        # a point that drops the candidate writes zeros to its next free slot
        unit = wr / np.sqrt(np.maximum(norm_w_sq, drop))[..., None] * keep[..., None]
        at = at_points + (count,)
        store[at] = unit
        gstore[at] = unit[..., None, :m] @ gram
        count += keep
        if want is not None and (count == slots).all():
            break
    return store[..., :slots, :m], store[..., :slots, m:], count - nstart


def reduce_max(values) -> float:
    """Largest value, 0 for none.  A NaN propagates, where Python's max
    drops it whenever it is not the first argument."""
    return float(np.max(values, initial=0.0))


def worst(values) -> tuple[float, int]:
    """(largest value, index of its first occurrence); a NaN counts as the
    largest, so it is what gets reported."""
    index = int(np.argmax(values))
    return float(values[index]), index
