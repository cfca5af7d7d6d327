"""Small dense linear-algebra helpers with explicit tolerance behavior."""

from __future__ import annotations

import numpy as np

from .errors import SingularMetricError


def cholesky_spd(a: np.ndarray, spd_tol: float) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix.

    Raises SingularMetricError as soon as a pivot drops to spd_tol or below;
    positive definiteness is a hard requirement, not a warning.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    L = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - L[j, :j] @ L[j, :j]
        if not d > spd_tol:
            raise SingularMetricError(
                f"matrix is not positive definite: pivot {j} is {d:.3e} (tol {spd_tol:.1e})")
        L[j, j] = np.sqrt(d)
        for i in range(j + 1, n):
            L[i, j] = (a[i, j] - L[i, :j] @ L[j, :j]) / L[j, j]
    return L


def solve_spd(a: np.ndarray, b: np.ndarray, spd_tol: float) -> np.ndarray:
    """Solve a x = b for symmetric positive definite a via Cholesky."""
    L = cholesky_spd(a, spd_tol)
    y = np.linalg.solve(L, b)
    return np.linalg.solve(L.T, y)


def inverse_spd(a: np.ndarray, spd_tol: float) -> np.ndarray:
    return solve_spd(a, np.eye(a.shape[0]), spd_tol)


def orthonormalize(candidates, gram: np.ndarray, *, keep_tol: float,
                   start_basis=None, want: int | None = None):
    """Modified Gram-Schmidt under the inner product <u, v> = u' gram v.

    Candidates are processed in order (deterministic lowest-index
    tie-breaking); a candidate whose residual norm falls to keep_tol times
    max(1, its own norm) is dropped.  Two orthogonalization passes are made
    for numerical stability.  Returns (basis, rows, kept) where rows expresses
    each basis vector as a combination of the candidates (zero rows for
    vectors carried in through start_basis).
    """
    gram = np.asarray(gram, dtype=float)
    ncand = len(candidates)
    basis = [np.asarray(b, dtype=float) for b in (start_basis or [])]
    rows = [np.zeros(ncand) for _ in basis]
    kept = []
    for idx, cand in enumerate(candidates):
        v = np.asarray(cand, dtype=float)
        w = v.copy()
        row = np.zeros(ncand)
        row[idx] = 1.0
        for _ in range(2):
            for b, brow in zip(basis, rows):
                c = b @ gram @ w
                w = w - c * b
                row = row - c * brow
        norm_v = np.sqrt(max(v @ gram @ v, 0.0))
        norm_w_sq = w @ gram @ w
        if norm_w_sq <= (keep_tol * max(1.0, norm_v)) ** 2:
            continue
        norm_w = np.sqrt(norm_w_sq)
        basis.append(w / norm_w)
        rows.append(row / norm_w)
        kept.append(idx)
        if want is not None and len(kept) >= want:
            break
    return np.asarray(basis), np.asarray(rows), kept


def reduce_max(values) -> float:
    """Largest value, 0 for none.  A NaN propagates, where Python's max
    drops it whenever it is not the first argument."""
    return float(np.max(values, initial=0.0))


def worst(values) -> tuple[float, int]:
    """(largest value, index of its first occurrence); a NaN counts as the
    largest, so it is what gets reported."""
    index = int(np.argmax(values))
    return float(values[index]), index
