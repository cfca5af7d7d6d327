"""Small SPD algebra from one Cholesky factor: L⁻¹ row by row over a stack,
one LAPACK solve per SPD system, and no general solve on a triangular
factor anywhere in a run."""

import numpy as np
import pytest

from torseform import builtin_names, builtin_scene, run
from torseform.errors import SingularMetricError
from torseform.linalg import lower_inverse, solve_spd

EPS = np.finfo(float).eps


def lower_factors(m, batch=(), seed=0):
    """Cholesky factors of well-conditioned random SPD matrices."""
    a = np.random.default_rng([m, seed]).standard_normal(batch + (m, m))
    return np.linalg.cholesky(a @ np.swapaxes(a, -1, -2) + m * np.eye(m))


@pytest.mark.parametrize("m", range(1, 6))
class TestLowerInverse:
    @pytest.mark.parametrize("batch", [(), (7,)])
    def test_is_the_inverse(self, m, batch):
        L = lower_factors(m, batch)
        C = lower_inverse(L)
        assert C.shape == L.shape
        assert np.array_equal(C, np.tril(C))
        assert np.abs(C @ L - np.eye(m)).max() <= 4 * EPS
        inv = np.linalg.inv(L)
        err = np.linalg.norm(C - inv, axis=(-2, -1)) / np.linalg.norm(inv, axis=(-2, -1))
        assert np.all(err <= 1e-14)

    def test_slices_equal_the_single_matrix_bitwise(self, m):
        L = lower_factors(m, (7,), seed=1)
        C = lower_inverse(L)
        # a stack with the batch axis last in memory, as walked metric data lies
        C_strided = lower_inverse(np.moveaxis(np.moveaxis(L, 0, -1).copy(), -1, 0))
        for i in range(7):
            assert np.array_equal(C[i], lower_inverse(L[i]))
            assert np.array_equal(C_strided[i], C[i])


class TestSolveSpd:
    def test_one_lapack_solve_per_call(self, monkeypatch):
        real, seen = np.linalg.solve, []
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: seen.append(a) or real(a, b))
        L = lower_factors(4, (6,))
        gram = L @ np.swapaxes(L, -1, -2)
        b = np.random.default_rng(2).standard_normal((6, 4))
        x = solve_spd(gram, b, 1e-12)
        assert len(seen) == 1 and seen[0] is gram
        assert np.allclose(np.einsum("...ij,...j->...i", gram, x), b, rtol=0, atol=1e-12)
        assert solve_spd(gram[0], b[0], 1e-12).shape == (4,)
        assert len(seen) == 2

    def test_non_spd_slice_names_the_first_bad_point_and_pivot(self):
        gram = np.stack([np.eye(3), np.eye(3), np.diag([1.0, 2.0, -3.0]),
                         np.diag([1.0, -5.0, 1.0])])
        with pytest.raises(SingularMetricError,
                           match=r"^matrix is not positive definite: pivot 2 is "
                                 r"-3\.000e\+00 \(tol 1\.0e-12\)$"):
            solve_spd(gram, np.ones((4, 3)), 1e-12)


def triangular(a) -> np.ndarray:
    """Per slice: the matrix is lower or upper triangular and not diagonal
    (a diagonal matrix is a legitimate SPD system)."""
    a = np.asarray(a)
    upper_zero = (np.triu(a, 1) == 0).all(axis=(-2, -1))
    lower_zero = (np.tril(a, -1) == 0).all(axis=(-2, -1))
    return upper_zero != lower_zero


@pytest.mark.parametrize("name", builtin_names())
def test_no_general_solve_on_a_triangular_matrix(monkeypatch, name):
    real, seen = np.linalg.solve, []

    def guarded(a, b):
        seen.append(bool(np.any(triangular(a))))
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", guarded)
    run(builtin_scene(name), points=20)
    assert not any(seen)
