"""Small SPD algebra from one Cholesky factor: L⁻¹ row by row over a stack,
one LAPACK solve per SPD system, no general solve on a triangular factor
anywhere in a run, the completion of a g-orthonormal set by one QR, and the
one judgement of a reduced check."""

import math

import numpy as np
import pytest

from torseform import builtin_names, builtin_scene, run
from torseform.errors import SingularMetricError
from torseform.linalg import (Judged, _pivot_recurrence, cholesky_pivots, cholesky_spd,
                              judge, lower_inverse, orthonormalize, solve_spd)

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


    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_one_system_is_lapack_solve_bitwise(self, m):
        # the pivot check leaves the solve as it is: np.linalg.solve's bits
        rng = np.random.default_rng(m)
        for cond in (1.0, 1e4, 1e10):
            for seed in range(100):
                a = spd_with_condition(m, (), seed, cond)
                b = rng.standard_normal(m)
                want = np.linalg.solve(a, b[:, None])[:, 0]
                assert solve_spd(a, b, 1e-12).tobytes() == want.tobytes()

    @pytest.mark.parametrize("a, spd_tol", [
        ([[1.0, 1.0], [1.0, 1.0]], 1e-12),                  # singular
        ([[1.0, 2.0], [2.0, 1.0]], 1e-12),                  # indefinite
        ([[2.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]], 1e-12),
        ([[1.0, 0.0], [0.0, 1e-13]], 1e-12),                # at or below the floor
        ([[math.nan, 0.0], [0.0, 1.0]], 1e-12),
        ([[1.0, 0.0], [0.0, math.nan]], 1e-12),
        ([[1.0, 0.0], [0.0, 2.0]], 3.0),                    # a raised floor
    ])
    def test_one_bad_system_raises_the_factors_error(self, a, spd_tol):
        a = np.array(a)
        with pytest.raises(SingularMetricError) as want:
            cholesky_spd(a, spd_tol)
        with pytest.raises(SingularMetricError) as got:
            solve_spd(a, np.ones(len(a)), spd_tol)
        assert str(got.value) == str(want.value)

    def test_a_floor_at_or_below_zero_solves_what_the_factor_passes(self):
        # a pivot of 0 or below fails the floats' check but passes a negative
        # floor, and with it cholesky_spd, as before
        a = np.array([[1.0, 0.0], [0.0, -0.5]])
        assert np.array_equal(solve_spd(a, np.array([1.0, 1.0]), -1.0), [1.0, -2.0])


def refused_stacks(count, seed):
    """Random symmetric 4×3×3 stacks, some slices positive definite and some
    not, that LAPACK refuses to factor."""
    rng, stacks = np.random.default_rng(seed), []
    while len(stacks) < count:
        b = rng.standard_normal((4, 3, 3))
        a = b @ np.swapaxes(b, -1, -2) - rng.uniform(0.0, 2.0, (4, 1, 1)) * np.eye(3)
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            stacks.append(a)
    return stacks


class TestRefusedStack:
    def test_pivots_are_the_float_recurrences_slice_by_slice(self):
        for a in refused_stacks(200, 0):
            L, pivots = cholesky_pivots(a)
            for i in range(len(a)):
                Li, pi = _pivot_recurrence(a[i])
                assert pivots[i].tobytes() == np.array(pi).tobytes()
                # an independent oracle: d_j = det(a[:j+1, :j+1]) / det(a[:j, :j]),
                # up to the first pivot that is not positive, and NaN after it
                minors = [1.0] + [np.linalg.det(a[i, :j, :j]) for j in range(1, 4)]
                bad = next((j for j, p in enumerate(pi) if not p > 0.0), 3)  # 3: none
                assert pi[:bad + 1] == pytest.approx(
                    [minors[j + 1] / minors[j] for j in range(min(bad + 1, 3))],
                    rel=1e-9, abs=1e-12)
                assert all(math.isnan(p) for p in pi[bad + 1:])
                # L: the recurrence's lower triangle, a factor of the leading
                # block above the bad pivot, and NaN from its row on
                assert [L[i][r, :r + 1].tolist() for r in range(bad)] == Li[:bad]
                assert np.array_equal(np.triu(L[i][:bad], 1), np.zeros((bad, 3)))
                assert L[i][:bad] @ L[i][:bad].T == pytest.approx(a[i, :bad, :bad], abs=1e-12)
                assert np.isnan(L[i][bad:]).all()

    def test_a_stacks_error_is_its_first_bad_slices_own(self):
        for a in refused_stacks(200, 1):
            with pytest.raises(SingularMetricError) as stack:
                cholesky_spd(a, 1e-12)
            for i in range(len(a)):
                try:
                    cholesky_spd(a[i], 1e-12)
                except SingularMetricError as alone:
                    assert str(stack.value) == str(alone)
                    break
            else:
                pytest.fail("a refused stack has no bad slice")


def spd_with_condition(m, batch, seed, cond):
    """Random SPD matrices with eigenvalues spread log-evenly over [1, cond]."""
    q = np.linalg.qr(np.random.default_rng([m, seed]).standard_normal(batch + (m, m)))[0]
    g = q @ (np.logspace(0, np.log10(cond), m)[:, None] * np.swapaxes(q, -1, -2))
    return (g + np.swapaxes(g, -1, -2)) / 2


def g_orthonormal_rows(g, k, seed):
    """k rows orthonormal under g, from random rows a by a = M R with
    a g aᵀ = M Mᵀ."""
    a = np.random.default_rng(seed).standard_normal(g.shape[:-2] + (k, g.shape[-1]))
    return np.linalg.solve(np.linalg.cholesky(a @ g @ np.swapaxes(a, -1, -2)), a)


@pytest.mark.parametrize("m, k", [(m, k) for m in range(2, 6) for k in range(1, m)])
class TestOrthonormalize:
    @pytest.mark.parametrize("cond, bound", [(None, 1e-12), (1e8, 100 * EPS * 1e8)])
    def test_completes_a_g_orthonormal_set(self, m, k, cond, bound):
        # the error of a completion grows with cond(g); at cond 1e8 the
        # bound is 100 ulps times it
        L = lower_factors(m, (6,), seed=2)
        g = (L @ np.swapaxes(L, -1, -2) if cond is None
             else spd_with_condition(m, (6,), 2, cond))
        factor = np.linalg.cholesky(g)
        rows = g_orthonormal_rows(g, k, seed=3)
        for at in (np.s_[:], np.s_[0]):          # a stack of points, one point
            R = rows[at]
            N = orthonormalize(R, factor[at], lower_inverse(factor[at]))
            assert N.shape == R.shape[:-2] + (m - k, m)
            gram = g[at]
            assert np.abs(N @ gram @ np.swapaxes(N, -1, -2) - np.eye(m - k)).max() <= bound
            assert np.abs(N @ gram @ np.swapaxes(R, -1, -2)).max() <= bound

    def test_slices_equal_their_own_call_bitwise(self, m, k):
        L = lower_factors(m, (6,), seed=4)
        C = lower_inverse(L)
        rows = g_orthonormal_rows(L @ np.swapaxes(L, -1, -2), k, seed=5)
        N = orthonormalize(rows, L, C)
        for i in range(6):
            assert np.array_equal(N[i], orthonormalize(rows[i], L[i], C[i]))


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


class TestJudge:
    def test_each_term_is_its_maximum_within_its_bound(self):
        terms, passed = judge({"a": (np.array([[0.5, 2.0], [1.0, 0.0]]), 2.0), "b": (0.0, 0.0)})
        assert terms == {"a": 2.0, "b": 0.0} and type(terms["a"]) is float and passed
        assert judge({"a": (np.array([0.5]), 1.0), "b": (np.array([2.0]), 1.0)}) == (
            {"a": 0.5, "b": 2.0}, False)

    @pytest.mark.parametrize("values", [[math.nan, 0.0], [0.0, math.nan]])
    def test_a_nan_never_passes(self, values):
        # wherever the NaN is, not only first as Python's max would keep it
        terms, passed = judge({"a": (np.array(values), math.inf), "b": (0.0, 1.0)})
        assert math.isnan(terms["a"]) and not passed

    def test_a_report_reads_its_terms_as_attributes(self):
        rep = Judged(*judge({"max_det": (np.array([1e-9, 3e-9]), 1e-8)}))
        assert rep.max_det == 3e-9 and rep.passed
        with pytest.raises(AttributeError):
            rep.max_h_vtan
