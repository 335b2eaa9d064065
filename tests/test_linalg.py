"""The straight-line linear algebra kernels: bit-equal to the textbook
loops they unroll, and right against numpy; the Jacobi spectra against
numpy's LAPACK."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from vnhc import AffineConstraint, linalg
from vnhc.constraint import RANK_RTOL


def loop_cholesky(a):
    n = len(a)
    L = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = a[i][j]
            for k in range(j):
                s -= L[i][k] * L[j][k]
            L[i][j] = math.sqrt(s) if i == j else s / L[j][j]
    return L


def loop_cho_solve(L, b):
    n = len(L)
    y = [0.0] * n
    for i in range(n):
        s = b[i]
        for k in range(i):
            s -= L[i][k] * y[k]
        y[i] = s / L[i][i]
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        s = y[i]
        for k in range(i + 1, n):
            s -= L[k][i] * x[k]
        x[i] = s / L[i][i]
    return x


def loop_lu_factor(a):
    n = len(a)
    lu = [list(row) for row in a]
    piv = list(range(n))
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(lu[i][k]))
        if lu[p][k] == 0.0:
            raise linalg.SingularMatrixError("singular matrix")
        lu[k], lu[p] = lu[p], lu[k]
        piv[k], piv[p] = piv[p], piv[k]
        for i in range(k + 1, n):
            lu[i][k] /= lu[k][k]
            for j in range(k + 1, n):
                lu[i][j] -= lu[i][k] * lu[k][j]
    return lu, piv


def loop_norm1(a):
    """Largest column sum of absolute values, row by row."""
    cols = [abs(v) for v in a[0]]
    for row in a[1:]:
        cols = [c + abs(v) for c, v in zip(cols, row)]
    return max(cols)


def loop_lu_solve(lu, piv, b):
    n = len(lu)
    x = [b[p] for p in piv]
    for i in range(1, n):
        for k in range(i):
            x[i] -= lu[i][k] * x[k]
    for i in range(n - 1, -1, -1):
        for k in range(i + 1, n):
            x[i] -= lu[i][k] * x[k]
        x[i] /= lu[i][i]
    return x


def spd(rng, n):
    A = rng.uniform(-1, 1, (n, n))
    return (A.T @ A + 0.1 * np.eye(n)).tolist()


@pytest.mark.parametrize("n", range(1, 7))
class TestStraightLine:
    def test_cholesky_and_solve(self, rng, n):
        for _ in range(20):
            g = spd(rng, n)
            b = rng.uniform(-1, 1, n).tolist()
            L = linalg.cholesky(g)
            assert L == loop_cholesky(g)
            x = linalg.cho_solve(L, b)
            assert x == loop_cho_solve(L, b)
            assert np.allclose(np.array(g) @ x, b, rtol=1e-10, atol=1e-10)

    def test_lu_solve_and_cond1(self, rng, n):
        for _ in range(20):
            P = rng.uniform(-1, 1, (n, n)).tolist()
            b = rng.uniform(-1, 1, n).tolist()
            lu, piv = linalg.lu_factor(P)
            assert (lu, piv) == loop_lu_factor(P)
            x = linalg.lu_solve(lu, piv, b)
            assert x == loop_lu_solve(lu, piv, b)
            assert np.allclose(np.array(P) @ x, b, rtol=1e-8, atol=1e-8)
            cond = linalg.cond1_from_lu(P, lu, piv)
            units = np.eye(n).tolist()
            assert cond == loop_norm1(P) * max(sum(map(abs, loop_lu_solve(lu, piv, e)))
                                                 for e in units)
            assert cond == pytest.approx(np.linalg.cond(np.array(P), 1), rel=1e-8)
            assert loop_norm1(P) == pytest.approx(np.linalg.norm(np.array(P), 1), rel=1e-14)

    def test_not_positive_definite_raises(self, n):
        g = np.eye(n).tolist()
        g[n - 1][n - 1] = -1.0
        with pytest.raises(linalg.SingularMatrixError):
            linalg.cholesky(g)

    def test_singular_lu_raises(self, n):
        P = np.eye(n).tolist()
        P[n - 1] = [0.0] * n
        with pytest.raises(linalg.SingularMatrixError):
            linalg.lu_factor(P)


# -- spectra: singular values and symmetric eigenvalues against numpy --------

SPECTRUM = settings(max_examples=150, deadline=None)


@st.composite
def row_matrices(draw):
    """m x n with m <= 3, n <= 5: plain random entries, or U diag(s) V^T
    with singular values graded down to 1e-12 of the largest."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m, 5))
    if draw(st.booleans()):
        entry = st.floats(-10.0, 10.0, allow_nan=False)
        return [[draw(entry) for _ in range(n)] for _ in range(m)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U = np.linalg.qr(rng.standard_normal((m, m)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    s = 10.0 ** np.array(draw(st.lists(st.floats(-12.0, 0.0), min_size=m, max_size=m)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    return (scale * (U @ np.diag(s) @ V[:m])).tolist()


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 6))
    a = [[draw(st.floats(-10.0, 10.0, allow_nan=False)) for _ in range(n)] for _ in range(n)]
    return [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]


class TestSpectra:
    @SPECTRUM
    @given(row_matrices())
    def test_singular_values_match_numpy(self, S):
        sv = linalg.singular_values(S)
        ref = np.linalg.svd(np.array(S), compute_uv=False)
        assert len(sv) == len(S)
        assert sv == sorted(sv, reverse=True)
        assert np.max(np.abs(np.array(sv) - ref)) <= 1e-13 * ref[0]

    @SPECTRUM
    @given(row_matrices())
    def test_rank_verdict_matches_numpy(self, S):
        ref = np.linalg.svd(np.array(S), compute_uv=False)
        ratios = ref / ref[0] if ref[0] > 0 else np.zeros_like(ref)
        assume(np.all(np.abs(ratios / RANK_RTOL - 1.0) > 1e-3))
        names = [f"q{i}" for i in range(len(S[0]))]
        report = AffineConstraint(names, S, [0.0] * len(S)).rank_check([0.0] * len(names))
        assert report.rank == int(np.sum(ref > RANK_RTOL * ref[0]))

    @SPECTRUM
    @given(symmetric_matrices())
    def test_eigenvalues_match_numpy(self, a):
        eigs = linalg.eigvalsh(a)
        ref = np.linalg.eigvalsh(np.array(a))
        assert eigs == sorted(eigs)
        assert np.max(np.abs(np.array(eigs) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_signed_eigenvalues(self):
        assert linalg.eigvalsh([[0.0, 1.0], [1.0, 0.0]]) == [-1.0, 1.0]

    @SPECTRUM
    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=6))
    def test_diagonal_is_exact(self, d):
        n = len(d)
        a = [[d[i] if i == j else 0.0 for j in range(n)] for i in range(n)]
        assert linalg.eigvalsh(a) == sorted(d)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 2)])
    def test_non_finite_entries_terminate(self, bad, where):
        a = [[2.0, 0.5, -1.0], [0.5, 1.0, 0.3], [-1.0, 0.3, 3.0]]
        a[where[0]][where[1]] = a[where[1]][where[0]] = bad
        assert len(linalg.eigvalsh(a)) == 3
        assert len(linalg.singular_values(a[:2])) == 2
        assert len(linalg.singular_values(a[:1])) == 1
