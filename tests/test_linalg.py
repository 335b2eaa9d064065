"""The straight-line linear algebra kernels: bit-equal to the textbook
loops they unroll, and right against numpy; the Jacobi spectra against
numpy's LAPACK."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracle import fold

from vnhc import AffineConstraint, build_boat, constraint, control, linalg
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


def folded(lines, outputs=()):
    return fold(tuple(lines), tuple(outputs))


def run(lines, result, x):
    """kernel(x) over lines returning result, or the type of what it raises."""
    kernel = linalg._define.__wrapped__("\n".join(linalg._kernel_source("x", lines, result)))
    try:
        return repr(kernel(x))
    except Exception as err:  # noqa: BLE001 - compared by type
        return type(err).__name__


class TestFold:
    """`oracle.fold`, the reference for the folds the statement generators
    make as they write a pair's kernels: what depends on no input is
    computed when the source is made, and every result keeps its bits."""

    def test_constant_statements_go(self):
        lines, (out,) = folded(["s = 4.0", "l = sqrt(s)", "r = max(l, 1.0) / min(l, 1.0)",
                                "if r * r > 1e12:", "    return None", "y = x / l"], ["y * r"])
        assert lines == ("y = x / 2.0",) and out == "y * 2.0"

    @pytest.mark.parametrize("text, expected", [
        ("x * 1.0", "x"), ("1.0 * x", "x"), ("x / 1.0", "x"), ("x - 0.0", "x"),
        # these change a signed zero, or inf into NaN: they stay
        ("x + 0.0", "x + 0.0"), ("0.0 + x", "0.0 + x"), ("0.0 * x", "0.0 * x"),
        ("x - -0.0", "x - -0.0"), ("x * 1", "x * 1"), ("(x, y)[1]", "y"),
    ])
    def test_identities(self, text, expected):
        assert folded([], [text])[1] == (expected,)

    @pytest.mark.parametrize("a, op, b, expected", [
        ("x", "*", 1.0, "x"), (1.0, "*", "x", "x"), ("x", "/", 1.0, "x"), ("x", "-", 0.0, "x"),
        ("x", "+", 0.0, "x + 0.0"), (0.0, "+", "x", "0.0 + x"), (0.0, "*", "x", "0.0 * x"),
        ("x", "-", -0.0, "x - -0.0"), ("x", "*", 1, "x * 1"), (2.0, "*", -3.0, -6.0),
        (1.0, "/", 0.0, "1.0 / 0.0"), (1e308, "*", 10.0, "1e+308 * 10.0"),
    ])
    def test_the_generators_fold_alike(self, a, op, b, expected):
        # The generators' operations follow the same rules as they write.
        a, b = (linalg._Src(x) if isinstance(x, str) else x for x in (a, b))
        assert repr(linalg._bin(a, op, b)) == repr(expected)

    def test_the_generators_call_and_pick_alike(self):
        assert linalg._call("sqrt", -1.0) == "sqrt(-1.0)" and linalg._call("sqrt", 4.0) == 2.0
        assert linalg._pick([linalg._Src("x"), linalg._Src("y")], 1) == "y"

    def test_what_raises_or_overflows_stays(self):
        lines, _ = folded(["a = 1.0 / 0.0", "b = 1e+308 * 10.0", "c = math.log(-1.0)",
                           "math.sqrt(-1.0)", "math.sqrt(4.0)"])
        assert lines == ("a = 1.0 / 0.0", "b = 1e+308 * 10.0", "c = math.log(-1.0)",
                         "math.sqrt(-1.0)")

    def test_gates(self):
        # a gate that folds to False goes; one that folds to True keeps its
        # fail statement; one that depends on x stays
        lines, _ = folded(["s = 1.0", "if s <= 0.0:", "    return None",
                           "if s > 0.0:", "    return 1", "if x > s:", "    return 2"])
        assert lines == ("return 1", "if x > 1.0:", "    return 2")

    def test_a_local_a_branch_rebinds_is_bound_first(self):
        lines, (out,) = folded(["d = 0.0", "t = 2.0", "if x != 0.0:", "    d = d + t * x"],
                               ["d"])
        assert lines == ("d = 0.0", "if x != 0.0:", "    d = d + 2.0 * x") and out == "d"

    def test_unpacking(self):
        lines, (out,) = folded(["p0, p1 = 0, 1", "r, big = 0, abs(x)", "t0, = (x,)[p0],",
                                "a, b = b0, x", "if r == 1:", "    p0, p1 = p1, p0"],
                               ["(p0, p1, t0, a)"])
        assert lines == ("big = abs(x)", "t0 = x", "a, b = (b0, x)") and out == "(0, 1, t0, a)"

    def test_memoized(self):
        # A pair built again from the same text folds nothing again: its
        # sources come back from the memo.
        first, again = build_boat("sin(y)", "cos(x)"), build_boat("sin(y)", "cos(x)")
        for source in (control._step_source, constraint._q_only_source):
            assert source(*first) is source(*again)


_FOLD_OPERANDS = ["x", "1.0", "0.0", "-0.0", "2.0", "-3.5", "1e308", "0.5"]


@st.composite
def programs(draw):
    """Straight-line code with gates and branches over x and literals that
    make signed zeros, infinities and NaN: lines and the result's source."""
    names, lines = [], []
    operand = st.sampled_from(_FOLD_OPERANDS)
    for k in range(draw(st.integers(1, 8))):
        a, b = draw(operand if not names else st.one_of(operand, st.sampled_from(names))), \
            draw(operand if not names else st.one_of(operand, st.sampled_from(names)))
        op = draw(st.sampled_from(["+", "-", "*", "/"]))
        kind = draw(st.sampled_from(["plain", "plain", "call", "gate", "branch"]))
        if kind == "call":
            lines.append(f"v{k} = {draw(st.sampled_from(['sqrt', 'abs', 'math.exp']))}({a})")
        elif kind == "gate":
            lines += [f"if {a} {draw(st.sampled_from(['<=', '>', '!=']))} {b}:",
                      "    return None", f"v{k} = {a} {op} {b}"]
        elif kind == "branch" and names:
            lines += [f"v{k} = {a}", f"if {b} > 0.0:", f"    v{k} = v{k} {op} {a}"]
        else:
            lines.append(f"v{k} = {a} {op} {b}")
        names.append(f"v{k}")
    return lines, "(" + "".join(f"{v}, " for v in names) + ")"


@settings(max_examples=150, deadline=None)
@given(programs())
def test_fold_keeps_every_bit(program):
    lines, result = program
    body, (out,) = fold(tuple(lines), (result,))
    for x in (0.0, -0.0, 1.0, -2.0, 1e308, math.inf, -math.inf, math.nan):
        assert run(list(body), out, x) == run(lines, result, x), (lines, x)
