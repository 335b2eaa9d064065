"""Small dense linear algebra on plain Python lists.

All matrices here are tiny (n of a few), so list-of-lists beats array
overhead in the integration hot path.  Factorizations: Cholesky for SPD
metric solves, LU with partial pivoting for the control solve.
"""

from __future__ import annotations

import math

CONDITION_CAP = 1e12


class SingularMatrixError(RuntimeError):
    pass


def cholesky(a: list[list[float]]) -> list[list[float]]:
    """Lower-triangular Cholesky factor; raises if not positive definite."""
    n = len(a)
    L = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = a[i][j]
            for k in range(j):
                s -= L[i][k] * L[j][k]
            if i == j:
                if s <= 0.0:
                    raise SingularMatrixError("matrix not positive definite")
                L[i][i] = math.sqrt(s)
            else:
                L[i][j] = s / L[j][j]
    return L


def cho_solve(L: list[list[float]], b: list[float]) -> list[float]:
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


def lu_factor(a: list[list[float]]) -> tuple[list[list[float]], list[int]]:
    """LU with partial pivoting (Doolittle, in place on a copy)."""
    n = len(a)
    lu = [row[:] for row in a]
    piv = list(range(n))
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(lu[i][k]))
        if lu[p][k] == 0.0:
            raise SingularMatrixError("singular matrix")
        if p != k:
            lu[k], lu[p] = lu[p], lu[k]
            piv[k], piv[p] = piv[p], piv[k]
        for i in range(k + 1, n):
            lu[i][k] /= lu[k][k]
            for j in range(k + 1, n):
                lu[i][j] -= lu[i][k] * lu[k][j]
    return lu, piv


def lu_solve(lu: list[list[float]], piv: list[int], b: list[float]) -> list[float]:
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


def solve(a: list[list[float]], b: list[float]) -> list[float]:
    lu, piv = lu_factor(a)
    return lu_solve(lu, piv, b)


def inverse_from_lu(lu: list[list[float]], piv: list[int]) -> list[list[float]]:
    n = len(lu)
    cols = []
    for j in range(n):
        e = [0.0] * n
        e[j] = 1.0
        cols.append(lu_solve(lu, piv, e))
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def norm1(a: list[list[float]]) -> float:
    return max(sum(abs(row[j]) for row in a) for j in range(len(a[0])))


def cond1_from_lu(a, lu, piv) -> float:
    """1-norm condition estimate via the explicit inverse (fine at this size)."""
    try:
        inv = inverse_from_lu(lu, piv)
    except SingularMatrixError:
        return math.inf
    return norm1(a) * norm1(inv)


def det_from_lu(lu: list[list[float]], piv: list[int]) -> float:
    """Determinant: the product of U's diagonal times the sign of the row
    permutation."""
    det = math.prod(lu[i][i] for i in range(len(lu)))
    perm = list(piv)
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            det = -det
    return det


def matvec(a: list[list[float]], x: list[float]) -> list[float]:
    return [sum(r[i] * x[i] for i in range(len(x))) for r in a]


def dot(x: list[float], y: list[float]) -> float:
    return sum(a * b for a, b in zip(x, y))
