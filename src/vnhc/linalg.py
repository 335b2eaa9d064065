"""Small dense linear algebra on plain Python lists.

All matrices here are tiny (n of a few), so list-of-lists beats array
overhead in the integration hot path.  Factorizations: Cholesky for SPD
metric solves, LU with partial pivoting for the control solve.  Both
factorizations and their triangular solves run as straight-line code
generated once per size.  Spectra, for the checks and error messages
only: `singular_values` by one-sided (Hestenes) Jacobi on the rows, which
keeps small singular values accurate relative to the large ones (Demmel
and Veselic, 1992), and `eigvalsh` by cyclic Jacobi.

Every generated source in the package, these and the kernels of `expr`,
`constraint` and `control`, is compiled by `_define`: once per distinct
source per process, in one fixed namespace, with at most
`DEFINE_CACHE_SIZE` compiled functions kept.  `expr.evaluate` compiles its
one-off sources by the function `_define` wraps, outside that cache.  The
two kernels of a (model, constraint) pair, the q-only kernel and the RK4
step kernel, are first folded by `_fold`, which computes the statements
that depend on no input once, when the source is made; the kernels of
`expr.compile_exprs` are not, as their constants already fold as the
expressions are built.
"""

from __future__ import annotations

import ast
import functools
import itertools
import math
import operator
import re

CONDITION_CAP = 1e12
DEFINE_CACHE_SIZE = 256
_EPS = 2.0 ** -52


class SingularMatrixError(RuntimeError):
    pass


_NAMESPACE = {"math": math, "sqrt": math.sqrt, "hypot": math.hypot,
              "SingularMatrixError": SingularMatrixError}


@functools.lru_cache(maxsize=DEFINE_CACHE_SIZE)
def _define(source: str):
    """The function named kernel that source defines over the names of
    _NAMESPACE, compiled once per distinct source: a model loaded again or
    a pair built again gets back the function already compiled from the
    same text, hence the same code and the same results.  Each source runs
    in a copy of the namespace, so kernels never see one another."""
    namespace = dict(_NAMESPACE)
    exec(source, namespace)
    return namespace["kernel"]


def _matrix(name: str, n: int, lower: bool = False, upper: str = "_") -> str:
    """Source of an n x n nested list of the locals name{i}_{j}; with lower,
    the entries above the diagonal are the text upper instead."""
    return "[" + ", ".join(
        "[" + ", ".join(f"{name}{i}_{j}" if j <= i or not lower else upper for j in range(n)) + "]"
        for i in range(n)
    ) + "]"


def _vector(name: str, n: int) -> str:
    return ", ".join(f"{name}{i}" for i in range(n))


# Statement generators.  Each spells out one algorithm over the locals
# named by its prefixes (matrix entries {a}i_j, vector entries {x}i), so the
# per-size kernels below and the kernels of a (model, constraint) pair run
# the same operations in the same order.  Scratch locals: s, r, big.

def _cholesky_lines(n: int, a: str, l: str, fail: str) -> list[str]:
    """Factor the lower triangle of {a} into {l}; fail is the statement run
    where the matrix is not positive definite."""
    lines = []
    for i in range(n):
        for j in range(i):
            s = f"{a}{i}_{j}" + "".join(f" - {l}{i}_{k} * {l}{j}_{k}" for k in range(j))
            lines.append(f"{l}{i}_{j} = ({s}) / {l}{j}_{j}")
        s = f"{a}{i}_{i}" + "".join(f" - {l}{i}_{k} * {l}{i}_{k}" for k in range(i))
        lines += [f"s = {s}", "if s <= 0.0:", f"    {fail}", f"{l}{i}_{i} = sqrt(s)"]
    return lines


def _cho_solve_lines(n: int, l: str, x: str) -> list[str]:
    """Overwrite {x} with the solution of {l} {l}^T x = {x}."""
    lines = []
    for i in range(n):  # L y = b
        s = f"{x}{i}" + "".join(f" - {l}{i}_{k} * {x}{k}" for k in range(i))
        lines.append(f"{x}{i} = ({s}) / {l}{i}_{i}")
    for i in reversed(range(n)):  # L^T x = y
        s = f"{x}{i}" + "".join(f" - {l}{k}_{i} * {x}{k}" for k in range(i + 1, n))
        lines.append(f"{x}{i} = ({s}) / {l}{i}_{i}")
    return lines


def _lu_factor_lines(n: int, u: str, p: str, fail: str) -> list[str]:
    """Factor {u} in place with partial pivoting, the row permutation in
    {p}; fail is the statement run where a pivot column is zero."""
    def row(i):  # the locals of row i, its permutation entry last
        return ", ".join(f"{u}{i}_{j}" for j in range(n)) + f", {p}{i}"

    lines = [f"{_vector(p, n)} = {', '.join(map(str, range(n)))}"]
    for k in range(n):
        lines.append(f"r, big = {k}, abs({u}{k}_{k})")  # first row of largest magnitude
        for i in range(k + 1, n):
            lines += [f"if abs({u}{i}_{k}) > big:", f"    r, big = {i}, abs({u}{i}_{k})"]
        lines += ["if big == 0.0:", f"    {fail}"]
        for i in range(k + 1, n):
            lines += [f"{'if' if i == k + 1 else 'elif'} r == {i}:",
                      f"    {row(k)}, {row(i)} = {row(i)}, {row(k)}"]
        for i in range(k + 1, n):
            lines.append(f"{u}{i}_{k} = {u}{i}_{k} / {u}{k}_{k}")
            lines += [f"{u}{i}_{j} = {u}{i}_{j} - {u}{i}_{k} * {u}{k}_{j}" for j in range(k + 1, n)]
    return lines


def _lu_solve_lines(n: int, u: str, p: str, b: str, x: str) -> list[str]:
    """Solve with the factors {u}, {p} into {x}; b is the source of the
    right-hand side, indexed by the permutation."""
    lines = [f"{_vector(x, n)}, = " + ", ".join(f"{b}[{p}{i}]" for i in range(n)) + ","]
    for i in range(1, n):  # unit lower triangle
        lines.append(f"{x}{i} = {x}{i}" + "".join(f" - {u}{i}_{k} * {x}{k}" for k in range(i)))
    for i in reversed(range(n)):  # upper triangle
        s = f"{x}{i}" + "".join(f" - {u}{i}_{k} * {x}{k}" for k in range(i + 1, n))
        lines.append(f"{x}{i} = ({s}) / {u}{i}_{i}")
    return lines


def _cond1_lines(n: int, a: str, u: str, p: str, out: str) -> list[str]:
    """{out} = cond_1 of {a}, exact at this size: its largest column sum
    of absolute values times that of the inverse, whose columns come from
    one solve per unit vector with the factors {u}, {p}."""
    lines = []
    for j in range(n):
        unit = "(" + "".join("1.0, " if i == j else "0.0, " for i in range(n)) + ")"
        lines += _lu_solve_lines(n, u, p, unit, f"{out}_x")
        lines.append(f"{out}_c{j} = " + " + ".join(f"abs({out}_x{i})" for i in range(n)))
    norm = [" + ".join(f"abs({a}{i}_{j})" for i in range(n)) for j in range(n)]
    return lines + [f"{out} = {_max(norm)} * {_max([f'{out}_c{j}' for j in range(n)])}"]


def _max(items: list[str]) -> str:
    """Source of the largest of the sources items, left to right as max()."""
    return items[0] if len(items) == 1 else f"max({', '.join(items)})"


def _min(items: list[str]) -> str:
    return items[0] if len(items) == 1 else f"min({', '.join(items)})"


def _kernel_source(args: str, body: list[str], result: str) -> list[str]:
    return [f"def kernel({args}):", *(f"    {line}" for line in body), f"    return {result}"]


def _cholesky_source(n: int) -> list[str]:
    fail = "raise SingularMatrixError('matrix not positive definite')"
    return _kernel_source(
        "a", [f"{_matrix('a', n, lower=True)} = a", *_cholesky_lines(n, "a", "l", fail)],
        _matrix("l", n, lower=True, upper="0.0"))


def _cho_solve_source(n: int) -> list[str]:
    return _kernel_source("L, b", [f"{_matrix('l', n, lower=True)} = L", f"[{_vector('x', n)}] = b",
                                   *_cho_solve_lines(n, "l", "x")], f"[{_vector('x', n)}]")


def _lu_factor_source(n: int) -> list[str]:
    return _kernel_source(
        "a", [f"{_matrix('u', n)} = a",
              *_lu_factor_lines(n, "u", "p", "raise SingularMatrixError('singular matrix')")],
        f"{_matrix('u', n)}, [{_vector('p', n)}]")


def _lu_solve_source(n: int) -> list[str]:
    return _kernel_source("lu, piv, b", [f"{_matrix('u', n)} = lu", f"[{_vector('p', n)}] = piv",
                                         *_lu_solve_lines(n, "u", "p", "b", "x")],
                          f"[{_vector('x', n)}]")


def _cond1_source(n: int) -> list[str]:
    return _kernel_source(
        "a, lu, piv", [f"{_matrix('a', n)} = a", f"{_matrix('u', n)} = lu",
                       f"[{_vector('p', n)}] = piv", *_cond1_lines(n, "a", "u", "p", "cond")],
        "cond")


# Folding.  A pair's kernels run the statement generators above on a
# metric, a coframe and constraint rows that are often constant (every boat
# has a constant metric), so part of each call depends on no input.  `_fold`
# computes that part once, when the source is made (partial evaluation:
# Jones, Gomard & Sestoft, "Partial Evaluation and Automatic Program
# Generation", 1993), and every rule keeps each result's bits:
#  - an operation whose operands are all literals runs once, here, in the
#    kernels' namespace: the same IEEE operations in the same order.  Its
#    value replaces it only if it is finite; one that raises stays, so it
#    raises where it did;
#  - a local bound to such a value is not bound at all: its readers get
#    the literal.  One that a branch may rebind is bound before the branch;
#  - an `if` whose test folds runs its chosen branch unconditionally, so a
#    gate that folds to False goes and one that folds to True keeps its
#    fail statement;
#  - x * 1.0, 1.0 * x, x / 1.0 and x - 0.0 are x for every float x, signed
#    zeros, infinities and NaN included, and (x, y)[1] is y.  0.0 * x,
#    0.0 + x and x + 0.0 stay: they turn -0.0 into 0.0, or inf into NaN.

def _literal(node, text: str | None = None) -> bool:
    """Whether node is a literal, one whose repr is text if given (so
    "0.0" is neither -0.0 nor the int 0)."""
    return isinstance(node, ast.Constant) and (text is None or repr(node.value) == text)


class _Folder(ast.NodeTransformer):
    """Folds one expression over the locals whose values are known."""

    def __init__(self, known: dict):
        self.known = known

    def visit_Name(self, node):
        return ast.Constant(self.known[node.id]) if node.id in self.known else node

    def generic_visit(self, node):
        node = super().generic_visit(node)  # the operands first
        if isinstance(node, ast.BinOp) and not (_literal(node.left) and _literal(node.right)):
            left, right, op = node.left, node.right, type(node.op)
            if op in (ast.Mult, ast.Div) and _literal(right, "1.0") or (
                    op is ast.Sub and _literal(right, "0.0")):
                return left
            return right if op is ast.Mult and _literal(left, "1.0") else node
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Tuple)
                and _literal(node.slice) and type(node.slice.value) is int
                and all(isinstance(e, (ast.Name, ast.Constant)) for e in node.value.elts)):
            return node.value.elts[node.slice.value]  # (b0, b1)[1] is b1
        if not isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Compare, ast.BoolOp, ast.IfExp,
                                 ast.Call)):
            return node  # a name, a literal, a tuple, or a list, which each call must build
        operands = node.args if isinstance(node, ast.Call) else [
            child for child in ast.iter_child_nodes(node) if isinstance(child, ast.expr)]
        if not all(map(_literal, operands)):
            return node
        try:
            value = eval(compile(ast.fix_missing_locations(ast.Expression(node)), "<fold>", "eval"),
                         dict(_NAMESPACE))
        except Exception:  # it raises where it is evaluated
            return node
        finite = type(value) in (int, bool) or type(value) is float and math.isfinite(value)
        return ast.Constant(value) if finite else node


def _assigned(statement) -> set:
    return {node.id for node in ast.walk(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def _fold_block(statements, known: dict, out: list, always: bool):
    """Append to out the statements folded over known, which they update.
    always: the statements run whenever the block is reached, so a local
    bound to a literal need not be bound at all."""
    fold = _Folder(known).visit
    for st in statements:
        if isinstance(st, ast.If):
            test = fold(st.test)
            if _literal(test):
                _fold_block(st.body if test.value else st.orelse, known, out, always)
                continue
            names = _assigned(st)
            out += [ast.Assign([ast.Name(name, ast.Store())], ast.Constant(known.pop(name)))
                    for name in sorted(names & known.keys())]  # bound on either branch
            body, orelse = [], []
            _fold_block(st.body, dict(known), body, False)
            _fold_block(st.orelse, dict(known), orelse, False)
            out.append(ast.If(test, body or [ast.Pass()], orelse))
        elif isinstance(st, ast.Assign):
            value, (target,) = fold(st.value), st.targets
            if (isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                    and len(value.elts) == len(target.elts)):
                pairs = list(zip(target.elts, value.elts))
            else:  # a name, or the unpacking of a value the call makes
                pairs = [(target, value)]
            kept = [(t, v) for t, v in pairs if not isinstance(t, ast.Name) or not (
                always and _literal(v) or isinstance(v, ast.Name) and v.id == t.id)]
            for t, v in pairs:  # the values are read before any target is bound
                for name in _assigned(t):
                    known.pop(name, None)
                if isinstance(t, ast.Name) and _literal(v):
                    known[t.id] = v.value
            if kept:
                targets, values = zip(*kept)
                out.append(ast.Assign([targets[0]], values[0]) if len(kept) == 1 else ast.Assign(
                    [ast.Tuple(list(targets), ast.Store())], ast.Tuple(list(values), ast.Load())))
        elif isinstance(st, ast.Return):
            out.append(ast.Return(st.value and fold(st.value)))
        elif isinstance(st, ast.Expr):  # evaluated for its errors
            value = fold(st.value)
            if not _literal(value):
                out.append(ast.Expr(value))
        else:
            raise ValueError(f"cannot fold {ast.unparse(st)!r}")


@functools.lru_cache(maxsize=DEFINE_CACHE_SIZE)
def _fold(lines: tuple[str, ...], outputs: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The statements lines with their state-independent parts computed
    here, by the rules above, and the source of each expression of
    outputs evaluated after them.  Once per distinct argument per process,
    like `_define`: a pair built again from the same model text folds
    nothing again."""
    out, known = [], {}
    _fold_block(ast.parse("\n".join(lines)).body, known, out, True)
    folder = _Folder(known)
    # ast.unparse puts a tuple target in parentheses before Python 3.11;
    # without them the source, and its hash, is the same on every version
    text = _TUPLE_TARGET.sub(r"\1\2 = ", ast.unparse(ast.fix_missing_locations(ast.Module(out, []))))
    return (tuple(text.splitlines()),
            tuple(ast.unparse(folder.visit(ast.parse(e, mode="eval").body)) for e in outputs))


_TUPLE_TARGET = re.compile(r"^( *)\(([\w, ]+)\) = ", re.MULTILINE)


class _Kernels(dict):
    """Size n -> the routine whose source lines source(n) spells out,
    defined on first use.

    The loops of the textbook algorithm run at build time, so a call makes
    only the arithmetic: the same operations in the same order as the
    loops would, hence the same floating-point results."""

    def __init__(self, source):
        super().__init__()
        self.source = source

    def __missing__(self, n: int):
        fn = self[n] = _define("\n".join(self.source(n)))
        return fn


_CHOLESKY = _Kernels(_cholesky_source)
_CHO_SOLVE = _Kernels(_cho_solve_source)
_LU_FACTOR = _Kernels(_lu_factor_source)
_LU_SOLVE = _Kernels(_lu_solve_source)
_COND1 = _Kernels(_cond1_source)


def cholesky(a: list[list[float]]) -> list[list[float]]:
    """Lower-triangular Cholesky factor; raises if not positive definite."""
    return _CHOLESKY[len(a)](a)


def cho_solve(L: list[list[float]], b) -> list[float]:
    """Solve L L^T x = b by forward then back substitution."""
    return _CHO_SOLVE[len(L)](L, b)


def lu_factor(a: list[list[float]]) -> tuple[list[list[float]], list[int]]:
    """LU with partial pivoting (Doolittle, on a copy): unit-lower L below
    the diagonal, U on and above it, and the row permutation."""
    return _LU_FACTOR[len(a)](a)


def lu_solve(lu: list[list[float]], piv: list[int], b: list[float]) -> list[float]:
    return _LU_SOLVE[len(lu)](lu, piv, b)


def cond1_from_lu(a, lu, piv) -> float:
    """1-norm condition number, exact at this size: the inverse's column
    1-norms come straight from one lu_solve per unit vector."""
    return _COND1[len(lu)](a, lu, piv)


def dot(x: list[float], y: list[float]) -> float:
    return sum(map(operator.mul, x, y))


def _jacobi(a: list, one_sided: bool) -> list:
    """Cyclic Jacobi on the rows of a, in place.  A row pair (p, q) whose
    2 x 2 [[app, apq], [apq, aqq]] has |apq| > eps sqrt(|app aqq|) is turned
    to zero apq: with one_sided, that is the Gram matrix of the two rows and
    only they turn; otherwise a is symmetric, the block its own entries, and
    columns p, q turn too.  Stops after a sweep without rotations; the
    convergence is quadratic, and the bound of 30 sweeps only stops inf and
    NaN entries."""
    for _ in range(30):
        rotated = False
        for p, q in itertools.combinations(range(len(a)), 2):
            app, aqq, apq = ((dot(a[p], a[p]), dot(a[q], a[q]), dot(a[p], a[q])) if one_sided
                             else (a[p][p], a[q][q], a[p][q]))
            if abs(apq) > _EPS * math.sqrt(abs(app)) * math.sqrt(abs(aqq)):
                zeta = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c, s = 1.0 / math.hypot(1.0, t), t / math.hypot(1.0, t)
                a[p], a[q] = ([c * x - s * y for x, y in zip(a[p], a[q])],
                              [s * x + c * y for x, y in zip(a[p], a[q])])
                if not one_sided:
                    for row in a:
                        row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
                    a[p][p], a[q][q], a[p][q], a[q][p] = app - t * apq, aqq + t * apq, 0.0, 0.0
                rotated = True
        if not rotated:
            break
    return a


def singular_values(a: list[list[float]]) -> list[float]:
    """Singular values of the m x n matrix a with m <= n, descending: the
    norms of its rows once one-sided Jacobi has made them orthogonal.
    S S^T is never formed, and one row needs no rotation."""
    if len(a) == 1:
        return [math.hypot(*a[0])]
    _, e = math.frexp(max(abs(x) for row in a for x in row))  # exact power-of-2 scaling
    rows = _jacobi([[math.ldexp(x, -e) for x in row] for row in a], one_sided=True)
    return sorted((math.ldexp(math.hypot(*row), e) for row in rows), reverse=True)


def eigvalsh(a: list[list[float]]) -> list[float]:
    """Eigenvalues of the symmetric matrix a, ascending, by two-sided
    Jacobi; a diagonal a is returned exactly, sorted."""
    a = _jacobi([list(row) for row in a], one_sided=False)
    return sorted(a[i][i] for i in range(len(a)))
