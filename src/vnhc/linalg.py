"""Small dense linear algebra on plain Python lists.

All matrices here are tiny (n of a few), so list-of-lists beats array
overhead in the integration hot path.  Factorizations: Cholesky for SPD
metric solves, LU with partial pivoting for the control solve.  Both
factorizations and their triangular solves run as straight-line code
generated once per size.  Spectra, for the checks and error messages
only: `singular_values` by one-sided (Hestenes) Jacobi on the rows, which
keeps small singular values accurate relative to the large ones (Demmel
and Veselic, 1992), scaled by a power of two so that none overflows where
a rank is decided, and `eigvalsh` by cyclic Jacobi.

Every generated source in the package, these and the kernels of `expr`,
`constraint` and `control`, is compiled by `_define`, in one fixed
namespace, when its owner first calls it, and kept by its owner alone:
these per-size routines by `_sized`, the model's, force's and Christoffel
kernels on the model, the constraint's kernel on the constraint, and a
pair's two kernels on its constraint.  Loading a model compiles none.
The process-wide memos are four: `model_io.load_model`'s, of the pairs
it built, so a model text loaded again compiles nothing; `_sized`'s, of
every per-size routine; `expr.evaluate`'s, of the kernels of its last 64
expressions; and `cli.build_parser`'s, of its parser.
The two kernels of a (model, constraint) pair, the q-only kernel and the
RK4 step kernel, are folded as their statement generators write them (see
`_Block`): what depends on no input is computed once, when the source is
made, and their sums drop their terms known to be zero, such as the
products with L's zeros in a solve with a constant metric.  The
kernels of `expr.compile_exprs` need no such step, as their constants
already fold as the expressions are built.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

CONDITION_CAP = 1e12
_EPS = 2.0 ** -52


class SingularMatrixError(RuntimeError):
    pass


_NAMESPACE = {"math": math, "sqrt": math.sqrt, "hypot": math.hypot,
              "SingularMatrixError": SingularMatrixError}


def _define(source: str):
    """The function named kernel that source defines over the names of
    _NAMESPACE.  Each source runs in a copy of the namespace, so kernels
    never see one another."""
    namespace = dict(_NAMESPACE)
    exec(source, namespace)
    return namespace["kernel"]


def _matrix(name: str, n: int, lower: bool = False, upper: str = "_") -> str:
    """Source of an n x n nested list of the locals name{i}_{j}; with lower,
    the entries above the diagonal are the text upper instead."""
    r = range(n)
    return _list([[_Src(f"{name}{i}_{j}" if j <= i or not lower else upper) for j in r] for i in r])


def _vector(name: str, n: int) -> str:
    return ", ".join(f"{name}{i}" for i in range(n))


# Folding while generating.  The statement generators below write into a
# `_Block`, which holds the value of each local known so far: a number
# computed here, when the source is made.  A pair's kernels run them on a
# metric, a coframe and constraint rows that are often literal (every boat
# has a constant metric), so each operation is either computed here or
# written out (online partial evaluation: Jones, Gomard & Sestoft, "Partial
# Evaluation and Automatic Program Generation", 1993), and every rule keeps
# each result's bits:
#  - an operation whose operands are all known runs once, here: the same
#    IEEE operation.  Its value is kept only if it is finite; one that
#    raises is written out, so it raises where it did;
#  - a local bound to a known value is not bound at all: its readers get
#    the literal.  One that a branch may rebind is bound before the branch;
#  - a test that is known decides its `if` here, so a gate known to hold
#    goes and one known to fail keeps its fail statement;
#  - x * 1.0, 1.0 * x, x / 1.0 and x - 0.0 are x for every float x, signed
#    zeros, infinities and NaN included, and (x, y)[1] is y.  0.0 * x,
#    0.0 + x and x + 0.0 stay: they turn -0.0 into 0.0, or inf into NaN;
#  - in every block, a term known to be zero drops out of a sum
#    (`_Block.sum`, which `less` and `constraint._dot` write): a known zero
#    after the first term, and a product with a known-zero factor, except
#    in P's and b's sums (`_dot`), where the other factor must be finite:
#    b's S is, past P's gate, and in the Cholesky factor's, where it must
#    be known: its gate s <= 0.0 fails -inf but passes NaN, so 0.0 * inf
#    must reach it as NaN, as it does unfolded.  A sum left with its first
#    term alone is that term, so x = x binds no line, and a sum of zeros
#    from 0.0 is the literal 0.0, which folds on.  The per-size routines' blocks know no
#    values, so their sums keep every term.
#    Dropping 0.0 * y changes only the sign of an exact zero and the kind
#    of a value already not finite: x - 0.0 * y is NaN for an infinite y,
#    x alone is not, so a q-only record can hold P [[inf]] where the kept
#    term gave [[nan]].  No gate moves: the other factor of a solve's
#    product is a local that stays not finite once it is and is read again
#    (L by its diagonal, y by P's sums, d by b's, tau by the acceleration),
#    and P's and b's sums keep every product with a factor that may not be
#    finite, so a value not finite still reaches P, whose gate tests not
#    cond <= CAP, or b and the acceleration.  phi drops such products too:
#    it runs at a record, whose state is finite.
# Into a block that does not fold, the generators write the unfolded
# statements, which the per-size routines run.

class _Src(str):
    """The source of a value not known here: a local, or an operation on
    one, with the precedence prec of its outermost operator (9 for a name,
    a call or anything in parentheses)."""

    def __new__(cls, text: str, prec: int = 9):
        src = super().__new__(cls, text)
        src.prec = prec
        return src


def _text(x, prec: int = 0, right: bool = False) -> str:
    """Source of the value x as the operand of an operator of precedence
    prec, on its right if right: in parentheses where the tree needs them."""
    if not isinstance(x, _Src):
        return repr(x)
    return f"({x})" if x.prec < prec or right and x.prec == prec else x


def _computed(fn, args: tuple, source):
    """fn(*args) computed here, where every arg is known and it neither
    raises nor gives a value that is not finite; else source()."""
    if not any(isinstance(a, _Src) for a in args):
        try:
            value = fn(*args)
        except (ArithmeticError, ValueError):
            value = None
        if type(value) in (int, bool, str) or type(value) is float and math.isfinite(value):
            return value
    return source()


_BINARY = {"or": (1, lambda a, b: a or b), "<=": (4, operator.le), ">": (4, operator.gt),
           "==": (4, operator.eq), "!=": (4, operator.ne), "+": (5, operator.add),
           "-": (5, operator.sub), "*": (6, operator.mul), "/": (6, operator.truediv),
           "%": (6, operator.mod)}
_FUNCTIONS = {"abs": abs, "sqrt": math.sqrt, "hypot": math.hypot, "max": max, "min": min,
              **{f"math.{name}": getattr(math, name)  # the calls of `expr._emit`
                 for name in ("sin", "cos", "tan", "exp", "log", "sqrt", "pow")}}


def _bin(a, op: str, b):
    """a op b, by the rules above; comparisons never chain.  (The repr of a
    source is quoted, so only a known 1.0 has the repr 1.0.)"""
    if isinstance(a, _Src) or isinstance(b, _Src):
        if op in ("*", "/") and repr(b) == "1.0" or op == "-" and repr(b) == "0.0":
            return a
        if op == "*" and repr(a) == "1.0":
            return b
    p, fn = _BINARY[op]
    return _computed(fn, (a, b), lambda: _Src(f"{_text(a, p, p == 4)} {op} {_text(b, p, True)}", p))


def _unary(op: str, a):
    """-a for op "-", not a for op "not"."""
    p, fn = (7, operator.neg) if op == "-" else (3, operator.not_)
    return _computed(fn, (a,), lambda: _Src(f"{op}{' ' * (p == 3)}{_text(a, p)}", p))


def _call(name: str, *args):
    """The function name of args; max and min of one item are the item."""
    if name in ("max", "min") and len(args) == 1:
        return args[0]
    return _computed(_FUNCTIONS[name], args, lambda: _Src(f"{name}({', '.join(map(_text, args))})"))


def _if_else(test, a, b):
    """a if test else b."""
    return _computed(lambda t, x, y: x if t else y, (test, a, b),
                     lambda: _Src(f"{_text(a, 1)} if {_text(test, 1)} else {_text(b)}", 0))


def _pick(items, i):
    """items[i]: of the source of a sequence, or of a tuple of values."""
    if not isinstance(i, _Src):
        return items[i]
    seq = items if isinstance(items, str) else "(" + "".join(f"{_text(x)}, " for x in items) + ")"
    return _Src(f"{seq}[{i}]")


def _chain(op: str, items):
    """items[0] op items[1] op ..., left to right."""
    return functools.reduce(lambda x, y: _bin(x, op, y), items)


def _list(x) -> str:
    """Source of the nested list, or tuple, of values x."""
    if isinstance(x, tuple):
        return "(" + "".join(f"{_list(y)}, " for y in x) + ")"
    return "[" + ", ".join(map(_list, x)) + "]" if isinstance(x, list) else _text(x)


class _Block:
    """Statements being written, and the value of each local known so far.
    fold: the block runs whenever it is reached and may fold, so a local
    bound to a known value is not bound at all: its readers get the value.
    A branch's block does not fold, nor does one that writes the statements
    unfolded, which is given no known values.  Its sums drop their terms
    known to be zero (`sum`)."""

    def __init__(self, known: dict | None = None, fold: bool = True):
        self.known, self.fold, self.lines = known or {}, fold, []

    def __getitem__(self, name: str):
        """The value of the local name: known, or the name."""
        return self.known[name] if name in self.known else _Src(name)

    def __setitem__(self, name: str, value):
        self.let((name, value))

    def let(self, *pairs):
        """Bind each (local, value) of pairs, all at once, as a tuple
        assignment does: the values are read before any local is bound."""
        kept = []
        for name, value in pairs:
            self.known.pop(name, None)
            if self.fold and not isinstance(value, _Src):
                self.known[name] = value
            elif value != name:  # x = x goes
                kept.append((name, _text(value)))
        if kept:
            self.lines.append(", ".join(name for name, _ in kept) + " = "
                              + ", ".join(value for _, value in kept))

    def sum(self, op: str, first, pairs, products: bool = True):
        """first op x0 * y0 op x1 * y1 op ..., left to right, over the pairs
        of values (x, y), less the terms known to be zero: a known zero, and
        with products, a product with a known-zero factor.  (A source never
        equals 0.0; a known value does if it is a zero of either sign.)"""
        terms = [_bin(x, "*", y) for x, y in pairs if not (products and 0.0 in (x, y))]
        return _chain(op, [first, *(t for t in terms if t != 0.0)])

    def less(self, name: str, first: str, pairs, over: str | None = None,
             products: bool = True):
        """name = first - x0 * y0 - x1 * y1 - ..., left to right, over the
        pairs of locals (x, y), and divided by the local over if given;
        products as `sum` takes it."""
        value = self.sum("-", self[first], [(self[x], self[y]) for x, y in pairs], products)
        self[name] = value if over is None else _bin(value, "/", self[over])

    def when(self, test, body, names=()):
        """if test: body(block), written into the block it gets; names are
        the locals it may bind."""
        if not isinstance(test, _Src):  # decided here
            return body(self) if test else None
        for name in sorted(self.known.keys() & set(names)):  # may be rebound: bound before
            self.lines.append(f"{name} = {self.known.pop(name)!r}")
        block = _Block(dict(self.known), fold=False)
        body(block)
        self.lines += [f"if {test}:", *(f"    {line}" for line in block.lines)]

    def gate(self, test, fail: str):
        """if test: fail."""
        self.when(test, lambda block: block.lines.append(fail))


# Statement generators.  Each spells out one algorithm over the locals
# named by its prefixes (matrix entries {a}i_j, vector entries {x}i) into
# a block, so the per-size kernels below and the kernels of a (model,
# constraint) pair run the same operations in the same order.  Scratch
# locals: s, r, big.

def _cholesky_lines(block: _Block, n: int, a: str, l: str, fail: str):
    """Factor the lower triangle of {a} into {l}; fail is the statement run
    where the matrix is not positive definite.  A sum drops a product only
    where both of its factors are known (see `_Block.sum`)."""
    for i in range(n):
        for j in range(i):
            block.less(f"{l}{i}_{j}", f"{a}{i}_{j}",
                       [(f"{l}{i}_{k}", f"{l}{j}_{k}") for k in range(j)], f"{l}{j}_{j}", False)
        block.less("s", f"{a}{i}_{i}", [(f"{l}{i}_{k}",) * 2 for k in range(i)])
        block.gate(_bin(block["s"], "<=", 0.0), fail)
        block[f"{l}{i}_{i}"] = _call("sqrt", block["s"])


def _cho_solve_lines(block: _Block, n: int, l: str, x: str):
    """Overwrite {x} with the solution of {l} {l}^T x = {x}."""
    for i in range(n):  # L y = b
        block.less(f"{x}{i}", f"{x}{i}", [(f"{l}{i}_{k}", f"{x}{k}") for k in range(i)],
                   f"{l}{i}_{i}")
    for i in reversed(range(n)):  # L^T x = y
        block.less(f"{x}{i}", f"{x}{i}", [(f"{l}{k}_{i}", f"{x}{k}") for k in range(i + 1, n)],
                   f"{l}{i}_{i}")


def _lu_factor_lines(block: _Block, n: int, u: str, p: str, fail: str):
    """Factor {u} in place with partial pivoting, the row permutation in
    {p}; fail is the statement run where a pivot column is zero."""
    def row(i):  # the locals of row i, its permutation entry last
        return [f"{u}{i}_{j}" for j in range(n)] + [f"{p}{i}"]

    block.let(*((f"{p}{i}", i) for i in range(n)))
    for k in range(n):
        block.let(("r", k), ("big", _call("abs", block[f"{u}{k}_{k}"])))  # first largest
        for i in range(k + 1, n):
            big = _call("abs", block[f"{u}{i}_{k}"])
            block.when(_bin(big, ">", block["big"]),
                       lambda b, i=i, big=big: b.let(("r", i), ("big", big)), names=("r", "big"))
        block.gate(_bin(block["big"], "==", 0.0), fail)
        for i in range(k + 1, n):  # rows k and i swapped where r == i
            block.when(_bin(block["r"], "==", i), lambda b, i=i: b.let(
                *zip(row(k) + row(i), [b[x] for x in row(i) + row(k)])), row(k) + row(i))
        for i in range(k + 1, n):
            block[f"{u}{i}_{k}"] = _bin(block[f"{u}{i}_{k}"], "/", block[f"{u}{k}_{k}"])
            for j in range(k + 1, n):
                block.less(f"{u}{i}_{j}", f"{u}{i}_{j}", [(f"{u}{i}_{k}", f"{u}{k}_{j}")])


def _lu_solve_lines(block: _Block, n: int, u: str, p: str, b, x: str):
    """Solve with the factors {u}, {p} into {x}; b is the right-hand side,
    indexed by the permutation: the source of a sequence, or its values."""
    block.let(*((f"{x}{i}", _pick(b, block[f"{p}{i}"])) for i in range(n)))
    for i in range(1, n):  # unit lower triangle
        block.less(f"{x}{i}", f"{x}{i}", [(f"{u}{i}_{k}", f"{x}{k}") for k in range(i)])
    for i in reversed(range(n)):  # upper triangle
        block.less(f"{x}{i}", f"{x}{i}", [(f"{u}{i}_{k}", f"{x}{k}") for k in range(i + 1, n)],
                   f"{u}{i}_{i}")


def _cond1_lines(block: _Block, n: int, a: str, u: str, p: str, out: str):
    """{out} = cond_1 of {a}, exact at this size: its largest column sum
    of absolute values times that of the inverse, whose columns come from
    one solve per unit vector with the factors {u}, {p}."""
    for j in range(n):
        _lu_solve_lines(block, n, u, p, [1.0 if i == j else 0.0 for i in range(n)], f"{out}_x")
        block[f"{out}_c{j}"] = _chain("+", [_call("abs", block[f"{out}_x{i}"]) for i in range(n)])
    norm = [_chain("+", [_call("abs", block[f"{a}{i}_{j}"]) for i in range(n)]) for j in range(n)]
    block[out] = _bin(_call("max", *norm), "*",
                      _call("max", *(block[f"{out}_c{j}"] for j in range(n))))


def _kernel_source(args: str, body: list[str], result: str) -> list[str]:
    return [f"def kernel({args}):", *(f"    {line}" for line in body), f"    return {result}"]


def _lines(generate, *args) -> list[str]:
    """The statements the generator writes unfolded."""
    block = _Block(fold=False)
    generate(block, *args)
    return block.lines


def _cholesky_source(n: int) -> list[str]:
    return _kernel_source("a", [f"{_matrix('a', n, lower=True)} = a", *_lines(
        _cholesky_lines, n, "a", "l", "raise SingularMatrixError('matrix not positive definite')")],
        _matrix("l", n, lower=True, upper="0.0"))


def _cho_solve_source(n: int) -> list[str]:
    return _kernel_source("L, b", [f"{_matrix('l', n, lower=True)} = L", f"[{_vector('x', n)}] = b",
                                   *_lines(_cho_solve_lines, n, "l", "x")], f"[{_vector('x', n)}]")


def _lu_factor_source(n: int) -> list[str]:
    return _kernel_source("a", [f"{_matrix('u', n)} = a", *_lines(
        _lu_factor_lines, n, "u", "p", "raise SingularMatrixError('singular matrix')")],
        f"{_matrix('u', n)}, [{_vector('p', n)}]")


def _lu_solve_source(n: int) -> list[str]:
    return _kernel_source("lu, piv, b", [f"{_matrix('u', n)} = lu", f"[{_vector('p', n)}] = piv",
                                         *_lines(_lu_solve_lines, n, "u", "p", "b", "x")],
                          f"[{_vector('x', n)}]")


def _cond1_source(n: int) -> list[str]:
    return _kernel_source("a, lu, piv", [f"{_matrix('a', n)} = a", f"{_matrix('u', n)} = lu",
                                         f"[{_vector('p', n)}] = piv",
                                         *_lines(_cond1_lines, n, "a", "u", "p", "cond")], "cond")


@functools.cache
def _sized(source, n: int):
    """The routine whose source lines source(n) spells out, defined on
    first use.

    The loops of the textbook algorithm run at build time, so a call makes
    only the arithmetic: the same operations in the same order as the
    loops would, hence the same floating-point results."""
    return _define("\n".join(source(n)))


def cholesky(a: list[list[float]]) -> list[list[float]]:
    """Lower-triangular Cholesky factor; raises if not positive definite."""
    return _sized(_cholesky_source, len(a))(a)


def cho_solve(L: list[list[float]], b) -> list[float]:
    """Solve L L^T x = b by forward then back substitution."""
    return _sized(_cho_solve_source, len(L))(L, b)


def lu_factor(a: list[list[float]]) -> tuple[list[list[float]], list[int]]:
    """LU with partial pivoting (Doolittle, on a copy): unit-lower L below
    the diagonal, U on and above it, and the row permutation."""
    return _sized(_lu_factor_source, len(a))(a)


def lu_solve(lu: list[list[float]], piv: list[int], b: list[float]) -> list[float]:
    return _sized(_lu_solve_source, len(lu))(lu, piv, b)


def cond1_from_lu(a, lu, piv) -> float:
    """1-norm condition number, exact at this size: the inverse's column
    1-norms come straight from one lu_solve per unit vector."""
    return _sized(_cond1_source, len(lu))(a, lu, piv)


def dot(x: list[float], y: list[float]) -> float:
    """x . y, added left to right from 0 as the generated kernels add it,
    so on every Python (sum() of floats is compensated from 3.12 on)."""
    total = 0
    for a, b in zip(x, y):
        total = total + a * b
    return total


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
    """Singular values of the m x n matrix a with m <= n, descending; inf
    where one passes the float range."""
    return _unscaled(*_scaled_singular_values(a))


def _scaled_singular_values(a: list[list[float]]) -> tuple[list[float], int]:
    """(sv, e): the singular values of a 2^-e, descending, 2^-e being the
    power of two (exact) that brings a's largest entry to [0.5, 1), so none
    overflows, and a rank decided on them is a's.  They are the norms of
    the rows once one-sided Jacobi has made them orthogonal: S S^T is never
    formed.  One row of finite norm needs neither rotation nor scale (e 0)."""
    if len(a) == 1 and (norm := math.hypot(*a[0])) < math.inf:
        return [norm], 0
    _, e = math.frexp(max(abs(x) for row in a for x in row))
    rows = _jacobi([[math.ldexp(x, -e) for x in row] for row in a], one_sided=True)
    return sorted((math.hypot(*row) for row in rows), reverse=True), e


def _unscaled(sv: list[float], e: int) -> list[float]:
    """The values sv 2^e, exact, or inf past the float range (2^1024)."""
    return [math.ldexp(s, e) if math.frexp(s)[1] + e <= 1024 else math.inf for s in sv] if e else sv


def eigvalsh(a: list[list[float]]) -> list[float]:
    """Eigenvalues of the symmetric matrix a, ascending, by two-sided
    Jacobi; a diagonal a is returned exactly, sorted."""
    a = _jacobi([list(row) for row in a], one_sided=False)
    return sorted(a[i][i] for i in range(len(a)))
