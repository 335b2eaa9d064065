"""References independent of the code generator and of the compiler.

`walk` evaluates an expression by recursion over its tree, with its own
division and math-error rules: the reference the compiled kernels, and
the public `vnhc.evaluate` built on them, are tested against, values and
error messages alike.

`structure` and `spelled` are the references for expression equality
and repr: nested tuples of each node's class and fields, and the text of
a dataclass repr, built by recursion over the tree.

`reference` is the reference for the q-only views: the model's and the
constraint's source fields are evaluated by `walk`, with the parameters
bound, and the linear algebra is numpy's: P = S G^-1 coframe^T, its
determinant and 1-norm condition number, and the singular values of S.

`fold` is the reference for the folds the statement generators of a
pair's kernels make as they write: it folds their unfolded statements
after the fact, by a walk of the parsed source, under the same rules.

`verdict` and `rank` are the references for the judgment of a q-only
record and for the rank of S: `constraint._verdict` and
`AffineConstraint._rank` as they were before their fast paths, with a
test of every branch in turn and of every entry and singular value.

`q_only_ladder`, `closed_loop_ladder` and `check_line` are the references
for which failure a view names first, where a point fails more than one
way: the per-field kernels (the model's, the constraint's and the
force's, each of which names its own math error) and the per-size
Cholesky factor of the metric, run in the views' order, as the package
named the failures of its pair kernels before each named its own.
"""

import ast
import math
import re
from itertools import chain
from typing import NamedTuple

import numpy as np

from vnhc import constraint, control, linalg
from vnhc.constraint import RANK_RTOL
from vnhc.expr import FUNCTIONS, Binary, Constant, EvalError, Symbol, Unary, to_string
from vnhc.geometry import SPDError, _spd_error

_MATH = {**{name: getattr(math, name) for name in FUNCTIONS}, "pow": math.pow}


def walk(e, env) -> float:
    """e with every free symbol bound by env; an unbound symbol is an
    EvalError.  Children are evaluated before their parent, left to right,
    so a math error is the EvalError naming the first failing node of that
    walk: a division by zero, or a domain error or overflow in a function
    or a power."""
    if isinstance(e, Constant):
        return e.value
    if isinstance(e, Symbol):
        try:
            return float(env[e.name])
        except KeyError:
            raise EvalError(f"unbound symbol {e.name!r}") from None
    if isinstance(e, Unary):
        v = walk(e.child, env)
        return -v if e.op == "neg" else _math(e, v)
    l, r = walk(e.left, env), walk(e.right, env)
    if e.op == "add":
        return l + r
    if e.op == "sub":
        return l - r
    if e.op == "mul":
        return l * r
    if e.op == "div":
        if r == 0.0:
            raise EvalError(f"division by zero in {to_string(e)}")
        return l / r
    return _math(e, l, r)


def _math(e, *args) -> float:
    try:
        return _MATH[e.op](*args)
    except ValueError:
        raise EvalError(f"domain error in {to_string(e)}") from None
    except OverflowError:
        raise EvalError(f"overflow in {to_string(e)}") from None


_CHILDREN = ("child", "left", "right")


def _fields(e) -> list:
    """(name, value) of each field of the node e, in declaration order."""
    if isinstance(e, Constant):
        return [("value", e.value)]
    if isinstance(e, Symbol):
        return [("name", e.name)]
    if isinstance(e, Unary):
        return [("op", e.op), ("child", e.child)]
    assert isinstance(e, Binary)
    return [("op", e.op), ("left", e.left), ("right", e.right)]


def structure(e) -> tuple:
    """e as nested tuples: its class, then each field, a child as its
    structure; two trees are == exactly where their structures are, so a
    constant 0.0 matches a -0.0."""
    return (type(e).__name__,
            *(structure(v) if name in _CHILDREN else v for name, v in _fields(e)))


def spelled(e) -> str:
    """The repr a frozen dataclass of e's class and fields would give."""
    fields = (f"{name}={spelled(v) if name in _CHILDREN else repr(v)}" for name, v in _fields(e))
    return f"{type(e).__name__}({', '.join(fields)})"


class Reference(NamedTuple):
    S: np.ndarray
    P: np.ndarray
    det: float
    cond: float  # cond_1(P)
    singular_values: np.ndarray  # of S, descending

    @property
    def rank(self) -> int:
        return int(np.sum(self.singular_values > RANK_RTOL * self.singular_values[0]))


def grid_at(chart, rows, q) -> np.ndarray:
    """The rows of expressions of a model or constraint, evaluated at q."""
    env = {**chart.parameters, **dict(zip(chart.coordinates, q))}
    return np.array([[walk(e, env) for e in row] for row in rows])


def reference(model, con, q) -> Reference:
    G = grid_at(model, model.metric, q)
    coframe = grid_at(model, model.input_coframe, q)
    S = grid_at(con, con.mu, q)
    P = S @ np.linalg.solve(G, coframe.T)
    return Reference(S, P, float(np.linalg.det(P)), float(np.linalg.cond(P, 1)),
                     np.linalg.svd(S, compute_uv=False))


def verdict(k, q) -> tuple:
    """The judgment of the q-only record k at q, each gate's branch tested
    in turn: the metric's SPDError, EvalError where P is not finite, then
    why no control exists at q (None where P is admissible) and the
    condition estimate to report."""
    if k.failed == "metric":
        raise _spd_error(q, k.g, k.ratio)
    if not math.isfinite(k.cond) and not all(map(math.isfinite, chain.from_iterable(k.P))):
        raise EvalError(f"P matrix {k.P} is not finite at q={tuple(q)}")
    if k.failed == "singular":
        return f"singular P matrix at q={tuple(q)}", math.inf
    if k.failed == "pivot":
        return (f"numerically singular P matrix at q={tuple(q)} "
                f"(pivot {k.min_pivot:.3e} vs scale {k.scale:.3e})"), math.inf
    if k.failed == "cond":
        return (f"P condition estimate {k.cond:.3e} exceeds {linalg.CONDITION_CAP:.0e} "
                f"at q={tuple(q)}"), k.cond
    return None, k.cond


def rank(con, S) -> tuple:
    """The rank and the singular values of the rows S of con's S(q): every
    entry tested, the first that is not finite named, then each singular
    value counted that exceeds the tolerance, those of S scaled by the power
    of two that brings its largest entry to [0.5, 1): the same rank, and
    no value overflows."""
    if not all(map(math.isfinite, chain.from_iterable(S))):
        for b, (row, exprs) in enumerate(zip(S, con.mu)):
            for i, (v, e) in enumerate(zip(row, exprs)):
                if not math.isfinite(v):
                    raise EvalError(
                        f"constraint.mu[{b}][{i}] = {to_string(e)} is not finite ({v!r})")
    _, e = math.frexp(max(abs(x) for row in S for x in row))
    sv = linalg.singular_values([[math.ldexp(x, -e) for x in row] for row in S])
    return sum(map((RANK_RTOL * sv[0]).__lt__, sv)), linalg.singular_values(S)


def q_only_ladder(model, con, q) -> tuple:
    """The q-only record at q and its verdict (`verdict`), or the first
    typed error of the views' order: the model's expressions (EvalError),
    the metric's gates (SPDError), the constraint's expressions
    (EvalError), then a P that is not finite (EvalError).  The model's and
    the constraint's kernels run at (q, 0) and name their own errors; the
    record comes from the pair's q-only kernel, which can then meet no
    math error, as each of its lines that can raise is one of theirs."""
    model._factor(q)  # the model's kernel, then the per-size Cholesky and the ratio gate
    con._at_rest(q)
    k = constraint._p_system(model, con, q)
    return k, verdict(k, q)


def closed_loop_ladder(model, con, q, qd):
    """Raise the typed error of the closed-loop views at (q, qd), where
    stage 1 of the pair's step kernel fails there, in the views' order:
    `q_only_ladder`'s, Z's expressions included, the TransversalityError of
    P's gates, then the force's own kernel's EvalError, which alone reads
    qd.  Every stage runs the lines of Z's expressions too, so where only
    such a line fails there, `q_only_ladder` raises its error."""
    if control._step(model, con)(q, qd, None, None, False)[0] is not None:
        return
    _, (error, cond) = q_only_ladder(model, con, q)
    if error is not None:
        raise control.TransversalityError(error, q=tuple(q), cond=cond)
    model._force_fn(*q, *qd)


def check_line(model, con, q) -> str:
    """The line `vnhc check` prints at q: the rank first, from the
    constraint's kernel and `rank`, then `q_only_ladder`'s verdict."""
    label = f"q=({', '.join(f'{v:g}' for v in q)})"
    try:
        r, sv = rank(con, con.mu_at(q))
    except EvalError as err:
        return f"{label} rank=ERROR ({err})"
    if r < con.m:
        return f"{label} rank=DEFECT({r}/{con.m}) singular_values={[f'{s:.3e}' for s in sv]}"
    label += f" rank=ok({con.m}/{con.m})"
    try:
        k, (error, cond) = q_only_ladder(model, con, q)
    except SPDError as err:
        return f"{label} metric=SPD-FAILURE ({err})"
    except EvalError as err:
        return f"{label} transversality=ERROR ({err})"
    verdict_ = "ok" if error is None else "VIOLATION"
    return f"{label} transversality={verdict_} cond={cond:.6g} det={k.det:.6g}"


# Folding after the fact, over the syntax tree of the unfolded statements:
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
#    0.0 + x and x + 0.0 stay: they turn -0.0 into 0.0, or inf into NaN;
#  - with zeros, a term written as the product of two locals drops out of
#    a sum where it is known to be zero: of a sum of such terms taken from
#    a local (x - a * b - ...), where a factor folds to a zero literal; of
#    a sum from 0.0 (0.0 + a * b + ...), where it folds to a zero literal
#    itself, and in an output, read at a record, where a factor does.

_NAMESPACE = {"math": math, "sqrt": math.sqrt, "hypot": math.hypot}


def _literal(node, text: str | None = None) -> bool:
    """Whether node is a literal, one whose repr is text if given (so
    "0.0" is neither -0.0 nor the int 0)."""
    return isinstance(node, ast.Constant) and (text is None or repr(node.value) == text)


def _zero(node, by_factor: bool = False) -> bool:
    """Whether node is a zero literal, of either sign, or with by_factor a
    product with one."""
    return _literal(node) and node.value == 0.0 or by_factor and isinstance(node, ast.BinOp) and (
        _zero(node.left) or _zero(node.right))


def _sum_term(node):
    """Where node adds or takes a term written as the product of two locals
    to or from a sum, by the rules above: whether a zero factor drops the
    term; else None."""
    if not (isinstance(node, ast.BinOp) and type(node.op) in (ast.Add, ast.Sub)
            and isinstance(node.right, ast.BinOp) and type(node.right.op) is ast.Mult
            and isinstance(node.right.left, ast.Name) and isinstance(node.right.right, ast.Name)):
        return None
    if type(node.op) is ast.Sub:
        return True
    first = node
    while isinstance(first, ast.BinOp) and type(first.op) is ast.Add:
        first = first.left
    return False if _literal(first, "0.0") else None


class _Folder(ast.NodeTransformer):
    """Folds one expression over the locals whose values are known; with
    zeros, drops the zero terms of sums, those of an output's sums from 0.0
    by their factors if record."""

    def __init__(self, known: dict, zeros: bool = False, record: bool = False):
        self.known, self.zeros, self.record = known, zeros, record

    def visit_Name(self, node):
        return ast.Constant(self.known[node.id]) if node.id in self.known else node

    def generic_visit(self, node):
        by_factor = _sum_term(node) if self.zeros else None
        node = super().generic_visit(node)  # the operands first
        if by_factor is not None and _zero(node.right, by_factor or self.record):
            return node.left
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


def _fold_block(statements, known: dict, out: list, always: bool, zeros: bool):
    """Append to out the statements folded over known, which they update.
    always: the statements run whenever the block is reached, so a local
    bound to a literal need not be bound at all."""
    fold = _Folder(known, zeros).visit
    for st in statements:
        if isinstance(st, ast.If):
            test = fold(st.test)
            if _literal(test):
                _fold_block(st.body if test.value else st.orelse, known, out, always, zeros)
                continue
            names = _assigned(st)
            out += [ast.Assign([ast.Name(name, ast.Store())], ast.Constant(known.pop(name)))
                    for name in sorted(names & known.keys())]  # bound on either branch
            body, orelse = [], []
            _fold_block(st.body, dict(known), body, False, zeros)
            _fold_block(st.orelse, dict(known), orelse, False, zeros)
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


# ast.unparse puts a tuple target in parentheses before Python 3.11
_TUPLE_TARGET = re.compile(r"^( *)\(([\w, ]+)\) = ", re.MULTILINE)


def fold(lines, outputs=(), zeros: bool = False) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The statements lines with their state-independent parts computed
    here, by the rules above, with zeros dropping the zero terms of sums,
    and the source of each expression of outputs evaluated after them."""
    out, known = [], {}
    _fold_block(ast.parse("\n".join(lines)).body, known, out, True, zeros)
    folder = _Folder(known, zeros, record=True)
    text = _TUPLE_TARGET.sub(r"\1\2 = ", ast.unparse(ast.fix_missing_locations(ast.Module(out, []))))
    return (tuple(text.splitlines()),
            tuple(ast.unparse(folder.visit(ast.parse(e, mode="eval").body)) for e in outputs))
