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
"""

import ast
import math
import re
from typing import NamedTuple

import numpy as np

from vnhc.constraint import RANK_RTOL
from vnhc.expr import FUNCTIONS, Binary, Constant, EvalError, Symbol, Unary, to_string

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
#    0.0 + x and x + 0.0 stay: they turn -0.0 into 0.0, or inf into NaN.

_NAMESPACE = {"math": math, "sqrt": math.sqrt, "hypot": math.hypot}


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


# ast.unparse puts a tuple target in parentheses before Python 3.11
_TUPLE_TARGET = re.compile(r"^( *)\(([\w, ]+)\) = ", re.MULTILINE)


def fold(lines, outputs=()) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The statements lines with their state-independent parts computed
    here, by the rules above, and the source of each expression of outputs
    evaluated after them."""
    out, known = [], {}
    _fold_block(ast.parse("\n".join(lines)).body, known, out, True)
    folder = _Folder(known)
    text = _TUPLE_TARGET.sub(r"\1\2 = ", ast.unparse(ast.fix_missing_locations(ast.Module(out, []))))
    return (tuple(text.splitlines()),
            tuple(ast.unparse(folder.visit(ast.parse(e, mode="eval").body)) for e in outputs))
