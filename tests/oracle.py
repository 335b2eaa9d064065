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
"""

import math
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
