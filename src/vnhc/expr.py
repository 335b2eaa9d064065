"""Expression DSL: parsing, exact symbolic differentiation, evaluation.

Expressions are immutable trees over named symbols.  By convention the
velocity of a coordinate ``x`` is the symbol ``xd``.  Angles are plain
reals; nothing here wraps.

Grammar (precedence low to high): ``+ -`` < ``* /`` < unary ``-`` < ``^``
(right associative) < atoms.  Functions: sin cos tan exp log sqrt.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from . import linalg

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt")

_MATH_FN = {name: getattr(math, name) for name in FUNCTIONS}  # compiled as math.<name>


class ExprError(ValueError):
    """Base class for DSL errors."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class EvalError(ExprError):
    """Unbound symbol, non-finite constant, or numeric domain error or
    overflow during evaluation."""


@dataclass(frozen=True)
class Expr:
    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return sub(self, as_expr(other))

    def __rsub__(self, other):
        return sub(as_expr(other), self)

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return div(self, as_expr(other))

    def __rtruediv__(self, other):
        return div(as_expr(other), self)

    def __pow__(self, other):
        return pow_(self, as_expr(other))

    def __neg__(self):
        return neg(self)

    def __str__(self) -> str:
        return to_string(self)


@dataclass(frozen=True)
class Constant(Expr):
    value: float


@dataclass(frozen=True)
class Symbol(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "neg" or a function name
    child: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # add sub mul div pow
    left: Expr
    right: Expr


ZERO = Constant(0.0)
ONE = Constant(1.0)


def as_expr(value) -> Expr:
    """Coerce a number, string (parsed as DSL) or Expr to an Expr."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return Constant(float(value))
    if isinstance(value, str):
        return parse(value)
    raise TypeError(f"cannot interpret {value!r} as an expression")


def _is_const(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Constant) and (v is None or e.value == v)


# Smart constructors: constant folding plus 0/1 identity elimination only.

def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Constant(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Binary("add", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Constant(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Binary("sub", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Constant(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Binary("mul", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b) and b.value != 0.0:
        if _is_const(a):
            return Constant(a.value / b.value)
        if b.value == 1.0:
            return a
    if _is_const(a, 0.0):
        return ZERO
    return Binary("div", a, b)


def pow_(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Constant(_math(math.pow, Binary("pow", a, b), a.value, b.value))
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return ONE
    return Binary("pow", a, b)


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return Constant(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.child
    return Unary("neg", a)


def fn(name: str, child: Expr) -> Expr:
    if name not in FUNCTIONS:
        raise ExprError(f"unknown function {name!r}")
    if _is_const(child):
        return Constant(_math(_MATH_FN[name], Unary(name, child), child.value))
    return Unary(name, child)


def _math(f, node: Expr, *args: float) -> float:
    """f(*args), with math errors raised as EvalError naming node."""
    try:
        return f(*args)
    except ValueError:
        raise EvalError(f"domain error in {to_string(node)}") from None
    except OverflowError:
        raise EvalError(f"overflow in {to_string(node)}") from None


# ---------------------------------------------------------------------------
# Parsing

# One token: a number, which starts with 0-9 or "." ("2e" is the number 2
# and then the symbol e); a word of letters, digits and "_"; or any other
# single character.  Whitespace between tokens is skipped.
_TOKEN = re.compile(r"(?=[0-9.])\d*(?:\.\d*)?(?:[eE][+-]?\d+)?|\w+|\S")
_BINARY = {"+": add, "-": sub, "*": mul, "/": div}


class _Parser:
    """Recursive descent over the tokens of text, then "" at its end."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN.findall(text) + [""]
        self.i = 0

    def error(self, message: str):
        """Raise ParseError at the current token, the end being len(text)."""
        starts = [m.start() for m in _TOKEN.finditer(self.text)] + [len(self.text)]
        raise ParseError(message, len(self.text[:starts[self.i]].encode("utf-8")))

    def peek(self) -> str:
        return self.tokens[self.i]

    def expr(self) -> Expr:
        e = self.term()
        while (op := self.peek()) in ("+", "-"):
            self.i += 1
            e = _BINARY[op](e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while (op := self.peek()) in ("*", "/"):
            self.i += 1
            e = _BINARY[op](e, self.factor())
        return e

    def factor(self) -> Expr:
        if self.peek() == "-":
            self.i += 1
            return neg(self.factor())
        base = self.atom()
        if self.peek() == "^":
            self.i += 1
            return pow_(base, self.factor())
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if not tok:
            self.error("unexpected end of input")
        if tok == "(":
            self.i += 1
            e = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.i += 1
            return e
        if tok[0] in "0123456789.":
            try:
                value = float(tok)
            except ValueError:
                self.error(f"malformed number {tok!r}")
            if not math.isfinite(value):
                self.error(f"number {tok!r} is out of range")
            self.i += 1
            return Constant(value)
        if not (tok[0].isalpha() or tok[0] == "_"):
            self.error(f"unexpected {tok[0]!r}")
        if self.tokens[self.i + 1] != "(":
            self.i += 1
            return Symbol(tok)
        if tok not in FUNCTIONS:
            self.error(f"unknown function {tok!r}")
        self.i += 1
        return fn(tok, self.atom())  # folds only once the ")" is found


def parse(text: str) -> Expr:
    """Parse DSL text into an Expr. Raises ParseError with a byte offset."""
    p = _Parser(text)
    try:
        e = p.expr()
    except RecursionError:
        p.error("expression is nested too deeply")
    if p.peek():
        p.error(f"unexpected {p.peek()[0]!r}")
    return e


# ---------------------------------------------------------------------------
# Evaluation

def evaluate(e: Expr, env: Mapping[str, float]) -> float:
    """Evaluate with every free symbol bound; unbound symbols are errors."""
    if isinstance(e, Constant):
        return e.value
    if isinstance(e, Symbol):
        try:
            return float(env[e.name])
        except KeyError:
            raise EvalError(f"unbound symbol {e.name!r}") from None
    if isinstance(e, Unary):
        v = evaluate(e.child, env)
        if e.op == "neg":
            return -v
        return _math(_MATH_FN[e.op], e, v)
    assert isinstance(e, Binary)
    l = evaluate(e.left, env)
    r = evaluate(e.right, env)
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
    return _math(math.pow, e, l, r)


def free_symbols(e: Expr) -> set[str]:
    return _leaves(e)[0]


def _leaves(e) -> tuple[set[str], list[float]]:
    """The names of the symbols of e, an expression or a nested list of
    them, and its non-finite constants left to right."""
    symbols, bad, stack = set(), [], [e]
    while stack:
        e = stack.pop()
        if isinstance(e, Binary):
            stack += e.right, e.left
        elif isinstance(e, Unary):
            stack.append(e.child)
        elif isinstance(e, Symbol):
            symbols.add(e.name)
        elif isinstance(e, list):
            stack += reversed(e)
        elif not math.isfinite(e.value):
            bad.append(e.value)
    return symbols, bad


def substitute(e: Expr, values: Mapping[str, float]) -> tuple[Expr, set[str], list[float]]:
    """e with each symbol named in values replaced by its value as a
    Constant, rebuilt by the smart constructors, so that identities such as
    1.0 * x and constant subtrees fold; with, from the same walk, the names
    of e's symbols and its non-finite constants, left to right.

    A fold that raises, or gives a non-finite number, is left unfolded, so
    that the error still happens where the expression is evaluated, as it
    would with the symbol.  Recursive, as `diff` is, which runs next on the
    result; a subtree shared within e is walked once."""
    symbols: set[str] = set()
    bad: list[float] = []
    memo: dict = {}  # id of a compound node of e -> its result

    def walk(node: Expr) -> Expr:
        kind = type(node)
        if kind is Symbol:
            symbols.add(node.name)
            return Constant(float(values[node.name])) if node.name in values else node
        if kind is Constant:
            if not math.isfinite(node.value):
                bad.append(node.value)
            return node
        new = memo.get(id(node))
        if new is None:
            if kind is Binary:
                l, r = walk(node.left), walk(node.right)
                new = node if l is node.left and r is node.right else _refold(node, l, r)
            else:
                c = walk(node.child)
                new = node if c is node.child else _refold(node, c)
            memo[id(node)] = new
        return new

    e = walk(e)
    del walk  # a recursive closure: see _emit
    return e, symbols, bad


def _refold(node: Expr, *children: Expr) -> Expr:
    """node's op over the new children by its smart constructor, or, where
    that raises or gives a non-finite constant, the plain node."""
    try:
        folded = _BUILD.get(node.op, functools.partial(fn, node.op))(*children)
    except EvalError:
        folded = None
    if folded is None or isinstance(folded, Constant) and not math.isfinite(folded.value):
        return type(node)(node.op, *children)
    return folded


_BUILD = {"add": add, "sub": sub, "mul": mul, "div": div, "pow": pow_, "neg": neg}


# ---------------------------------------------------------------------------
# Differentiation

def diff(e: Expr, s: str) -> Expr:
    """Exact partial derivative with respect to the symbol named s."""
    if isinstance(e, Constant):
        return ZERO
    if isinstance(e, Symbol):
        return ONE if e.name == s else ZERO
    if isinstance(e, Unary):
        u, du = e.child, diff(e.child, s)
        if e.op == "neg":
            return neg(du)
        if e.op == "sin":
            return mul(fn("cos", u), du)
        if e.op == "cos":
            return neg(mul(fn("sin", u), du))
        if e.op == "tan":
            return div(du, pow_(fn("cos", u), Constant(2.0)))
        if e.op == "exp":
            return mul(e, du)
        if e.op == "log":
            return div(du, u)
        if e.op == "sqrt":
            return div(du, mul(Constant(2.0), e))
        raise ExprError(f"unknown unary op {e.op!r}")
    assert isinstance(e, Binary)
    u, v = e.left, e.right
    du, dv = diff(u, s), diff(v, s)
    if e.op == "add":
        return add(du, dv)
    if e.op == "sub":
        return sub(du, dv)
    if e.op == "mul":
        return add(mul(du, v), mul(u, dv))
    if e.op == "div":
        return div(sub(mul(du, v), mul(u, dv)), pow_(v, Constant(2.0)))
    if e.op == "pow":
        if _is_const(v):
            c = v.value
            return mul(mul(v, pow_(u, Constant(c - 1.0))), du)
        # general u^v = exp(v log u)
        return mul(e, add(mul(dv, fn("log", u)), mul(v, div(du, u))))
    raise ExprError(f"unknown binary op {e.op!r}")


# ---------------------------------------------------------------------------
# Printing

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}
_SIGN = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}


def _prec(e: Expr) -> int:
    if isinstance(e, Binary):
        return _PREC[e.op]
    if (isinstance(e, Unary) and e.op == "neg") or (isinstance(e, Constant) and e.value < 0):
        return _PREC["neg"]  # so a negative base prints as (-2)^x
    return 5  # constants, symbols, function calls


def to_string(e: Expr) -> str:
    """Render so that parse(to_string(e)) reproduces e node for node.
    Children are printed before their parents from an explicit stack, not
    by recursion, so every tree that parses also prints."""
    text: dict[int, str] = {}  # id of a node of e -> its text

    def wrap(child: Expr, min_prec: int) -> str:
        s = text[id(child)]
        return f"({s})" if _prec(child) < min_prec else s

    stack = [e]
    while stack:
        node = stack[-1]
        if id(node) in text:  # a shared node, already printed
            stack.pop()
            continue
        children = ((node.left, node.right) if isinstance(node, Binary)
                    else (node.child,) if isinstance(node, Unary) else ())
        todo = [c for c in children if id(c) not in text]
        if todo:
            stack += todo
            continue
        stack.pop()
        if isinstance(node, Constant):
            v = node.value
            if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
                text[id(node)] = str(int(v))
            else:
                text[id(node)] = repr(v)
        elif isinstance(node, Symbol):
            text[id(node)] = node.name
        elif isinstance(node, Unary):
            text[id(node)] = ("-" + wrap(node.child, 4) if node.op == "neg"
                              else f"{node.op}({text[id(node.child)]})")
        elif node.op == "pow":
            # right-assoc; exponent position admits unary minus and pow
            text[id(node)] = wrap(node.left, 5) + "^" + wrap(node.right, 3)
        else:
            p = _PREC[node.op]
            text[id(node)] = f"{wrap(node.left, p)} {_SIGN[node.op]} {wrap(node.right, p + 1)}"
    return text[id(e)]


# ---------------------------------------------------------------------------
# Compilation to fast callables

def _emit(exprs: Sequence, variables: Sequence[str], constants: Mapping[str, float] | None = None):
    """Straight-line source of exprs over the locals _a0, _a1, ... that
    hold the variables, with common subexpressions computed once.

    Returns (lines, roots, outputs): the statements binding subexpressions
    to the locals _t0, _t1, ..., in order; exprs with each expression
    replaced by the source of its value, a local, a literal or an inline
    expression, nested alike; and the expressions, left to right.  Raises
    EvalError for a free symbol that is neither a variable nor a constant,
    or a non-finite number or constant.

    Each node is numbered by its structure (hash-consing: the key of a
    compound node is its op and its children's numbers, so no tree is
    hashed twice), and a compound node used more than once, within one
    expression or across several, is bound to a local on first use.
    """
    constants = constants or {}
    argnames = {name: f"_a{i}" for i, name in enumerate(variables)}

    dag: list = []  # node number -> leaf code (str) or (op, *child numbers)
    uses: list[int] = []  # node number -> references by parents and outputs
    numbers: dict = {}  # structural key -> node number
    by_id: dict[int, int] = {}  # id of a visited Expr -> node number

    def literal(value, what: str) -> str:
        value = float(value)
        if not math.isfinite(value):
            raise EvalError(f"{what} is not finite ({value!r})")
        return repr(value)

    def canon(e: Expr) -> int:
        """Number e and count one reference to it."""
        num = by_id.get(id(e))
        if num is None:
            if isinstance(e, Constant):
                key = literal(e.value, "constant")
            elif isinstance(e, Symbol):
                if e.name in argnames:
                    key = argnames[e.name]
                elif e.name in constants:
                    key = literal(constants[e.name], f"parameter {e.name!r}")
                else:
                    raise EvalError(f"unbound symbol {e.name!r}")
            elif isinstance(e, Unary):
                key = (e.op, canon(e.child))
            else:
                l, r = canon(e.left), canon(e.right)
                if e.op in ("add", "mul") and r < l:  # exact: IEEE + and * commute
                    l, r = r, l
                key = (e.op, l, r)
            num = numbers.get(key)
            if num is None:
                num = numbers[key] = len(dag)
                dag.append(key)
                uses.append(0)
            elif not isinstance(key, str):
                # a second copy of a known node: its children are
                # referenced by the first copy only
                for child in key[1:]:
                    uses[child] -= 1
            by_id[id(e)] = num
        uses[num] += 1
        return num

    outputs: list[Expr] = []

    def canon_tree(item):  # a tree is a node number or a list of trees
        if isinstance(item, Expr):
            outputs.append(item)
            return canon(item)
        return [canon_tree(x) for x in item]

    roots = canon_tree(exprs)

    lines: list[str] = []
    code = [key if isinstance(key, str) else None for key in dag]
    depth = [0] * len(dag)  # parentheses the text of a node nests

    def emit(num: int) -> str:
        if code[num] is not None:
            return code[num]
        key = dag[num]
        op, a = key[0], emit(key[1])
        if len(key) == 3:
            b = emit(key[2])
            text = f"math.pow({a}, {b})" if op == "pow" else f"({a} {_SIGN[op]} {b})"
        else:
            text = f"(-{a})" if op == "neg" else f"math.{op}({a})"
        nest = 1 + max(depth[key[1]], depth[key[-1]])
        if uses[num] > 1 or nest > 100:  # CPython parses up to 200 nested parentheses
            nest = 0
            name = f"_t{len(lines)}"
            lines.append(f"{name} = {text}")
            text = name
        code[num], depth[num] = text, nest
        return text

    def emit_tree(tree):
        return emit(tree) if isinstance(tree, int) else [emit_tree(t) for t in tree]

    roots = emit_tree(roots)
    # Each recursive closure holds itself through its cell, a reference
    # cycle: deleting them frees the tables now, not at the collector's
    # next pass, which would otherwise fall inside a later call.
    del canon, canon_tree, emit, emit_tree
    return lines, roots, outputs


def compile_exprs(
    exprs: Sequence,
    variables: Sequence[str],
    constants: Mapping[str, float] | None = None,
) -> Callable[..., tuple]:
    """Compile expressions to one function of the given positional variables.

    The function returns a tuple with one value per item of exprs; an item
    that is itself a sequence of expressions gives a nested tuple, so
    callers get matrix rows without slicing.  Constants (model parameters)
    are inlined.  A free symbol that is neither a variable nor a constant,
    or a non-finite number or constant, raises EvalError at compile time.
    Common subexpressions are computed once (see `_emit`), and the source
    is compiled by `linalg._define`, once per distinct source per process.

    A math error at call time (division by zero, a domain error, an
    overflow) raises the EvalError of `evaluate` on the same inputs, which
    names the failing subexpression.
    """
    constants = constants or {}
    lines, roots, outputs = _emit(exprs, variables, constants)

    def tuple_source(tree) -> str:
        if isinstance(tree, str):
            return tree
        return "(" + "".join(tuple_source(t) + ", " for t in tree) + ")"

    args = ", ".join(f"_a{i}" for i in range(len(variables)))
    body = "".join(f"    {line}\n" for line in lines)
    raw = linalg._define(f"def kernel({args}):\n{body}    return {tuple_source(roots)}\n")
    del tuple_source  # a recursive closure: see _emit

    # The try lives here, not in the generated source: there it made each
    # kernel 15-27% slower to compile (CPython 3.11), a cost model
    # loading pays, while this wrapper adds one Python call per evaluation.
    def kernel(*values):
        try:
            return raw(*values)
        except (ArithmeticError, ValueError):
            env = {**constants, **dict(zip(variables, values))}
            for e in outputs:
                evaluate(e, env)  # raises the EvalError naming the culprit
            raise

    return kernel


def grid(rows: Iterable[Iterable]) -> list[list[Expr]]:
    """Coerce a nested iterable of numbers/strings/Exprs into an Expr grid."""
    return [[as_expr(x) for x in row] for row in rows]
