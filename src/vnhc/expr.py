"""Expression DSL: parsing, exact symbolic differentiation, compilation.

Expressions are immutable trees over named symbols, interned as one
graph (see `Expr`): a structure built twice is one object.  The results
of `diff` are kept on the nodes, so a subtree shared within one build is
differentiated once; `substitute` keeps its folds for one call, and
parsing, emitting and compiling run on every call.  A model text loaded
again costs none of them: `model_io.load_model` gives back the pair it
built.  `evaluate` keeps the kernels of its last 64 expressions in a
`functools.lru_cache`.  By convention
the velocity of a coordinate ``x`` is the symbol ``xd``.  Angles are
plain reals; nothing here wraps.

Grammar (precedence low to high): ``+ -`` < ``* /`` < unary ``-`` < ``^``
(right associative) < atoms.  Functions: sin cos tan exp log sqrt.
"""

from __future__ import annotations

import functools
import math
import re
import weakref
from collections.abc import Callable, Iterable, Mapping, Sequence

from . import linalg
from .linalg import _bin, _call, _list, _Src, _text, _unary

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt")



class ExprError(ValueError):
    """Base class for DSL errors."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class EvalError(ExprError):
    """Unbound symbol, non-finite constant, or numeric domain error or
    overflow during evaluation."""


class Expr:
    """A node of the one expression graph.  Nodes are interned: each
    constructor, a direct class call included, returns the live node of the
    same op or name over the same child nodes if there is one
    (hash-consing: Filliatre & Conchon, "Type-safe modular hash-consing",
    2006), so a structure built twice is one object.  A constant is keyed
    by the repr of its value, so 0.0 and -0.0 are two nodes, as they are
    two literals in a kernel; they are still ==, as all nodes of one
    structure with equal values are.  A node's hash is made once, from its
    children's, and == compares fields only for two distinct nodes with
    the same hash (in practice, trees apart only in the sign of a zero),
    so neither walks the tree.

    The table holds the nodes weakly: a node lives as long as its users
    do, and the derivatives `diff` keeps on it go with it.
    No field of a node changes after it is made, since every user shares
    it.  Assignment is not blocked: a guard on it made each new node
    dearer, and a first model load 8-10% slower (CPython 3.11)."""

    __slots__ = ("_hash", "_derivatives", "__weakref__")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in type(self).__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._hash == other._hash and self._fields() == other._fields()

    def __hash__(self):
        return self._hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self).__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copies and unpickles through the table
        return type(self), self._fields()

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


_NODES: dict = {}  # key -> a weak reference to the live node with that key


def _unintern(key, ref, nodes=_NODES):
    """Drop the entry of a node that died (nodes is bound here, since at
    exit the module's globals may be gone before the last node)."""
    if nodes.get(key) is ref:
        del nodes[key]


def _new(cls, key, parts) -> Expr:
    """A new node of cls, its fields still to set, entered in the table
    under key, with the hash of parts: its fields, each child by its hash."""
    node = object.__new__(cls)
    node._hash, node._derivatives = hash(parts), {}
    _NODES[key] = weakref.ref(node, functools.partial(_unintern, key))
    return node


class Constant(Expr):
    __slots__ = ("value",)

    def __new__(cls, value: float):
        ref = _NODES.get(key := (cls, repr(value)))
        if not (node := ref and ref()):
            node = _new(cls, key, (value,))
            node.value = value
        return node


class Symbol(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        ref = _NODES.get(key := (cls, name))
        if not (node := ref and ref()):
            node = _new(cls, key, (name,))
            node.name = name
        return node


class Unary(Expr):
    __slots__ = ("op", "child")  # op: "neg" or a function name

    def __new__(cls, op: str, child: Expr):
        ref = _NODES.get(key := (op, id(child)))
        if not (node := ref and ref()):
            node = _new(cls, key, (op, child._hash))
            node.op, node.child = op, child
        return node


class Binary(Expr):
    __slots__ = ("op", "left", "right")  # op: add sub mul div pow

    def __new__(cls, op: str, left: Expr, right: Expr):
        ref = _NODES.get(key := (op, id(left), id(right)))
        if not (node := ref and ref()):
            node = _new(cls, key, (op, left._hash, right._hash))
            node.op, node.left, node.right = op, left, right
        return node


ZERO = Constant(0.0)
ONE = Constant(1.0)


def as_expr(value) -> Expr:
    """Coerce a number, string (parsed as DSL) or Expr to an Expr."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return Constant(float(value))
        except OverflowError:  # an int beyond float range
            raise ExprError("integer is out of range") from None
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
        return Constant(_math(linalg._FUNCTIONS[f"math.{name}"], Unary(name, child), child.value))
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

    def expr(self) -> Expr:
        e = self.term()
        while (op := self.tokens[self.i]) in ("+", "-"):
            self.i += 1
            e = _BINARY[op](e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while (op := self.tokens[self.i]) in ("*", "/"):
            self.i += 1
            e = _BINARY[op](e, self.factor())
        return e

    def factor(self) -> Expr:
        if self.tokens[self.i] == "-":
            self.i += 1
            return neg(self.factor())
        base = self.atom()
        if self.tokens[self.i] == "^":
            self.i += 1
            return pow_(base, self.factor())
        return base

    def atom(self) -> Expr:
        tok = self.tokens[self.i]
        if not tok:
            self.error("unexpected end of input")
        if tok == "(":
            self.i += 1
            e = self.expr()
            if self.tokens[self.i] != ")":
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
    if tok := p.tokens[p.i]:
        p.error(f"unexpected {tok[0]!r}")
    return e


# ---------------------------------------------------------------------------
# Evaluation

def evaluate(e: Expr, env: Mapping[str, float]) -> float:
    """Evaluate with every free symbol bound; unbound symbols are errors.
    e is compiled by `compile_exprs`, so a math error is the EvalError
    that names the failing subexpression.  The kernels of the last 64
    (e, names) pairs are kept, each entry holding e alive."""
    return _evaluator(id(e), tuple(env), e)(*map(float, env.values()))[0]


@functools.lru_cache(maxsize=64)
def _evaluator(_, names: tuple, e: Expr):
    """The kernel of e over names.  Its key holds id(e), so two trees apart
    only in the sign of a zero, which are ==, compile apart."""
    return compile_exprs([e], names)


def free_symbols(e: Expr) -> set[str]:
    return _leaves(e)[0]


def _leaves(e) -> tuple[set[str], list[float], set[int]]:
    """The names of the symbols of e, an expression or a nested list of
    them, its non-finite constants left to right, and the ids of its
    nodes.  A node shared within e is walked once."""
    symbols, bad, seen, stack = set(), [], set(), [e]
    while stack:
        e = stack.pop()
        if isinstance(e, list):
            stack += reversed(e)
        elif id(e) not in seen:
            seen.add(id(e))
            if isinstance(e, Binary):
                stack += e.right, e.left
            elif isinstance(e, Unary):
                stack.append(e.child)
            elif isinstance(e, Symbol):
                symbols.add(e.name)
            elif not math.isfinite(e.value):
                bad.append(e.value)
    return symbols, bad, seen


def substitute(e: Expr, values: Mapping[str, float]) -> Expr:
    """e with each symbol named in values replaced by its value as a
    Constant, rebuilt by the smart constructors, so that identities such as
    1.0 * x and constant subtrees fold.

    A fold that raises, or gives a non-finite number, is left unfolded, so
    that the error still happens where the expression is evaluated, as it
    would with the symbol.  Recursive, as `diff` is, which runs next on the
    result.  A node shared within e is folded once: the folds are kept by
    node id for this call only."""
    done: dict[int, Expr] = {}  # id of a node of e -> the node folded

    def fold(node: Expr) -> Expr:
        new = done.get(id(node))
        if new is None:
            kind = type(node)
            if kind is Binary:
                l, r = fold(node.left), fold(node.right)
                new = node if l is node.left and r is node.right else _refold(node, l, r)
            elif kind is Unary:
                c = fold(node.child)
                new = node if c is node.child else _refold(node, c)
            elif kind is Symbol and node.name in values:
                new = Constant(float(values[node.name]))
            else:
                new = node
            done[id(node)] = new
        return new

    folded = fold(e)
    del fold  # a recursive closure: see `_emit`
    return folded


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
    """Exact partial derivative with respect to the symbol named s,
    memoized on each compound node, so a subtree shared within e, or with
    a tree differentiated before, is differentiated once per process."""
    if isinstance(e, Constant):
        return ZERO
    if isinstance(e, Symbol):
        return ONE if e.name == s else ZERO
    memo = e._derivatives
    d = memo.get(s)
    if d is None:  # one frame per level of e: the children's derivatives are taken here
        if isinstance(e, Unary):
            d = _rule(e, diff(e.child, s))
        else:
            d = _rule(e, diff(e.left, s), diff(e.right, s))
        memo[s] = d
    return d


def _rule(e: Expr, du: Expr, dv: Expr | None = None) -> Expr:
    """The derivative of the compound node e from the derivatives of its
    child, du, or of its left and right children, du and dv."""
    if isinstance(e, Unary):
        u = e.child
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
    u, v = e.left, e.right
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
    if (isinstance(e, Unary) and e.op == "neg"
            or isinstance(e, Constant) and math.copysign(1.0, e.value) < 0):
        return _PREC["neg"]  # so a negative base, -0 too, prints as (-2)^x
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
                text[id(node)] = str(int(v)) if v or math.copysign(1.0, v) > 0 else "-0"
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

def _emit(exprs: Sequence, variables: Sequence[str], constants: Mapping[str, float] | None = None,
          every: bool = False):
    """Straight-line source of exprs over the locals _a0, _a1, ... that
    hold the variables, with common subexpressions computed once.

    Returns (lines, roots, nodes): the statements binding subexpressions
    to the locals _t0, _t1, ..., in order; exprs with each expression
    replaced by its value, nested alike: a `linalg._Src` (a local or an
    inline expression) or a number; and the subexpression each line binds.
    The lines follow exprs: every line that an item needs comes before the
    lines that only later items need.
    Each operation is written by `linalg`'s writer, so its text has only
    the parentheses the tree needs.
    Raises EvalError for a free symbol that is neither a variable nor a
    constant, or a non-finite number or constant.

    Each node is numbered by its structure (hash-consing: the key of a
    compound node is its op and its children's numbers, so no tree is
    hashed twice), and a compound node used more than once, within one
    expression or across several, is bound to a local on first use.

    With every, each compound node is bound to a local of its own, one
    operation per line, and the operands of + and * keep their order, so
    the lines run in the order of a walk of exprs, left to right and
    children first: the first line that raises holds the first
    subexpression such a walk finds failing.
    """
    argnames = {name: f"_a{i}" for i, name in enumerate(variables)}
    constants = constants or {}

    dag: list = []  # node number -> leaf code (str) or (op, *child numbers)
    first: list[Expr] = []  # node number -> the first Expr numbered so
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
                if e.op in ("add", "mul") and r < l and not every:  # exact: IEEE + and * commute
                    l, r = r, l
                key = (e.op, l, r)
            num = numbers.get(key)
            if num is None:
                num = numbers[key] = len(dag)
                dag.append(key)
                first.append(e)
                uses.append(0)
            elif not isinstance(key, str):
                # a second copy of a known node: its children are
                # referenced by the first copy only
                for child in key[1:]:
                    uses[child] -= 1
            by_id[id(e)] = num
        uses[num] += 1
        return num

    def canon_tree(item):  # a tree is a node number or a list of trees
        return canon(item) if isinstance(item, Expr) else [canon_tree(x) for x in item]

    roots = canon_tree(exprs)

    lines: list[str] = []
    nodes: list[Expr] = []
    code = [None if isinstance(key, tuple) else _Src(key) if key[0] == "_" else float(key)
            for key in dag]  # node number -> its value, once emitted
    depth = [0] * len(dag)  # levels of the tree a node's value spells inline

    def emit(num: int):
        if code[num] is not None:
            return code[num]
        op, *children = dag[num]
        args = [emit(child) for child in children]
        value = (_unary("-", *args) if op == "neg" else _call(f"math.{op}", *args)
                 if op == "pow" or len(args) == 1 else _bin(args[0], _SIGN[op], args[1]))
        nest = 1 + max(depth[child] for child in children)
        if every or uses[num] > 1 or nest > 100:  # CPython parses up to 200 nested parentheses
            nest = 0
            name = f"_t{len(lines)}"
            lines.append(f"{name} = {_text(value)}")
            nodes.append(first[num])
            value = _Src(name)
        code[num], depth[num] = value, nest
        return value

    def emit_tree(tree):
        return emit(tree) if isinstance(tree, int) else tuple(map(emit_tree, tree))

    roots = emit_tree(roots)
    # Each recursive closure holds itself through its cell, a reference
    # cycle: deleting them frees the tables now, not at the collector's
    # next pass, which would otherwise fall inside a later call.
    del canon, canon_tree, emit, emit_tree
    return tuple(lines), roots, tuple(nodes)


def _source(emitted: tuple, n: int) -> str:
    """Source of the function kernel of the locals _a0 .. _a<n-1> that
    runs the lines of emitted, an `_emit` result, and returns its roots,
    nested as tuples."""
    lines, roots, _ = emitted
    return "\n".join(linalg._kernel_source(linalg._vector("_a", n), lines, _list(roots))) + "\n"


_MATH_ERRORS = {ZeroDivisionError: "division by zero", OverflowError: "overflow"}


def _name_math_error(traced, nodes: Sequence[Expr], values) -> None:
    """Run traced, a kernel's source with one node per line (see `_emit`),
    on values, and raise the EvalError naming the node of the line that
    raises, read from traced's frame in the traceback."""
    try:
        traced(*values)
    except (ArithmeticError, ValueError) as err:
        tb = err.__traceback__
        while tb.tb_frame.f_code is not traced.__code__:
            tb = tb.tb_next
        kind = _MATH_ERRORS.get(type(err), "domain error")
        raise EvalError(f"{kind} in {to_string(nodes[tb.tb_lineno - 2])}") from None


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
    is compiled by `linalg._define`.

    A math error at call time (division by zero, a domain error, an
    overflow) raises an EvalError naming the first failing subexpression
    in the order of a walk of exprs, left to right and children first.
    It is found by running, on the same inputs, the source `_emit` gives
    with one node per line, built on the kernel's first math error and
    kept with the kernel.
    """
    raw = linalg._define(_source(_emit(exprs, variables, constants), len(variables)))
    traced = None  # (function, nodes) of the one-node-per-line source, once built

    # The try lives here, not in the generated source: there it made each
    # kernel 15-27% slower to compile (CPython 3.11), a cost model
    # loading pays, while this wrapper adds one Python call per evaluation.
    def kernel(*values):
        nonlocal traced
        try:
            return raw(*values)
        except (ArithmeticError, ValueError):
            if traced is None:
                emitted = _emit(exprs, variables, constants, every=True)
                traced = linalg._define(_source(emitted, len(variables))), emitted[2]
            _name_math_error(*traced, values)
            raise

    return kernel


def grid(rows: Iterable[Iterable]) -> list[list[Expr]]:
    """Coerce a nested iterable of numbers/strings/Exprs into an Expr grid."""
    return [[as_expr(x) for x in row] for row in rows]
