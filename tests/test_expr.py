import copy
import gc
import math
import pickle

import pytest
from hypothesis import given, strategies as st
from oracle import spelled, structure, walk

from vnhc import expr as ex, linalg
from vnhc.expr import (
    Binary,
    Constant,
    EvalError,
    ParseError,
    Symbol,
    Unary,
    diff,
    evaluate,
    free_symbols,
    parse,
    to_string,
)

# Expressions exercised throughout the suite; envs keep log/sqrt in domain.
CORPUS = [
    ("sin(theta)^2*C1 - sin(theta)*cos(theta)*C2", {"theta": 0.7, "C1": 1.3, "C2": -0.4}),
    ("cos(theta)*C2 - sin(theta)*C1", {"theta": -0.3, "C1": 0.9, "C2": 2.0}),
    ("sqrt(1 + x^2)", {"x": 1.5}),
    ("exp(-x^2/2)", {"x": 0.8}),
    ("log(2 + cos(y))", {"y": 2.1}),
    ("tan(x/3)", {"x": 1.2}),
    ("x*y*z + x/y - z^3", {"x": 0.4, "y": 1.7, "z": -0.6}),
    ("(x + y)^3", {"x": 0.2, "y": 1.1}),
    ("2^x", {"x": 1.9}),
    ("x^y", {"x": 2.5, "y": 1.3}),
    ("m*(xd^2 + yd^2)/2", {"m": 2.0, "xd": 0.7, "yd": -1.1}),
]


def fd(e, s, env, h=1e-6):
    hi = dict(env, **{s: env[s] + h})
    lo = dict(env, **{s: env[s] - h})
    return (walk(e, hi) - walk(e, lo)) / (2 * h)


class TestParse:
    def test_structure(self):
        assert parse("sin(theta)*xd") == Binary(
            "mul", Unary("sin", Symbol("theta")), Symbol("xd")
        )

    def test_pow_right_assoc(self):
        assert evaluate(parse("2^3^2"), {}) == 512

    def test_unary_minus_binds_looser_than_pow(self):
        assert evaluate(parse("-x^2"), {"x": 3}) == -9

    def test_precedence(self):
        assert evaluate(parse("1 + 2*3^2"), {}) == 19
        assert evaluate(parse("(1 + 2)*3"), {}) == 9
        assert evaluate(parse("8/4/2"), {}) == 1  # left assoc

    def test_numbers(self):
        assert parse("2.5e-3") == Constant(0.0025)
        assert parse(".5") == Constant(0.5)

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse("x + * y")
        assert err.value.offset == 4

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("sinh(x)")

    def test_unclosed_paren(self):
        with pytest.raises(ParseError):
            parse("(x + y")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("x y")


    def test_non_finite_literal(self):
        with pytest.raises(ParseError, match="'1e999' is out of range") as err:
            parse("x + 1e999")
        assert err.value.offset == 4


S = Symbol
PARSE_TREES = [
    ("1.", Constant(1.0)),
    (".5e1", Constant(5.0)),
    ("2e3", Constant(2000.0)),
    ("x²", S("x²")),
    ("θ + _a1", Binary("add", S("θ"), S("_a1"))),
    ("\u00a0x\t", S("x")),
    ("sin (x)", Unary("sin", S("x"))),
    ("-x^2", Unary("neg", Binary("pow", S("x"), Constant(2.0)))),
    ("2^-x", Binary("pow", Constant(2.0), Unary("neg", S("x")))),
    ("2^3^2", Constant(512.0)),
    ("(-2)^x", Binary("pow", Constant(-2.0), S("x"))),
    ("a - b - c", Binary("sub", Binary("sub", S("a"), S("b")), S("c"))),
    ("a/b*c", Binary("mul", Binary("div", S("a"), S("b")), S("c"))),
]

PARSE_ERRORS = [  # text, message, byte offset
    ("2e", "unexpected 'e'", 1),
    ("2e+x", "unexpected 'e'", 1),
    (".", "malformed number '.'", 0),
    (".e5", "malformed number '.e5'", 0),
    ("1.5.2", "unexpected '.'", 3),
    ("x y", "unexpected 'y'", 2),
    ("(x", "expected ')'", 2),
    ("sin(", "unexpected end of input", 4),
    ("sqrt(-1", "expected ')'", 7),
    ("sinh(x)", "unknown function 'sinh'", 0),
    ("x(1)", "unknown function 'x'", 0),
    ("x + 1e999", "number '1e999' is out of range", 4),
    ("θ + * y", "unexpected '*'", 5),
    ("١", "unexpected '١'", 0),
    ("x @ y", "unexpected '@'", 2),
    ("", "unexpected end of input", 0),
    ("x + ", "unexpected end of input", 4),
    (")", "unexpected ')'", 0),
]


class TestParseTable:
    """Pins the parser's rules: a tree for each accepted text, and the
    message and byte offset of each rejected one."""

    @pytest.mark.parametrize("text, tree", PARSE_TREES)
    def test_tree(self, text, tree):
        assert parse(text) == tree

    @pytest.mark.parametrize("text, message, offset", PARSE_ERRORS)
    def test_error(self, text, message, offset):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"{message} (byte offset {offset})"
        assert err.value.offset == offset

    def test_folding_error_is_not_a_parse_error(self):
        with pytest.raises(EvalError, match=r"^overflow in exp\(1000\)$"):
            parse("exp(1000)")

    def test_booleans_are_not_expressions(self):
        for value in (True, False):
            with pytest.raises(TypeError, match=f"cannot interpret {value} as an expression"):
                ex.as_expr(value)
        assert ex.as_expr(2) == Constant(2.0)


class TestEval:
    def test_sin(self):
        assert evaluate(parse("sin(theta)"), {"theta": 0}) == 0

    def test_product(self):
        assert evaluate(parse("m*xd"), {"m": 2, "xd": 3}) == 6

    def test_current_term(self):
        v = evaluate(
            parse("cos(theta)*C2 - sin(theta)*C1"),
            {"theta": math.pi / 2, "C1": 1, "C2": 5},
        )
        assert v == pytest.approx(-1, abs=1e-15)

    def test_unbound_symbol(self):
        with pytest.raises(EvalError, match="unbound symbol 'x'"):
            evaluate(parse("x + 1"), {"y": 1})

    def test_division_by_zero_names_subexpression(self):
        with pytest.raises(EvalError, match=r"1 / x"):
            evaluate(parse("1/x"), {"x": 0})

    def test_log_domain(self):
        with pytest.raises(EvalError, match="domain"):
            evaluate(parse("log(x)"), {"x": -1})

    def test_exp_overflow(self):
        with pytest.raises(EvalError, match=r"overflow in exp\(x\)"):
            evaluate(parse("exp(x)"), {"x": 1000})
        with pytest.raises(EvalError, match=r"overflow in exp\(1000\)"):
            parse("exp(1000)")

    def test_deterministic(self):
        e = parse("sin(x)*exp(y) - x^3/7")
        env = {"x": 0.123456, "y": -0.654321}
        assert evaluate(e, env) == evaluate(e, env)


class TestDiff:
    def test_sin(self):
        assert diff(parse("sin(theta)"), "theta") == parse("cos(theta)")

    def test_product(self):
        d = diff(parse("x*y"), "x")
        for y in (0.0, -2.5, 7.0):
            assert walk(d, {"x": 3.0, "y": y}) == y

    def test_symbol_free_derivative_is_zero(self):
        assert diff(parse("sin(a)*b"), "x") == Constant(0.0)

    def test_no_new_symbols(self):
        for text, _ in CORPUS:
            e = parse(text)
            for s in free_symbols(e):
                assert free_symbols(diff(e, s)) <= free_symbols(e)

    def test_finite_difference_corpus(self, rng):
        for text, env in CORPUS:
            e = parse(text)
            for s in sorted(free_symbols(e)):
                d = diff(e, s)
                for _ in range(100):
                    pt = {
                        k: v + rng.uniform(-0.1, 0.1) for k, v in env.items()
                    }
                    sym = walk(d, pt)
                    num = fd(e, s, pt)
                    assert abs(sym - num) <= 1e-6 * (1 + abs(sym)), (text, s)

    def test_spec_example_fd(self, rng):
        e = parse("sin(theta)^2*C1 - sin(theta)*cos(theta)*C2")
        d = diff(e, "theta")
        for _ in range(100):
            env = {
                "theta": rng.uniform(-3, 3),
                "C1": rng.uniform(-2, 2),
                "C2": rng.uniform(-2, 2),
            }
            assert abs(walk(d, env) - fd(e, "theta", env)) <= 1e-6 * (
                1 + abs(walk(d, env))
            )

    def test_linearity_exact(self):
        a = parse("sin(x)*y")
        b = parse("x^3 - y/x")
        da, db = diff(a, "x"), diff(b, "x")
        dsum = diff(a + b, "x")
        for env in ({"x": 1.5, "y": 0.3}, {"x": -2.0, "y": 4.0}):
            assert walk(dsum, env) == walk(da, env) + walk(db, env)


class TestPrinter:
    @pytest.mark.parametrize("text", [t for t, _ in CORPUS])
    def test_round_trip_corpus(self, text):
        e = parse(text)
        assert parse(to_string(e)) == e

    def test_round_trip_derivatives(self):
        for text, _ in CORPUS:
            e = parse(text)
            for s in sorted(free_symbols(e)):
                d = diff(e, s)
                assert parse(to_string(d)) == d

    def test_negative_constant(self):
        e = Constant(-1.5)
        assert parse(to_string(e)) == e

    def test_negative_base_keeps_its_parentheses(self):
        e = parse("(-2)^x")
        assert to_string(e) == "(-2)^x"
        assert evaluate(parse(to_string(e)), {"x": 2.0}) == 4.0

    def test_negative_zero_keeps_its_sign(self):
        e = parse("(-0)^x")
        assert to_string(e) == "(-0)^x" and parse(to_string(e)) is e
        assert math.copysign(1.0, evaluate(e, {"x": 3.0})) == -1.0
        assert to_string(ex.div(Symbol("x"), Constant(-0.0))) == "x / -0"
        assert to_string(Constant(-0.0)) == "-0" and parse("-0") is Constant(-0.0)

    def test_nested_structure_preserved(self):
        for text in ["a - (b + c)", "a/(b*c)", "(a + b)*c", "(x^y)^z", "-(a*b)"]:
            e = parse(text)
            assert parse(to_string(e)) == e


class TestCompile:
    def test_corpus_bit_equal_to_evaluate(self):
        # Each expression together with its derivatives in one kernel, so
        # subexpressions shared between outputs take the CSE path.
        for text, env in CORPUS:
            e = parse(text)
            exprs = [e] + [diff(e, s) for s in sorted(free_symbols(e))]
            names = sorted(env)
            kernel = ex.compile_exprs(exprs, names)
            expected = tuple(walk(x, env) for x in exprs)
            assert kernel(*[env[k] for k in names]) == expected, text

    def test_repeated_subexpression_computed_once(self, monkeypatch):
        calls = []
        real_sin = math.sin

        def counting_sin(v):
            calls.append(v)
            return real_sin(v)

        kernel = ex.compile_exprs(
            [parse("sin(x)*sin(x) + sin(x)"), parse("cos(sin(x)) - 2*sin(x)")], ["x"]
        )
        monkeypatch.setattr(math, "sin", counting_sin)
        out = kernel(0.4)
        monkeypatch.undo()
        s = math.sin(0.4)
        assert out == (s * s + s, math.cos(s) - 2.0 * s)
        assert calls == [0.4]

    def test_nesting_parameters_and_unbound_symbols(self):
        kernel = ex.compile_exprs([parse("m*x + m")], ["x"], {"m": 2.0})
        assert kernel(3.0) == (8.0,)
        nested = ex.compile_exprs([[parse("x"), parse("m*x")], [], parse("-x")], ["x"], {"m": 2.0})
        assert nested(3.0) == ((3.0, 6.0), (), -3.0)
        with pytest.raises(EvalError, match="unbound symbol 'k'"):
            ex.compile_exprs([parse("k*x")], ["x"])

    def test_non_finite_constants_rejected(self):
        inf = parse("1e200*1e200")  # folds to an infinite constant
        with pytest.raises(EvalError, match=r"constant is not finite \(inf\)"):
            ex.compile_exprs([inf * parse("x")], ["x"])
        with pytest.raises(EvalError, match=r"parameter 'm' is not finite \(nan\)"):
            ex.compile_exprs([parse("m*x")], ["x"], {"m": math.nan})

    @pytest.mark.parametrize("text, x, message", [
        ("1/x", 0.0, "division by zero in 1 / x"),
        ("log(x)", -1.0, r"domain error in log\(x\)"),
        ("x^2", 1e200, r"overflow in x\^2"),
        ("exp(x)", 1e3, r"overflow in exp\(x\)"),
    ])
    def test_runtime_errors_match_evaluate(self, text, x, message):
        kernel = ex.compile_exprs([[parse("x + 1")], parse(text)], ["x"])
        with pytest.raises(EvalError, match=message):
            kernel(x)
        with pytest.raises(EvalError, match=message):
            walk(parse(text), {"x": x})

    @pytest.mark.parametrize("texts", [
        ["log(x) + 1/y", "1/y"],  # the shared 1/y is bound to a local first
        ["log(x) + 1/y + 1/y"],  # and the operands of the outer + swap
    ])
    def test_errors_named_in_walk_order(self, texts):
        # The kernel computes 1/y before log(x); the error names what a
        # walk of the outputs, left to right and children first, meets
        # first, as the tree walker does.
        kernel = ex.compile_exprs([parse(t) for t in texts], ["x", "y"])
        with pytest.raises(EvalError, match=r"^domain error in log\(x\)$"):
            kernel(0.0, 0.0)
        with pytest.raises(EvalError, match="^division by zero in 1 / y$"):
            kernel(1.0, 0.0)

    def test_second_math_error_builds_nothing(self, monkeypatch):
        # The first math error builds the traced source once; a second
        # emits and compiles nothing.
        emits, defined = [], []
        real_emit, real_define = ex._emit, linalg._define
        monkeypatch.setattr(ex, "_emit", lambda *a, **k: emits.append(k) or real_emit(*a, **k))
        monkeypatch.setattr(linalg, "_define", lambda s: defined.append(s) or real_define(s))
        kernel = ex.compile_exprs([parse("x + 1"), parse("sqrt(x)/y")], ["x", "y"])
        with pytest.raises(EvalError, match=r"^domain error in sqrt\(x\)$"):
            kernel(-1.0, 1.0)
        assert (emits, len(defined)) == ([{}, {"every": True}], 2)
        with pytest.raises(EvalError, match=r"^division by zero in sqrt\(x\) / y$"):
            kernel(1.0, 0.0)
        assert kernel(4.0, 2.0) == (5.0, 1.0)
        assert (len(emits), len(defined)) == (2, 2)


_leaf = st.one_of(
    st.sampled_from([Symbol("x"), Symbol("y"), Symbol("z")]),
    st.floats(-5, 5, allow_nan=False).map(lambda v: Constant(float(v))),
)


def _combine(children):
    return st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul"]), children, children).map(
            lambda t: {"add": ex.add, "sub": ex.sub, "mul": ex.mul}[t[0]](t[1], t[2])
        ),
        st.tuples(st.sampled_from(["sin", "cos"]), children).map(
            lambda t: ex.fn(t[0], t[1])
        ),
        children.map(ex.neg),
    )


_exprs = st.recursive(_leaf, _combine, max_leaves=12)


def _folded(build, *children):
    """build(*children), or None where folding raises or gives a non-finite
    constant, which no text spells."""
    if None in children:
        return None
    try:
        e = build(*children)
    except EvalError:
        return None
    return None if isinstance(e, Constant) and not math.isfinite(e.value) else e


_BUILD = {"add": ex.add, "sub": ex.sub, "mul": ex.mul, "div": ex.div, "pow": ex.pow_}


def _combine_all(children):
    return st.one_of(
        st.tuples(st.sampled_from(sorted(_BUILD)), children, children).map(
            lambda t: _folded(_BUILD[t[0]], t[1], t[2])
        ),
        st.tuples(st.sampled_from(ex.FUNCTIONS), children).map(
            lambda t: _folded(lambda c: ex.fn(t[0], c), t[1])
        ),
        children.map(lambda c: _folded(ex.neg, c)),
    )


_all_exprs = st.recursive(
    st.one_of(_leaf, st.floats(-1e3, -1e-3).map(lambda v: Constant(float(v)))),
    _combine_all, max_leaves=12,
).filter(lambda e: e is not None)


def assert_same_outcome(got, want):
    """got() returns what want() returns, bit for bit, or both raise an
    EvalError with the same message; got never raises a raw math error."""
    try:
        expected = want()
    except EvalError as err:
        with pytest.raises(EvalError) as raised:
            got()
        assert str(raised.value) == str(err)
    else:
        assert repr(got()) == repr(expected)


# Coordinates that hit a zero divisor, a negative log or sqrt argument,
# or an exp overflow, and ordinary ones.
_points = st.tuples(*[st.sampled_from([0.0, -0.0, -1.0, 1e3, -1e3, 0.5, 2.0])] * 3)


@given(st.lists(_all_exprs, min_size=1, max_size=3), st.integers(0, 2),
       st.sampled_from(["div", "log", "sqrt", "exp"]), st.sampled_from("xyz"), _points)
def test_kernel_errors_match_walker(exprs, at, trap, s, point):
    # A trap over one coordinate, around one of the outputs, so that it
    # shares its subexpressions, goes in among them.
    e, s = exprs[at % len(exprs)], Symbol(s)
    exprs.insert(at, ex.div(e, s) if trap == "div" else ex.mul(e, ex.fn(trap, s)))
    kernel = ex.compile_exprs(exprs, ["x", "y", "z"])
    env = dict(zip("xyz", point))
    assert_same_outcome(lambda: kernel(*point), lambda: tuple(walk(x, env) for x in exprs))


@pytest.mark.parametrize("text, env", CORPUS + [
    ("1/x", {"x": 0.0}), ("log(x)", {"x": -1.0}), ("x^2", {"x": 1e200}),
    ("exp(x)", {"x": 1e3}), ("sqrt(x) + 1/(x + 1)", {"x": -1.0}),
])
def test_public_evaluate_matches_walker(text, env):
    for e in [parse(text)] + [diff(parse(text), s) for s in sorted(env)]:
        assert_same_outcome(lambda: evaluate(e, env), lambda: walk(e, env))
    with pytest.raises(EvalError, match="^unbound symbol 'w'$"):
        evaluate(parse(text) + Symbol("w"), env)


@given(_all_exprs)
def test_print_parse_round_trip_random(e):
    assert parse(to_string(e)) == e


@given(_exprs, _exprs)
def test_diff_linearity_random(a, b):
    env = {"x": 0.37, "y": -1.21, "z": 2.05}
    lhs = walk(diff(ex.add(a, b), "x"), env)
    rhs = walk(diff(a, "x"), env) + walk(diff(b, "x"), env)
    assert lhs == pytest.approx(rhs, abs=1e-9, rel=1e-9)


@given(_exprs)
def test_random_diff_matches_fd(e):
    env = {"x": 0.41, "y": -0.73, "z": 1.17}
    d = diff(e, "x")
    sym = walk(d, env)
    if abs(sym) < 1e6:  # keep FD meaningful away from blow-up
        assert abs(sym - fd(e, "x", env)) <= 1e-5 * (1 + abs(sym))


# -- interning ---------------------------------------------------------------

def rebuilt(e):
    """e built again node by node through the classes, as a fresh walk of
    its structure would."""
    if isinstance(e, Unary):
        return Unary(e.op, rebuilt(e.child))
    if isinstance(e, Binary):
        return Binary(e.op, rebuilt(e.left), rebuilt(e.right))
    return Constant(e.value) if isinstance(e, Constant) else Symbol(e.name)


def flipped(e):
    """e with the sign of every zero constant flipped."""
    if isinstance(e, Unary):
        return Unary(e.op, flipped(e.child))
    if isinstance(e, Binary):
        return Binary(e.op, flipped(e.left), flipped(e.right))
    if isinstance(e, Constant) and e.value == 0.0:
        return Constant(-e.value)
    return e


def zeros(e) -> list:
    """The signs of e's zero constants."""
    if isinstance(e, Unary):
        return zeros(e.child)
    if isinstance(e, Binary):
        return zeros(e.left) + zeros(e.right)
    return [math.copysign(1.0, e.value)] if isinstance(e, Constant) and e.value == 0.0 else []


@given(_all_exprs)
def test_one_structure_is_one_object(e):
    assert rebuilt(e) is e
    assert ex.add(e, Symbol("x")) is ex.add(rebuilt(e), Symbol("x"))


@given(_all_exprs)
def test_reparse_gives_the_same_object(e):
    # -0.0 is spelled -0, so a tree with a negative zero reloads as itself.
    assert parse(to_string(e)) is e


def test_copies_are_the_same_object():
    # copy, deepcopy and unpickling build each node again through the
    # table (`Expr.__reduce__`), so a tree with shared subtrees, x*y among
    # them, comes back as itself.
    e = parse("sin(x*y) * (x*y + 1) + (x*y + 1)^2 * (-0 - x*y)")
    assert e.left.right is e.right.left.left
    assert copy.copy(e) is e
    assert copy.deepcopy(e) is e
    assert pickle.loads(pickle.dumps(e)) is e


_X = Symbol("x")


@pytest.mark.parametrize("built, expected", [
    (lambda: 1 + _X, lambda: parse("1 + x")),
    (lambda: 1 - _X, lambda: parse("1 - x")),
    (lambda: 2 * _X, lambda: parse("2 * x")),
    (lambda: 1 / _X, lambda: parse("1 / x")),
    (lambda: _X ** 2, lambda: parse("x^2")),
    (lambda: str(_X ** 2), lambda: "x^2"),
    (lambda: ex.div(_X, ex.ONE), lambda: _X),
    (lambda: ex.pow_(_X, ex.ZERO), lambda: ex.ONE),
], ids=["radd", "rsub", "rmul", "rtruediv", "pow", "str", "div-by-one", "pow-zero"])
def test_operators_build_what_parse_builds(built, expected):
    # Nodes are interned, so an operator, or a fold, that builds the same
    # structure as the parser gives the same object.
    got, want = built(), expected()
    assert got is want if isinstance(want, ex.Expr) else got == want


@given(_all_exprs, _all_exprs)
def test_eq_and_repr_are_structural(a, b):
    for x, y in ((a, b), (a, flipped(a)), (a, rebuilt(a))):
        assert (x == y) == (structure(x) == structure(y))
        assert (x != y) == (structure(x) != structure(y))
        assert (hash(x) == hash(y)) or x != y
        assert repr(x) == spelled(x)
    if zeros(a):
        assert flipped(a) == a and flipped(a) is not a


def test_signed_zeros_are_two_equal_nodes():
    zero, minus = Constant(0.0), Constant(-0.0)
    assert zero is ex.ZERO and minus is not zero and minus == zero and hash(minus) == hash(zero)
    x = Symbol("x")
    assert Binary("mul", x, minus) == Binary("mul", x, zero)
    # each is its own literal in a kernel, and in evaluate
    for c, sign in ((zero, 1.0), (minus, -1.0), (zero, 1.0)):
        e = Binary("mul", x, c)
        assert math.copysign(1.0, ex.compile_exprs([e], ["x"])(1.0)[0]) == sign
        assert math.copysign(1.0, evaluate(e, {"x": 1.0})) == sign


def test_table_forgets_unused_nodes():
    gc.collect()
    before = len(ex._NODES)
    x = Symbol("interning_probe")
    e = ex.fn("exp", x * x + 2.5) / (x - Constant(-0.0))
    d = diff(e, "interning_probe")  # memoized on the nodes of e
    assert len(ex._NODES) > before
    del x, e, d
    gc.collect()
    assert len(ex._NODES) == before


def test_negative_zero_keeps_the_metric_symmetric():
    from vnhc.model_io import load_model_dict

    model, _ = load_model_dict({
        "coordinates": ["x", "y"], "metric": [["1", "-0"], ["0", "1"]],
        "inputs": [["1", "0"]], "constraint": {"mu": [["1", "0"]], "Z": ["0"]}})
    assert model.metric[0][1] is not model.metric[1][0]
    assert model.metric[0][1] == model.metric[1][0]
