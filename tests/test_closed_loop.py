"""The generated closed-loop statements against the other paths.

`control._step` builds one generated kernel per (model, constraint) pair,
the RK4 step kernel, and its stage 1 alone is the only code that computes
a closed-loop result for the views.  Where one of its gates fails or a
math error is raised, it returns the stage's state and the math error,
and `control._raise_failure` raises the typed error from the pair's q-only
kernel (through `_p_system`, as `p_matrix` uses it), then, where that
record is admissible, from the step kernel's own line that raised: each
kernel names its own error, and no other kernel runs.  Stage 1's results equal an assembly of the other
paths' pieces, but in the sign of an exact zero, and every failure raises
the error and message of the q-only path.  Both pair kernels, folded as
their statements are written, are bit-identical to their unfolded
statements folded after the fact by `oracle.fold`, on drawn models.  Both
kernels, whose sums drop their zero terms, fail where the statements that
keep them fail, on drawn models, states that are not finite and forces
that overflow.
"""

import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st
from oracle import fold
from test_control import build_gen4, build_gen5

import vnhc
from vnhc import (
    FIXTURE_CURRENTS,
    AffineConstraint,
    MechanicalModel,
    State,
    b_vector,
    build_boat,
    closed_loop_acceleration,
    integrate,
    rk4_step,
    solve_control,
    tau_star,
)
from vnhc import constraint, control, linalg
from vnhc import expr as ex


SYSTEMS = {name: (lambda c=c: build_boat(*c)) for name, c in FIXTURE_CURRENTS.items()}
SYSTEMS.update(gen4=build_gen4, gen5=build_gen5)


def signed_zeros(rng, x: tuple) -> tuple:
    """x with a random choice of its entries, at least one, replaced by -0.0."""
    first = rng.randrange(len(x))
    return tuple(-0.0 if i == first or rng.random() < 0.5 else v for i, v in enumerate(x))


@pytest.mark.parametrize("name", SYSTEMS)
def test_kernel_equals_assembly(name):
    # Stage 1 of the step kernel against an assembly made here from the
    # other paths: P, its LU and cond from the q-only kernel at q, b from
    # b_vector, tau by lu_solve, and acc = drift + tau_a Y^a from
    # drift_acceleration and input_fields_at.  A quarter of the states have
    # -0.0 entries in q and in qdot.  The results are equal, 0.0 and -0.0
    # alike: the kernel's sums drop their zero terms, the per-size routines'
    # solves keep them, and x - 0.0 * y turns -0.0 into 0.0.
    model, con = SYSTEMS[name]()
    kernel = control._step(model, con)
    rng = random.Random(name)
    bound = 1.0 if name == "gen5" else 2.0
    for k in range(200):
        q = tuple(rng.uniform(-bound, bound) for _ in range(model.n))
        qd = tuple(rng.uniform(-bound, bound) for _ in range(model.n))
        if k % 4 == 0:
            q, qd = signed_zeros(rng, q), signed_zeros(rng, qd)
        fused = kernel(q, qd, None, None, False)
        assert fused[0] is not None, (name, q, qd)  # admissible: stage 1 holds
        s = State(q=q, qdot=qd)
        ps = control._p_system(model, con, q)
        b = b_vector(model, con, s)
        tau = linalg.lu_solve(*linalg.lu_factor(ps.P), b)
        acc = model.drift_acceleration(s)
        for t, ya in zip(tau, model.input_fields_at(q)):
            if t != 0.0:
                acc = [a + t * y for a, y in zip(acc, ya)]
        slow = (acc, tau, b, ps.P, ps.cond)
        assert fused == slow, (name, q, qd)


def oracle_step(model, con, q, v, h):
    """One RK4 step written here, with closed_loop_acceleration at each
    stage, each operation spelled and ordered as the step kernel's."""
    def acc(x, qd):
        return closed_loop_acceleration(model, con, State(q=tuple(x), qdot=tuple(qd)))

    h2, h6 = 0.5 * h, h / 6.0
    a1 = acc(q, v)
    k2q = [vi + h2 * ai for vi, ai in zip(v, a1)]
    a2 = acc([xi + h2 * vi for xi, vi in zip(q, v)], k2q)
    k3q = [vi + h2 * ai for vi, ai in zip(v, a2)]
    a3 = acc([xi + h2 * ki for xi, ki in zip(q, k2q)], k3q)
    k4q = [vi + h * ai for vi, ai in zip(v, a3)]
    a4 = acc([xi + h * ki for xi, ki in zip(q, k3q)], k4q)
    r = range(len(q))
    return State(q=tuple(q[i] + h6 * (v[i] + 2.0 * k2q[i] + 2.0 * k3q[i] + k4q[i]) for i in r),
                 qdot=tuple(v[i] + h6 * (a1[i] + 2.0 * a2[i] + 2.0 * a3[i] + a4[i]) for i in r))


@pytest.mark.parametrize("name", SYSTEMS)
def test_rk4_against_an_oracle(name):
    # rk4_step and a short integrate against oracle_step, bit for bit, from
    # states with -0.0 entries among others; the step kernel holds the
    # closed-loop statements once, run for each stage in a loop.
    model, con = SYSTEMS[name]()
    assert control._step_source(model, con)[0].count("try:") == 1
    rng = random.Random(name)
    bound = 1.0 if name == "gen5" else 2.0
    for k in range(12):
        q = tuple(rng.uniform(-bound, bound) for _ in range(model.n))
        qd = tuple(rng.uniform(-bound, bound) for _ in range(model.n))
        if k % 2 == 0:
            q, qd = signed_zeros(rng, q), signed_zeros(rng, qd)
        h = rng.choice([1e-3, 0.01, 0.05])
        s = State(q=q, qdot=qd)
        assert repr(rk4_step(model, con, s, h)) == repr(oracle_step(model, con, q, qd, h))
        states = [s]
        for _ in range(4):
            states.append(oracle_step(model, con, states[-1].q, states[-1].qdot, h))
        traj = integrate(model, con, s, t_end=4 * h, h=h, sample_every=2)
        assert repr(traj.states) == repr(tuple(states[::2]))
        assert repr(traj.controls) == repr(tuple(tuple(tau_star(model, con, x))
                                                  for x in states[::2]))


def test_built_once_per_model():
    model, con = build_boat("sin(y)", "cos(x)")
    assert con._pairs == {}  # nothing compiled at construction
    kernel = control._step(model, con)
    tau_star(model, con, State(q=(0.1, 0.2, 0.3), qdot=(0.4, 0.5, 0.6)))
    assert control._step(model, con) is kernel
    other, _ = build_boat("sin(y)", "cos(x)")
    assert {model: kernel, other: control._step(other, con)} == {
        m: pair.step for m, pair in con._pairs.items()}


def test_one_kernel_per_model_on_a_shared_constraint(monkeypatch):
    # Two models on one constraint, called in turn: one build each.
    (m1, con), (m2, _) = build_boat("sin(y)", "cos(x)"), build_boat("sin(y)", "cos(x)")
    built = []
    step_source = control._step_source

    def counting(model, c):
        built.append(model)
        return step_source(model, c)

    monkeypatch.setattr(control, "_step_source", counting)
    s = State(q=(0.1, 0.2, 0.3), qdot=(0.4, 0.5, 0.6))
    taus = [tau_star(model, con, s) for model in (m1, m2) * 5]
    assert built == [m1, m2]
    assert taus == [taus[0]] * 10


def test_too_deep_to_compile_lazily(monkeypatch):
    # A tree that loaded can be a few stack frames short of the limit when a
    # kernel is first compiled: the pair's kernel and the force's kernel are
    # then typed errors, never a traceback.
    model, con = build_boat("sin(y)", "cos(x)")
    s = State(q=(0.1, 0.2, 0.3), qdot=(0.4, 0.5, 0.6))

    def too_deep(*args):
        raise RecursionError

    monkeypatch.setattr(control, "_step_source", too_deep)
    for view in (solve_control, tau_star, closed_loop_acceleration,
                 lambda m, c, s: rk4_step(m, c, s, 1e-3),
                 lambda m, c, s: integrate(m, c, s, t_end=1e-2, h=1e-3)):
        with pytest.raises(vnhc.EvalError,
                           match="^closed-loop kernel is nested too deeply to compile$"):
            view(model, con, s)
    model._kernel  # compiled first, by drift_acceleration's first line
    monkeypatch.setattr(ex, "compile_exprs", too_deep)  # what `geometry._compiled` calls
    with pytest.raises(vnhc.EvalError, match="^external force is nested too deeply to compile$"):
        model.drift_acceleration(s)


# Each kernel: the view that first calls it, the kernels that view calls
# before it, and the name of its error.
FIRST_VIEWS = {
    "model": (lambda m, c, s: m.metric_at(s.q), (), "model kernel"),
    "constraint": (lambda m, c, s: c.phi(s), (), "constraint kernel"),
    "force": (lambda m, c, s: m.drift_acceleration(s), ("_kernel",), "external force"),
    "Christoffel": (lambda m, c, s: m.christoffel_at(s.q), ("_kernel",), "Christoffel kernel"),
    "q-only": (lambda m, c, s: constraint.transversality_check(c, m, s.q), (), "q-only kernel"),
    "step": (tau_star, (), "closed-loop kernel"),
}


@pytest.mark.parametrize("kernel", FIRST_VIEWS)
def test_every_kernel_too_deep_to_compile(kernel, monkeypatch):
    # Every kernel is compiled on first use by one helper: an emitter that
    # runs out of stack there is a typed error at the kernel's first view,
    # never a bare RecursionError.
    view, before, what = FIRST_VIEWS[kernel]
    model, con = build_boat("sin(y)", "cos(x)")
    s = State(q=(0.1, 0.2, 0.3), qdot=(0.4, 0.5, 0.6))
    for name in before:
        getattr(model, name)

    def too_deep(*args, **kwargs):
        raise RecursionError

    monkeypatch.setattr(ex, "_emit", too_deep)  # every kernel's source is emitted here
    with pytest.raises(vnhc.EvalError, match=f"^{what} is nested too deeply to compile$"):
        view(model, con, s)


def test_parameters_fold_before_compiling():
    # The boat's force is m * (...), with m = 1: no multiply by 1.0 is left.
    model, con = build_boat("sin(y)", "cos(x)")
    assert "m" in ex.free_symbols(model.external_force[0])  # the source stays symbolic
    lines, roots, _ = ex._emit(model._force, model.coordinates + model.velocities)
    source = "\n".join([*lines, linalg._list(roots)])
    assert "1.0 *" not in source and "* 1.0" not in source
    assert "1.0 *" not in control._step_source(model, con)[0]
    assert model._exprs[0] == [[ex.ONE, ex.ZERO, ex.ZERO], [ex.ZERO, ex.ONE, ex.ZERO],
                               [ex.ZERO, ex.ZERO, ex.ONE]]


@pytest.mark.parametrize("name", SYSTEMS)
def test_a_constant_metric_block_folds(name):
    # Every boat's metric is constant: its Cholesky factor, SPD and
    # condition gates and its divisions leave the pair's two kernels, which
    # keep gen5's.
    model, con = SYSTEMS[name]()
    for source in (control._step_source(model, con)[0], constraint._q_only_source(model, con)[0]):
        assert (("sqrt(" in source) and ("ratio" in source)) == (name in ("gen4", "gen5"))


def test_parameter_fold_errors_stay_at_evaluation():
    # sqrt(k) with k < 0 and k * k overflowing are not folded: they fail,
    # or overflow, where they are evaluated, as with the symbol; the error
    # names the subexpression with the parameter's value.
    model = MechanicalModel(("x", "y"), [["1", "0"], ["0", "1"]], potential="x*sqrt(k)",
                            input_coframe=[["1", "0"]], parameters={"k": -1e200})
    with pytest.raises(vnhc.EvalError, match=r"^domain error in sqrt\(-1e\+200\)$"):
        model.grad_potential((0.0, 0.0))
    assert ex.substitute(ex.parse("k*k"), {"k": -1e200}) == ex.Binary(
        "mul", ex.Constant(-1e200), ex.Constant(-1e200))


def test_a_shared_subtree_is_walked_once():
    # e = x^(2^40) as 40 squarings: a node per level, 2^40 paths.  The
    # fold and the symbol and constant checks visit each node once.
    e = ex.Symbol("x")
    for _ in range(40):
        e = e * e
    assert ex.free_symbols(e) == {"x"}
    model = MechanicalModel(("x", "y"), [["1", "0"], ["0", "1"]], potential=e * "k",
                            input_coframe=[["1", "0"]], parameters={"k": 0.0})
    assert list(model.grad_potential((0.5, 0.0))) == [0.0, 0.0]


def plane(metric=("1", "1"), force=("0", "0"), inputs=("1", "0"), mu=("1", "0")):
    model = MechanicalModel(("x", "y"), [[metric[0], "0"], ["0", metric[1]]],
                            external_force=list(force), input_coframe=[list(inputs)])
    return model, AffineConstraint(("x", "y"), [list(mu)], Z=["0"])


def unit_boat(force):
    coords = ("x", "y", "theta")
    return (MechanicalModel(coords, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                            external_force=list(force),
                            input_coframe=[["sin(theta)", "-cos(theta)", "1"]]),
            AffineConstraint(coords, [["sin(theta)", "-cos(theta)", "0"]], Z=["0"]))


def p_condition_cap():
    model = MechanicalModel(("x", "y", "z"), [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                            input_coframe=[[1, 0, 0], [0, 1, 0]])
    return model, AffineConstraint(("x", "y", "z"), [[1, 1e5, 0], [0, 1e-5, 0]], Z=[0, 0])


# name -> (system, q, qdot, the error every closed-loop view raises there,
# and whether stage 1 of the step kernel fails there: True where a gate
# fails, the math error's type where one is raised, False where it returns
# a non-finite result; the messages are those of the assembly that computed
# every result before the generated kernels existed)
FALLBACKS = {
    "non_spd_metric": (lambda: plane(metric=("1", "x")), (-1.0, 0.0), (0.5, 0.0),
                       "SPDError: metric not positive definite at q=(-1.0, 0.0); "
                       "eigenvalues [-1.0, 1.0]", True),
    "metric_condition_cap": (lambda: plane(metric=("1", "1e-13")), (0.0, 0.0), (0.5, 0.0),
                             "SPDError: metric condition estimate 1.000e+13 exceeds 1e+12 "
                             "at q=(0.0, 0.0)", True),
    "singular_p": (lambda: plane(inputs=("0", "1")), (0.0, 0.0), (0.5, 0.0),
                   "TransversalityError: singular P matrix at q=(0.0, 0.0)", True),
    "pivot_gate": (lambda: plane(inputs=("1e-13", "1")), (0.0, 0.0), (0.5, 0.0),
                   "TransversalityError: numerically singular P matrix at q=(0.0, 0.0) "
                   "(pivot 1.000e-13 vs scale 1.000e+00)", True),
    "p_condition_cap": (p_condition_cap, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                        "TransversalityError: P condition estimate 1.000e+15 exceeds 1e+12 "
                        "at q=(0.0, 0.0, 0.0)", True),
    "p_inf": (lambda: plane(mu=("1e300*x", "0")), (1e10, 0.0), (0.0, 0.0),
              "EvalError: P matrix [[inf]] is not finite at q=(10000000000.0, 0.0)", True),
    "p_nan": (lambda: plane(mu=("1e300*x", "1e300*x"), inputs=("1", "-1")), (1e10, 0.0),
              (0.0, 0.0), "EvalError: P matrix [[nan]] is not finite at q=(10000000000.0, 0.0)",
              True),
    "force_division_by_zero": (lambda: plane(force=("1/x", "0")), (0.0, 0.0), (0.5, 0.0),
                               "EvalError: division by zero in 1 / x", ZeroDivisionError),
    "b_nan": (lambda: unit_boat(("1e300*x*x", "0", "0")), (1e10, 0.0, 0.3), (0.0, 0.0, 0.0),
              "EvalError: b (-inf,) is not finite at q=(10000000000.0, 0.0, 0.3), "
              "qdot=(0.0, 0.0, 0.0)", False),
    "tau_inf": (lambda: plane(metric=("1e10", "1e10"), force=("1e300*x", "0"),
                              inputs=("1e-30", "0")), (1.0, 0.0), (0.0, 0.0),
                "EvalError: tau (-inf,) is not finite at q=(1.0, 0.0), qdot=(0.0, 0.0)", False),
    "acceleration_inf": (lambda: plane(force=("1e300*x", "0"), inputs=("1", "1e11")),
                         (1.0, 0.0), (0.0, 0.0),
                         "EvalError: acceleration (0.0, -inf) is not finite at q=(1.0, 0.0), "
                         "qdot=(0.0, 0.0)", False),
    "metric_ratio_overflow": (lambda: plane(metric=("1", "1e-309")), (0.0, 0.0), (0.5, 0.0),
                              "SPDError: metric condition estimate inf exceeds 1e+12 "
                              "at q=(0.0, 0.0)", True),
}


@pytest.mark.parametrize("name", FALLBACKS)
def test_fallback_errors(name):
    build, q, qd, expected, declines = FALLBACKS[name]
    model, con = build()
    out = control._step(model, con)(q, qd, None, None, False)
    if declines:  # stage 1 fails, and returns its state and the error it met, None at a gate
        assert out[:5] == (None, 1, q, qd, False)
        assert type(out[5]) is (type(None) if declines is True else declines)
    else:  # the kernel's own non-finite result; the views' check names it
        assert out[0] is not None
    views = [solve_control, tau_star, closed_loop_acceleration]
    if declines:  # the stepping views raise the same error at the start state
        views += [lambda m, c, s: rk4_step(m, c, s, 1e-3),
                  lambda m, c, s: integrate(m, c, s, t_end=1e-2, h=1e-3)]
    for view in views:
        with pytest.raises(Exception) as info:
            view(model, con, State(q=q, qdot=qd))
        assert f"{type(info.value).__name__}: {info.value}" == expected


LITERALS = ["0.0", "-0.0", "0.5", "1.0", "2.0"]


@st.composite
def folding_cases(draw, mode: str, forces=()):
    """A model of n = 2..4 coordinates and m = 1..n-1 inputs whose metric,
    coframe and constraint rows are each, by mode, constant, partly
    constant or q-dependent (mixed: each block its own), and three states
    with signed zeros among their entries.  The metric's diagonal is
    shifted past its rows' other entries on |q| <= 1.5, so it is SPD.
    forces: more choices of a force entry, each a format of its coordinate."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, n - 1))
    names = [f"q{i}" for i in range(n)]
    kinds = {"constant": [True], "partial": [True, False], "q": [False]}

    def block(rows: int, cols: int) -> list[list[str]]:
        kind = kinds[draw(st.sampled_from(list(kinds))) if mode == "mixed" else mode]
        x = st.sampled_from(names)
        return [[draw(st.sampled_from(LITERALS)) if draw(st.sampled_from(kind)) else
                 draw(st.sampled_from(["0.3*sin({})", "0.4*cos({})", "0.2*{}*{}", "0.5*{}"]))
                 .format(draw(x), draw(x)) for _ in range(cols)] for _ in range(rows)]

    G = block(n, n)
    for i in range(n):
        G[i][i] = f"{2.0 * n - 1.0} + {G[i][i]}"
        for j in range(i):
            G[i][j] = G[j][i]
    coframe, mu, (Z,) = block(m, n), block(m, n), block(1, m)
    constant = all(e in LITERALS for row in G + coframe + mu for e in row)
    force = [draw(st.sampled_from([*LITERALS, *([] if constant else [f"-0.1*{x}d", f"sin({x})"]),
                                   *(f.format(x) for f in forces)])) for x in names]
    potential = "0" if constant else draw(st.sampled_from(["0", "0.5*q0*q1", "cos(q1)"]))
    model = MechanicalModel(names, G, potential=potential, external_force=force,
                            input_coframe=coframe)
    entry = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.5, 1.5))
    states = [tuple(draw(entry) for _ in range(2 * n)) for _ in range(3)]
    return model, AffineConstraint(names, mu, Z), [(s[:n], s[n:]) for s in states]


class Unfolded(linalg._Block):
    """A block that folds nothing, as the per-size routines' blocks do, so
    it knows no value and its sums drop no term."""

    def __init__(self, known=None, fold=True):
        super().__init__(known, fold=False)


def unfolded_statements(model, con):
    """The pair's step and q-only statements as `Unfolded` blocks write
    them: `control._closed_loop_body`'s and `constraint._q_only_source`'s."""
    with mock.patch.object(control, "_Block", Unfolded), mock.patch.object(constraint, "_Block",
                                                                         Unfolded):
        return (control._closed_loop_body(model, con)[:3],
                constraint._q_only_source(model, con)[0].splitlines())


def unfolded_kernels(model, con):
    """The step and q-only kernels compiled from the pair's unfolded
    statements, folded by `oracle.fold` with the zero terms of their sums
    dropped, phi at a sample with them."""
    (lines, outputs, phi), (_, *q_lines, result) = unfolded_statements(model, con)
    names = [*outputs[0], *outputs[1], *outputs[2], *sum(outputs[3], []), outputs[4], *phi]
    body, out = fold(lines, names, zeros=True)
    folded = dict(zip(names, map(linalg._Src, out)))

    def relabel(x):
        return [relabel(y) for y in x] if isinstance(x, list) else folded[x]

    define = linalg._define
    step = define(control._step_text(list(body), relabel(outputs), relabel(phi)))
    body, (out,) = fold([line[4:] for line in q_lines], [result.removeprefix("    return ")],
                        zeros=True)
    return step, define("\n".join(linalg._kernel_source("q", body, out)))


def outcome(kernel, *args) -> str:
    try:
        return repr(kernel(*args))
    except Exception as err:  # noqa: BLE001 - compared by type and message
        return f"{type(err).__name__}: {err}"


@pytest.mark.parametrize("mode", ["constant", "partial", "q", "mixed"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_folded_kernels_keep_every_bit(mode, data):
    # Stage 1, a whole step and the q-only kernel, as generated, against
    # the unfolded statements folded after the fact.
    model, con, states = data.draw(folding_cases(mode))
    step, q_only = control._step(model, con), constraint._q_only(model, con)
    ref_step, ref_q_only = unfolded_kernels(model, con)
    for q, qd in states:
        stage = step(q, qd, None, None, False)
        assert outcome(step, q, qd, None, None, False) == outcome(ref_step, q, qd, None, None,
                                                                   False)
        a = stage[0] if stage[0] is not None else (0.5,) * model.n
        assert outcome(step, q, qd, a, 0.1, True) == outcome(ref_step, q, qd, a, 0.1, True)
        assert outcome(q_only, q) == outcome(ref_q_only, q)


def alike(x, y) -> bool:
    """Whether the kernel results x and y agree but in the sign of an exact
    zero and, where neither is finite, in NaN for an infinity; a math error
    a failure returns, by its type and message."""
    if isinstance(x, Exception):
        return type(x) is type(y) and x.args == y.args
    if isinstance(x, (tuple, list)):
        return type(x) is type(y) and len(x) == len(y) and all(map(alike, x, y))
    if type(x) is float and type(y) is float and not (math.isfinite(x) or math.isfinite(y)):
        return x == y or math.isnan(x) or math.isnan(y)
    return type(x) is type(y) and x == y


@st.composite
def parity_cases(draw):
    """A folding case whose force may overflow (1e300*x*x), and three states
    whose entries may be signed zeros, infinities, NaN or 1e10."""
    mode = draw(st.sampled_from(["constant", "partial", "q", "mixed"]))
    model, con, _ = draw(folding_cases(mode, forces=["1e300*{0}*{0}", "1e300*{0}d*{0}d"]))
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e10, -1e10]
    entry = st.one_of(st.sampled_from(special), st.floats(-1.5, 1.5))
    states = [tuple(draw(entry) for _ in range(2 * model.n)) for _ in range(8)]
    return model, con, [(s[:model.n], s[model.n:]) for s in states]


def zero_column_case():
    """Constant rows, S with a zero column, and a force that overflows
    there: d0 = inf, which b reads only through S's 0.0 * d0."""
    names = ["q0", "q1"]
    model = MechanicalModel(names, [["1", "0"], ["0", "1"]],
                            external_force=["1e300*q0d*q0d", "0"], input_coframe=[["0.5", "1"]])
    return model, AffineConstraint(names, [["0", "1"]], ["0"]), [((0.0, 0.0), (math.inf, 0.0))]


@settings(max_examples=12, deadline=2000)
@given(case=parity_cases())
@example(case=zero_column_case())
def test_dropped_zero_terms_move_no_gate(case):
    # The step kernel, whose sums drop their zero terms, against one compiled
    # from the same statements as `Unfolded` blocks write them, which keep
    # every term: stage 1, a start record, one step and three.  Each fails
    # at the same stage and state with the same count of steps left, or
    # neither does and their results are alike.  phi at a start record is
    # compared at a finite state alone, as every record's state is finite
    # (a run starts at a State, and a step's end passes the kernel's test).
    # The explicit example fails if b's sum drops 0.0 * d0 for an unknown
    # d0: b and tau turn -0.0 where they are NaN.
    model, con, states = case
    step = control._step(model, con)
    (lines, outputs, phi), _ = unfolded_statements(model, con)
    whole = linalg._define(control._step_text(lines, outputs, phi))
    for q, qd in states:
        stage = step(q, qd, None, None, False)
        assert alike(stage, whole(q, qd, None, None, False))
        record, whole_record = step(q, qd, None, 0.1, 1), whole(q, qd, None, 0.1, 1)
        if record[0] is not None and not all(map(math.isfinite, q + qd)):
            record, whole_record = record[:4], whole_record[:4]
        assert alike(record, whole_record)
        a = stage[0] if stage[0] is not None else (0.5,) * model.n
        for more in (False, 3):
            assert alike(step(q, qd, a, 0.1, more), whole(q, qd, a, 0.1, more))


def judged(kernel, q) -> tuple:
    """A q-only kernel's record at q, with `_verdict`'s outcome: the type of
    what the kernel or the verdict raises, or whether P is admissible."""
    try:
        k = kernel(q)
    except (ArithmeticError, ValueError) as err:
        return None, type(err)
    record = constraint._new(constraint._QOnly, k)  # each return writes all ten fields
    try:
        return record, constraint._verdict(record, q)[0] is None
    except Exception as err:  # noqa: BLE001 - compared by type
        return record, type(err)


def p_inf_case():
    """The golden `p_inf` plane at x = 1e10: the coframe entry 1e300*x
    overflows, and P is [[inf]] from S Y = 1 * inf + 0 * 0, where the kept
    term y0_1 - 0.0 * y0_0 made it NaN."""
    names = ["x", "y"]
    model = MechanicalModel(names, [["1", "0"], ["0", "1"]], input_coframe=[["1e300*x", "0"]])
    return model, AffineConstraint(names, [["1", "0"]], ["0"]), [((1e10, 0.0), (0.0, 0.0))]


def nan_under_zero_column_case():
    """S with a zero column over a coframe entry that is NaN at q, which P
    reads only through S's 0.0 * y0_0."""
    names = ["q0", "q1"]
    model = MechanicalModel(names, [["1", "0"], ["0", "1"]], input_coframe=[["sin(q0)", "1"]])
    return model, AffineConstraint(names, [["0", "1"]], ["0"]), [((math.nan, 0.0), (0.0, 0.0))]


def inf_over_zero_factor_case():
    """A metric constant but in g2_0 = g0_2, at q0 = inf: L's l2_1 reads
    the known zero l1_0 through l2_0 * l1_0, which is NaN there."""
    names = ["q0", "q1", "q2"]
    model = MechanicalModel(names, [["7", "0", "0.2*q0*q0"], ["0", "7", "0"],
                                    ["0.2*q0*q0", "0", "7"]], input_coframe=[["1", "0", "0"]])
    return model, AffineConstraint(names, [["0", "1", "0"]], ["0"]), [((math.inf, 0.0, 0.0),
                                                                        (0.0, 0.0, 0.0))]


@settings(max_examples=12, deadline=2000)
@given(case=parity_cases())
@example(case=p_inf_case())
@example(case=nan_under_zero_column_case())
@example(case=inf_over_zero_factor_case())
def test_q_only_kernel_judges_as_its_statements_do(case):
    # The q-only kernel, whose sums drop their zero terms, against one
    # compiled from the same statements as `Unfolded` blocks write them,
    # which keep every term, at q alone: `_verdict` raises the same type of
    # error, or gives the same answer, and the records are alike, but that
    # `failed` may read pivot for cond where P is not finite.  The second
    # explicit example fails if P's sum drops 0.0 * y0_0 for an unknown
    # y0_0: P turns 1.0, admissible, where it is NaN.  The third fails if
    # the Cholesky factor's sum drops l2_0 * l1_0: s turns -inf, and the
    # metric fails its gate, where s is NaN, which passes it.
    model, con, states = case
    q_only = constraint._q_only(model, con).args[0]  # the kernel, not the naming of its errors
    whole = linalg._define("\n".join(unfolded_statements(model, con)[1]))
    for q, _ in states:
        (record, verdict), (whole_record, whole_verdict) = judged(q_only, q), judged(whole, q)
        assert verdict == whole_verdict
        if record is not None and {record.failed, whole_record.failed} == {"pivot", "cond"}:
            assert not all(map(math.isfinite, itertools.chain(*record.P, *whole_record.P)))
            record = record._replace(failed=whole_record.failed)
        assert alike(record, whole_record)
