"""The generated closed-loop kernel against the other paths.

`control._closed_loop` runs one generated kernel per (model, constraint)
pair, the only code that computes a closed-loop result.  Where one of its
gates fails or a math error is raised, the pair's q-only kernel (through
`_p_system`, as `p_matrix` uses it) and the force's kernel raise the
typed error.  The
kernel's results are bit-identical to an assembly of the other paths'
pieces, and every decline raises the error and message of the q-only path.
"""

import random

import pytest
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
from vnhc import constraint, control, linalg, sim
from vnhc import expr as ex


SYSTEMS = {name: (lambda c=c: build_boat(*c)) for name, c in FIXTURE_CURRENTS.items()}
SYSTEMS.update(gen4=build_gen4, gen5=build_gen5)


@pytest.mark.parametrize("name", SYSTEMS)
def test_kernel_equals_assembly(name):
    # The assembly is made here from the other paths: P, its LU and cond
    # from the q-only kernel at q, b from b_vector, tau by lu_solve,
    # and acc = drift + tau_a Y^a from drift_acceleration and input_fields_at.
    model, con = SYSTEMS[name]()
    kernel = control._compile_closed_loop(model, con)
    rng = random.Random(name)
    bound = 1.0 if name == "gen5" else 2.0
    for _ in range(200):
        q = tuple(rng.uniform(-bound, bound) for _ in range(model.n))
        qd = tuple(rng.uniform(-bound, bound) for _ in range(model.n))
        fused = kernel(q, qd)
        assert fused is not None, (name, q, qd)  # admissible: no decline
        s = State(q=q, qdot=qd)
        ps = control._p_system(model, con, q)
        b = b_vector(model, con, s)
        tau = linalg.lu_solve(ps.lu, ps.piv, b)
        acc = model.drift_acceleration(s)
        for t, ya in zip(tau, model.input_fields_at(q)):
            if t != 0.0:
                acc = [a + t * y for a, y in zip(acc, ya)]
        slow = (acc, tau, b, ps.P, ps.cond)
        assert fused == slow, (name, q, qd)
        assert repr(fused) == repr(slow), (name, q, qd)  # signed zeros too


def test_built_once_per_model():
    model, con = build_boat("sin(y)", "cos(x)")
    assert con._closed_loop == {}  # nothing compiled at construction
    field = control._closed_loop(model, con)
    tau_star(model, con, State(q=(0.1, 0.2, 0.3), qdot=(0.4, 0.5, 0.6)))
    assert control._closed_loop(model, con) is field
    other, _ = build_boat("sin(y)", "cos(x)")
    other_field = control._closed_loop(other, con)
    assert other_field is not field
    assert con._closed_loop == {model: field, other: other_field}


def test_one_kernel_per_model_on_a_shared_constraint(monkeypatch):
    # Two models on one constraint, called in turn: one compile each.
    (m1, con), (m2, _) = build_boat("sin(y)", "cos(x)"), build_boat("sin(y)", "cos(x)")
    compiled = []
    compile_closed_loop = control._compile_closed_loop

    def counting(model, c):
        compiled.append(model)
        return compile_closed_loop(model, c)

    monkeypatch.setattr(control, "_compile_closed_loop", counting)
    s = State(q=(0.1, 0.2, 0.3), qdot=(0.4, 0.5, 0.6))
    taus = [tau_star(model, con, s) for model in (m1, m2) * 5]
    assert compiled == [m1, m2]
    assert taus == [taus[0]] * 10


def test_too_deep_to_compile_lazily(monkeypatch):
    # A tree that loaded can be a few stack frames short of the limit when a
    # kernel is first compiled: the pair's kernel and the force's kernel are
    # then typed errors, never a traceback.
    model, con = build_boat("sin(y)", "cos(x)")
    s = State(q=(0.1, 0.2, 0.3), qdot=(0.4, 0.5, 0.6))

    def too_deep(*args):
        raise RecursionError

    monkeypatch.setattr(control, "_compile_closed_loop", too_deep)
    for view in (solve_control, lambda m, c, s: integrate(m, c, s, t_end=1e-2, h=1e-3)):
        with pytest.raises(vnhc.EvalError,
                           match="^closed-loop kernel is nested too deeply to compile$"):
            view(model, con, s)
    monkeypatch.setattr(model, "_compile_qv", too_deep)
    with pytest.raises(vnhc.EvalError, match="^external force is nested too deeply to compile$"):
        model.drift_acceleration(s)


def test_parameters_fold_before_compiling():
    # The boat's force is m * (...), with m = 1: no multiply by 1.0 is left.
    model, con = build_boat("sin(y)", "cos(x)")
    assert "m" in ex.free_symbols(model.external_force[0])  # the source stays symbolic
    lines, roots, _ = ex._emit(model._force, model.coordinates + model.velocities)
    source = "\n".join(lines + roots)
    assert "1.0 *" not in source and "* 1.0" not in source
    assert "1.0 *" not in "\n".join(control._closed_loop_source(model, con))
    assert model._exprs[0] == [[ex.ONE, ex.ZERO, ex.ZERO], [ex.ZERO, ex.ONE, ex.ZERO],
                               [ex.ZERO, ex.ZERO, ex.ONE]]


@pytest.mark.parametrize("name", SYSTEMS)
def test_a_constant_metric_block_folds(name):
    # Every boat's metric is constant: its Cholesky factor, SPD and
    # condition gates and its divisions leave the pair's kernels, which
    # keep gen5's.  The step kernel runs the closed loop's statements.
    model, con = SYSTEMS[name]()
    sources = [control._closed_loop_source(model, con), constraint._q_only_source(model, con)]
    sources.append(sim._step_source("\n".join(sources[0]), model.n))
    for source in map("\n".join, sources):
        assert (("sqrt(" in source) and ("ratio" in source)) == (name in ("gen4", "gen5"))


def test_parameter_fold_errors_stay_at_evaluation():
    # sqrt(k) with k < 0 and k * k overflowing are not folded: they fail,
    # or overflow, where they are evaluated, as with the symbol; the error
    # names the subexpression with the parameter's value.
    model = MechanicalModel(("x", "y"), [["1", "0"], ["0", "1"]], potential="x*sqrt(k)",
                            input_coframe=[["1", "0"]], parameters={"k": -1e200})
    with pytest.raises(vnhc.EvalError, match=r"^domain error in sqrt\(-1e\+200\)$"):
        model.grad_potential((0.0, 0.0))
    assert ex.substitute(ex.parse("k*k"), {"k": -1e200})[0] == ex.Binary(
        "mul", ex.Constant(-1e200), ex.Constant(-1e200))


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
# and whether the kernel itself declines; the messages are those of the
# assembly that computed every result before the kernel existed)
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
              "EvalError: b (nan,) is not finite at q=(10000000000.0, 0.0, 0.3), "
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
    kernel = control._compile_closed_loop(model, con)
    if declines is True:
        assert kernel(q, qd) is None
    elif declines:
        with pytest.raises(declines):
            kernel(q, qd)
    else:  # the kernel's own non-finite result; the views' check names it
        assert kernel(q, qd) is not None
    views = [solve_control, tau_star, closed_loop_acceleration]
    if declines:  # the stepping views raise the same error at the start state
        views += [lambda m, c, s: rk4_step(m, c, s, 1e-3),
                  lambda m, c, s: integrate(m, c, s, t_end=1e-2, h=1e-3)]
    for view in views:
        with pytest.raises(Exception) as info:
            view(model, con, State(q=q, qdot=qd))
        assert f"{type(info.value).__name__}: {info.value}" == expected
