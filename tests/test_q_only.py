"""The q-only views against the numpy reference of `oracle`, and against
one another.

`transversality_check`, `p_matrix` and `vnhc check` read one call of the
pair's q-only kernel; `rank_check` reads the constraint's kernel.  Their
P, det, cond and rank verdicts match the reference, and every way a
point can fail gives the same error from every view.  The judgment of a
record (`_verdict`) and the rank of S (`_rank`) give what `oracle`'s
references of every branch and entry give.
"""

import contextlib
import functools
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from oracle import check_line, closed_loop_ladder, q_only_ladder, rank, reference, verdict
from test_closed_loop import FALLBACKS, p_inf_case, parity_cases
from test_control import build_gen4, build_gen5

from vnhc import (
    FIXTURE_CURRENTS,
    AffineConstraint,
    EvalError,
    MechanicalModel,
    SPDError,
    State,
    TransversalityError,
    build_boat,
    cli,
    closed_loop_acceleration,
    constraint,
    integrate,
    linalg,
    load_model,
    p_matrix,
    rk4_step,
    save_model,
    solve_control,
    tau_star,
    transversality_check,
)
from vnhc.cli import main
from vnhc.constraint import RANK_RTOL

# S = [[1, 0, 0], [0, x, 0]]: rank 2 unless x is 0, P = diag(1, x)
PINCH = (MechanicalModel(("x", "y", "z"), [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                         input_coframe=[[1, 0, 0], [0, 1, 0]]),
         AffineConstraint(("x", "y", "z"), [["1", "0", "0"], ["0", "x", "0"]], Z=["0", "y"]))
# S = [[1, 0, 0], [0, 1e-10, 0]] over inputs [1, 0, 0] and [0, 1e10, 0]:
# P = I, so every q-only gate holds, but sigma_2 / sigma_1 of S is 1e-10,
# below RANK_RTOL; the rank certificate declines and `_rank` finds rank 1
THIN_RANK = (MechanicalModel(("x", "y", "z"), [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                             input_coframe=[[1, 0, 0], [0, 1e10, 0]]),
             AffineConstraint(("x", "y", "z"), [[1, 0, 0], [0, 1e-10, 0]], Z=[0, 0]))
SYSTEMS = {name: build_boat(*currents) for name, currents in FIXTURE_CURRENTS.items()}
SYSTEMS.update(gen4=build_gen4(), gen5=build_gen5(), pinch=PINCH, thin_rank=THIN_RANK)

coordinate = st.floats(-3.0, 3.0) | st.floats(-1e-8, 1e-8)


def draw_q(data, model) -> tuple:
    return tuple(data.draw(coordinate) for _ in range(model.n))


def close(x, y, scale, rtol=1e-12) -> bool:
    return np.max(np.abs(np.asarray(x) - y)) <= rtol * scale


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(SYSTEMS)), data=st.data())
def test_transversality_matches_the_reference(name, data):
    model, con = SYSTEMS[name]
    q = draw_q(data, model)
    ref = reference(model, con, q)
    report = transversality_check(con, model, q)
    P = np.array(report.p).reshape(con.m, con.m)
    assert close(P, ref.P, np.max(np.abs(ref.P))), (name, q)
    assert close(report.det, ref.det, abs(ref.det)), (name, q)
    assume(ref.cond < 1e10)  # P well clear of the condition and pivot gates
    assert report.ok, (name, q)
    assert p_matrix(model, con, q) == P.tolist()
    assert math.isclose(report.cond_estimate, ref.cond, rel_tol=1e-10), (name, q)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(SYSTEMS)), data=st.data())
def test_rank_matches_the_reference(name, data):
    model, con = SYSTEMS[name]
    q = draw_q(data, model)
    ref = reference(model, con, q)
    ratios = ref.singular_values / ref.singular_values[0]
    assume(not np.any((ratios > 0.5 * RANK_RTOL) & (ratios < 2.0 * RANK_RTOL)))
    report = con.rank_check(q)
    assert (report.rank, report.ok) == (ref.rank, ref.rank == con.m), (name, q)
    assert close(report.singular_values, ref.singular_values, ref.singular_values[0]), (name, q)


def check_output(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def check_lines(path, qs, coordinates) -> tuple[int, list[str]]:
    argv = ["check", str(path)]
    for q in qs:
        argv += ["--point", ",".join(f"{c}={v!r}" for c, v in zip(coordinates, q))]
    code, out = check_output(argv)
    return code, out.splitlines()


def line_from_views(model, con, q) -> str:
    """The check line at q, made from rank_check and transversality_check."""
    line = f"q=({', '.join(f'{v:g}' for v in q)})"
    try:
        rr = con.rank_check(q)
    except EvalError as err:
        return f"{line} rank=ERROR ({err})"
    line += f" rank={'ok' if rr.ok else 'DEFECT'}({rr.rank}/{rr.expected_rank})"
    if not rr.ok:
        return line + f" singular_values={[f'{s:.3e}' for s in rr.singular_values]}"
    try:
        tr = transversality_check(con, model, q)
    except SPDError as err:
        return f"{line} metric=SPD-FAILURE ({err})"
    except EvalError as err:
        return f"{line} transversality=ERROR ({err})"
    verdict = "ok" if tr.ok else "VIOLATION"
    return f"{line} transversality={verdict} cond={tr.cond_estimate:.6g} det={tr.det:.6g}"


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_check_lines_are_the_views(tmp_path, name):
    # One kernel call per point gives the line the two views give.
    model, con = SYSTEMS[name]
    path = tmp_path / f"{name}.json"
    save_model(path, model, con)
    rng = np.random.default_rng(len(name))
    qs = [tuple(map(float, rng.uniform(-3.0, 3.0, model.n))) for _ in range(30)]
    qs += [(0.0,) * model.n, (1e-10,) * model.n]
    code, lines = check_lines(path, qs, model.coordinates)
    assert lines == [line_from_views(model, con, q) for q in qs]
    assert code == (0 if all(" transversality=ok " in line for line in lines) else 1)


def outcome(view):
    try:
        return view()
    except Exception as err:
        return f"{type(err).__name__}: {err}"


@pytest.mark.parametrize("name", FALLBACKS)
def test_fallbacks_alike_from_every_view(tmp_path, name):
    build, q, qd, expected, declines = FALLBACKS[name]
    model, con = build()
    tau = outcome(lambda: tau_star(model, con, State(q=q, qdot=qd)))
    p = outcome(lambda: p_matrix(model, con, q))
    report = outcome(lambda: transversality_check(con, model, q))
    assert tau == expected
    if declines is not True:  # not a gate of q: a force or solve error
        assert not isinstance(p, str) and report.ok
    elif expected.startswith("TransversalityError"):  # a report, not an error
        assert p == expected
        with pytest.raises(TransversalityError) as info:
            p_matrix(model, con, q)
        assert not report.ok and report.cond_estimate == info.value.cond
    else:  # the metric's SPDError or a non-finite P
        assert p == report == expected
    path = tmp_path / "model.json"
    save_model(path, model, con)
    assert check_lines(path, [q], model.coordinates)[1] == [line_from_views(model, con, q)]


def plane(metric00="1", potential="0", Z="0", force=("0", "0"), mu=("1", "0"),
          inputs=("1", "0")):
    return (MechanicalModel(("x", "y"), [[metric00, "0"], ["0", "1"]], potential=potential,
                            external_force=force, input_coframe=[list(inputs)]),
            AffineConstraint(("x", "y"), [list(mu)], Z=[Z]))


# Two failures at one point: every view names the model's first (its
# kernel, then the metric's gates, then the constraint's kernel, then P,
# then the force), while `check` tests the rank, from the constraint's
# kernel, first.
TWO_FAILURES = {
    "metric_then_z": (plane(metric00="x", Z="log(x)"), (-1.0, 0.0),
                      "SPDError: metric not positive definite at q=(-1.0, 0.0); "
                      "eigenvalues [-1.0, 1.0]", "q=(-1, 0) rank=ERROR (domain error in log(x))"),
    "dv_then_z": (plane(potential="log(x)", Z="log(x)"), (0.0, 0.0),
                  "EvalError: division by zero in 1 / x",
                  "q=(0, 0) rank=ERROR (domain error in log(x))"),
    "metric_then_force": (plane(metric00="x", force=("1/(x+1)", "0")), (-1.0, 0.0),
                          "SPDError: metric not positive definite at q=(-1.0, 0.0); "
                          "eigenvalues [-1.0, 1.0]",
                          "q=(-1, 0) rank=ok(1/1) metric=SPD-FAILURE (metric not positive "
                          "definite at q=(-1.0, 0.0); eigenvalues [-1.0, 1.0])"),
    # S overflows where the metric fails: the q-only kernel returns S with
    # the metric's gate, and check screens that S for the rank
    "metric_then_s_inf": ((MechanicalModel(("x", "y"), [["x", "0"], ["0", "1"]],
                                           input_coframe=[["1", "0"]]),
                           AffineConstraint(("x", "y"), [["1e300*x", "0"]], Z=["0"])),
                          (-1e10, 0.0),
                          "SPDError: metric not positive definite at q=(-10000000000.0, 0.0); "
                          "eigenvalues [-10000000000.0, 1.0]",
                          "q=(-1e+10, 0) rank=ERROR (constraint.mu[0][0] = 1e+300 * x is not "
                          "finite (-inf))"),
    # the metric's gate fails before a constraint row that raises: the
    # q-only record carries no S, and check's rank comes from the
    # constraint's kernel
    "metric_then_mu": (plane(metric00="x", mu=("1", "log(x)")), (-1.0, 0.0),
                       "SPDError: metric not positive definite at q=(-1.0, 0.0); "
                       "eigenvalues [-1.0, 1.0]", "q=(-1, 0) rank=ERROR (domain error in log(x))"),
    # the step kernel meets the force's pole first, the q-only kernel Z's log
    "z_then_force": (plane(Z="log(x)", force=("1/x", "0")), (0.0, 0.0),
                     "EvalError: domain error in log(x)",
                     "q=(0, 0) rank=ERROR (domain error in log(x))"),
    # the step kernel meets the force's pole first, the q-only kernel P's gate
    "p_then_force": (plane(inputs=("0", "1"), force=("1/x", "0")), (0.0, 0.0),
                     "TransversalityError: singular P matrix at q=(0.0, 0.0)",
                     "q=(0, 0) rank=ok(1/1) transversality=VIOLATION cond=inf det=0"),
}


@pytest.mark.parametrize("name", TWO_FAILURES)
def test_the_first_failure_is_named(tmp_path, name):
    (model, con), q, expected, line = TWO_FAILURES[name]
    state = State(q=q, qdot=(0.0, 0.0))
    for view in (lambda: p_matrix(model, con, q),
                 lambda: tau_star(model, con, state), lambda: solve_control(model, con, state),
                 lambda: closed_loop_acceleration(model, con, state),
                 lambda: rk4_step(model, con, state, 1e-3),
                 lambda: integrate(model, con, state, t_end=1e-2, h=1e-3)):
        assert outcome(view) == expected
    report = outcome(lambda: transversality_check(con, model, q))
    if expected.startswith("TransversalityError"):  # a verdict it reports, not raises
        assert report.ok is False
    else:
        assert report == expected
    path = tmp_path / "model.json"
    save_model(path, model, con)
    assert check_lines(path, [q], model.coordinates) == (1, [line])


@pytest.mark.parametrize("x, expected", [
    (-math.inf, "SPDError: metric not positive definite at q=(-inf, 0.0); eigenvalues [-inf, 1.0]"),
    (math.inf, "SPDError: metric condition estimate inf exceeds 1e+12 at q=(inf, 0.0)")])
def test_the_metric_fails_first_at_an_infinite_q(x, expected):
    # sin(x) raises only at an infinite x, where the metric x fails its
    # gate: the q-only views, which take any q, name the metric's failure,
    # as the views' order puts the model's before the constraint's.
    model, con = plane(metric00="x", Z="sin(x)")
    for view in (lambda: p_matrix(model, con, (x, 0.0)),
                 lambda: transversality_check(con, model, (x, 0.0))):
        assert outcome(view) == expected


def test_every_view_refuses_a_q_where_only_z_fails():
    # Z = log(x) has no value at x = -1, where the closed loop needs only
    # dZ = 1/x: stage 1 of the views runs Z's lines too, so every view
    # refuses the point, as check, p_matrix and a run from it do
    model, con = plane(Z="log(x)")
    q, state = (-1.0, 0.0), State(q=(-1.0, 0.0), qdot=(-1.0, -1.0))
    for view in (lambda: tau_star(model, con, state), lambda: solve_control(model, con, state),
                 lambda: closed_loop_acceleration(model, con, state),
                 lambda: rk4_step(model, con, state, 1e-3), lambda: p_matrix(model, con, q),
                 lambda: transversality_check(con, model, q),
                 lambda: integrate(model, con, state, t_end=1e-2, h=1e-3)):
        assert outcome(view) == "EvalError: domain error in log(x)"


POLES = ["log({})", "sqrt({})", "1/{}"]  # each fails at 0, the first two below it too


@st.composite
def ladder_cases(draw):
    """A model of 2 or 3 coordinates and m < n inputs, unit rows but where a
    metric entry, the potential, the force, a mu entry and Z may each hold
    log, sqrt or 1/ of a coordinate (the force: or of a velocity), and
    three states whose entries are drawn from -1, 0 (every pole), 0.5 and
    2."""
    n = draw(st.integers(2, 3))
    m = draw(st.integers(1, n - 1))
    names = ["x", "y", "z"][:n]

    def maybe(base: str, variables=names) -> str:
        pole = draw(st.sampled_from([None, *POLES]))
        return base if pole is None else pole.format(draw(st.sampled_from(variables)))

    unit = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    metric = [row[:] for row in unit]
    i = draw(st.integers(0, n - 1))
    metric[i][i] = maybe("1")
    mu = [row[:] for row in unit[:m]]
    b, j = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
    mu[b][j] = maybe(mu[b][j])
    inputs = draw(st.sampled_from([unit[:m], unit[n - m:]]))  # the second: P singular for m = 1
    force = [maybe("0", names + [f"{x}d" for x in names]) for _ in range(n)]
    model = MechanicalModel(names, metric, potential=maybe("0"), external_force=force,
                            input_coframe=inputs)
    con = AffineConstraint(names, mu, Z=[maybe("0") for _ in range(m)])
    entry = st.sampled_from([-1.0, 0.0, 0.5, 2.0])
    states = [tuple(draw(entry) for _ in range(2 * n)) for _ in range(3)]
    return model, con, [(s[:n], s[n:]) for s in states]


@settings(max_examples=20, deadline=2000)
@given(case=ladder_cases())
def test_every_view_names_the_ladders_failure(case):
    # At drawn points where the model, the metric, the constraint, P and
    # the force may each fail, every view raises the typed error that the
    # per-field kernels, run in the views' order, raise first (the ladders
    # of `oracle`), and check prints the ladder's line; where the ladder
    # passes, no view fails but on a result that is not finite.  The views
    # share one domain: where the q-only ladder fails or finds no control,
    # so does the closed loop's stage 1, at a line of Z's expressions too.
    model, con, states = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(path, model, con)
        lines = check_lines(path, [q for q, _ in states], model.coordinates)[1]
    assert lines == [check_line(model, con, q) for q, _ in states]
    for q, qd in states:
        state = State(q=q, qdot=qd)
        q_only = outcome(lambda: q_only_ladder(model, con, q))
        report = outcome(lambda: transversality_check(con, model, q))
        if isinstance(q_only, str):  # the ladder's SPDError or EvalError
            assert outcome(lambda: p_matrix(model, con, q)) == report == q_only, q
        else:
            (k, (error, cond)) = q_only
            assert (report.ok, report.cond_estimate) == (error is None, cond), q
            assert outcome(lambda: p_matrix(model, con, q)) == (
                k.P if error is None else f"TransversalityError: {error}"), q
        expected = outcome(lambda: closed_loop_ladder(model, con, q, qd))
        views = [lambda: tau_star(model, con, state), lambda: solve_control(model, con, state),
                 lambda: closed_loop_acceleration(model, con, state)]
        if expected is not None:  # the start state fails: so does a step or a run from it
            views += [lambda: rk4_step(model, con, state, 1e-3),
                      lambda: integrate(model, con, state, t_end=1e-2, h=1e-3)]
        for view in views:
            got = outcome(view)
            if expected is None and isinstance(got, str):  # a result that is not finite
                assert got.startswith("EvalError: ") and " is not finite at q=" in got, (q, qd)
            else:
                assert expected is None and not isinstance(got, str) or got == expected, (q, qd)
        if expected is None:  # one domain: where stage 1 holds, so does the q-only ladder
            assert not isinstance(q_only, str) and q_only[1][0] is None, (q, qd)


# (model, points): every gate holds on gen5; at the others' points a gate
# fails (non_spd, thin: the metric's; p_inf, s_inf: P is not finite), and
# the kernel returns its record all the same
ONE_CALL = {"gen5": (SYSTEMS["gen5"], [(0.1 * i, 0.2, -0.3, 0.4, 0.5) for i in range(7)]),
            "non_spd": (plane(metric00="x"), [(-1.0, 0.0)]),
            "thin": ((MechanicalModel(("x", "y"), [["1", "0"], ["0", "1e-309"]],
                                      input_coframe=[["1", "0"]]), plane()[1]), [(0.0, 0.0)]),
            "p_inf": ((MechanicalModel(("x", "y"), [["1", "0"], ["0", "1"]],
                                       input_coframe=[["1e300*x", "0"]]), plane()[1]),
                      [(1e10, 0.0)]),
            "s_inf": ((plane()[0], AffineConstraint(("x", "y"), [["1e300*x", "0"]], Z=["0"])),
                      [(1e10, 0.0)])}


def test_one_kernel_call_per_point(tmp_path, monkeypatch):
    # check calls the pair's q-only kernel once per point and neither the
    # model's nor the constraint's own kernel, whether or not a gate holds.
    load, calls, other = cli.model_io.load_model, [], []

    def loading(path):  # the pair is kept for a later load of its text: patch it undoably
        model, con = load(path)
        q_only = constraint._q_only(model, con)
        monkeypatch.setattr(constraint._pair(model, con), "q_only",
                            lambda q: calls.append(q) or q_only(q))
        for chart in (model, con):
            monkeypatch.setattr(chart, "_kernel", lambda *args, kernel=chart._kernel: (
                other.append(args) or kernel(*args)))
        return model, con

    monkeypatch.setattr(cli.model_io, "load_model", loading)
    for name, ((model, con), qs) in ONE_CALL.items():
        path = tmp_path / f"{name}.json"
        save_model(path, model, con)
        calls.clear()
        assert check_lines(path, qs, model.coordinates)[0] == (0 if name == "gen5" else 1), name
        assert (calls, other) == (qs, []), name


def test_singular_values_only_where_the_rank_is_not_certified(tmp_path, monkeypatch):
    # Every point of a 4 x 4 x 4 vortex grid passes, and its record
    # certifies rank S = m there, so check computes no singular value; the
    # thin-rank point's record certifies nothing, and `_rank` runs once.
    calls, real = [], linalg._scaled_singular_values
    monkeypatch.setattr(linalg, "_scaled_singular_values",
                        lambda a: calls.append(a) or real(a))
    path = tmp_path / "vortex.json"
    save_model(path, *SYSTEMS["vortex"])
    grid = ["--grid", "x=-1:1:4", "--grid", "y=-1:1:4", "--grid", "theta=0:6.28:4"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["check", str(path), *grid]) == 0
    assert (len(out.getvalue().splitlines()), calls) == (64, [])
    save_model(path, *THIN_RANK)
    assert check_lines(path, [(0.0, 0.0, 0.0)], "xyz")[0] == 1
    assert calls == [[[1.0, 0.0, 0.0], [0.0, 1e-10, 0.0]]]


def test_q_only_too_deep_to_compile(tmp_path, monkeypatch, capsys):
    # A q-only kernel too deep to compile, a few stack frames short of the
    # limit that loading met, is a typed error at every check point, never
    # a traceback.  The model text is one no other test loads, so its pair
    # has built no q-only kernel yet.
    path = tmp_path / "boat.json"
    save_model(path, *build_boat("sin(y)", "cos(x)", m=1.375, I=0.625))

    def too_deep(*args):
        raise RecursionError

    monkeypatch.setattr(constraint, "_q_only_source", too_deep)
    qs = [(0.1 * i, 0.2, -0.3) for i in range(3)]
    assert check_lines(path, qs, ("x", "y", "theta")) == (1, [
        f"q=({', '.join(f'{v:g}' for v in q)}) rank=ok(1/1) "
        "transversality=ERROR (q-only kernel is nested too deeply to compile)" for q in qs])
    assert capsys.readouterr().err == ""


# (system, the coordinates its q-only record reads (`constraint._reads`),
# points where every gate holds).  `plane`'s S, G and coframe are constant,
# so only the lines of Z (and of c, its derivative) or of dV that can raise
# at a finite q put x in: exp(x), log(sin(x)) and sin(2*x), as 2*x can
# overflow to inf; not sin(x), which raises only on inf.  The potential
# cos(2*x) puts x in through dV's sin(2*x) alone, as the kernel evaluates
# no line of the potential itself.  The boat's S, G and coframe read
# theta, and its current's lines cannot raise.
PLANE_QS = [(0.5, -1.0), (0.5, 1.0), (1.5, -1.0), (1.5, 1.0), (0.5, 2.0)]
KEYS = {"exp": (plane(Z="exp(x)"), ("x",), PLANE_QS),
        "log_sin": (plane(Z="log(sin(x))"), ("x",), PLANE_QS),
        "sin": (plane(Z="sin(x)"), (), PLANE_QS),
        "sin_2x": (plane(Z="sin(2*x)"), ("x",), PLANE_QS),
        "potential_cos_2x": (plane(potential="cos(2*x)"), ("x",), PLANE_QS),
        "constant": (plane(), (), PLANE_QS),
        "vortex": (SYSTEMS["vortex"], ("theta",),
                   [(0.0, 0.0, 0.0), (1.0, 2.0, 0.0), (0.0, 0.0, 1.0), (-1.0, 0.0, 1.0)]),
        "gen5": (SYSTEMS["gen5"], ("q1", "q2", "q3", "q4", "q5"), ONE_CALL["gen5"][1][:2] * 2)}


@pytest.mark.parametrize("name", KEYS)
def test_one_kernel_call_per_key(tmp_path, monkeypatch, name):
    # check calls the q-only kernel at the first point of each value of the
    # coordinates its record reads, and at every point where it reads them
    # all (gen5, at a point given twice); each line is the views' at its
    # point.  An empty key makes one call.
    (model, con), names, qs = KEYS[name]
    path = tmp_path / f"{name}.json"
    save_model(path, model, con)
    model, con = load_model(path)  # the pair check loads: patch its kernel undoably
    q_only, calls = constraint._q_only(model, con), []
    assert tuple(model.coordinates[i] for i in constraint._pair(model, con).reads) == names
    monkeypatch.setattr(constraint._pair(model, con), "q_only",
                        lambda q: calls.append(q) or q_only(q))
    code, lines = check_lines(path, qs, model.coordinates)
    keys = [tuple(q[model.coordinates.index(c)] for c in names) for q in qs]
    first = [q for i, q in enumerate(qs) if len(names) == model.n or keys[i] not in keys[:i]]
    assert calls == first
    assert (code, lines) == (0, [line_from_views(model, con, q) for q in qs])
    assert len(first) == {"sin": 1, "constant": 1, "gen5": 4}.get(name, 2)


# a few values, so that points repeat a key; -0.0 and 0.0 are one key
VALUES = st.sampled_from([-0.0, 0.0, 0.5, -1.0])


@st.composite
def check_words(draw, coordinates):
    """The words of a check command line after its model: up to three
    --points and a --grid axis of 1-4 values on each of a drawn subset of
    the coordinates, starting at -0.0 or a drawn value."""
    words = []
    for _ in range(draw(st.integers(0, 3))):
        point = draw(st.lists(st.tuples(st.sampled_from(coordinates), VALUES), min_size=1,
                              max_size=len(coordinates), unique_by=lambda cv: cv[0]))
        words += ["--point", ",".join(f"{c}={v!r}" for c, v in point)]
    for c in draw(st.lists(st.sampled_from(coordinates), unique=True)):
        lo, hi = draw(st.just(-0.0) | VALUES), draw(VALUES)
        words += ["--grid", f"{c}={lo!r}:{hi!r}:{draw(st.integers(1, 4))}"]
    return words


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(["vortex", "sin"]), data=st.data())
def test_a_run_prints_what_a_run_per_point_prints(name, data):
    # One check run prints, byte for byte, the lines of one run per point,
    # and calls the q-only kernel at the first point of each key, every
    # point passing: theta on the vortex boat; on the plane with
    # Z = sin(x) no coordinate, so one call serves the run and every later
    # point writes the tail kept from it.
    (model, con), names, _ = KEYS[name]
    words = data.draw(check_words(model.coordinates))
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / f"{name}.json")
        save_model(path, model, con)
        model, con = load_model(path)  # the pair check loads
        qs = cli._points(cli.build_parser().parse_args(["check", path, *words]),
                         model.coordinates)[0]
        alone = [check_output(["check", path, "--point",
                               ",".join(f"{c}={v!r}" for c, v in zip(model.coordinates, q))])
                 for q in qs]
        q_only, calls = constraint._q_only(model, con), []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(constraint._pair(model, con), "q_only",
                          lambda q: calls.append(q) or q_only(q))
            code, out = check_output(["check", path, *words])
    assert all(code == 0 for code, _ in alone)
    assert (code, out) == (0, "".join(text for _, text in alone))
    keys = [tuple(q[model.coordinates.index(c)] for c in names) for q in qs]
    first = [q for i, q in enumerate(qs) if keys[i] not in keys[:i]]
    assert repr(calls) == repr(first)  # the sign of a zero too


def judged_alike(view, ref) -> bool:
    """Whether view and its reference give the same result (by repr, so a
    NaN matches a NaN), or raise the same type of error with one message."""
    return repr(outcome(view)) == repr(outcome(ref))


@settings(max_examples=30, deadline=None)
@given(case=parity_cases())
@example(case=p_inf_case())
def test_the_judgment_of_a_record_is_the_reference(case):
    # `_verdict` and `_rank` of the q-only record at each state, signed
    # zeros, infinities and NaN included, against the references that test
    # every branch and every entry.
    model, con, states = case
    for q, _ in states:
        k = outcome(lambda: constraint._p_system(model, con, q))
        if isinstance(k, str):  # the kernel's math error, judged by no one
            continue
        assert judged_alike(lambda: constraint._verdict(k, q), lambda: verdict(k, q)), q
        assert judged_alike(lambda: con._rank(k.S), lambda: rank(con, k.S)), q


@functools.cache
def rows_of(m: int, n: int) -> AffineConstraint:
    """A constraint of m rows over n coordinates, for its names alone."""
    names = [f"q{i}" for i in range(n)]
    return AffineConstraint(names, [[f"{b + 1}*{x}" for x in names] for b in range(m)], ["0"] * m)


@st.composite
def s_matrices(draw):
    """S with m = 1..3 rows of n >= m entries: drawn entries, among them
    1e308 (where hypot and the scaled singular values overflow), 1e-300,
    NaN and infinities; zero rows; and rows that are an exact multiple of
    an earlier one."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m, 4))
    entry = st.sampled_from([1e308, -1e308, 1e-300, math.nan, math.inf, -math.inf, 0.0, -0.0]) \
        | st.floats(-2.0, 2.0)
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["entries", "zero", "multiple"][:2 + bool(rows)]))
        if kind == "entries":
            rows.append([draw(entry) for _ in range(n)])
        elif kind == "zero":
            rows.append([0.0] * n)
        else:
            scale = draw(st.sampled_from([1.0, -1.0, 2.0, 0.5]))
            rows.append([scale * x for x in draw(st.sampled_from(rows))])
    return rows


@settings(max_examples=300, deadline=None)
@given(S=s_matrices())
@example(S=[[1e308] * 4])
@example(S=[[1e308, 1e308, 1e308], [1e308, -1e308, 1e308]])
@example(S=[[1e-300, 0.0, 0.0], [0.0, 1e-300, 0.0]])
@example(S=[[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
@example(S=[[0.0, 0.0], [0.0, 0.0]])
def test_rank_is_the_reference(S):
    con = rows_of(len(S), len(S[0]))
    assert judged_alike(lambda: con._rank(S), lambda: rank(con, S)), S
