"""The q-only views against the numpy reference of `oracle`, and against
one another.

`transversality_check`, `p_matrix` and `vnhc check` read one call of the
pair's q-only kernel; `rank_check` reads the constraint's kernel.  Their
P, det, cond and rank verdicts match the reference, and every way a
point can fail gives the same error from every view.
"""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from oracle import reference
from test_closed_loop import FALLBACKS
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
    p_matrix,
    save_model,
    tau_star,
    transversality_check,
)
from vnhc.cli import main
from vnhc.constraint import RANK_RTOL

# S = [[1, 0, 0], [0, x, 0]]: rank 2 unless x is 0, P = diag(1, x)
PINCH = (MechanicalModel(("x", "y", "z"), [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                         input_coframe=[[1, 0, 0], [0, 1, 0]]),
         AffineConstraint(("x", "y", "z"), [["1", "0", "0"], ["0", "x", "0"]], Z=["0", "y"]))
SYSTEMS = {name: build_boat(*currents) for name, currents in FIXTURE_CURRENTS.items()}
SYSTEMS.update(gen4=build_gen4(), gen5=build_gen5(), pinch=PINCH)

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


def check_lines(path, qs, coordinates) -> tuple[int, list[str]]:
    argv = ["check", str(path)]
    for q in qs:
        argv += ["--point", ",".join(f"{c}={v!r}" for c, v in zip(coordinates, q))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().splitlines()


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


def plane(metric00="1", potential="0", Z="0"):
    return (MechanicalModel(("x", "y"), [[metric00, "0"], ["0", "1"]], potential=potential,
                            input_coframe=[["1", "0"]]),
            AffineConstraint(("x", "y"), [["1", "0"]], Z=[Z]))


# Two failures at one point: the q-only views name the model's first (its
# kernel, then the metric's gates, then the constraint's kernel), while
# `check` tests the rank, from the constraint's kernel, first.
TWO_FAILURES = {
    "metric_then_z": (plane(metric00="x", Z="log(x)"), (-1.0, 0.0),
                      "SPDError: metric not positive definite at q=(-1.0, 0.0); "
                      "eigenvalues [-1.0, 1.0]", "q=(-1, 0) rank=ERROR (domain error in log(x))"),
    "dv_then_z": (plane(potential="log(x)", Z="log(x)"), (0.0, 0.0),
                  "EvalError: division by zero in 1 / x",
                  "q=(0, 0) rank=ERROR (domain error in log(x))"),
}


@pytest.mark.parametrize("name", TWO_FAILURES)
def test_the_first_failure_is_named(tmp_path, name):
    (model, con), q, expected, line = TWO_FAILURES[name]
    for view in (lambda: p_matrix(model, con, q), lambda: transversality_check(con, model, q),
                 lambda: tau_star(model, con, State(q=q, qdot=(0.0, 0.0)))):
        assert outcome(view) == expected
    path = tmp_path / "model.json"
    save_model(path, model, con)
    assert check_lines(path, [q], model.coordinates) == (1, [line])


def test_one_kernel_call_per_point(tmp_path, monkeypatch):
    # check calls the pair's q-only kernel once per point and neither the
    # model's nor the constraint's own kernel.
    path = tmp_path / "gen5.json"
    save_model(path, *SYSTEMS["gen5"])
    q_only, load, calls, other = cli._q_only, cli.model_io.load_model, [], []

    def loading(path):
        model, con = load(path)
        for chart in (model, con):
            chart._kernel = lambda *args, kernel=chart._kernel: other.append(args) or kernel(*args)
        return model, con

    def counting(model, con):
        kernel = q_only(model, con)
        return lambda q: calls.append(q) or kernel(q)

    monkeypatch.setattr(cli.model_io, "load_model", loading)
    monkeypatch.setattr(cli, "_q_only", counting)
    qs = [(0.1 * i, 0.2, -0.3, 0.4, 0.5) for i in range(7)]
    assert check_lines(path, qs, SYSTEMS["gen5"][0].coordinates)[0] == 0
    assert (calls, other) == (qs, [])
