"""One-time work is done once per process.

Every generated source is compiled by `linalg._define`, cached by its text
with a fixed bound, so a model loaded again or a pair built again reuses
the compiled functions; parsing, folding, differentiation and emitting
are memoized on the interned expression graph, so a repeated load does
none of them again; and `cli.build_parser` builds the parser once.
Reuse must change no result and leak no state between calls.
"""

import contextlib
import io
import math
import os
import random
import re
import subprocess
import sys

import pytest
from test_control import build_gen5

import vnhc
from vnhc import (
    FIXTURE_CURRENTS,
    State,
    build_boat,
    integrate,
    load_model,
    save_model,
    solve_control,
    tau_star,
)
from vnhc import cli, constraint, control, linalg
from vnhc import expr as ex

SRC = os.path.dirname(os.path.dirname(vnhc.__file__))


def model_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    save_model(path, *(build_gen5() if name == "gen5" else build_boat(*FIXTURE_CURRENTS[name])))
    return path


def use(model, con):
    """Every kernel the command line compiles: the model's, the constraint's,
    the pair's step kernel and the force's."""
    s = State(q=(0.1,) * model.n, qdot=(0.2,) * model.n)
    integrate(model, con, s, t_end=2e-3, h=1e-3)
    model.drift_acceleration(s)


def test_second_load_compiles_nothing(tmp_path):
    path = model_file(tmp_path, "vortex")
    use(*load_model(path))
    misses = linalg._define.cache_info().misses
    use(*load_model(path))
    assert linalg._define.cache_info().misses == misses


def test_second_load_folds_nothing(tmp_path, monkeypatch):
    # A pair's two sources are generated, folded and compiled once per
    # distinct pair per process, not on each command-line call: a second
    # load, then tau_star and check, writes and compiles no pair source.
    path = model_file(tmp_path, "vortex")
    s = State(q=(0.1, 0.2, 0.3), qdot=(0.4, 0.5, 0.6))

    def build():
        model, con = load_model(path)
        tau_star(model, con, s)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["check", str(path), "--grid", "x=-1:1:3"]) == 0

    build()
    written = []
    for module in (constraint, control):  # where the pair sources are written
        monkeypatch.setattr(module, "_Block", lambda *a, block=module._Block, **k: (
            written.append(a) or block(*a, **k)))
    misses = linalg._define.cache_info().misses
    build()
    assert (written, linalg._define.cache_info().misses) == ([], misses)


def test_two_sources_per_pair(tmp_path, monkeypatch):
    # A pair compiles two sources: the step kernel, whose stage 1 the views
    # run, and the q-only kernel.  A second view builds nothing.
    model, con = load_model(model_file(tmp_path, "vortex"))
    s = State(q=(0.1, 0.2, 0.3), qdot=(0.4, 0.5, 0.6))
    defined, built = [], []
    define, step_source = linalg._define, control._step_source
    monkeypatch.setattr(linalg, "_define", lambda source: defined.append(source) or define(source))
    monkeypatch.setattr(control, "_step_source", lambda *a: built.append(a) or step_source(*a))
    tau_star(model, con, s)
    integrate(model, con, s, t_end=2e-3, h=1e-3)
    assert (defined, len(built)) == ([step_source(model, con)], 1)
    constraint.transversality_check(con, model, s.q)
    assert defined[1:] == ["\n".join(constraint._q_only_source(model, con))]
    del defined[:], built[:]
    tau_star(model, con, s)
    assert (defined, built) == ([], [])


def test_second_load_derives_nothing(tmp_path, monkeypatch):
    path = model_file(tmp_path, "gen5")

    def build():
        model, con = load_model(path)
        constraint._q_only(model, con), control._step(model, con), model._first_kind

    build()
    calls = []
    for stage in ("_Parser", "_refold", "_rule", "_emit_uncached"):
        real = getattr(ex, stage)
        monkeypatch.setattr(ex, stage, lambda *a, real=real, stage=stage, **k: (
            calls.append(stage), real(*a, **k))[1])
    build()
    assert calls == []


def test_one_off_evaluations_evict_no_model_kernel(tmp_path):
    path = model_file(tmp_path, "vortex")
    load_model(path)
    x = ex.Symbol("x")
    for k in range(300):
        assert ex.evaluate(x * x + float(k), {"x": 2.0}) == 4.0 + k
    misses = linalg._define.cache_info().misses, ex.parse.cache_info().misses
    emitted = len(ex._EMITTED.results)
    load_model(path)
    assert (linalg._define.cache_info().misses, ex.parse.cache_info().misses) == misses
    assert len(ex._EMITTED.results) == emitted


def test_rewritten_file_is_loaded_afresh(tmp_path):
    # The memos are keyed by content, not by path.
    path, shear = model_file(tmp_path, "vortex"), model_file(tmp_path, "shear")
    s = State(q=(0.1, -0.2, 0.5), qdot=(0.4, 0.3, 0.8))
    vortex = repr(vnhc.closed_loop_acceleration(*load_model(path), s))
    path.write_bytes(shear.read_bytes())
    again = repr(vnhc.closed_loop_acceleration(*load_model(path), s))
    assert again == repr(vnhc.closed_loop_acceleration(*load_model(shear), s)) != vortex


@pytest.mark.parametrize("name", [*FIXTURE_CURRENTS, "gen5"])
def test_repeated_load_is_bit_identical(tmp_path, name):
    path = model_file(tmp_path, name)
    linalg._define.cache_clear()  # the first load compiles every source

    def reprs():
        model, con = load_model(path)
        rng = random.Random(name)
        out = []
        for _ in range(200):
            q = tuple(rng.uniform(-1.0, 1.0) for _ in range(model.n))
            qd = tuple(rng.uniform(-1.0, 1.0) for _ in range(model.n))
            out.append(repr(solve_control(model, con, State(q=q, qdot=qd))))
        out.append(repr(integrate(model, con, State(q=q, qdot=qd), t_end=0.5, h=1e-3,
                                  sample_every=10)))
        return out

    first = reprs()
    hits = linalg._define.cache_info().hits
    assert reprs() == first
    assert linalg._define.cache_info().hits > hits


def test_cache_is_bounded():
    # Each mass is another literal in the model's kernel: a distinct source.
    # The first model's kernels leave the cache and stay with the model.
    s = State(q=(0.1, 0.2, 0.3), qdot=(0.4, 0.5, 0.6))
    first = build_boat("sin(y)", "cos(x)", m=1.0)
    for k in range(linalg.DEFINE_CACHE_SIZE + 44):
        build_boat("sin(y)", "cos(x)", m=2.0 + k)
    assert linalg._define.cache_info().currsize <= linalg.DEFINE_CACHE_SIZE
    fresh = build_boat("sin(y)", "cos(x)", m=1.5)
    (_, _, th), (xd, yd, thd) = s.q, s.qdot
    for (model, con), m in ((first, 1.0), (fresh, 1.5)):
        law = -m * thd * (math.cos(th) * xd + math.sin(th) * yd)
        assert tau_star(model, con, s)[0] == pytest.approx(law, rel=1e-12, abs=1e-15)


# A usage error first, then every command, each flag given once and then
# left out: a value the shared parser kept would change a later output.
BOAT = ["boat.json"]
START = ["--q0", "0.1,-0.2,3.13", "--qdot0", "0.4,0.3,0.8", "--t-end", "0.05", "--dt", "1e-3"]
COMMANDS = [
    ["simulate", *BOAT, *START[:-1], "0", "--out", "traj.csv"],  # --dt 0: exit 2
    ["simulate", *BOAT, *START, "--sample-every", "10", "--project", "--wrap", "theta",
     "--out", "traj.csv"],
    ["simulate", *BOAT, *START, "--out", "traj.csv"],
    ["check", *BOAT, "--grid", "x=-1:1:3", "--grid", "theta=0:6.28:4"],
    ["check", *BOAT, "--point", "x=0.5"],
    ["control-at", *BOAT, "--q", "0.1,-0.2,0.5", "--qdot", "0.4,0.3,0.8"],
]


def outputs(run, cwd):
    """(exit code, stdout, stderr, CSV) of each command by run(argv), in
    cwd, with simulate's runtime_s left out."""
    save_model(cwd / "boat.json", *build_boat(*FIXTURE_CURRENTS["vortex"]))
    out = []
    for argv in COMMANDS:
        code, stdout, stderr = run(argv)
        csv = cwd / "traj.csv"
        out.append((code, re.sub(r'"runtime_s": [^,]*, ', "", stdout), stderr,
                    csv.read_bytes() if csv.exists() else None))
        csv.unlink(missing_ok=True)
    return out


def test_reused_parser_leaks_nothing(tmp_path, monkeypatch):
    alone, reused = tmp_path / "alone", tmp_path / "reused"
    alone.mkdir()
    reused.mkdir()

    def subprocess_run(argv):
        done = subprocess.run([sys.executable, "-m", "vnhc.cli", *argv], cwd=alone,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": SRC})
        return done.returncode, done.stdout, done.stderr

    def in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exit_:
                code = exit_.code
        return code, out.getvalue(), err.getvalue()

    expected = outputs(subprocess_run, alone)
    assert [code for code, *_ in expected] == [2, 0, 0, 0, 0, 0]
    thetas = [float(row.split(b",")[3]) for row in expected[2][3].splitlines()[1:]]
    assert max(thetas) > math.pi  # a --wrap kept from the run before would show
    monkeypatch.chdir(reused)
    assert outputs(in_process, reused) == expected
    assert cli.build_parser() is cli.build_parser()
