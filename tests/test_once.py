"""One-time work is done once per process.

`model_io.load_model` keeps the pair it builds from each model file's
content in a `functools.lru_cache`, so a content loaded again, from any
path, gives back the same pair with the kernels it has built: nothing is
decoded, parsed, generated or compiled again, and a failed load keeps
nothing.  That is the one process-wide memo of what a build makes: a pair
built anew from the same data parses, emits and compiles its kernels anew,
with the same results, and a pair the memo drops is freed with its
kernels.  Within one build, the derivatives kept on the interned
expression graph, and the parameter folds kept for one `substitute` call,
share work, and a command-line run compiles each distinct source once.
`vnhc.evaluate` keeps the kernels of its last 64 expressions in an
`lru_cache` of its own.  `cli.build_parser` builds the parser once.
Reuse must change no result and leak no state between calls.
"""

import contextlib
import functools
import gc
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import weakref

import pytest
from test_control import build_gen5
from test_golden import MODELS

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
from vnhc import cli, constraint, control, linalg, model_io
from vnhc import expr as ex
from vnhc.model_io import load_model_dict

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


def defines(monkeypatch) -> list:
    """The sources `linalg._define` compiles from now on, in order."""
    sources, define = [], linalg._define
    monkeypatch.setattr(linalg, "_define", lambda source: sources.append(source) or define(source))
    return sources


def test_second_load_compiles_nothing(tmp_path, monkeypatch):
    path = model_file(tmp_path, "vortex")
    use(*load_model(path))
    defined = defines(monkeypatch)
    use(*load_model(path))
    assert defined == []


def test_second_load_folds_nothing(tmp_path, monkeypatch):
    # A model text loaded again gives back its pair, with both kernels
    # built: a second load, then tau_star and check, writes and compiles
    # no pair source.
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
    defined = defines(monkeypatch)
    build()
    assert (written, defined) == ([], [])


def test_two_sources_per_pair(tmp_path, monkeypatch):
    # A pair compiles two sources: the step kernel, whose stage 1 the views
    # run and which gives integrate every record, the start's included, and
    # the q-only kernel.  A second view builds nothing, and neither view nor
    # run the constraint's own kernel.  The model text is one no other test
    # loads, so its pair has built neither yet.
    path = tmp_path / "boat.json"
    save_model(path, *build_boat(*FIXTURE_CURRENTS["vortex"], m=1.125, I=0.875))
    model, con = load_model(path)
    assert (con._step, con._q_only) == ({}, {})
    s = State(q=(0.1, 0.2, 0.3), qdot=(0.4, 0.5, 0.6))
    defined, built = defines(monkeypatch), []
    step_source = control._step_source
    monkeypatch.setattr(control, "_step_source", lambda *a: built.append(a) or step_source(*a))
    tau_star(model, con, s)
    assert (defined, len(built)) == ([step_source(model, con)], 1)
    integrate(model, con, s, t_end=2e-3, h=1e-3)
    assert (len(defined), len(built), "_kernel" in vars(con)) == (1, 1, False)
    constraint.transversality_check(con, model, s.q)
    assert defined[1:] == ["\n".join(constraint._q_only_source(model, con))]
    del defined[:], built[:]
    tau_star(model, con, s)
    assert (defined, built) == ([], [])


def stage_calls(monkeypatch) -> list:
    """The loading stages of `expr` called from now on, by name."""
    calls = []
    for stage in ("_Parser", "_refold", "_rule", "_emit"):
        real = getattr(ex, stage)
        monkeypatch.setattr(ex, stage, lambda *a, real=real, stage=stage, **k: (
            calls.append(stage), real(*a, **k))[1])
    return calls


def test_second_load_derives_nothing(tmp_path, monkeypatch):
    # A second load parses, folds, differentiates and emits nothing.
    path = model_file(tmp_path, "gen5")

    def build():
        model, con = load_model(path)
        constraint._q_only(model, con), control._step(model, con), model._first_kind

    build()
    calls = stage_calls(monkeypatch)
    build()
    assert calls == []


def test_one_off_evaluations_evict_no_model_kernel(tmp_path, monkeypatch):
    path = model_file(tmp_path, "vortex")
    load_model(path)
    x = ex.Symbol("x")
    for k in range(300):
        assert ex.evaluate(x * x + float(k), {"x": 2.0}) == 4.0 + k
    calls, defined = stage_calls(monkeypatch), defines(monkeypatch)
    load_model(path)
    assert (calls, defined) == ([], [])


def test_rewritten_file_is_loaded_afresh(tmp_path):
    # The memos are keyed by content, not by path.
    path, shear = model_file(tmp_path, "vortex"), model_file(tmp_path, "shear")
    s = State(q=(0.1, -0.2, 0.5), qdot=(0.4, 0.3, 0.8))
    vortex = repr(vnhc.closed_loop_acceleration(*load_model(path), s))
    path.write_bytes(shear.read_bytes())
    again = repr(vnhc.closed_loop_acceleration(*load_model(path), s))
    assert again == repr(vnhc.closed_loop_acceleration(*load_model(shear), s)) != vortex


def fresh_memo(monkeypatch, size=model_io.LOAD_CACHE_SIZE):
    """An empty load memo of size contents in place of the process's, over
    the same function."""
    memo = functools.lru_cache(maxsize=size)(model_io._load_content.__wrapped__)
    monkeypatch.setattr(model_io, "_load_content", memo)
    return memo


def test_failed_load_keeps_nothing(tmp_path, monkeypatch):
    # A file rewritten to invalid JSON fails to load and keeps nothing;
    # restored, it gives back the pair loaded before.
    memo = fresh_memo(monkeypatch)
    path = model_file(tmp_path, "vortex")
    text, pair = path.read_text(), load_model(path)
    path.write_text(text[:-3])
    with pytest.raises(model_io.ModelFileError, match="invalid JSON"):
        load_model(path)
    path.write_bytes(b"\xff" + text.encode())
    with pytest.raises(model_io.ModelFileError, match="invalid JSON: 'utf-8' codec"):
        load_model(path)
    assert memo.cache_info().currsize == 1
    path.write_text(text)
    assert load_model(path) is pair
    assert memo.cache_info().currsize == 1


def test_same_content_at_two_paths_is_one_pair(tmp_path, monkeypatch):
    # The memo is keyed by content: a copy of a file loads as its pair.
    memo = fresh_memo(monkeypatch)
    path = model_file(tmp_path, "shear")
    copy = tmp_path / "copy.json"
    copy.write_bytes(path.read_bytes())
    assert load_model(copy) is load_model(path)
    assert memo.cache_info()[:2] == (1, 1)  # hits, misses


def compiled(monkeypatch) -> list:
    """The ids of the expressions each `expr.compile_exprs` call compiles
    from now on (ids, so that the record holds no node alive)."""
    calls, compile_exprs = [], ex.compile_exprs
    monkeypatch.setattr(ex, "compile_exprs", lambda exprs, *a: (
        calls.append([id(e) for e in exprs]), compile_exprs(exprs, *a))[1])
    return calls


def test_repeated_evaluation_compiles_once(monkeypatch):
    e = ex.parse("u * 0.375 + sin(u)")
    calls = compiled(monkeypatch)
    values = [ex.evaluate(e, {"u": 2.0}) for _ in range(3)]
    assert values == [0.75 + math.sin(2.0)] * 3
    assert calls == [[id(e)]]
    ex.evaluate(e, {"u": 1.0, "v": 0.0})  # other names, another kernel
    assert calls == [[id(e)]] * 2


def test_65th_evaluated_node_evicts_the_first(monkeypatch):
    # Each entry holds its node alive until 64 distinct nodes evaluated
    # after it evict it; it is then freed.
    u = ex.Symbol("u")
    first = u * 0.0625 + u
    node = weakref.ref(first)
    calls = compiled(monkeypatch)
    assert ex.evaluate(first, {"u": 1.0}) == 1.0625
    del first
    for k in range(1, 64):
        assert ex.evaluate(u * 0.0625 + float(k), {"u": 1.0}) == 0.0625 + k
    gc.collect()
    assert node() is not None  # kept by the memo
    ex.evaluate(u * 0.0625 + 64.0, {"u": 1.0})
    gc.collect()
    assert node() is None and len(calls) == 65


@pytest.mark.parametrize("name", [*FIXTURE_CURRENTS, "gen5"])
def test_repeated_load_is_bit_identical(tmp_path, monkeypatch, name):
    # The same text gives the same pair, and the results of a pair built
    # afresh from it, every source compiled again.
    path = model_file(tmp_path, name)

    def reprs(model, con):
        rng = random.Random(name)
        out = []
        for _ in range(200):
            q = tuple(rng.uniform(-1.0, 1.0) for _ in range(model.n))
            qd = tuple(rng.uniform(-1.0, 1.0) for _ in range(model.n))
            out.append(repr(solve_control(model, con, State(q=q, qdot=qd))))
        out.append(repr(integrate(model, con, State(q=q, qdot=qd), t_end=0.5, h=1e-3,
                                  sample_every=10)))
        return out

    pair = load_model(path)
    first = reprs(*pair)
    assert load_model(path) is pair
    assert reprs(*load_model(path)) == first
    defined = defines(monkeypatch)
    assert reprs(*load_model_dict(json.loads(path.read_text()))) == first
    assert len(defined) == 1  # the rebuilt pair's step kernel


def test_dropped_pair_frees_its_kernels(tmp_path, monkeypatch):
    # The load memo keeps a pair with its kernels while the pair is among
    # its last texts; once dropped and held by no caller, the pair is
    # freed with every kernel it built.  Each mass is another model text.
    fresh_memo(monkeypatch, 2)
    paths = [tmp_path / f"boat{k}.json" for k in range(3)]
    for k, path in enumerate(paths):
        save_model(path, *build_boat("sin(y)", "cos(x)", m=1.0 + k))
    s = State(q=(0.1, 0.2, 0.3), qdot=(0.4, 0.5, 0.6))
    (_, _, th), (xd, yd, thd) = s.q, s.qdot
    model, con = load_model(paths[0])
    law = -thd * (math.cos(th) * xd + math.sin(th) * yd)
    assert tau_star(model, con, s)[0] == pytest.approx(law, rel=1e-12, abs=1e-15)
    kernels = [weakref.ref(k) for k in (control._step(model, con),
                                        constraint._q_only(model, con), model._kernel)]
    del model, con
    load_model(paths[1])
    gc.collect()
    assert all(k() is not None for k in kernels)  # kept by the memo
    load_model(paths[2])  # drops paths[0], the least recently loaded
    gc.collect()
    assert [k() for k in kernels] == [None] * 3


# Runs argv by `cli.main` in this process and writes, as its last stderr
# line, the exit code, the number of `linalg._define` calls and of distinct
# sources among them.
COUNT_DEFINES = """
import json, sys
from vnhc import cli, linalg
sources, define = [], linalg._define
linalg._define = lambda source: sources.append(source) or define(source)
code = cli.main(sys.argv[1:])
print(json.dumps([code, len(sources), len(set(sources))]), file=sys.stderr)
"""


@pytest.mark.parametrize("name", ["vortex", "gen5"])
def test_fresh_command_compiles_each_source_once(tmp_path, name):
    # A fresh process builds its pair once, so no source is compiled twice,
    # and a load compiles nothing: each command compiles the kernels it runs.
    path = str(model_file(tmp_path, name))
    q, qd = ("0.1,-0.2,0.5", "0.4,0.3,0.8") if name == "vortex" else (
        "0.1,0.2,-0.3,0.4,0.5", "0.2,-0.1,0.3,0.1,-0.2")
    simulate = ["simulate", path, "--q0", q, "--qdot0", qd, "--t-end", "0.05", "--dt", "1e-3",
                "--out", str(tmp_path / "traj.csv")]
    for argv, sources in (
            # the q-only kernel
            (["check", path, "--grid", "x=-1:1:3" if name == "vortex" else "q1=-1:1:3"], 1),
            # the step kernel, which gives every record, the start's included
            (simulate, 1),
            # and for one projection the constraint's and the model's
            # kernels and four per-size linalg routines: Cholesky, its
            # solve, LU and its solve
            ([*simulate, "--project"], 7),
            (["control-at", path, "--q", q, "--qdot", qd], 1)):  # the step kernel
        done = subprocess.run([sys.executable, "-c", COUNT_DEFINES, *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": SRC})
        assert json.loads(done.stderr.splitlines()[-1]) == [0, sources, sources], argv


# phi = yd + log(x), from x = 0.05 at xd = -1: the sample at step 5 meets log(0)
CROSSING = {"coordinates": ["x", "y"], "metric": [["1", "0"], ["0", "1"]],
            "inputs": [["0", "1"]], "constraint": {"mu": [["0", "1"]], "Z": ["log(x)"]}}
# a force with a pole at x = 0, where every gate of q holds
FORCE_POLE = {"coordinates": ["x", "y"], "metric": [["1", "0"], ["0", "1"]],
              "external_force": ["1/x", "0"], "inputs": [["1", "0"]],
              "constraint": {"mu": [["1", "0"]], "Z": ["0"]}}


@pytest.mark.parametrize("name, argv, sources", [
    # the q-only kernel, which names its own math error or fails a gate of
    # the metric before the constraint's lines; check's rank then reads S
    # from the constraint's kernel
    ("z_log", ["check", "--point", "x=-1"], 2),
    ("dv_log", ["check", "--point", "x=0"], 2),
    ("w_sqrt", ["check", "--point", "x=0"], 2),
    ("c_sqrt", ["check", "--point", "x=0"], 2),
    ("metric_pole", ["check", "--point", "x=0"], 2),
    # the step kernel, then the q-only kernel, which judges q first: its
    # record is admissible at the force's pole, and the step kernel's own
    # line names the error
    ("crossing", ["simulate", "--q0", "0.05,0", "--qdot0=-1,0", "--t-end", "0.2", "--dt", "1e-2",
                  "--out", "traj.csv"], 2),
    ("force_pole", ["simulate", "--q0", "0,0", "--qdot0", "0,0", "--t-end", "0.01", "--dt",
                    "1e-3", "--out", "traj.csv"], 2),
])
def test_failing_command_compiles_each_kernel_once(tmp_path, name, argv, sources):
    # Each kernel names its own math error from its own frame, so a failing
    # command compiles one source per kernel it runs, and no traced copy,
    # and none of the model's, the force's or the per-size linalg routines.
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"crossing": CROSSING, "force_pole": FORCE_POLE}.get(name)
                               or MODELS[name]), encoding="utf-8")
    done = subprocess.run([sys.executable, "-c", COUNT_DEFINES, argv[0], str(path), *argv[1:]],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert "Traceback" not in done.stderr
    assert json.loads(done.stderr.splitlines()[-1]) == [1, sources, sources], argv


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
