"""`vnhc check`, `simulate` and `control-at` output, pinned byte for byte,
and the generated kernel sources, pinned by their SHA-256.

`golden_check.txt` holds the exit code, standard output and standard error
of each command in CASES, as the package printed them when `check` still
ran the constraint's and the model's kernels and the Python gates of
`control._p_system` at every point.  Any change to a verdict, a number or
a message shows here.  To write the file again after a deliberate change
of the output format:

    PYTHONPATH=src python tests/test_golden.py

`golden_simulate.txt` holds, the same way, the exit code, standard output
(without `runtime_s`) and standard error of each command in SIM_CASES,
and the CSV each `simulate` wrote, as the package printed them when each
RK4 stage was one call of the closed-loop field.

The kernel pins: `MODEL_KERNELS_SHA256` covers the model's, the
constraint's, the force's and the first-kind kernels; `Q_ONLY_KERNELS_SHA256`
and `STEP_KERNELS_SHA256` the two kernels of each pair, the q-only kernel
and the RK4 step kernel, whose stage 1 alone is the closed-loop evaluation
of the views; and `CLOSED_LOOP_SHA256` the step kernel of the vortex boat
and of gen5.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

from test_control import build_gen4, build_gen5

from vnhc import FIXTURE_CURRENTS, build_boat, constraint, control, linalg, save_model
from vnhc.cli import main

GOLDEN = Path(__file__).with_name("golden_check.txt")
GOLDEN_SIMULATE = Path(__file__).with_name("golden_simulate.txt")


def plane(metric=("1", "1"), inputs=("1", "0"), mu=("1", "0"), Z="0", potential="0"):
    return {"coordinates": ["x", "y"], "metric": [[metric[0], "0"], ["0", metric[1]]],
            "potential": potential, "inputs": [list(inputs)],
            "constraint": {"mu": [list(mu)], "Z": [Z]}}


def space(inputs, mu):
    """Unit metric on (x, y, z), two inputs and two constraint rows."""
    return {"coordinates": ["x", "y", "z"],
            "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            "inputs": [list(row) for row in inputs],
            "constraint": {"mu": [list(row) for row in mu], "Z": ["0", "0"]}}


MODELS = {  # name -> model file data
    "non_spd": plane(metric=("x", "1")),
    "thin": plane(metric=("1", "1e-309")),  # cond(G) = 1e309: the ratio's square overflows
    "rank_defect": plane(mu=("x", "0")),
    "singular_p": plane(inputs=("0", "1")),
    "pivot_gate": plane(inputs=("1e-13", "1")),
    "rank_defect_m2": space(inputs=(("1", "0", "0"), ("0", "1", "0")),
                            mu=(("1", "1e5", "0"), ("0", "1e-5", "0"))),
    # P = [[1, 1e5], [0, 1e-5]]: pivots above the pivot gate, cond_1(P) about 1e15
    "p_condition_cap": space(inputs=(("1", "0", "0"), ("1e5", "1e-5", "0")),
                             mu=(("1", "0", "0"), ("0", "1", "0"))),
    "p_inf": plane(inputs=("1e300*x", "0")),
    "s_inf": plane(mu=("1e300*x", "0")),
    "z_log": plane(Z="log(x)"),
    "dv_log": plane(potential="log(x)"),
    "w_sqrt": plane(metric=("1 + sqrt(x)", "1")),  # d/dx sqrt(x) divides by zero at x = 0
    "c_sqrt": plane(mu=("1 + sqrt(x)", "0")),
    "metric_pole": plane(metric=("1/x", "1")),
    # the metric's condition, e^x, passes its cap at x = 27.63
    "threshold": plane(metric=("1", "exp(x)"), inputs=("0", "1"), mu=("0", "1")),
}

CASES = [  # (model, check arguments after the model file)
    ("vortex", "--grid x=-2:2:5 --grid y=-1:1:3 --grid theta=0:6.28:4"),
    ("shear", "--grid x=-2:2:3 --grid theta=-3:3:5 --point y=0.5,theta=1"),
    ("gen5", "--grid q1=-1:1:3 --grid q3=-2:2:3 --grid q5=0:3:4"),
    ("rank_defect", "--point x=0 --point x=1e-12 --point x=1"),
    ("non_spd", "--point x=-1 --point x=0 --point x=2"),
    ("thin", ""),
    ("singular_p", ""),
    ("pivot_gate", ""),
    ("rank_defect_m2", ""),
    ("p_condition_cap", ""),
    ("p_inf", "--point x=1e10 --point x=1"),
    ("s_inf", "--point x=1e10 --point x=1"),
    ("z_log", "--point x=-1 --point x=0 --point x=2"),
    ("dv_log", "--point x=0 --point x=-1 --point x=2"),
    ("w_sqrt", "--point x=0 --point x=1"),
    ("c_sqrt", "--point x=0 --point x=1"),
    ("metric_pole", "--grid x=-1:1:3 --grid y=0:1:2"),
]


def write_models(directory: Path) -> dict:
    paths = {}
    for name in ("vortex", "shear", "gen5"):
        paths[name] = directory / f"{name}.json"
        save_model(paths[name], *(build_gen5() if name == "gen5"
                                  else build_boat(*FIXTURE_CURRENTS[name])))
    for name, data in MODELS.items():
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(data), encoding="utf-8")
    return paths


def golden_text(directory: Path) -> str:
    paths = write_models(directory)
    out = []
    for name, args in CASES:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["check", str(paths[name]), *args.split()])
        out += [f"$ vnhc check {name}.json {args}".rstrip(), stdout.getvalue().rstrip("\n"),
                *(f"stderr: {line}" for line in stderr.getvalue().splitlines()), f"exit {code}"]
    return "\n".join(out) + "\n"


def test_check_output_is_golden(tmp_path):
    assert golden_text(tmp_path) == GOLDEN.read_text(encoding="utf-8")


SIM_CASES = [  # (model, command and arguments after the model file; {out} is the CSV)
    ("vortex", "simulate --q0 0.1,-0.2,0.5 --qdot0 0.4,0.3,0.8 --t-end 0.2 --dt 1e-3 "
               "--sample-every 10 --project --out {out}"),
    ("vortex", "simulate --q0 0.1,-0.2,3.13 --qdot0 0.4,0.3,0.8 --t-end 0.05 --dt 1e-3 "
               "--sample-every 7 --wrap theta --out {out}"),
    ("vortex", "control-at --q 0.1,-0.2,0.5 --qdot 0.4,0.3,0.8"),
    ("shear", "simulate --q0 1,2,-0.5 --qdot0=-0.3,0.2,0.6 --t-end 0.02 --dt 2e-3 --out {out}"),
    ("shear", "control-at --q 1,2,-0.5 --qdot=-0.3,0.2,0.6"),
    ("gen5", "simulate --q0 0.1,-0.2,0.3,0.4,-0.5 --qdot0 0.2,0.1,-0.3,0.05,0.4 --t-end 0.05 "
             "--dt 1e-3 --sample-every 5 --project --out {out}"),
    ("gen5", "control-at --q 0.1,-0.2,0.3,0.4,-0.5 --qdot 0.2,0.1,-0.3,0.05,0.4"),
    ("threshold", "simulate --q0 26.6,0 --qdot0 3,0 --t-end 0.6 --dt 0.1 --sample-every 2 "
                  "--out {out}"),
]


def golden_simulate_text(directory: Path) -> str:
    paths, csv = write_models(directory), directory / "traj.csv"
    out = []
    for name, args in SIM_CASES:
        command, *rest = args.format(out=csv).split()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, str(paths[name]), *rest])
        printed = re.sub(r'"runtime_s": [^,]*, ', "", stdout.getvalue()).replace(str(csv), "{out}")
        out += [f"$ vnhc {command} {name}.json {' '.join(rest)}".replace(str(csv), "{out}"),
                printed.rstrip("\n"), *(f"stderr: {line}" for line in stderr.getvalue().splitlines()),
                f"exit {code}"]
        if csv.exists():
            out.append(csv.read_text(encoding="utf-8").rstrip("\n"))
            csv.unlink()
    return "\n".join(out) + "\n"


def test_simulate_output_is_golden(tmp_path):
    assert golden_simulate_text(tmp_path) == GOLDEN_SIMULATE.read_text(encoding="utf-8")


# SHA-256 of control._step_source(model, con), the pair's closed-loop
# kernel: the RK4 step, whose stage 1 alone the views run and whose start
# record integrate takes, and whose failure returns the math error it
# caught.
CLOSED_LOOP_SHA256 = {
    "vortex": "cbcc5fa30de5d379131ef5a5ddce1df5d607f1f16c10eab2b476263280c27ec5",
    "gen5": "45e0d4959b95ea4f7e8e7d38e3212dd9e9639a1317666a0f54d211e2efe9a0ed",
}


def closed_loop_sha256() -> dict:
    out = {}
    for name, (model, con) in (("vortex", build_boat(*FIXTURE_CURRENTS["vortex"])),
                               ("gen5", build_gen5())):
        out[name] = hashlib.sha256(control._step_source(model, con).encode()).hexdigest()
    return out


def test_closed_loop_source_is_unchanged():
    assert closed_loop_sha256() == CLOSED_LOOP_SHA256


# The most lines each step kernel may have: one fewer than when its sums
# kept their zero terms (106, 115 and 118 lines).  gen5's sums have none,
# as its metric depends on q and its constraint rows lead with 1; its 341
# lines became 342 when each function call got a line of its own, which
# split -math.sin(_a4) in two.
STEP_LINES = {"still": 105, "shear": 114, "vortex": 117, "gen5": 342}


def pair_systems() -> dict:
    systems = {name: build_boat(*FIXTURE_CURRENTS[name]) for name in ("still", "shear", "vortex")}
    systems["gen5"] = build_gen5()
    return systems


def assert_no_zero_terms(source: str, name: str):
    assert not re.search(r"(?<![\w.])0\.0 \*", source), name  # no product with 0.0
    assert not re.search(r"^ *(\w+) = \1$", source, re.MULTILINE), name  # no x = x


def test_step_kernels_drop_their_zero_terms():
    for name, (model, con) in pair_systems().items():
        source = control._step_source(model, con)
        assert_no_zero_terms(source, name)
        # b's S is finite past P's gate: no product with a known-zero drift
        assert not re.search(r"^ *b\d+ = .*\* 0\.0(?![\d.e])", source, re.MULTILINE), name
        assert len(source.splitlines()) <= STEP_LINES[name], name


# The lines of each q-only kernel: 28, 30, 31 and 224 when its sums kept
# their zero terms, such as the products with L's zeros in a boat's solves
# (gen5's sums have none, as for its step kernel); then 24, 26, 27 and 224
# while it kept a statement for each inline root of dV, w, Z and c at rest,
# whose raising operations are now lines of their own.
Q_ONLY_LINES = {"still": 23, "shear": 24, "vortex": 27, "gen5": 214}


def test_q_only_kernels_drop_their_zero_terms():
    for name, (model, con) in pair_systems().items():
        source = "\n".join(constraint._q_only_source(model, con))
        assert_no_zero_terms(source, name)
        assert len(source.splitlines()) == Q_ONLY_LINES[name], name


# SHA-256 of the sources `kernel_sources` records, each followed by "\0": the
# model's, the constraint's, the force's and the first-kind kernels, which
# nothing folds; and the pair's q-only and RK4 step kernels, whose sums drop
# their zero terms by one rule (b's also a product with a known-zero drift
# entry, S being finite there), and each of whose q-only returns writes all
# ten fields of `constraint._QOnly`.  Every kernel's expressions are
# emitted by one rule: each division, power and function call on a line of
# its own, + - * inline, operands in source order.  Both pair kernels run
# in the views' order, the metric's gates before P's, which bind S; the
# q-only kernel the model's lines, then the metric's block, then the
# constraint's lines; the step kernel's failure returns its math error.
MODEL_KERNELS_SHA256 = "79d9ec31ff9f4a3048052945f472065227a011c397e5c0b9f410d6fdeaddb113"
Q_ONLY_KERNELS_SHA256 = "fc90966817a217691dc66266639ea7636da3bbc515daebca936cdbe3be0c3814"
STEP_KERNELS_SHA256 = "75249f432ec06ab01dd73b6516d8175c383fc2bf3ddf7bd8fe544459e182eed0"


def kernel_sources() -> tuple[list[str], list[str]]:
    """The source of every kernel the three boats, gen4 and gen5 compile,
    in order: per system the model's, the constraint's, the force's and the
    first-kind kernels, then the pair's q-only and step kernels, each
    recorded as it reaches `linalg._define`."""
    model_sources, pair_sources = [], []
    sources = model_sources
    real = linalg._define
    linalg._define = lambda source: sources.append(source) or real(source)
    try:
        for build in [*(lambda c=c: build_boat(*c) for c in FIXTURE_CURRENTS.values()),
                      build_gen4, build_gen5]:
            sources = model_sources
            model, con = build()
            model._kernel, con._kernel, model._force_fn, model._first_kind
            sources = pair_sources
            constraint._q_only(model, con)
            control._step(model, con)
    finally:
        linalg._define = real
    return model_sources, pair_sources


def sha256(sources: list[str]) -> str:
    return hashlib.sha256("".join(s + "\0" for s in sources).encode()).hexdigest()


def test_every_kernel_source_is_unchanged():
    model_sources, pair_sources = kernel_sources()
    systems = len(FIXTURE_CURRENTS) + 2
    assert (len(model_sources), len(pair_sources)) == (4 * systems, 2 * systems)
    assert (sha256(model_sources), sha256(pair_sources[0::2]), sha256(pair_sources[1::2])) == (
        MODEL_KERNELS_SHA256, Q_ONLY_KERNELS_SHA256, STEP_KERNELS_SHA256)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(golden_text(Path(tmp)), encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN_SIMULATE.write_text(golden_simulate_text(Path(tmp)), encoding="utf-8")
    print(closed_loop_sha256(), *map(sha256, kernel_sources()), file=sys.stderr)
