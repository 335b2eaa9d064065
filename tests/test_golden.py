"""`vnhc check` output, pinned byte for byte, and the generated kernel
sources, pinned by their SHA-256.

`golden_check.txt` holds the exit code, standard output and standard error
of each command in CASES, as the package printed them when `check` still
ran the constraint's and the model's kernels and the Python gates of
`control._p_system` at every point.  Any change to a verdict, a number or
a message shows here.  To write the file again after a deliberate change
of the output format:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from test_control import build_gen4, build_gen5

from vnhc import FIXTURE_CURRENTS, build_boat, constraint, control, linalg, save_model
from vnhc.cli import main

GOLDEN = Path(__file__).with_name("golden_check.txt")


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


# SHA-256 of "\n".join(control._closed_loop_source(model, con)).
CLOSED_LOOP_SHA256 = {
    "vortex": "bfbd6a3ad436a2637fb2a08faa11e2e07b0427932dbc992756039394d661a140",
    "gen5": "519ab97488b2e88e5df3b765bfd0ed674221eb5f38ab57cb0db0bce0de5d3226",
}


def closed_loop_sha256() -> dict:
    out = {}
    for name, (model, con) in (("vortex", build_boat(*FIXTURE_CURRENTS["vortex"])),
                               ("gen5", build_gen5())):
        source = "\n".join(control._closed_loop_source(model, con))
        out[name] = hashlib.sha256(source.encode()).hexdigest()
    return out


def test_closed_loop_source_is_unchanged():
    assert closed_loop_sha256() == CLOSED_LOOP_SHA256


# SHA-256 of every source `kernel_sources` records, each followed by "\0".
KERNEL_SOURCES_SHA256 = "569d992bef587ec527a627a90f18a9ebf044b70c92683ccbf69c1c7371c5272f"


def kernel_sources() -> list[str]:
    """The source of every kernel the three boats, gen4 and gen5 compile,
    in order: per system the model's, the constraint's, the force's, the
    first-kind, the q-only and the closed-loop kernels, each recorded as
    it reaches `linalg._define` (every build of each passes there)."""
    sources = []
    real = linalg._define
    linalg._define = lambda source: sources.append(source) or real(source)
    try:
        for build in [*(lambda c=c: build_boat(*c) for c in FIXTURE_CURRENTS.values()),
                      build_gen4, build_gen5]:
            model, con = build()
            model._force_fn, model._first_kind
            constraint._q_only(model, con)
            control._closed_loop(model, con)
    finally:
        linalg._define = real
    return sources


def kernel_sources_sha256() -> str:
    return hashlib.sha256("".join(s + "\0" for s in kernel_sources()).encode()).hexdigest()


def test_every_kernel_source_is_unchanged():
    sources = kernel_sources()
    assert len(sources) == 6 * (len(FIXTURE_CURRENTS) + 2)
    assert kernel_sources_sha256() == KERNEL_SOURCES_SHA256


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(golden_text(Path(tmp)), encoding="utf-8")
    print(closed_loop_sha256(), kernel_sources_sha256(), file=sys.stderr)
