"""The runtime needs no numpy: the command line gives the same exit codes
and the same output with numpy blocked (`sys.modules["numpy"] = None`, so
importing it raises ImportError) as with numpy importable, and a run with
numpy importable never imports it."""

import json
import os
import re
import subprocess
import sys

import vnhc

SRC = os.path.dirname(os.path.dirname(vnhc.__file__))

# Runs each argv of sys.argv[2] (JSON) through vnhc.cli.main in this one
# process, numpy blocked when sys.argv[1] == "block", and prints the exit
# codes and stdouts as JSON.
RUNNER = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
import vnhc, vnhc.cli
runs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = vnhc.cli.main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps({"runs": runs, "numpy": sys.modules.get("numpy") is not None}))
"""

PLANE = {
    "coordinates": ["x", "y"],
    "metric": [["x", "0.5"], ["0.5", "1"]],
    "inputs": [["1", "0"]],
    "constraint": {"mu": [["x", "0"]], "Z": ["0"]},
}

COMMANDS = [
    ["fixture", "boat", "--current", "vortex", "--out", "boat.json"],
    ["check", "boat.json", "--grid", "x=-1:1:3", "--grid", "theta=0:6.28:4"],
    ["control-at", "boat.json", "--q", "0.1,-0.2,0.5", "--qdot", "0.4,0.3,0.8"],
    ["simulate", "boat.json", "--q0", "0.1,-0.2,0.5", "--qdot0", "0.4,0.3,0.8",
     "--t-end", "0.05", "--dt", "1e-3", "--sample-every", "10", "--project",
     "--out", "traj.csv"],
    ["check", "plane.json", "--point", "x=-1"],  # metric not SPD
    ["check", "plane.json", "--point", "x=0"],  # S = 0: rank defect
]


def run(mode, cwd):
    with open(os.path.join(cwd, "plane.json"), "w") as f:
        json.dump(PLANE, f)
    done = subprocess.run(
        [sys.executable, "-c", RUNNER, mode, json.dumps(COMMANDS)],
        cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_same_output_without_numpy(tmp_path):
    dirs = {mode: tmp_path / mode for mode in ("block", "allow")}
    for d in dirs.values():
        d.mkdir()
    blocked, allowed = (run(mode, str(d)) for mode, d in dirs.items())
    assert [code for code, _ in allowed["runs"]] == [0, 0, 0, 0, 1, 1]
    assert "SPD-FAILURE" in allowed["runs"][4][1]
    assert "rank=DEFECT" in allowed["runs"][5][1]
    # simulate's summary reports its own wall time; everything else is bytes
    runtime = re.compile(r'"runtime_s": [^,]*, ')
    strip = [[code, runtime.sub("", out)] for code, out in blocked["runs"]]
    assert strip == [[code, runtime.sub("", out)] for code, out in allowed["runs"]]
    for name in ("boat.json", "traj.csv"):
        assert (dirs["block"] / name).read_bytes() == (dirs["allow"] / name).read_bytes()
    assert not allowed["numpy"]
