"""Smoke tests of the benchmark itself (not of vnhc).

    python -m pytest bench/test_bench.py -q

Tiny runs must report every metric BENCHMARK.json names, for every
workload, and a broken gate must turn into failed operations.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    result = run.run(workload, seed=1, seconds=0.4, trace=bool(trace))["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_wrong_tau_fails_the_boat_law_gate(monkeypatch):
    vnhc = run.import_program()
    real = vnhc.tau_star
    monkeypatch.setattr(vnhc, "tau_star", lambda *a: [t + 1e-6 for t in real(*a)])
    out = run.run("tau-sweep", seed=1, seconds=0.3, trace=False)
    assert out["result"]["failed"] > 0
    assert not out["result"]["correct"]
    assert out["result"]["metrics"] == {}
    assert out["report"]["error_rate"] > 0


def test_phi_drift_gate_failure_is_counted(monkeypatch):
    monkeypatch.setattr(run, "PHI_DRIFT_GATE", 0.0)
    out = run.run("simulate-vortex", seed=1, seconds=0.3, trace=False)
    assert out["result"]["failed"] == out["result"]["attempted"]
    assert out["result"]["metrics"] == {}


def test_command_line_prints_result_last():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check-grid", "--seed", "2",
         "--seconds", "0.3", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tau-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_follow_the_seed():
    assert inputs.tau_states(5, 3) == inputs.tau_states(5, 3)
    assert inputs.tau_states(5, 3) != inputs.tau_states(6, 3)
    assert inputs.Gen5(5).model_dict() == inputs.Gen5(5).model_dict()
    assert inputs.check_grids(5, 2, 4) != inputs.check_grids(6, 2, 4)
    assert inputs.simulate_starts(5, 3)[0] == (inputs.CRITERION2_Q0, inputs.CRITERION2_QDOT0)


def test_gen5_check_rejects_a_singular_metric(monkeypatch):
    gen = inputs.Gen5(3)
    gen.A = [[inputs.Term(0.0)] * inputs.N5 for _ in range(inputs.N5)]
    monkeypatch.setattr(inputs, "GEN5_SHIFT", 0.0)
    with pytest.raises(ValueError, match="not SPD"):
        inputs.check_gen5(gen, [((0.0,) * 5, (0.0,) * 5)])
