import contextlib
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from test_q_only import line_from_views

import vnhc
from vnhc import (
    EvalError,
    MechanicalModel,
    ModelError,
    State,
    b_vector,
    build_boat,
    build_linear_fixture,
    closed_loop_acceleration,
    load_model,
    model_to_dict,
    save_model,
    solve_control,
    tau_star,
    transversality_check,
)
from vnhc import cli
from vnhc.cli import main

SRC = os.path.dirname(os.path.dirname(vnhc.__file__))

DEGENERATE = {
    "coordinates": ["x", "y"],
    "metric": [["1", "0"], ["0", "1"]],
    "inputs": [["0", "1"]],
    "constraint": {"mu": [["1", "0"]], "Z": ["0"]},
}


@pytest.fixture
def boat_file(tmp_path):
    path = tmp_path / "boat.json"
    model, con = build_boat("0", "0", m=1.0, I=1.0)
    save_model(path, model, con)
    return str(path)


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestCheck:
    def test_boat_ok(self, boat_file, capsys):
        code = main(["check", boat_file, "--grid", "theta=0:6.28:8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "transversality=ok" in out
        assert "cond=1 " in out or "cond=1\n" in out or "cond=1" in out
        assert out.count("q=(") == 8

    def test_degenerate_violation(self, tmp_path, capsys):
        path = write_json(tmp_path, "degenerate.json", DEGENERATE)
        code = main(["check", path])
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATION" in out

    def test_malformed_expression(self, tmp_path, capsys):
        bad = dict(DEGENERATE)
        bad["metric"] = [["1 +", "0"], ["0", "1"]]
        path = write_json(tmp_path, "bad.json", bad)
        code = main(["check", path])
        err = capsys.readouterr().err
        assert code == 2
        assert "byte offset" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        bad = dict(DEGENERATE)
        bad["extra"] = 1
        path = write_json(tmp_path, "unknown.json", bad)
        assert main(["check", path]) == 2

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/model.json"]) == 2

    def test_point_flag(self, boat_file, capsys):
        code = main(["check", boat_file, "--point", "theta=1.0,x=2"])
        assert code == 0
        assert "q=(2, 0, 1)" in capsys.readouterr().out


class TestCheckLines:
    """The per-point line of `check` for each way a point can fail; every
    point gets its line and the exit code is 1."""

    def plane(self, tmp_path, metric00="1", mu0="1"):
        return write_json(tmp_path, "plane.json", {
            "coordinates": ["x", "y"],
            "metric": [[metric00, "0"], ["0", "1"]],
            "inputs": [["1", "0"]],
            "constraint": {"mu": [[mu0, "0"]], "Z": ["0"]},
        })

    def test_rank_defect_line(self, tmp_path, capsys):
        assert main(["check", self.plane(tmp_path, mu0="x"), "--point", "x=0"]) == 1
        assert capsys.readouterr().out == (
            "q=(0, 0) rank=DEFECT(0/1) singular_values=['0.000e+00']\n"
        )

    def test_spd_failure_line(self, tmp_path, capsys):
        assert main(["check", self.plane(tmp_path, metric00="x"), "--point", "x=-1"]) == 1
        assert capsys.readouterr().out == (
            "q=(-1, 0) rank=ok(1/1) metric=SPD-FAILURE (metric not positive definite "
            "at q=(-1.0, 0.0); eigenvalues [-1.0, 1.0])\n"
        )

    def test_rank_error_line(self, tmp_path, capsys):
        path = self.plane(tmp_path, mu0="1/x")
        assert main(["check", path, "--point", "x=0", "--point", "x=1"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "q=(0, 0) rank=ERROR (division by zero in 1 / x)",
            "q=(1, 0) rank=ok(1/1) transversality=ok cond=1 det=1",
        ]

    def test_lines_are_the_per_point_format(self, tmp_path, capsys):
        # The --point points, then the product of the --grid axes, with y, which
        # has no axis, at 0: each line is the one made at its point from the
        # views, its label the point's coordinates formatted with {v:g} (-0.0
        # as -0), whether the label is joined per point or per grid axis.
        model, con = build_boat("sin(y)", "cos(x)", m=1.5)
        path = tmp_path / "boat.json"
        save_model(path, model, con)

        def axis(lo, hi, count):
            return [lo + i * (hi - lo) / (count - 1) for i in range(count)]

        qs = [(-0.0, 0.0, 0.0), (0.0, 1e-7, -2.5)]
        qs += [(x, 0.0, t) for x in axis(-1e-5, 2.5e6, 3) for t in axis(-3.0, 3.1, 4)]
        assert main(["check", str(path), "--point", "x=-0", "--point", "theta=-2.5,y=1e-7",
                     "--grid", "theta=-3:3.1:4", "--grid", "x=-1e-5:2.5e6:3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [line_from_views(model, con, q) for q in qs]
        assert [line[:line.index(")") + 1] for line in lines[:4]] == [
            "q=(-0, 0, 0)", "q=(0, 1e-07, -2.5)", "q=(-1e-05, 0, -3)", "q=(-1e-05, 0, -0.966667)"]
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out == line_from_views(model, con, (0.0,) * 3) + "\n"

    def test_each_line_is_written_before_the_next_point(self, boat_file, monkeypatch):
        out, written = io.StringIO(), []

        def p_system(model, con, q):  # the lines written when point q is evaluated
            written.append(out.getvalue().count("\n"))
            return real(model, con, q)

        real = cli._p_system
        monkeypatch.setattr(cli, "_p_system", p_system)
        with contextlib.redirect_stdout(out):
            assert main(["check", boat_file, "--point", "x=1", "--grid", "theta=0:1:4"]) == 0
        assert written == [0, 1, 2, 3, 4]
        assert out.getvalue().count("\n") == 5

    def test_eval_error_does_not_abort_grid(self, tmp_path, capsys):
        path = boat_with(tmp_path, "inv.json", metric00="1/x")
        code = main(["check", path, "--grid", "x=-1:1:3", "--grid", "theta=0:1:2"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert len(lines) == 6
        assert lines[1].startswith("q=(-1, 0, 1) rank=ok(1/1) metric=SPD-FAILURE (")
        assert lines[2:] == [
            "q=(0, 0, 0) rank=ok(1/1) transversality=ERROR (division by zero in 1 / x)",
            "q=(0, 0, 1) rank=ok(1/1) transversality=ERROR (division by zero in 1 / x)",
            "q=(1, 0, 0) rank=ok(1/1) transversality=ok cond=1 det=1",
            "q=(1, 0, 1) rank=ok(1/1) transversality=ok cond=1 det=1",
        ]


class TestSimulate:
    def test_projected_run(self, boat_file, tmp_path, capsys):
        out_csv = str(tmp_path / "traj.csv")
        code = main([
            "simulate", boat_file,
            "--q0", "0,0,0.5", "--qdot0", "0.4,0.3,0.8",
            "--t-end", "1.0", "--dt", "1e-3", "--sample-every", "100",
            "--project", "--out", out_csv,
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["drift_report"][0] <= 1e-8
        assert abs(summary["phi0"][0]) <= 1e-12
        lines = open(out_csv).read().splitlines()
        assert lines[0] == "t,x,y,theta,xd,yd,thetad,tau_1,phi_1"
        assert len(lines) == summary["samples"] + 1
        # 17 significant digits, locale-independent decimal point
        first = lines[1].split(",")
        assert all("," not in v for v in first)
        assert any(len(v.replace("-", "").replace(".", "").lstrip("0")) >= 15
                   for v in lines[2].split(","))

    def test_off_constraint_conservation(self, boat_file, tmp_path, capsys):
        out_csv = str(tmp_path / "traj.csv")
        code = main([
            "simulate", boat_file,
            "--q0", "0,0,0", "--qdot0", "0.3,-0.7,-0.2",
            "--t-end", "2.0", "--dt", "1e-3", "--sample-every", "100",
            "--out", out_csv,
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["phi0"][0] == pytest.approx(0.7, abs=1e-14)
        assert summary["drift_report"][0] <= 1e-8

    def test_dt_zero_is_usage_error(self, boat_file, tmp_path):
        with pytest.raises(SystemExit) as err:
            main([
                "simulate", boat_file,
                "--q0", "0,0,0", "--qdot0", "0,0,0",
                "--t-end", "1.0", "--dt", "0",
                "--out", str(tmp_path / "x.csv"),
            ])
        assert err.value.code == 2

    def test_wrap_option(self, boat_file, tmp_path, capsys):
        out_csv = str(tmp_path / "traj.csv")
        main([
            "simulate", boat_file,
            "--q0", "0,0,3.0", "--qdot0", "0,0,1.0",
            "--t-end", "1.0", "--dt", "1e-2",
            "--out", out_csv, "--wrap", "theta",
        ])
        capsys.readouterr()
        rows = [l.split(",") for l in open(out_csv).read().splitlines()[1:]]
        thetas = [float(r[3]) for r in rows]
        assert all(-math.pi < t <= math.pi for t in thetas)
        # wrapping is presentation-only: velocity column unaffected
        assert all(float(r[6]) == 1.0 for r in rows)

    def test_blow_up_exit_1(self, tmp_path, capsys):
        data = {
            "coordinates": ["x", "y"],
            "metric": [["1", "0"], ["0", "1"]],
            "external_force": ["xd*xd*xd", "0"],
            "inputs": [["0", "1"]],
            "constraint": {"mu": [["0", "1"]], "Z": ["0"]},
        }
        path = write_json(tmp_path, "blowup.json", data)
        code = main([
            "simulate", path, "--q0", "0,0", "--qdot0", "10,0",
            "--t-end", "1.0", "--dt", "0.1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert "step 2" in capsys.readouterr().err

    def test_metric_failure_mid_run_exit_1(self, tmp_path, capsys):
        # Metric diag(1, x): x reaches 0 at step 10, where the metric's
        # condition passes the cap; the SPDError is reported with its step.
        path = write_json(tmp_path, "thinning.json", {
            "coordinates": ["x", "y"],
            "metric": [["1", "0"], ["0", "x"]],
            "inputs": [["1", "0"]],
            "constraint": {"mu": [["1", "0"]], "Z": ["0"]},
        })
        code = main(["simulate", path, "--q0", "1,0", "--qdot0=-10,0", "--t-end", "0.2",
                     "--dt", "1e-2", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr() == ("", (
            "error: aborted at step 10: metric condition estimate 7.206e+15 exceeds 1e+12 "
            "at q=(1.3877787807814457e-16, 0.0)\n"))

    @pytest.mark.parametrize("mu, Z, code, message", [
        ("1e-170", "1", 0, ""),
        ("1e-160", "1e200", 1, "error: projected qdot (-inf, 0.0) is not finite at q=(0.0, 0.0)\n"),
    ], ids=["underflow", "overflow"])
    def test_projection_failure_exit_1(self, tmp_path, capsys, mu, Z, code, message):
        # check passes; S G^-1 S^T = 1e-340 would underflow, but S is scaled
        # first and the run starts at qdot = (-1e170, 0); the projection of
        # the other overflows
        path = write_json(tmp_path, "tiny.json", {
            "coordinates": ["x", "y"], "metric": [["1", "0"], ["0", "1"]],
            "inputs": [["1", "0"]], "constraint": {"mu": [[mu, "0"]], "Z": [Z]}})
        assert main(["check", path]) == 0
        capsys.readouterr()
        out = tmp_path / "x.csv"
        got = main(["simulate", path, "--q0", "0,0", "--qdot0", "0,0", "--t-end", "0.01",
                    "--dt", "1e-3", "--project", "--out", str(out)])
        assert (got, capsys.readouterr().err) == (code, message)
        if code == 0:
            # t, x, y, xd, yd, tau, phi at the start
            assert out.read_text().splitlines()[1] == "0,0,0,-1e+170,0,-0,0"

    def test_phi_failure_mid_run_exit_1(self, tmp_path, capsys):
        # Z = log(x) with x = 0.05 - t: no stage evaluates Z, the sample at step 5 does
        path = write_json(tmp_path, "crossing.json", {
            "coordinates": ["x", "y"], "metric": [["1", "0"], ["0", "1"]],
            "inputs": [["0", "1"]], "constraint": {"mu": [["0", "1"]], "Z": ["log(x)"]}})
        code = main(["simulate", path, "--q0", "0.05,0", "--qdot0=-1,0", "--t-end", "0.2",
                     "--dt", "1e-2", "--out", str(tmp_path / "x.csv")])
        assert (code, capsys.readouterr()) == (
            1, ("", "error: aborted at step 5: domain error in log(x)\n"))

    def test_no_stage_runs_a_line_only_z_needs(self, tmp_path, capsys):
        # log(x) is bound to a local that only Z reads.  Stage 2 of step 5
        # is at x = -2.5e-5, where it has no value; every sample is at
        # x >= 2.5e-5, so the run completes.
        path = write_json(tmp_path, "log2.json", {
            "coordinates": ["x", "y"], "metric": [["1", "0"], ["0", "1"]], "potential": "-2*x",
            "inputs": [["0", "1"]],
            "constraint": {"mu": [["0", "1"]], "Z": ["log(x) + log(x)"]}})
        out = tmp_path / "x.csv"
        code = main(["simulate", path, "--q0", "0.002025,0", "--qdot0=-0.09,0", "--t-end", "0.1",
                     "--dt", "0.01", "--out", str(out)])
        printed = capsys.readouterr()
        assert (code, printed.err) == (0, "")
        summary = json.loads(printed.out)
        assert (summary["samples"], summary["drift_report"]) == (11, [0.23516906766368528])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "bb073e8c624d0dc1f8b4e2c545c3ef7f9b9beea9cabbee1a4ad9ffb566c9fabd")

    def test_failed_run_leaves_no_file_behind_a_dangling_link(self, tmp_path, capsys):
        # --out links to a file that does not exist: the check that --out is
        # writable makes the link's target, and the failed run removes it
        link, target = tmp_path / "link.csv", tmp_path / "target.csv"
        try:
            os.symlink("target.csv", link)
        except (AttributeError, NotImplementedError, OSError):
            pytest.skip("no symbolic links")
        path = write_json(tmp_path, "singular.json", DEGENERATE)
        code = main(["simulate", path, "--q0", "0,0", "--qdot0", "0,0", "--t-end", "0.01",
                     "--dt", "1e-3", "--out", str(link)])
        assert (code, capsys.readouterr().err) == (1, "error: singular P matrix at q=(0.0, 0.0)\n")
        assert (target.exists(), link.is_symlink()) == (False, True)

    @pytest.mark.parametrize("where, errno_", [
        ("missing/x.csv", errno.ENOENT), ("boat.json/x.csv", errno.ENOTDIR), (".", errno.EISDIR),
        ("locked/x.csv", errno.EACCES),
    ], ids=["missing-directory", "under-a-file", "directory", "denied"])
    def test_unwritable_out_is_found_before_the_run(self, boat_file, tmp_path, capsys,
                                                    monkeypatch, where, errno_):
        # --out is opened right after --project: an unwritable path is one
        # error line, exit 2, and nothing is integrated.
        out = str(tmp_path / where)
        (tmp_path / "locked").mkdir(mode=0o500)
        if where.startswith("locked") and os.access(tmp_path / "locked", os.W_OK):
            real_open = open  # a user that permissions do not bind: denied here

            def denied(path, *args, **kwargs):
                if path == out:
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
                return real_open(path, *args, **kwargs)

            monkeypatch.setattr(cli, "open", denied, raising=False)
        runs = []
        monkeypatch.setattr(cli, "integrate", lambda *a, **k: runs.append(a))
        code = main(["simulate", boat_file, "--q0", "0,0,0", "--qdot0", "0.4,0.3,0.8",
                     "--t-end", "2", "--dt", "1e-4", "--project", "--out", out])
        assert (code, runs) == (2, [])
        assert capsys.readouterr() == (
            "", f"error: [Errno {errno_}] {os.strerror(errno_)}: {out!r}\n")

    @pytest.mark.parametrize("existing", [None, "old\n"])
    @pytest.mark.parametrize("row, Z, argv, code", [
        (["0", "1"], "log(x)", "--q0 0.05,0 --qdot0=-1,0 --t-end 0.2 --dt 1e-2", 1),
        (["1e-160", "0"], "1e200", "--q0 0,0 --qdot0 0,0 --t-end 0.01 --dt 1e-3 --project", 1),
        (["0", "1"], "0", "--q0 0,0 --qdot0 0,0 --t-end 1e300 --dt 1e-300", 2),
    ], ids=["run", "projection", "step-count"])
    def test_failed_run_writes_nothing(self, tmp_path, capsys, existing, row, Z, argv, code):
        # A run that fails, in the projection, the integrator's checks or
        # the run itself, leaves no new file and an existing one untouched.
        path = write_json(tmp_path, "m.json", {
            "coordinates": ["x", "y"], "metric": [["1", "0"], ["0", "1"]],
            "inputs": [["0", "1"] if row[0] == "0" else ["1", "0"]],  # where the row acts
            "constraint": {"mu": [row], "Z": [Z]}})
        out = tmp_path / "x.csv"
        if existing is not None:
            out.write_text(existing)
        assert main(["simulate", path, *argv.split(), "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith("error: ")
        assert (out.read_text() if out.exists() else None) == existing

    def test_longer_file_is_replaced(self, boat_file, tmp_path, capsys):
        argv = ["simulate", boat_file, "--q0", "0,0,0.5", "--qdot0", "0.4,0.3,0.8",
                "--t-end", "0.05", "--dt", "1e-3", "--out"]
        fresh, old = tmp_path / "fresh.csv", tmp_path / "old.csv"
        old.write_text("x" * 100_000)
        assert (main([*argv, str(fresh)]), main([*argv, str(old)])) == (0, 0)
        assert old.read_bytes() == fresh.read_bytes()

    SHORT = ["--q0", "0,0,0.5", "--qdot0", "0.4,0.3,0.8", "--t-end", "0.01", "--dt", "1e-3"]

    def test_out_to_dev_null(self, boat_file, capsys):
        # a character device, which the open does not truncate
        assert main(["simulate", boat_file, *self.SHORT, "--out", os.devnull]) == 0
        assert json.loads(capsys.readouterr().out)["out"] == os.devnull

    def test_out_to_stdout_in_a_pipe(self, boat_file, tmp_path, capsys):
        # /dev/stdout opens the pipe the command writes to, a FIFO: the CSV
        # comes first, then the summary
        fresh = tmp_path / "fresh.csv"
        assert main(["simulate", boat_file, *self.SHORT, "--out", str(fresh)]) == 0
        capsys.readouterr()
        done = subprocess.run([sys.executable, "-m", "vnhc.cli", "simulate", boat_file,
                               *self.SHORT, "--out", "/dev/stdout"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert (done.returncode, done.stderr) == (0, b"")
        csv = fresh.read_bytes()
        assert done.stdout.startswith(csv)
        assert json.loads(done.stdout[len(csv):])["samples"] == 11

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_out_to_stdout_redirected_to_a_file(self, boat_file, tmp_path, capsys):
        # /dev/stdout opens the file the command writes to, at offset 0: the
        # CSV goes through stdout, so the summary follows it instead of
        # writing over its start
        fresh = tmp_path / "fresh.csv"
        assert main(["simulate", boat_file, *self.SHORT, "--out", str(fresh)]) == 0
        capsys.readouterr()
        out = tmp_path / "traj.txt"
        with open(out, "wb") as f:
            done = subprocess.run([sys.executable, "-m", "vnhc.cli", "simulate", boat_file,
                                   *self.SHORT, "--out", "/dev/stdout"],
                                  stdout=f, stderr=subprocess.PIPE,
                                  env={**os.environ, "PYTHONPATH": SRC})
        assert (done.returncode, done.stderr) == (0, b"")
        text, csv = out.read_bytes(), fresh.read_bytes()
        assert text.startswith(b"t,x,y,theta,") and text.startswith(csv)
        assert json.loads(text[len(csv):])["samples"] == 11
        assert text.endswith(b"\n") and text.count(b"\n") == csv.count(b"\n") + 1


class TestControlAt:
    def test_boat_value(self, boat_file, capsys):
        code = main(["control-at", boat_file, "--q", "0,0,0", "--qdot", "1,0,1"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["tau"][0] == pytest.approx(-1.0, abs=1e-12)
        assert rec["P"] == [[1.0]]
        assert rec["cond_estimate"] == 1.0

    def test_zero_spin_zero_control(self, boat_file, capsys):
        main(["control-at", boat_file, "--q", "1,2,0.7", "--qdot", "0.5,-0.3,0"])
        rec = json.loads(capsys.readouterr().out)
        assert rec["tau"][0] == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_exit_1(self, tmp_path, capsys):
        path = write_json(tmp_path, "degenerate.json", DEGENERATE)
        code = main(["control-at", path, "--q", "0,0", "--qdot", "1,1"])
        assert code == 1
        assert "singular" in capsys.readouterr().err



def boat_with(tmp_path, name, force=("0", "0", "0"), metric00="1", parameters=None):
    """The unit-metric boat with the given external force, as a model file."""
    data = {
        "coordinates": ["x", "y", "theta"],
        "metric": [[metric00, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "external_force": list(force),
        "inputs": [["sin(theta)", "-cos(theta)", "1"]],
        "constraint": {"mu": [["sin(theta)", "-cos(theta)", "0"]], "Z": ["0"]},
    }
    if parameters is not None:
        data["parameters"] = parameters
    return write_json(tmp_path, name, data)


class TestRuntimeMathErrors:
    """A math error inside a compiled kernel is an EvalError naming the
    expression (exit 1), never a traceback."""

    def test_division_by_zero(self, tmp_path, capsys):
        path = boat_with(tmp_path, "inv.json", force=("1/x", "0", "0"))
        assert main(["control-at", path, "--q", "0,0,0.3", "--qdot", "0,0,0"]) == 1
        assert "division by zero in 1 / x" in capsys.readouterr().err

    def test_pow_overflow_aborts_simulate(self, tmp_path, capsys):
        path = boat_with(tmp_path, "sq.json", force=("xd^2", "0", "0"))
        code = main([
            "simulate", path, "--q0", "0,0,0", "--qdot0", "1,0,0",
            "--t-end", "3", "--dt", "0.01", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert "overflow in xd^2" in capsys.readouterr().err

    def test_log_domain(self, tmp_path, capsys):
        path = boat_with(tmp_path, "log.json", force=("log(x)", "0", "0"))
        assert main(["control-at", path, "--q=-1,0,0.3", "--qdot", "0,0,0"]) == 1
        assert "domain error in log(x)" in capsys.readouterr().err


class TestNonFiniteNumbers:
    def test_literal_out_of_range(self, tmp_path, capsys):
        path = boat_with(tmp_path, "inf.json", metric00="1 + 1e999")
        assert main(["check", path]) == 2
        assert "metric[0][0]: number '1e999' is out of range (byte offset 4)" in (
            capsys.readouterr().err
        )

    def test_integer_parameter_out_of_range(self, tmp_path, capsys):
        path = boat_with(tmp_path, "big.json", metric00="m", parameters={"m": 10**400})
        assert main(["check", path]) == 2
        assert capsys.readouterr().err == "error: parameter 'm' is out of range\n"
        with pytest.raises(ModelError, match="^parameter 'k' is out of range$"):
            MechanicalModel(["x"], [["k"]], input_coframe=[["1"]], parameters={"k": 10**400})

    def test_integer_field_out_of_range(self, tmp_path, capsys):
        path = boat_with(tmp_path, "big.json", metric00=10**400)
        assert main(["check", path]) == 2
        assert capsys.readouterr().err == "error: metric[0][0]: integer is out of range\n"

    def test_nan_parameter(self, tmp_path, capsys):
        path = boat_with(tmp_path, "nan.json", metric00="m", parameters={"m": math.nan})
        assert main(["check", path]) == 2
        assert "parameter 'm' is not finite (nan)" in capsys.readouterr().err

    def test_folded_overflow(self, tmp_path, capsys):
        path = boat_with(tmp_path, "fold.json", metric00="1e200*1e200")
        assert main(["check", path]) == 2
        assert "not finite (inf)" in capsys.readouterr().err

    def test_constant_domain_error_names_field(self, tmp_path, capsys):
        path = boat_with(tmp_path, "logc.json", metric00="log(-1)")
        assert main(["check", path]) == 2
        assert "metric[0][0]: domain error in log(-1)" in capsys.readouterr().err


    def test_folded_overflow_names_field(self, tmp_path, capsys):
        path = boat_with(tmp_path, "fold.json", metric00="1e200*1e200")
        assert main(["check", path]) == 2
        assert "metric[0][0]: constant is not finite (inf)" in capsys.readouterr().err


class TestNonFiniteResults:
    """An overflow to inf or NaN without a raising operation is an
    EvalError (exit 1), not a NaN in the output or a rank or pivot verdict."""

    def plane(self, tmp_path, mu=("1e300*x", "0"), inputs=("1", "0")):
        return write_json(tmp_path, "plane.json", {
            "coordinates": ["x", "y"],
            "metric": [["1", "0"], ["0", "1"]],
            "inputs": [list(inputs)],
            "constraint": {"mu": [list(mu)], "Z": ["0"]},
        })

    def test_metric_ratio_overflow(self, tmp_path, capsys):
        # cond(G) = 1e309 overflows a float square: still the metric's SPDError.
        path = write_json(tmp_path, "thin.json", {
            "coordinates": ["x", "y"],
            "metric": [["1", "0"], ["0", "1e-309"]],
            "inputs": [["1", "0"]],
            "constraint": {"mu": [["1", "0"]], "Z": ["0"]},
        })
        message = "metric condition estimate inf exceeds 1e+12 at q=(0.0, 0.0)"
        assert main(["check", path]) == 1
        assert capsys.readouterr().out == f"q=(0, 0) rank=ok(1/1) metric=SPD-FAILURE ({message})\n"
        for argv in (["control-at", path, "--q", "0,0", "--qdot", "0,0"],
                     ["simulate", path, "--q0", "0,0", "--qdot0", "0,0", "--t-end", "0.01",
                      "--dt", "1e-3", "--out", str(tmp_path / "traj.csv")]):
            assert main(argv) == 1
            assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_b_overflow(self, tmp_path, capsys):
        path = boat_with(tmp_path, "big.json", force=("1e300*x*x", "0", "0"))
        assert main(["control-at", path, "--q", "1e10,0,0.3", "--qdot", "0,0,0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: b (nan,) is not finite at q=(10000000000.0, 0.0, 0.3), qdot=(0.0, 0.0, 0.0)\n"
        )
        model, con = load_model(path)
        state = State(q=(1e10, 0.0, 0.3), qdot=(0.0, 0.0, 0.0))
        for view in (solve_control, tau_star, closed_loop_acceleration, b_vector):
            with pytest.raises(EvalError, match=r"^b \(nan,\) is not finite"):
                view(model, con, state)

    def test_s_overflow_is_a_rank_error(self, tmp_path, capsys):
        path = self.plane(tmp_path)
        assert main(["check", path, "--point", "x=1e10", "--point", "x=1"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "q=(1e+10, 0) rank=ERROR (constraint.mu[0][0] = 1e+300 * x is not finite (inf))",
            "q=(1, 0) rank=ok(1/1) transversality=ok cond=1 det=1e+300",
        ]

    def test_p_overflow_is_not_a_pivot_verdict(self, tmp_path, capsys):
        path = self.plane(tmp_path)
        assert main(["control-at", path, "--q", "1e10,0", "--qdot", "0,0"]) == 1
        assert capsys.readouterr().err == (
            "error: P matrix [[inf]] is not finite at q=(10000000000.0, 0.0)\n"
        )
        model, con = load_model(path)
        with pytest.raises(EvalError, match=r"P matrix \[\[inf\]\] is not finite"):
            transversality_check(con, model, (1e10, 0.0))

    def test_p_nan_is_not_admissible(self, tmp_path, capsys):
        # S = (inf, inf) against Y = (1, -1): P = inf - inf
        path = self.plane(tmp_path, mu=("1e300*x", "1e300*x"), inputs=("1", "-1"))
        assert main(["control-at", path, "--q", "1e10,0", "--qdot", "0,0"]) == 1
        assert "error: P matrix [[nan]] is not finite" in capsys.readouterr().err

    def big_force_plane(self, tmp_path, metric, inputs):
        return write_json(tmp_path, "solve.json", {
            "coordinates": ["x", "y"],
            "metric": [[metric, "0"], ["0", metric]],
            "external_force": ["1e300*x", "0"],
            "inputs": [list(inputs)],
            "constraint": {"mu": [["1", "0"]], "Z": ["0"]},
        })

    def test_tau_overflow_in_the_solve(self, tmp_path, capsys):
        # P = 1e-40 passes the pivot and condition gates; b = -1e290 is finite.
        path = self.big_force_plane(tmp_path, "1e10", ("1e-30", "0"))
        assert main(["control-at", path, "--q", "1,0", "--qdot", "0,0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: tau (-inf,) is not finite at q=(1.0, 0.0), qdot=(0.0, 0.0)\n"
        )
        model, con = load_model(path)
        state = State(q=(1.0, 0.0), qdot=(0.0, 0.0))
        for view in (solve_control, tau_star, closed_loop_acceleration):
            with pytest.raises(EvalError, match=r"^tau \(-inf,\) is not finite"):
                view(model, con, state)
        assert b_vector(model, con, state) == [-1e290]

    def test_acceleration_overflow_with_finite_tau(self, tmp_path, capsys):
        # Y = (1, 1e11) against S = (1, 0): tau = -1e300, tau * Y_y = -inf.
        path = self.big_force_plane(tmp_path, "1", ("1", "1e11"))
        model, con = load_model(path)
        state = State(q=(1.0, 0.0), qdot=(0.0, 0.0))
        for view in (solve_control, tau_star, closed_loop_acceleration):
            with pytest.raises(EvalError, match=r"^acceleration \(0\.0, -inf\) is not finite"):
                view(model, con, state)
        assert main(["control-at", path, "--q", "1,0", "--qdot", "0,0"]) == 1
        assert "error: acceleration (0.0, -inf) is not finite" in capsys.readouterr().err


class TestDeepNesting:
    """An expression nested or summed too deeply for Python's recursion or
    parser limits is a one-line usage error (exit 2) from the command."""

    def run(self, tmp_path, **fields):
        data = {
            "coordinates": ["x", "y"],
            "metric": [["1", "0"], ["0", "1"]],
            "inputs": [["1", "0"]],
            "constraint": {"mu": [["1", "0"]], "Z": ["0"]},
            **fields,
        }
        path = write_json(tmp_path, "deep.json", data)
        env = {**os.environ, "PYTHONPATH": SRC}
        return subprocess.run([sys.executable, "-m", "vnhc.cli", "check", path],
                              capture_output=True, text=True, env=env)

    def test_nested_parentheses(self, tmp_path):
        done = self.run(tmp_path, metric=[["(" * 400 + "1" + ")" * 400, "0"], ["0", "1"]])
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: metric[0][0]: expression is nested too deeply")
        assert done.stderr.count("\n") == 1

    def test_long_sum(self, tmp_path):
        done = self.run(tmp_path, potential=" + ".join(["x"] * 3000))
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr == "error: an expression is nested too deeply to differentiate\n"

    def test_deep_kernel_compiles(self, tmp_path):
        # 300 nested products in the compiled force exceed CPython's 200
        # nested parentheses unless the kernel binds them to locals.
        done = self.run(tmp_path, external_force=[" + ".join(["x"] * 300), "0"])
        assert (done.returncode, done.stderr) == (0, "")
        assert "transversality=ok" in done.stdout


class TestFieldChecks:
    """Every source field is checked for symbols, then for non-finite
    constants, before anything compiles; a file that loads also loads after
    it is saved."""

    def test_boolean_field(self, tmp_path, capsys):
        path = boat_with(tmp_path, "bool.json", metric00=True)
        assert main(["check", path]) == 2
        assert "metric[0][0]: cannot interpret True as an expression" in capsys.readouterr().err

    def test_non_finite_potential(self, tmp_path, capsys):
        data = model_to_dict(*build_boat())
        data["potential"] = "1e200*1e200"
        assert main(["check", write_json(tmp_path, "pot.json", data)]) == 2
        assert "potential: constant is not finite (inf)" in capsys.readouterr().err
        with pytest.raises(ModelError, match=r"^potential: constant is not finite \(inf\)$"):
            MechanicalModel(["x", "y"], [["1", "0"], ["0", "1"]], potential="1e200*1e200")

    def test_symbol_error_first(self, tmp_path, capsys):
        data = model_to_dict(*build_boat())
        data["metric"][0][0] = "1e200*1e200"
        data["potential"] = "zz"
        assert main(["check", write_json(tmp_path, "both.json", data)]) == 2
        assert "error: potential uses unknown symbols ['zz']\n" == capsys.readouterr().err

    def test_negative_base_survives_a_save(self, tmp_path):
        path = boat_with(tmp_path, "neg.json", force=("0", "0", "(-2)^x"))
        model, con = load_model(path)
        save_model(tmp_path / "again.json", model, con)
        again, _ = load_model(tmp_path / "again.json")
        assert again.external_force == model.external_force


def _code(argv):
    try:
        return main(argv)
    except SystemExit as err:  # argparse's parser.error
        return err.code


DROP = object()


def _boat_with(*path, value):
    """The boat's model dict with the entry at path set to value, or
    deleted if value is DROP."""
    data = model_to_dict(*build_boat())
    *head, last = path
    entry = data
    for key in head:
        entry = entry[key]
    if value is DROP:
        del entry[last]
    else:
        entry[last] = value
    return data


FILE_CASES = [  # (model file data or raw text, message)
    ("[1, 2]", "model file must contain a JSON object"),
    ("{", "invalid JSON"),
    (_boat_with("metric", value=DROP), "missing required key 'metric'"),
    (_boat_with("coordinates", value=[1, 2, 3]), "coordinates must be a list of names"),
    (_boat_with("parameters", value=[1]), "parameters must be a name -> number map"),
    (_boat_with("metric", value="1"), "metric must be a list of rows"),
    (_boat_with("metric", 1, value="1"), "metric[1] must be a list"),
    (_boat_with("constraint", value=[]), "constraint must be an object"),
    (_boat_with("constraint", "W", value=1), "constraint: unknown keys ['W']"),
    (_boat_with("constraint", "mu", value=DROP), "constraint: missing key 'mu'"),
    (_boat_with("constraint", "Z", value=5), "constraint.Z must be a list"),
    (_boat_with("constraint", value={"mu": [["1", "0", "0"]], "X": ["0", "0"]}),
     "constraint.X must have one entry per coordinate"),
    (_boat_with("metric", 0, 0, value=[1]), "metric[0][0]: cannot interpret [1] as an expression"),
    (_boat_with("metric", -1, value=DROP), "metric grid is not n x n"),
    (_boat_with("external_force", -1, value=DROP), "external force must have n components"),
    (_boat_with("inputs", 0, -1, value=DROP), "input coframe rows must have n components"),
    (_boat_with("constraint", "mu", 0, -1, value=DROP), "mu rows must have n components"),
    (_boat_with("constraint", "Z", value=["0", "0"]), "Z must have one entry per constraint row"),
]
SIM = "simulate {} --q0 0,0,0 --qdot0 0,0,0 --dt 0.1 --out {out}"
ARG_CASES = [  # (command line, "{}" standing for a boat file and "{dir}" for a directory; message)
    ("check {} --point x", "expected name=value, got 'x'"),
    ("check {} --point z=1", "unknown coordinates ['z'] in --point"),
    ("check {} --grid z=0:1:2", "unknown coordinate 'z' in --grid"),
    ("check {} --grid x=0:1:0", "--grid count must be at least 1"),
    ("check {} --grid x=1:2", "--grid expects NAME=LO:HI:COUNT, got 'x=1:2'"),
    ("check {} --grid x=0:1:2.5", "--grid expects NAME=LO:HI:COUNT, got 'x=0:1:2.5'"),
    ("check {} --grid x=0:1:2 --grid x=0:2:3", "--grid axis 'x' is given twice"),
    ("check {} --grid x=nan:1:2", "non-finite coordinate in --grid 'x=nan:1:2'"),
    ("check {} --grid x=-1e308:1e308:3", "non-finite coordinate in --grid 'x=-1e308:1e308:3'"),
    ("check {} --point x=0,theta=inf", "non-finite coordinate in --point 'x=0,theta=inf'"),
    ("check {} --point x=1,x=2", "--point gives coordinate 'x' twice"),
    ("check {dir}", "Is a directory"),
    ("control-at {} --q 0,0 --qdot 0,0,0", "--q needs 3 comma-separated values, got 2"),
    (SIM + " --t-end 1 --wrap z", "--wrap: unknown coordinate 'z'"),
    (SIM + " --t-end 0", "--t-end must be positive"),
    (SIM + " --t-end inf", "--t-end must be positive and finite"),
    (SIM + " --t-end nan", "--t-end must be positive and finite"),
    (SIM.replace("--dt 0.1", "--dt nan") + " --t-end 1", "--dt must be positive and finite"),
    (SIM.replace("--dt 0.1", "--dt inf") + " --t-end 1", "--dt must be positive and finite"),
    (SIM + " --t-end 1 --sample-every 0", "--sample-every must be at least 1"),
    (SIM.replace("--dt 0.1", "--dt 1e-300") + " --t-end 1e300",
     "t_end / step size overflows (1e+300 / 1e-300)"),
    (SIM.replace("--q0 0", "--q0 nan") + " --t-end 1", "non-finite state entry"),
    ("fixture boat --current tide --out {out}",
     "--current must be one of ['shear', 'still', 'vortex']"),
    (SIM.replace("{out}", "{dir}") + " --t-end 0.1", "Is a directory"),
    ("fixture boat --out {dir}", "Is a directory"),
]


class TestInputChecks:
    """Each malformed model file, model shape or command line is a usage
    error (exit 2) that says what is wrong, never a traceback."""

    @pytest.mark.parametrize("data, message", FILE_CASES)
    def test_model_file(self, tmp_path, capsys, data, message):
        path = tmp_path / "model.json"
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        assert _code(["check", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", ARG_CASES)
    def test_command_line(self, boat_file, tmp_path, capsys, argv, message):
        argv = [a.format(boat_file, out=tmp_path / "out", dir=tmp_path) for a in argv.split()]
        assert _code(argv) == 2
        assert message in capsys.readouterr().err


class TestChartRules:
    """A model file that breaks a rule of its chart exits 2 and names the
    culprit, whether or not an expression uses it."""

    def test_duplicate_coordinates(self, tmp_path, capsys):
        data = model_to_dict(*build_boat())
        data["coordinates"] = ["x", "x", "theta"]
        assert main(["check", write_json(tmp_path, "dup.json", data)]) == 2
        assert "duplicate coordinate or velocity names ['x', 'xd']" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [[1], None, "abc", True])
    def test_parameter_not_a_number(self, tmp_path, capsys, value):
        path = boat_with(tmp_path, "p.json", metric00="m", parameters={"m": value})
        assert main(["check", path]) == 2
        assert f"parameter 'm' is not a real number ({value!r})" in capsys.readouterr().err

    def test_unused_nan_parameter(self, tmp_path, capsys):
        path = boat_with(tmp_path, "nan.json", parameters={"k": math.nan})
        assert main(["check", path]) == 2
        assert "parameter 'k' is not finite (nan)" in capsys.readouterr().err

    def test_parameter_shadowing_velocity(self, tmp_path, capsys):
        path = boat_with(tmp_path, "shadow.json", parameters={"thetad": 1.0})
        assert main(["check", path]) == 2
        assert "parameter names shadow coordinates: ['thetad']" in capsys.readouterr().err


class TestFixtureRoundTrip:
    def test_fixture_command(self, tmp_path, capsys):
        out = str(tmp_path / "boat.json")
        code = main(["fixture", "boat", "--current", "vortex", "--out", out])
        assert code == 0
        model, con = load_model(out)
        assert model.coordinates == ("x", "y", "theta")

    def test_linear_fixture_round_trip(self, tmp_path, capsys):
        out = tmp_path / "linear.json"
        assert main(["fixture", "linear", "--m", "2", "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out) == {"out": str(out), "fixture": "linear"}
        expected = model_to_dict(*build_linear_fixture(m=2.0))
        assert model_to_dict(*load_model(out)) == expected
        assert json.loads(out.read_text()) == expected

    def test_round_trip_identical_solves(self, tmp_path, rng):
        model, con = build_boat("sin(y)", "cos(x)", m=1.7, I=0.4)
        path = tmp_path / "boat.json"
        save_model(path, model, con)
        model2, con2 = load_model(path)
        for _ in range(100):
            s = State(q=tuple(rng.uniform(-2, 2, 3)), qdot=tuple(rng.uniform(-2, 2, 3)))
            a = solve_control(model, con, s)
            b = solve_control(model2, con2, s)
            assert np.max(np.abs(np.array(a.P) - np.array(b.P))) <= 1e-12
            assert np.max(np.abs(np.array(a.b) - np.array(b.b))) <= 1e-12
            assert np.max(np.abs(np.array(a.tau) - np.array(b.tau))) <= 1e-12

    def test_dict_round_trip_stable(self):
        model, con = build_boat("0.3", "0.1*x")
        d1 = model_to_dict(model, con)
        path_free = json.loads(json.dumps(d1))
        assert path_free == d1

    def test_constraint_from_vector_field(self, tmp_path):
        # giving X instead of Z must produce Z = -S X
        data = {
            "coordinates": ["x", "y", "theta"],
            "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            "inputs": [["sin(theta)", "-cos(theta)", "1"]],
            "constraint": {
                "mu": [["sin(theta)", "-cos(theta)", "0"]],
                "X": ["0.5", "0.25", "0"],
            },
        }
        path = write_json(tmp_path, "xform.json", data)
        _, con = load_model(path)
        th = 0.9
        z = con.z_at((0.0, 0.0, th))[0]
        assert z == pytest.approx(-(math.sin(th) * 0.5 - math.cos(th) * 0.25))

    def test_z_and_x_together_rejected(self, tmp_path):
        data = {
            "coordinates": ["x"],
            "metric": [["1"]],
            "inputs": [],
            "constraint": {"mu": [["1"]], "Z": ["0"], "X": ["0"]},
        }
        path = write_json(tmp_path, "both.json", data)
        assert main(["check", path]) == 2


class TestPublicSurface:
    def test_all_is_stable(self):
        assert sorted(vnhc.__all__) == [
            "AffineConstraint", "ControlSolve", "EvalError", "Expr", "ExprError",
            "FIXTURE_CURRENTS", "IntegrationError", "MechanicalModel", "ModelError",
            "ModelFileError", "ParseError", "RankDefectError", "RankReport",
            "SPDError", "State", "Trajectory", "TransversalityError",
            "TransversalityReport", "as_expr", "b_vector", "build_boat",
            "build_linear_fixture", "closed_loop_acceleration", "diff", "evaluate",
            "free_symbols", "integrate", "load_model", "model_to_dict", "p_matrix",
            "parse", "project_onto_A", "rk4_step", "save_model", "solve_control",
            "tau_star", "to_string", "transversality_check",
        ]

    def test_control_at_keys(self, boat_file, capsys):
        assert main(["control-at", boat_file, "--q", "0,0,0", "--qdot", "1,0,1"]) == 0
        assert sorted(json.loads(capsys.readouterr().out)) == ["P", "b", "cond_estimate", "tau"]

    def test_simulate_summary_keys(self, boat_file, tmp_path, capsys):
        code = main([
            "simulate", boat_file, "--q0", "0,0,0", "--qdot0", "1,0,1",
            "--t-end", "0.01", "--dt", "1e-3", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 0
        assert sorted(json.loads(capsys.readouterr().out)) == [
            "drift_report", "dt", "out", "phi0", "runtime_s", "samples", "t_end",
        ]
