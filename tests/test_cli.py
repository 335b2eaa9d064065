import json
import math

import numpy as np
import pytest

import vnhc
from vnhc import (
    State,
    build_boat,
    load_model,
    model_to_dict,
    save_model,
    solve_control,
)
from vnhc.cli import main

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
