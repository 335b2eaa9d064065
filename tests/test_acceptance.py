"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with -s to see them)."""

import json
import math
import time

import numpy as np
import pytest

from vnhc import (
    FIXTURE_CURRENTS,
    State,
    TransversalityError,
    build_boat,
    closed_loop_acceleration,
    integrate,
    project_onto_A,
    tau_star,
    transversality_check,
)
from vnhc.cli import main
from vnhc.expr import diff, free_symbols, parse

from oracle import walk
from test_constraint import brute_force_transversal, random_constant_system
from test_expr import CORPUS, fd


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_closed_form_controller(rng):
    worst = 0.0
    start = time.perf_counter()
    for name, (c1, c2) in FIXTURE_CURRENTS.items():
        model, con = build_boat(c1, c2)
        for _ in range(1000):
            q = rng.uniform(-2, 2, 3)
            qd = rng.uniform(-2, 2, 3)
            s = State(q=tuple(q), qdot=tuple(qd))
            tau = tau_star(model, con, s)[0]
            x, y, th = q
            xd, yd, thd = qd
            analytic = -1.0 * thd * (math.cos(th) * xd + math.sin(th) * yd)
            worst = max(worst, abs(tau - analytic))
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: closed-form controller reproduction",
        worst <= 1e-9 and elapsed < 1.0 * len(FIXTURE_CURRENTS),
        f"max|tau - analytic| = {worst:.3e}, {elapsed:.2f}s for {1000 * len(FIXTURE_CURRENTS)} states",
    )
    assert elapsed / len(FIXTURE_CURRENTS) < 1.0


def test_criterion_2_invariance_certificate():
    model, con = build_boat(*FIXTURE_CURRENTS["vortex"])
    s0 = project_onto_A(
        con, model, State(q=(0.1, -0.2, 0.5), qdot=(0.4, 0.3, 0.8))
    )
    start = time.perf_counter()
    traj = integrate(model, con, s0, t_end=10.0, h=1e-3, sample_every=10)
    elapsed = time.perf_counter() - start
    worst = max(abs(p[0]) for p in traj.phis)
    report(
        "criterion 2: invariance certificate (projected start)",
        worst <= 1e-8 and elapsed < 2.0,
        f"max|phi| = {worst:.3e}, runtime {elapsed:.2f}s",
    )


def test_criterion_3_first_integral():
    model, con = build_boat(*FIXTURE_CURRENTS["vortex"])
    z = con.z_at((0.0, 0.0, 0.0))[0]
    s0 = State(q=(0.0, 0.0, 0.0), qdot=(0.3, z - 0.7, -0.2))
    phi0 = con.phi(s0)[0]
    assert phi0 == pytest.approx(0.7, abs=1e-14)
    traj = integrate(model, con, s0, t_end=10.0, h=1e-3, sample_every=10)
    worst = max(abs(p[0] - 0.7) for p in traj.phis)
    report(
        "criterion 3: first-integral property (off-constraint start)",
        worst <= 1e-8,
        f"max|phi - 0.7| = {worst:.3e}",
    )


def test_criterion_4_tangency_identity(rng):
    worst_ratio = 0.0
    eps = 1e-6
    for name, (c1, c2) in FIXTURE_CURRENTS.items():
        model, con = build_boat(c1, c2)
        for _ in range(1000):
            s = State(q=tuple(rng.uniform(-2, 2, 3)), qdot=tuple(rng.uniform(-2, 2, 3)))
            a = closed_loop_acceleration(model, con, s)
            fwd = State(
                q=tuple(s.q[i] + eps * s.qdot[i] for i in range(3)),
                qdot=tuple(s.qdot[i] + eps * a[i] for i in range(3)),
            )
            bwd = State(
                q=tuple(s.q[i] - eps * s.qdot[i] for i in range(3)),
                qdot=tuple(s.qdot[i] - eps * a[i] for i in range(3)),
            )
            dphi = (con.phi(fwd)[0] - con.phi(bwd)[0]) / (2 * eps)
            speed2 = sum(v * v for v in s.qdot)
            worst_ratio = max(worst_ratio, abs(dphi) / (1 + speed2))
    report(
        "criterion 4: tangency identity dphi(closed loop) = 0",
        worst_ratio <= 1e-9,
        f"max |dphi|/(1+|qd|^2) = {worst_ratio:.3e}",
    )


def test_criterion_5_transversality_oracle(rng):
    disagreements = 0
    for trial in range(200):
        degenerate = trial % 5 == 0
        model, con, g, S, F = random_constant_system(rng, degenerate=degenerate)
        r = transversality_check(con, model, [0.0] * S.shape[1])
        if r.ok != brute_force_transversal(g, S, F):
            disagreements += 1
    report(
        "criterion 5: transversality check vs kernel-basis oracle",
        disagreements == 0,
        f"{disagreements} disagreements over 200 random models",
    )


def test_criterion_6_numerical_hygiene(rng):
    # 6a: symbolic vs finite-difference derivatives on the corpus
    worst_fd = 0.0
    for text, env in CORPUS:
        e = parse(text)
        for s in sorted(free_symbols(e)):
            d = diff(e, s)
            for _ in range(50):
                pt = {k: v + rng.uniform(-0.1, 0.1) for k, v in env.items()}
                sym = walk(d, pt)
                worst_fd = max(worst_fd, abs(sym - fd(e, s, pt)) / (1 + abs(sym)))
    ok_fd = worst_fd <= 1e-6

    # 6b: Christoffel symmetry exact
    model, _ = build_boat("sin(y)", "cos(x)", m=1.3, I=0.8)
    ok_sym = True
    for _ in range(50):
        q = rng.uniform(-2, 2, 3)
        gamma = model.christoffel_at(q)
        for k in range(3):
            for i in range(3):
                for j in range(3):
                    ok_sym &= gamma[k][i][j] == gamma[k][j][i]

    # 6c: sharp/flat inverse pair
    worst_inv = 0.0
    for _ in range(100):
        q = rng.uniform(-2, 2, 3)
        w = rng.uniform(-3, 3, 3)
        back = model.flat(q, model.sharp(q, list(w)))
        worst_inv = max(worst_inv, float(np.max(np.abs(np.array(back) - w))))
    ok_inv = worst_inv <= 1e-12 * 4  # |w| up to 3

    # 6d: RK4 self-convergence ratio
    model4, con4 = build_boat(*FIXTURE_CURRENTS["vortex"])
    s0 = project_onto_A(
        con4, model4, State(q=(0.1, -0.2, 0.5), qdot=(0.4, 0.3, 0.8))
    )

    def endpoint(h):
        traj = integrate(model4, con4, s0, t_end=1.0, h=h, sample_every=10 ** 9)
        last = traj.states[-1]
        return np.array(last.q + last.qdot)

    ref = endpoint(1.0 / 4096)
    ratio = np.max(np.abs(endpoint(0.02) - ref)) / np.max(np.abs(endpoint(0.01) - ref))
    ok_ratio = 12 <= ratio <= 20

    report(
        "criterion 6: numerical hygiene",
        ok_fd and ok_sym and ok_inv and ok_ratio,
        f"fd {worst_fd:.2e}, christoffel symmetric: {ok_sym}, "
        f"sharp/flat {worst_inv:.2e}, rk4 ratio {ratio:.1f}",
    )


def test_criterion_7_negative_path(tmp_path, capsys):
    degenerate = {
        "coordinates": ["x", "y"],
        "metric": [["1", "0"], ["0", "1"]],
        "inputs": [["0", "1"]],
        "constraint": {"mu": [["1", "0"]], "Z": ["0"]},
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(degenerate))
    code = main(["check", str(path)])
    out = capsys.readouterr().out
    ok_cli = code == 1 and "VIOLATION" in out

    from vnhc import AffineConstraint, MechanicalModel

    model = MechanicalModel(("x", "y"), [[1, 0], [0, 1]], input_coframe=[["0", "1"]])
    con = AffineConstraint(("x", "y"), [["1", "0"]], Z=["0"])
    raised = False
    try:
        tau_star(model, con, State(q=(0, 0), qdot=(1, 1)))
    except TransversalityError:
        raised = True
    report(
        "criterion 7: degenerate input rejected",
        ok_cli and raised,
        f"cmd_check exit {code}, tau_star raised: {raised}",
    )
