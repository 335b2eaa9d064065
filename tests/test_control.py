import math
import random

import numpy as np
import pytest

import vnhc
from vnhc import (
    FIXTURE_CURRENTS,
    AffineConstraint,
    MechanicalModel,
    State,
    TransversalityError,
    b_vector,
    build_boat,
    closed_loop_acceleration,
    integrate,
    p_matrix,
    solve_control,
    tau_star,
    transversality_check,
)

CURRENT_FNS = {
    "still": (lambda x, y: 0.0, lambda x, y: 0.0),
    "shear": (lambda x, y: 0.3, lambda x, y: 0.1 * x),
    "vortex": (lambda x, y: math.sin(y), lambda x, y: math.cos(x)),
}


def boat_law(state, m=1.0):
    """The analytic feedback for the boat, independent of the solver."""
    x, y, th = state.q
    xd, yd, thd = state.qdot
    return -m * thd * (math.cos(th) * xd + math.sin(th) * yd)


def random_state(rng, lo=-2.0, hi=2.0):
    return State(q=tuple(rng.uniform(lo, hi, 3)), qdot=tuple(rng.uniform(lo, hi, 3)))


class TestPMatrix:
    def test_boat_scalar(self):
        model, con = build_boat("0", "0", m=1.0)
        assert p_matrix(model, con, (0.0, 0.0, 0.4)) == [[pytest.approx(1.0, abs=1e-14)]]
        model, con = build_boat("0", "0", m=2.0)
        assert p_matrix(model, con, (1.0, -1.0, 2.2)) == [[pytest.approx(0.5, abs=1e-14)]]

    def test_aligned_input(self):
        model = MechanicalModel(("x", "y"), [[1, 0], [0, 1]], input_coframe=[["1", "0"]])
        con = AffineConstraint(("x", "y"), [["1", "0"]], Z=["0"])
        assert p_matrix(model, con, (0.0, 0.0)) == [[1.0]]

    def test_determinant_nonzero_on_transversal_fixtures(self, rng):
        from test_constraint import random_constant_system

        for _ in range(50):
            model, con, g, S, F = random_constant_system(rng)
            det = np.linalg.det(S @ np.linalg.solve(g, F.T))
            if abs(det) > 1e-6:
                P = p_matrix(model, con, [0.0] * S.shape[1])
                assert np.linalg.det(np.array(P)) == pytest.approx(det, rel=1e-9)
                assert np.linalg.det(np.array(P)) != 0.0

    def test_velocity_independent(self, rng):
        model, con = build_boat("sin(y)", "cos(x)")
        q = (0.3, -0.7, 1.1)
        baseline = solve_control(model, con, State(q=q, qdot=(0, 0, 0))).P
        for _ in range(20):
            s = State(q=q, qdot=tuple(rng.uniform(-5, 5, 3)))
            assert solve_control(model, con, s).P == baseline


class TestBVector:
    def test_constant_mu_zero_drift(self):
        model = MechanicalModel(("x", "y"), [[1, 0], [0, 1]], input_coframe=[["1", "0"]])
        con = AffineConstraint(("x", "y"), [["1", "2"]], Z=["0.5"])
        s = State(q=(0.3, 0.4), qdot=(1.0, -1.0))
        assert b_vector(model, con, s) == [pytest.approx(0.0, abs=1e-15)]

    def test_boat_zero_theta_dot(self):
        model, con = build_boat("0", "0")
        s = State(q=(0.5, 0.5, 1.0), qdot=(1.2, -0.8, 0.0))
        assert b_vector(model, con, s) == [pytest.approx(0.0, abs=1e-15)]

    def test_boat_unit_case(self):
        model, con = build_boat("0", "0", m=1.0, I=1.0)
        s = State(q=(0.0, 0.0, 0.0), qdot=(1.0, 0.0, 1.0))
        assert b_vector(model, con, s) == [pytest.approx(-1.0, abs=1e-14)]

    def test_fd_oracle_along_drift(self, rng):
        # b = -d/dt phi along the *uncontrolled* flow; check by an Euler
        # step of the drift system and a finite difference of phi.
        model, con = build_boat("sin(y)", "cos(x)", m=1.3, I=0.7)
        h = 1e-7
        for _ in range(30):
            s = random_state(rng)
            a = model.drift_acceleration(s)
            fwd = State(
                q=tuple(s.q[i] + h * s.qdot[i] for i in range(3)),
                qdot=tuple(s.qdot[i] + h * a[i] for i in range(3)),
            )
            bwd = State(
                q=tuple(s.q[i] - h * s.qdot[i] for i in range(3)),
                qdot=tuple(s.qdot[i] - h * a[i] for i in range(3)),
            )
            dphi = (con.phi(fwd)[0] - con.phi(bwd)[0]) / (2 * h)
            b = b_vector(model, con, s)[0]
            assert b == pytest.approx(-dphi, abs=1e-6 * (1 + abs(b)))


class TestTauStar:
    def test_boat_closed_form(self, rng):
        for name, (c1f, c2f) in CURRENT_FNS.items():
            from vnhc import FIXTURE_CURRENTS

            model, con = build_boat(*FIXTURE_CURRENTS[name])
            for _ in range(200):
                s = random_state(rng)
                tau = tau_star(model, con, s)[0]
                assert abs(tau - boat_law(s)) <= 1e-9, name

    def test_boat_closed_form_nonunit_mass(self, rng):
        from vnhc import FIXTURE_CURRENTS

        model, con = build_boat(*FIXTURE_CURRENTS["vortex"], m=2.5, I=0.4)
        for _ in range(100):
            s = random_state(rng)
            assert abs(tau_star(model, con, s)[0] - boat_law(s, m=2.5)) <= 1e-9

    def test_zero_when_b_zero(self):
        model, con = build_boat("0", "0")
        s = State(q=(0.5, 0.5, 1.0), qdot=(1.2, -0.8, 0.0))
        assert tau_star(model, con, s) == [pytest.approx(0.0, abs=1e-15)]

    def test_fd_invariance_oracle(self, rng):
        # tau* is the unique input nulling d(phi)/dt: a tiny Euler step with
        # u = tau* changes phi at O(h^2); any perturbed input gives O(h).
        model, con = build_boat("sin(y)", "cos(x)")

        def euler_phi_change(s, u, h):
            a = model.drift_acceleration(s)
            Y = model.input_fields_at(s.q)[0]
            acl = [a[i] + u * Y[i] for i in range(3)]
            nxt = State(
                q=tuple(s.q[i] + h * s.qdot[i] for i in range(3)),
                qdot=tuple(s.qdot[i] + h * acl[i] for i in range(3)),
            )
            return con.phi(nxt)[0] - con.phi(s)[0]

        h = 1e-6
        for _ in range(20):
            s = random_state(rng, -1.5, 1.5)
            u = tau_star(model, con, s)[0]
            good = abs(euler_phi_change(s, u, h))
            bad = abs(euler_phi_change(s, u + 0.1, h))
            assert good <= 100 * h * h
            assert bad >= 0.05 * h  # ~ h * |dphi((Y)^V)| * 0.1 = 0.1 h / m

    def test_solution_residual(self, rng):
        model, con = build_boat("0.3", "0.1*x", m=1.7, I=0.9)
        for _ in range(50):
            s = random_state(rng)
            solve = solve_control(model, con, s)
            res = abs(solve.P[0][0] * solve.tau[0] - solve.b[0])
            assert res <= 1e-10 * (1 + abs(solve.b[0]))
            assert solve.cond_estimate <= 1e12

    def test_two_method_agreement(self, rng):
        from test_constraint import random_constant_system

        for _ in range(50):
            model, con, g, S, F = random_constant_system(rng)
            n = S.shape[1]
            s = State(q=tuple([0.0] * n), qdot=tuple(rng.uniform(-1, 1, n)))
            try:
                solve = solve_control(model, con, s)
            except TransversalityError:
                continue
            lsq = np.linalg.lstsq(np.array(solve.P), np.array(solve.b), rcond=None)[0]
            assert np.max(np.abs(np.array(solve.tau) - lsq)) <= 1e-10 * (
                1 + np.max(np.abs(lsq))
            )

    def test_degenerate_raises(self):
        model = MechanicalModel(("x", "y"), [[1, 0], [0, 1]], input_coframe=[["0", "1"]])
        con = AffineConstraint(("x", "y"), [["1", "0"]], Z=["0"])
        with pytest.raises(TransversalityError):
            tau_star(model, con, State(q=(0, 0), qdot=(1, 1)))


class TestClosedLoop:
    def test_boat_componentwise(self, rng):
        # Controlled Euler-Lagrange form: xdd = (u sin(th) + W1)/m,
        # ydd = (-u cos(th) + W2)/m, thdd = u/I, with u the analytic law.
        for name, (c1f, c2f) in CURRENT_FNS.items():
            from vnhc import FIXTURE_CURRENTS

            m_val, i_val = 1.0, 1.0
            model, con = build_boat(*FIXTURE_CURRENTS[name], m=m_val, I=i_val)
            eps = 1e-6
            for _ in range(30):
                s = random_state(rng)
                x, y, th = s.q
                xd, yd, thd = s.qdot
                u = boat_law(s, m=m_val)

                def h1(x, y, th):
                    return math.sin(th) ** 2 * c1f(x, y) - math.sin(th) * math.cos(th) * c2f(x, y)

                def h2(x, y, th):
                    return -math.sin(th) * math.cos(th) * c1f(x, y) + math.cos(th) ** 2 * c2f(x, y)

                def ddt(f):
                    q = np.array(s.q)
                    qd = np.array(s.qdot)
                    return (f(*(q + eps * qd)) - f(*(q - eps * qd))) / (2 * eps)

                w1 = m_val * ddt(h1)
                w2 = m_val * ddt(h2)
                a = closed_loop_acceleration(model, con, s)
                assert a[0] == pytest.approx((u * math.sin(th) + w1) / m_val, abs=1e-6)
                assert a[1] == pytest.approx((-u * math.cos(th) + w2) / m_val, abs=1e-6)
                assert a[2] == pytest.approx(u / i_val, abs=1e-9)

    def test_equals_drift_when_tau_zero(self):
        model, con = build_boat("0", "0")
        s = State(q=(0.5, 0.5, 1.0), qdot=(1.2, -0.8, 0.0))
        assert np.allclose(
            closed_loop_acceleration(model, con, s),
            model.drift_acceleration(s),
            atol=1e-15,
        )

    def test_tangency_identity(self, rng):
        # dphi(closed-loop field) = 0 everywhere, via a directional finite
        # difference of phi that never touches the symbolic derivatives.
        from vnhc import FIXTURE_CURRENTS

        for name in FIXTURE_CURRENTS:
            model, con = build_boat(*FIXTURE_CURRENTS[name])
            eps = 1e-6
            for _ in range(300):
                s = random_state(rng)
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
                assert abs(dphi) <= 1e-9 * (1 + speed2), name

    def test_tangency_identity_gen4(self, rng):
        # n=4, m=2, with q-dependent metric and mu: dphi/dt = 0 along the
        # closed loop for both rows, by the same central difference.
        model, con = build_gen4()
        eps = 1e-6
        for _ in range(300):
            s = State(q=tuple(rng.uniform(-2, 2, 4)), qdot=tuple(rng.uniform(-2, 2, 4)))
            a = closed_loop_acceleration(model, con, s)
            fwd = State(
                q=tuple(s.q[i] + eps * s.qdot[i] for i in range(4)),
                qdot=tuple(s.qdot[i] + eps * a[i] for i in range(4)),
            )
            bwd = State(
                q=tuple(s.q[i] - eps * s.qdot[i] for i in range(4)),
                qdot=tuple(s.qdot[i] - eps * a[i] for i in range(4)),
            )
            speed2 = sum(v * v for v in s.qdot)
            for b in range(2):
                dphi = (con.phi(fwd)[b] - con.phi(bwd)[b]) / (2 * eps)
                assert abs(dphi) <= 1e-9 * (1 + speed2), b


def build_gen4():
    """n=4, m=2 system with a q-dependent metric (diagonally dominant, so SPD
    everywhere), velocity-dependent force, a potential, and input coframe
    equal to the constraint rows, so P = S G^-1 S^T is SPD."""
    coords = ("q1", "q2", "q3", "q4")
    metric = [
        ["2 + cos(q2)", "0.3*sin(q3)", "0", "0.1"],
        ["0.3*sin(q3)", "2 + 0.5*sin(q1)", "0.2*cos(q4)", "0"],
        ["0", "0.2*cos(q4)", "1.5", "0.2*sin(q1)"],
        ["0.1", "0", "0.2*sin(q1)", "1 + 0.5*cos(q3)*cos(q3)"],
    ]
    mu = [["1", "0.2*sin(q4)", "0", "0.1"], ["0", "1", "0.3*cos(q1)", "0"]]
    model = MechanicalModel(
        coords, metric,
        potential="0.5*q1*q1 + cos(q2)",
        external_force=["-0.1*q1d", "0.2*q3d*q4d", "0", "sin(q1)"],
        input_coframe=mu,
    )
    con = AffineConstraint(coords, mu, Z=["0.1*sin(q2)", "0.2"])
    return model, con


def build_gen5(seed=5):
    """n=5, m=2 in the style of the benchmark's gen5: metric A^T A + 0.5 I
    with trig entries in A (SPD everywhere), a velocity-dependent force, a
    trig potential, constraint rows with a unit leading 2x2 block whose
    off-diagonal entries are at most 0.4, and the coframe equal to them."""
    rng = random.Random(seed)
    names = [f"q{i + 1}" for i in range(5)]

    def trig(bound):
        fn = rng.choice(("sin", "cos"))
        return f"({rng.uniform(-bound, bound):.3f}*{fn}({rng.choice(names)}))"

    A = [["0"] * 5 for _ in range(5)]
    for k in range(5):
        A[k][k], A[k][(k + 1) % 5], A[k][(k + 3) % 5] = "1", trig(0.6), trig(0.6)
    G = [[" + ".join([f"{A[k][i]}*{A[k][j]}" for k in range(5)] + ["0.5"] * (i == j))
          for j in range(5)] for i in range(5)]
    for i in range(5):
        for j in range(i):
            G[i][j] = G[j][i]
    S = [["1" if i == b else trig(0.4 if i < 2 else 0.8) for i in range(5)] for b in range(2)]
    model = MechanicalModel(
        names, G,
        potential=" + ".join([trig(0.5) for _ in range(3)] + ["0.1*q2^2"]),
        external_force=[f"-0.1*{x}d + 0.05*{names[(i + 1) % 5]}d*{trig(1.0)}"
                        for i, x in enumerate(names)],
        input_coframe=S,
    )
    return model, AffineConstraint(names, S, Z=[f"{trig(0.5)} + {trig(0.3)}", trig(0.5)])


def assembly_systems():
    out = [(name, *build_boat(*FIXTURE_CURRENTS[name])) for name in FIXTURE_CURRENTS]
    out += [("gen4", *build_gen4()), ("gen5", *build_gen5())]
    return out


class TestPConditionCap:
    """P = [[1, 1e5], [0, 1e-5]]: invertible, pivots above the pivot gate,
    but cond_1(P) = 1e15 is beyond the 1e12 cap."""

    def build(self):
        model = MechanicalModel(
            ("x", "y", "z"), np.eye(3).tolist(), input_coframe=[[1, 0, 0], [0, 1, 0]]
        )
        return model, AffineConstraint(("x", "y", "z"), [[1, 1e5, 0], [0, 1e-5, 0]], Z=[0, 0])

    def test_transversality_report(self):
        model, con = self.build()
        report = transversality_check(con, model, (0.0, 0.0, 0.0))
        assert not report.ok
        assert f"{report.cond_estimate:.3e}" == "1.000e+15"

    def test_tau_star_raises(self):
        model, con = self.build()
        with pytest.raises(TransversalityError, match=r"P condition estimate 1\.000e\+15 exceeds"):
            tau_star(model, con, State(q=(0.0, 0.0, 0.0), qdot=(1.0, 0.0, 0.0)))


class TestCoulombForce:
    """Views of q alone never evaluate the external force, which may be
    singular at qdot = 0 (Coulomb friction)."""

    def build(self):
        coulomb = "-0.2*{0}/sqrt(xd^2 + yd^2)"
        return MechanicalModel(
            ("x", "y", "theta"), [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            external_force=[coulomb.format("xd"), coulomb.format("yd"), "0"],
            input_coframe=[["sin(theta)", "-cos(theta)", "1"]],
        ), AffineConstraint(("x", "y", "theta"), [["sin(theta)", "-cos(theta)", "0"]], Z=["0"])

    def test_q_only_views(self, rng):
        model, con = self.build()
        for _ in range(20):
            q = tuple(rng.uniform(-2, 2, 3))
            assert transversality_check(con, model, q).ok
            assert p_matrix(model, con, q)[0][0] == pytest.approx(1.0, abs=1e-15)
            assert model.metric_at(q) == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
            assert model.input_fields_at(q) == [[math.sin(q[2]), -math.cos(q[2]), 1.0]]

    def test_check_command(self, tmp_path, capsys):
        from vnhc import save_model
        from vnhc.cli import main

        path = str(tmp_path / "coulomb.json")
        save_model(path, *self.build())
        assert main(["check", path, "--grid", "theta=0:3:4"]) == 0
        assert capsys.readouterr().out.count("transversality=ok") == 4


class TestSingleAssembly:
    def test_views_bit_equal(self, rng):
        for name, model, con in assembly_systems():
            n = model.n
            for _ in range(40):
                s = State(q=tuple(rng.uniform(-2, 2, n)), qdot=tuple(rng.uniform(-2, 2, n)))
                solve = solve_control(model, con, s)
                assert solve.tau == tuple(tau_star(model, con, s)), name
                assert p_matrix(model, con, s.q) == [list(r) for r in solve.P], name
                report = transversality_check(con, model, s.q)
                assert report.ok, name
                assert report.p == tuple(v for row in solve.P for v in row), name
                assert report.cond_estimate == solve.cond_estimate, name
                assert solve.b == tuple(b_vector(model, con, s)), name
                Y = model.input_fields_at(s.q)
                acc = model.drift_acceleration(s)
                for a, t in enumerate(solve.tau):
                    acc = [acc[k] + t * Y[a][k] for k in range(n)]
                assert closed_loop_acceleration(model, con, s) == acc, name

    def test_sampled_controls_are_tau_star(self):
        for name, model, con in assembly_systems():
            n = model.n
            s0 = State(q=tuple([0.1] * n), qdot=tuple([0.2] * (n - 1) + [-0.3]))
            traj = integrate(model, con, s0, t_end=0.2, h=1e-2, sample_every=3)
            assert len(traj.controls) == 8
            for k, state in enumerate(traj.states):
                assert traj.controls[k] == tuple(tau_star(model, con, state)), (name, k)

    @staticmethod
    def count_linalg(monkeypatch) -> dict:
        calls = {}

        def counting(name):
            fn = getattr(vnhc.linalg, name)

            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)

            monkeypatch.setattr(vnhc.linalg, name, wrapper)

        for name in ("cholesky", "lu_factor", "cond1_from_lu", "lu_solve"):
            counting(name)
        return calls

    @pytest.mark.parametrize("view", [closed_loop_acceleration, solve_control, tau_star])
    def test_one_factorization_per_evaluation(self, monkeypatch, view):
        # One call of the pair's step kernel, stage 1 alone, which factors G
        # and P inline: no linalg routine runs.
        model, con = build_gen4()
        kernel = vnhc.control._step(model, con)
        fused = []

        def counting(*args):
            fused.append(args[2:])
            return kernel(*args)

        vnhc.constraint._pair(model, con).step = counting
        calls = self.count_linalg(monkeypatch)
        view(model, con, State(q=(0.3, -0.1, 0.7, 1.2), qdot=(0.5, -0.4, 0.2, 0.9)))
        assert (fused, calls) == ([(None, None, 1)], {})

    @pytest.mark.parametrize("view", [closed_loop_acceleration, solve_control, tau_star])
    def test_one_factorization_per_fallback(self, monkeypatch, view):
        # Where the kernel declines (cond(P) = 1e15), one call of the pair's
        # q-only kernel, which factors G and P inline, raises; no linalg
        # routine runs and no tau is solved for.
        model, con = TestPConditionCap().build()
        kernel = vnhc.constraint._q_only(model, con)
        q_only = []

        def counting(q):
            q_only.append(q)
            return kernel(q)

        vnhc.constraint._pair(model, con).q_only = counting
        calls = self.count_linalg(monkeypatch)
        with pytest.raises(TransversalityError, match=r"^P condition estimate 1\.000e\+15"):
            view(model, con, State(q=(0.0, 0.0, 0.0), qdot=(1.0, 0.0, 0.0)))
        assert (q_only, calls) == ([(0.0, 0.0, 0.0)], {})


# Each public entry point that takes a model and its constraint, called
# with the two swapped: (name, the order it takes them in, the call).
S0 = State(q=(0.1, 0.2, 0.3), qdot=(0.4, 0.5, 0.6))
SWAPPED = [
    ("p_matrix", "model, con", lambda a, b: p_matrix(a, b, S0.q)),
    ("b_vector", "model, con", lambda a, b: b_vector(a, b, S0)),
    ("solve_control", "model, con", lambda a, b: solve_control(a, b, S0)),
    ("tau_star", "model, con", lambda a, b: tau_star(a, b, S0)),
    ("closed_loop_acceleration", "model, con", lambda a, b: closed_loop_acceleration(a, b, S0)),
    ("rk4_step", "model, con", lambda a, b: vnhc.rk4_step(a, b, S0, 1e-3)),
    ("integrate", "model, con", lambda a, b: integrate(a, b, S0, t_end=1e-2, h=1e-3)),
    ("model_to_dict", "model, con", vnhc.model_to_dict),
    ("transversality_check", "con, model", lambda a, b: transversality_check(a, b, S0.q)),
    ("project_onto_A", "con, model", lambda a, b: vnhc.project_onto_A(a, b, S0)),
]


@pytest.mark.parametrize("name, order, call", SWAPPED, ids=[case[0] for case in SWAPPED])
def test_swapped_pair_is_a_type_error(name, order, call):
    # The call swaps its two arguments; the error names the order it takes.
    model, con = build_boat("sin(y)", "cos(x)")
    swapped = (con, model) if order == "model, con" else (model, con)
    first, second = order.split(", ")
    got = {first: type(swapped[0]).__name__, second: type(swapped[1]).__name__}
    with pytest.raises(TypeError) as info:
        call(*swapped)
    assert str(info.value) == (
        f"expected ({order}, ...) with model a MechanicalModel and con an AffineConstraint; "
        f"got {first}={got[first]}, {second}={got[second]}")
    unswapped = swapped[::-1]
    call(*unswapped)  # the right order works


VIEWS = [closed_loop_acceleration, solve_control, tau_star]


# The views that need no step kernel: (name, the call), each of whose
# calls checks the pair where no record of it is kept.
Q_VIEWS = [
    ("p_matrix", lambda model, con: p_matrix(model, con, S0.q)),
    ("transversality_check", lambda model, con: transversality_check(con, model, S0.q)),
    ("b_vector", lambda model, con: b_vector(model, con, S0)),
    ("project_onto_A", lambda model, con: vnhc.project_onto_A(con, model, S0)),
]


class TestWarmPath:
    """A pair's record kept on the constraint proves the pair was checked
    when it was made (`constraint._pair`): a warm view makes one kernel
    call and no pair check, and every error it raised before the pair was
    warm it still raises."""

    @staticmethod
    def warm():
        model, con = build_boat("sin(y)", "cos(x)")
        tau_star(model, con, S0)
        return model, con

    @staticmethod
    def count(monkeypatch) -> list:
        # the pair checks and the calls of each pair kernel compiled from
        # here on, in order; only the pair's own builds are wrapped, so no
        # process-wide cache (such as `linalg._sized`'s) keeps a wrapper
        calls = []
        real_check, real_compiled = vnhc.constraint.check_compatible, vnhc.geometry._compiled

        def check(*args):
            calls.append("check")
            return real_check(*args)

        def compiled(what, build, *args):
            kernel = real_compiled(what, build, *args)
            if build is not vnhc.linalg._define:  # a source, not a kernel
                return kernel

            def counting(*args):
                calls.append("kernel")
                return kernel(*args)

            return counting

        monkeypatch.setattr(vnhc.constraint, "check_compatible", check)
        for module in (vnhc.constraint, vnhc.control):
            monkeypatch.setattr(module, "_compiled", compiled)
        return calls

    @pytest.mark.parametrize("view", VIEWS)
    def test_a_warm_view_is_one_kernel_call(self, monkeypatch, view):
        model, con = build_boat("sin(y)", "cos(x)")
        calls = self.count(monkeypatch)
        cold = view(model, con, S0)
        assert calls == ["check", "kernel"]
        calls.clear()
        assert view(model, con, S0) == cold
        assert calls == ["kernel"]

    @pytest.mark.parametrize("name, view", Q_VIEWS, ids=[case[0] for case in Q_VIEWS])
    def test_one_check_per_pair(self, monkeypatch, name, view):
        # The q-only views make one call of the q-only kernel; b_vector and
        # project_onto_A call the model's and the constraint's own kernels.
        model, con = build_boat("sin(y)", "cos(x)")
        calls = self.count(monkeypatch)
        cold = view(model, con)
        first, calls[:] = calls[:], []
        assert view(model, con) == cold
        assert (first[0], first.count("check"), calls.count("check")) == ("check", 1, 0)
        if name in ("p_matrix", "transversality_check"):
            assert (first, calls) == (["check", "kernel"], ["kernel"])

    def test_p_matrix_on_a_pair_that_tau_star_warmed(self, monkeypatch):
        # tau_star made the record and built the step kernel; the q-only
        # kernel is built on p_matrix's call, with no check of the pair.
        model, con = self.warm()
        calls = self.count(monkeypatch)
        p_matrix(model, con, S0.q)
        assert calls == ["kernel"]

    @pytest.mark.parametrize("view", VIEWS)
    def test_swapped_pair(self, view):
        model, con = self.warm()
        with pytest.raises(TypeError) as info:
            view(con, model, S0)
        assert str(info.value) == (
            "expected (model, con, ...) with model a MechanicalModel and con an "
            "AffineConstraint; got model=AffineConstraint, con=MechanicalModel")

    @pytest.mark.parametrize("view", VIEWS)
    def test_unhashable_model(self, view):
        _, con = self.warm()
        with pytest.raises(TypeError, match=r"got model=list, con=AffineConstraint$"):
            view([], con, S0)

    @pytest.mark.parametrize("view", VIEWS)
    def test_incompatible_constraint(self, view):
        model, _ = self.warm()
        other = AffineConstraint(("x", "y", "phi"), [["1", "0", "0"]], Z=["0"])
        short = State(q=(0.1, 0.2), qdot=(0.3, 0.4))
        for state in (S0, short):  # the pair's error comes before the state's
            with pytest.raises(vnhc.ModelError,
                               match=r"^constraint chart \('x', 'y', 'phi'\) is not the model's$"):
                view(model, other, state)

    @pytest.mark.parametrize("view", VIEWS)
    def test_state_of_another_dimension(self, view):
        model, con = self.warm()
        with pytest.raises(ValueError) as info:
            view(model, con, State(q=(0.1, 0.2), qdot=(0.3, 0.4)))
        assert str(info.value) == "state dimension 2 does not match n=3"

    @pytest.mark.parametrize("view", VIEWS)
    def test_a_cold_state_error_builds_nothing(self, view):
        model, con = build_boat("sin(y)", "cos(x)")
        with pytest.raises(ValueError, match="^state dimension 2 does not match n=3$"):
            view(model, con, State(q=(0.1, 0.2), qdot=(0.3, 0.4)))
        assert not hasattr(con._pairs[model], "step")

    @pytest.mark.parametrize("view", VIEWS)
    def test_a_plain_tuple_is_refused(self, view):
        model, con = self.warm()
        with pytest.raises(AttributeError, match="'tuple' object has no attribute 'q'"):
            view(model, con, (S0.q, S0.qdot))
