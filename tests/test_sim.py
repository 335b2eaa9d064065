import math

import numpy as np
import pytest

import vnhc
from vnhc import (
    AffineConstraint,
    IntegrationError,
    MechanicalModel,
    SPDError,
    State,
    build_boat,
    build_linear_fixture,
    integrate,
    project_onto_A,
    rk4_step,
)


def stable_offset_state(con, phi_target=0.7):
    """Off-constraint start with phi(0)=phi_target whose closed-loop run
    stays bounded (negative spin, forward velocity)."""
    z = con.z_at((0.0, 0.0, 0.0))[0]
    return State(q=(0.0, 0.0, 0.0), qdot=(0.3, z - phi_target, -0.2))


def blow_up_system():
    """xdd = xd^3: from xd = 10 the velocity is infinite at t = 0.005."""
    model = MechanicalModel(
        ("x", "y"), [[1, 0], [0, 1]],
        external_force=["xd*xd*xd", "0"], input_coframe=[["0", "1"]],
    )
    con = AffineConstraint(("x", "y"), [["0", "1"]], Z=["0"])
    return model, con


class TestRK4Step:
    def test_zero_dynamics(self):
        model, con = build_linear_fixture()
        s = State(q=(0.4, -0.2, 1.0), qdot=(0.0, 0.0, 0.0))
        nxt = rk4_step(model, con, s, 1e-2)
        assert nxt.q == s.q
        assert nxt.qdot == s.qdot

    def test_free_particle_linear_motion(self):
        # theta-dot zero keeps tau at zero; motion is exactly linear in t
        # and RK4 reproduces it to rounding.
        model, con = build_linear_fixture()
        s = State(q=(0.0, 0.0, 0.3), qdot=(math.cos(0.3), math.sin(0.3), 0.0))
        h = 0.1
        nxt = rk4_step(model, con, s, h)
        for i in range(3):
            assert nxt.q[i] == pytest.approx(s.q[i] + h * s.qdot[i], abs=1e-12)
            assert nxt.qdot[i] == pytest.approx(s.qdot[i], abs=1e-12)

    def test_rejects_nonpositive_step(self):
        model, con = build_linear_fixture()
        s = State(q=(0, 0, 0), qdot=(0, 0, 0))
        with pytest.raises(ValueError):
            rk4_step(model, con, s, 0.0)
        for h in (math.inf, math.nan):
            with pytest.raises(ValueError, match="^step size must be positive and finite$"):
                rk4_step(model, con, s, h)

    def test_order_four_self_convergence(self):
        model, con = build_boat("sin(y)", "cos(x)")
        s0 = project_onto_A(
            con, model, State(q=(0.1, -0.2, 0.5), qdot=(0.4, 0.3, 0.8))
        )
        t_end = 1.0

        def endpoint(h):
            traj = integrate(model, con, s0, t_end=t_end, h=h, sample_every=10 ** 9)
            last = traj.states[-1]
            return np.array(last.q + last.qdot)

        ref = endpoint(t_end / 4096)
        e1 = np.max(np.abs(endpoint(0.02) - ref))
        e2 = np.max(np.abs(endpoint(0.01) - ref))
        assert 12 <= e1 / e2 <= 20


class TestIntegrate:
    def test_two_samples_when_t_end_is_h(self):
        model, con = build_linear_fixture()
        s = State(q=(0, 0, 0), qdot=(1.0, 0.0, 0.1))
        traj = integrate(model, con, s, t_end=0.01, h=0.01, sample_every=1)
        assert len(traj.times) == 2
        assert traj.times == (0.0, 0.01)

    def test_sequences_share_length_times_increasing(self):
        model, con = build_boat("0.3", "0.1*x")
        s = State(q=(0, 0, 0), qdot=(0.5, 0.0, 0.2))
        traj = integrate(model, con, s, t_end=0.5, h=1e-2, sample_every=7)
        k = len(traj.times)
        assert len(traj.states) == len(traj.controls) == len(traj.phis) == k
        assert all(t2 > t1 for t1, t2 in zip(traj.times, traj.times[1:]))

    def test_drift_report_matches_phis(self):
        model, con = build_boat("sin(y)", "cos(x)")
        s = stable_offset_state(con, 0.3)
        traj = integrate(model, con, s, t_end=1.0, h=1e-2)
        expected = max(abs(p[0] - traj.phis[0][0]) for p in traj.phis)
        assert traj.drift_report == (expected,)

    def test_invariance_certificate(self, boat_fixtures):
        for name, _, model, con in boat_fixtures:
            s0 = project_onto_A(
                con, model, State(q=(0.1, -0.2, 0.5), qdot=(0.4, 0.3, 0.8))
            )
            traj = integrate(model, con, s0, t_end=2.0, h=1e-3, sample_every=50)
            assert max(abs(p[0]) for p in traj.phis) <= 1e-8, name

    def test_first_integral_off_constraint(self, boat_fixtures):
        for name, _, model, con in boat_fixtures:
            s0 = stable_offset_state(con)
            phi0 = con.phi(s0)[0]
            assert phi0 == pytest.approx(0.7, abs=1e-14)
            traj = integrate(model, con, s0, t_end=2.0, h=1e-3, sample_every=50)
            assert traj.drift_report[0] <= 1e-8, name

    def test_deterministic_bit_identical(self):
        model, con = build_boat("sin(y)", "cos(x)")
        s0 = stable_offset_state(con)
        t1 = integrate(model, con, s0, t_end=0.5, h=1e-3, sample_every=10)
        t2 = integrate(model, con, s0, t_end=0.5, h=1e-3, sample_every=10)
        assert t1 == t2

    def test_flag_validation(self):
        model, con = build_linear_fixture()
        s = State(q=(0, 0, 0), qdot=(0, 0, 0))
        with pytest.raises(ValueError):
            integrate(model, con, s, t_end=0.0, h=1e-3)
        with pytest.raises(ValueError):
            integrate(model, con, s, t_end=1.0, h=-1e-3)
        with pytest.raises(ValueError):
            integrate(model, con, s, t_end=1.0, h=1e-3, sample_every=0)
        for bad in (math.inf, math.nan):  # not an OverflowError from the step count
            with pytest.raises(ValueError, match="^t_end must be positive and finite$"):
                integrate(model, con, s, t_end=bad, h=1e-3)
            with pytest.raises(ValueError, match="^step size must be positive and finite$"):
                integrate(model, con, s, t_end=1.0, h=bad)

    def test_blow_up_is_integration_error(self):
        model, con = blow_up_system()
        s0 = State(q=(0.0, 0.0), qdot=(10.0, 0.0))
        with pytest.raises(IntegrationError, match="non-finite state at step 2") as info:
            integrate(model, con, s0, t_end=1.0, h=0.1)
        assert info.value.last_good_index == 1

    def test_one_factorization_per_stage(self, monkeypatch):
        # 4 stages per step plus the stage 1 at the start, each one call of
        # the generated closed-loop kernel; the samples reuse the next
        # step's stage-1 solve instead of solving again.
        model, con = build_boat("sin(y)", "cos(x)")
        field = vnhc.control._closed_loop(model, con)
        calls = []

        def counting(*args):
            calls.append(1)
            return field(*args)

        con._closed_loop[model] = counting
        s0 = State(q=(0.1, -0.2, 0.5), qdot=(0.4, 0.3, 0.8))
        traj = integrate(model, con, s0, t_end=0.1, h=1e-2, sample_every=1)
        assert len(traj.times) == 11
        assert len(calls) == 4 * 10 + 1

    def test_one_factorization_per_stage_in_the_fallback(self, monkeypatch):
        # Metric diag(1, x) and phi = xd: x runs down to 0 in 10 steps, where
        # the metric's condition passes the cap.  Every stage before runs in
        # the kernel; the one it declines makes one call of the pair's q-only
        # kernel, which factors the metric once, and integrate reports its
        # SPDError with the step.  No linalg factorization runs.
        model = MechanicalModel(("x", "y"), [["1", "0"], ["0", "x"]],
                                input_coframe=[["1", "0"]])
        con = AffineConstraint(("x", "y"), [["1", "0"]], Z=["0"])
        kernel = vnhc.constraint._q_only(model, con)
        calls, cholesky = [], []
        con._q_only[model] = lambda q: calls.append(q) or kernel(q)
        monkeypatch.setattr(vnhc.linalg, "cholesky", lambda a: cholesky.append(a))
        message = r"^aborted at step 10: metric condition estimate 7\.206e\+15 "
        with pytest.raises(IntegrationError, match=message) as info:
            integrate(model, con, State(q=(1.0, 0.0), qdot=(-10.0, 0.0)), t_end=0.2, h=1e-2)
        assert info.value.last_good_index == 9  # steps 0-9 sampled
        assert isinstance(info.value.__cause__, SPDError)
        assert (len(calls), cholesky) == (1, [])
