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
        # finite, but too many steps to count: not an OverflowError
        with pytest.raises(ValueError, match=r"^t_end / step size overflows \(1e\+300 / 1e-300\)$"):
            integrate(model, con, s, t_end=1e300, h=1e-300)
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
        # One call of the pair's step kernel per step, which runs stages 2-4
        # and the next step's stage 1 (each one closed-loop evaluation,
        # factors inline), plus one at the start for stage 1 of step 1; the
        # samples reuse the stage-1 tau instead of solving again.  The
        # closed-loop field, which names a failed stage's error, is not called.
        model, con = build_boat("sin(y)", "cos(x)")
        kernel = vnhc.sim._step(model, con)
        calls, fields = [], []
        con._step[model] = lambda *args: calls.append(args[2] is None) or kernel(*args)
        con._closed_loop[model] = lambda *args: fields.append(args)
        s0 = State(q=(0.1, -0.2, 0.5), qdot=(0.4, 0.3, 0.8))
        traj = integrate(model, con, s0, t_end=0.1, h=1e-2, sample_every=1)
        assert len(traj.times) == 11
        assert (calls, fields) == ([True] + [False] * 10, [])

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


def threshold_system(force="0"):
    """Metric diag(1, e^x), whose condition passes its cap at x = 27.63, and
    an unactuated x driven by force; the input and phi act on y alone."""
    model = MechanicalModel(("x", "y"), [["1", "0"], ["0", "exp(x)"]],
                            external_force=[force, "0"], input_coframe=[["0", "1"]])
    return model, AffineConstraint(("x", "y"), [["0", "1"]], Z=["0"])


CAP = r"metric condition estimate {}\+12 exceeds 1e\+12 at q=\({}, 0\.0\)"
# name -> (force on x, x0, xd0, h, steps, sample_every, what integrate raises:
# (message, last_good_index, type of the cause) or (type, message) where the
# start state fails, and what rk4_step from the start raises or returns).
# The messages, indices and states are those of the integrator that made
# one closed-loop field call per RK4 stage.
STAGE_CASES = {
    # stage 2 at x = 27.65 is the first past the cap
    "stage_2": ("0", 27.5, 3.0, 0.1, 1, 1,
                ("aborted at step 1: " + CAP.format("1.019e", "27.65"), 0, SPDError),
                ("SPDError", CAP.format("1.019e", "27.65"))),
    # stages 2 and 3 at 27.55 pass, stage 4 at 27.7 does not
    "stage_4": ("0", 27.4, 3.0, 0.1, 1, 1,
                ("aborted at step 1: " + CAP.format("1.071e", "27.7"), 0, SPDError),
                ("SPDError", CAP.format("1.071e", "27.7"))),
    # a force bump at the start pushes the step's end (27.638) past stage 4
    # (27.624) and past the cap: the next step's stage 1 fails, which
    # rk4_step never evaluates
    "next_stage_1": ("10*exp(-100*(x - 27.319)^2)", 27.319, 3.0, 0.1, 1, 1,
                     ("aborted at step 1: " + CAP.format("1.007e", "27.63820283078243"), 0,
                      SPDError),
                     "State(q=(27.63820283078243, 0.0), qdot=(3.2174048999517217, 0.0))"),
    "stage_2_of_step_4": ("0", 26.6, 3.0, 0.1, 6, 2,
                          ("aborted at step 4: " + CAP.format("1.019e", "27.650000000000002"),
                           1, SPDError),
                          "State(q=(26.900000000000002, 0.0), qdot=(3.0, 0.0))"),
    "stage_4_of_step_3": ("0", 26.8, 3.0, 0.1, 6, 2,
                          ("aborted at step 3: " + CAP.format("1.071e", "27.700000000000003"),
                           1, SPDError),
                          "State(q=(27.1, 0.0), qdot=(3.0, 0.0))"),
    # a force pole: zero everywhere but at x = c, where it divides by zero;
    # the stages sit on exact binary fractions of the step
    "pole_in_stage_2": ("1/(x - 0.25)", 0.0, 1.0, 0.5, 1, 1,
                        (r"aborted at step 1: division by zero in 1 / \(x - 0\.25\)", 0,
                         vnhc.EvalError),
                        ("EvalError", r"division by zero in 1 / \(x - 0\.25\)")),
    "pole_in_stage_2_of_step_3": ("1/(x - 1.25) - 1/(x - 1.25)", 0.0, 1.0, 0.5, 4, 2,
                                  (r"aborted at step 3: division by zero in 1 / \(x - 1\.25\)",
                                   1, vnhc.EvalError),
                                  "State(q=(0.5, 0.0), qdot=(1.0, 0.0))"),
    "pole_in_stage_4_of_step_2": ("1/(x - 1) - 1/(x - 1)", 0.0, 1.0, 0.5, 4, 1,
                                  (r"aborted at step 2: division by zero in 1 / \(x - 1\)",
                                   1, vnhc.EvalError),
                                  "State(q=(0.5, 0.0), qdot=(1.0, 0.0))"),
    "pole_at_the_start": ("1/(x - 1) - 1/(x - 1)", 1.0, 1.0, 0.5, 4, 1,
                          ("EvalError", r"division by zero in 1 / \(x - 1\)"),
                          ("EvalError", r"division by zero in 1 / \(x - 1\)")),
}


class TestStageFailures:
    """Whichever RK4 stage fails first, integrate names the step, keeps the
    samples before it and chains the stage's typed error; rk4_step raises
    that error or returns the step's end, and never evaluates past it."""

    @pytest.mark.parametrize("name", STAGE_CASES)
    def test_integrate(self, name):
        force, x0, xd0, h, steps, every, expected, _ = STAGE_CASES[name]
        model, con = threshold_system(force)
        s0 = State(q=(x0, 0.0), qdot=(xd0, 0.0))
        if isinstance(expected[0], str) and len(expected) == 2:  # the start state fails
            kind, message = expected
            with pytest.raises(getattr(vnhc, kind), match=f"^{message}$"):
                integrate(model, con, s0, t_end=h * steps, h=h, sample_every=every)
            return
        message, last_good, cause = expected
        with pytest.raises(IntegrationError, match=f"^{message}$") as info:
            integrate(model, con, s0, t_end=h * steps, h=h, sample_every=every)
        assert info.value.last_good_index == last_good
        assert type(info.value.__cause__) is cause

    @pytest.mark.parametrize("name", STAGE_CASES)
    def test_rk4_step(self, name):
        force, x0, xd0, h, _, _, _, expected = STAGE_CASES[name]
        model, con = threshold_system(force)
        s0 = State(q=(x0, 0.0), qdot=(xd0, 0.0))
        if isinstance(expected, str):
            assert repr(rk4_step(model, con, s0, h)) == expected
        else:
            kind, message = expected
            with pytest.raises(getattr(vnhc, kind), match=f"^{message}$"):
                rk4_step(model, con, s0, h)

    def test_non_finite_state_before_the_next_stage_1(self):
        # Every stage of step 1 is finite, but their sum overflows; stage 1
        # at the step's end would be a domain error in sin(inf).
        model = MechanicalModel(("x", "y"), [["1", "0"], ["0", "1"]],
                                external_force=["1e308 + sin(xd)", "0"],
                                input_coframe=[["0", "1"]])
        con = AffineConstraint(("x", "y"), [["0", "1"]], Z=["0"])
        s0 = State(q=(0.0, 0.0), qdot=(0.0, 0.0))
        with pytest.raises(IntegrationError, match="^non-finite state at step 1$") as info:
            integrate(model, con, s0, t_end=2.0, h=1.0)
        assert (info.value.last_good_index, info.value.__cause__) == (0, None)
        with pytest.raises(ValueError, match="^non-finite state entry$"):
            rk4_step(model, con, s0, 1.0)
