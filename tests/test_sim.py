import functools
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st
from test_control import build_gen5

import vnhc
from vnhc import (
    AffineConstraint,
    IntegrationError,
    MechanicalModel,
    SPDError,
    State,
    FIXTURE_CURRENTS,
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
        # an int past the float range too: not an OverflowError from the kernel's 0.5 * h
        for h in (math.inf, math.nan, 10**400, 2**1100):
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
    @pytest.mark.parametrize("size", [2, 4])
    def test_start_of_another_dimension_on_a_warm_pair(self, size):
        # The pair's step kernel is built, so the start record's call is
        # warm: the state's dimension is checked before the kernel runs.
        model, con = build_boat(*FIXTURE_CURRENTS["vortex"])
        integrate(model, con, State(q=(0.1, 0.2, 0.3), qdot=(0.4, 0.5, 0.6)), t_end=1e-3, h=1e-3)
        assert hasattr(con._pairs[model], "step")
        s0 = State(q=(0.1,) * size, qdot=(0.2,) * size)
        with pytest.raises(ValueError) as info:
            integrate(model, con, s0, t_end=1e-2, h=1e-3)
        assert str(info.value) == f"state dimension {size} does not match n=3"

    def test_two_samples_when_t_end_is_h(self):
        model, con = build_linear_fixture()
        s = State(q=(0, 0, 0), qdot=(1.0, 0.0, 0.1))
        traj = integrate(model, con, s, t_end=0.01, h=0.01, sample_every=1)
        assert len(traj.times) == 2
        assert traj.times == (0.0, 0.01)

    def test_times_are_floats_for_an_int_step(self):
        model, con = build_linear_fixture()
        s = State(q=(0, 0, 0), qdot=(1.0, 0.0, 0.1))
        times = integrate(model, con, s, t_end=2, h=1).times
        assert times == (0.0, 1.0, 2.0)
        assert all(type(t) is float for t in times)

    def test_an_int_step_whose_last_time_passes_the_float_range(self):
        # 2 * h is past the float range: inf, as for the same h as a float,
        # not an OverflowError from converting the int product
        model, con = build_boat("0", "0")
        s = State(q=(0.0, 0.0, 0.0), qdot=(0.0, 0.0, 0.0))
        h = int(0.6 * sys.float_info.max)
        for step in (h, float(h)):
            times = integrate(model, con, s, t_end=sys.float_info.max, h=step).times
            assert times == (0.0, 1.0786158809173893e+308, math.inf)

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

    @pytest.mark.parametrize("projected", [True, False])
    def test_phi_drift_shows_rk4_order(self, projected):
        # phi stays at its initial value up to RK4 error: on the constraint
        # set (projected) and off it, each halving of h divides the drift by
        # about 2^4 = 16.  A law that lost an order would divide it by about
        # 8, and drift at round-off by about 1.
        #  - the vortex boat from criterion 2's start: 16.04-16.15 on the
        #    set, 15.95-15.99 off it; the drift goes from about 1e-7 to 2e-11;
        #  - gen5 (n = 5, m = 2, a metric that depends on q): 16.23-17.03 on
        #    the set, 16.05-16.17 off it, from about 3e-10 to 6e-14.  At
        #    h = 5e-3 its drift is about 4e-15, near round-off, and the ratio
        #    wanders (17.26), so its steps stop at 1e-2.
        cases = [  # ((model, constraint), start, step sizes, bounds on each ratio)
            (build_boat(*FIXTURE_CURRENTS["vortex"]), State(q=(0.1, -0.2, 0.5),
                                                             qdot=(0.4, 0.3, 0.8)),
             (4e-2, 2e-2, 1e-2, 5e-3), (15.0, 17.0)),
            (build_gen5(), State(q=(0.1, 0.2, -0.3, 0.4, 0.5), qdot=(0.2, -0.1, 0.3, 0.1, -0.2)),
             (8e-2, 4e-2, 2e-2, 1e-2), (15.0, 17.5)),
        ]
        for (model, con), s0, steps, (low, high) in cases:
            if projected:
                s0 = project_onto_A(con, model, s0)
            drifts = [integrate(model, con, s0, t_end=2.0, h=h,
                                sample_every=math.inf).drift_report[0] for h in steps]
            ratios = [a / b for a, b in zip(drifts, drifts[1:])]
            assert all(low <= r <= high for r in ratios), (model.n, drifts, ratios)

    def test_deterministic_bit_identical(self):
        model, con = build_boat("sin(y)", "cos(x)")
        s0 = stable_offset_state(con)
        t1 = integrate(model, con, s0, t_end=0.5, h=1e-3, sample_every=10)
        t2 = integrate(model, con, s0, t_end=0.5, h=1e-3, sample_every=10)
        assert t1 == t2

    def test_sample_every_is_a_whole_number(self):
        # each kernel call runs a whole number of steps to the next sample
        model, con = build_boat("sin(y)", "cos(x)")
        s0 = stable_offset_state(con)
        for bad in (2.5, math.nan):
            with pytest.raises(ValueError, match="^sample_every must be a whole number of steps$"):
                integrate(model, con, s0, t_end=0.05, h=1e-2, sample_every=bad)
        runs = [integrate(model, con, s0, t_end=0.05, h=1e-2, sample_every=every)
                for every in (2, 2.0, 5, math.inf)]
        assert repr(runs[0]) == repr(runs[1])
        assert repr(runs[2]) == repr(runs[3])  # the start and the last step

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
        # not an OverflowError from the step count, or from converting an int
        # past the float range
        for bad in (math.inf, math.nan, 10**400, 2**1100):
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
        # function that names a failed stage's error is not called.
        model, con = build_boat("sin(y)", "cos(x)")
        kernel = vnhc.control._step(model, con)
        calls, failures = [], []
        vnhc.constraint._pair(model, con).step = (
            lambda *args: calls.append(args[2] is None) or kernel(*args))
        monkeypatch.setattr(vnhc.sim, "_raise_failure", lambda *args: failures.append(args))
        s0 = State(q=(0.1, -0.2, 0.5), qdot=(0.4, 0.3, 0.8))
        traj = integrate(model, con, s0, t_end=0.1, h=1e-2, sample_every=1)
        assert len(traj.times) == 11
        assert (calls, failures) == ([True] + [False] * 10, [])

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
        vnhc.constraint._pair(model, con).q_only = lambda q: calls.append(q) or kernel(q)
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

    def assert_z_fails_in_a_stage(self, every, sample_step, last_good):
        # phi = yd + log(x) with x = 0.05 - t: stage 4 of step 5 is at x = 0,
        # where Z has no value.  Every stage evaluates Z, so the run aborts
        # at step 5 whatever sample_every is, not at sample_step, the first
        # sample at or past it (the run's last step, 20, where sample_every
        # passes it), and keeps the samples before step 5.
        assert sample_step == min(-(-5 // every) * every, 20)
        model = MechanicalModel(("x", "y"), [[1, 0], [0, 1]], input_coframe=[["0", "1"]])
        con = AffineConstraint(("x", "y"), [["0", "1"]], Z=["log(x)"])
        s0 = State(q=(0.05, 0.0), qdot=(-1.0, 0.0))
        with pytest.raises(IntegrationError,
                           match=r"^aborted at step 5: domain error in log\(x\)$") as info:
            integrate(model, con, s0, t_end=0.2, h=1e-2, sample_every=every)
        assert info.value.last_good_index == last_good == 4 // every
        assert type(info.value.__cause__) is vnhc.EvalError

    @pytest.mark.parametrize("every, sample_step, last_good", [(1, 5, 4), (2, 6, 2)])
    def test_phi_failing_at_a_sample(self, every, sample_step, last_good):
        self.assert_z_fails_in_a_stage(every, sample_step, last_good)

    @pytest.mark.parametrize("every, sample_step, last_good",
                             [(3, 6, 1), (7, 7, 0), (25, 20, 0)])
    def test_phi_failing_at_a_later_sample(self, every, sample_step, last_good):
        self.assert_z_fails_in_a_stage(every, sample_step, last_good)

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


    # The cases that abort after the start, and the step each names.
    ABORTS = {name: int(re.search(r"step (\d+)", case[6][0])[1])
              for name, case in STAGE_CASES.items() if len(case[6]) == 3}

    @pytest.mark.parametrize("every", [2, 2.0, 3, 8])
    @pytest.mark.parametrize("name", ABORTS)
    def test_inside_a_sample_interval(self, name, every):
        # One kernel call runs the steps up to the next sample: a failure
        # inside it names the same step and error as one step per call
        # would, and keeps the samples before it.  The runs take 8 steps,
        # so the step that fails is inside a call of several.  A float
        # sample_every names the step as an int.
        force, x0, xd0, h, _, _, (message, _, cause), _ = STAGE_CASES[name]
        model, con = threshold_system(force)
        s0 = State(q=(x0, 0.0), qdot=(xd0, 0.0))
        with pytest.raises(IntegrationError, match=f"^{message}$") as info:
            integrate(model, con, s0, t_end=h * 8, h=h, sample_every=every)
        assert info.value.last_good_index == (self.ABORTS[name] - 1) // every
        assert type(info.value.__cause__) is cause

    @pytest.mark.parametrize("system, t_end, h, every, step", [
        (blow_up_system, 1.0, 0.1, 3, 2),
        (blow_up_system, 1.0, 0.1, 20, 2),
    ])
    def test_non_finite_state_inside_a_sample_interval(self, system, t_end, h, every, step):
        model, con = system()
        s0 = State(q=(0.0, 0.0), qdot=(10.0, 0.0))
        with pytest.raises(IntegrationError, match=f"^non-finite state at step {step}$") as info:
            integrate(model, con, s0, t_end=t_end, h=h, sample_every=every)
        assert (info.value.last_good_index, info.value.__cause__) == (0, None)


def test_a_non_finite_stage_1_is_screened_before_a_step():
    # F = 1e300 x overflows at x = 1e10, so stage 1 at the start is not
    # finite: rk4_step raises the views' error there, as tau_star does,
    # while integrate finds the end of step 1 not finite.
    model = MechanicalModel(("x", "y"), [["1", "0"], ["0", "1"]],
                            external_force=["1e300*x", "0"], input_coframe=[["0", "1"]])
    con = AffineConstraint(("x", "y"), [["0", "1"]], Z=["0"])
    s0 = State(q=(1e10, 0.0), qdot=(1.0, 0.0))
    message = r"^b \(nan,\) is not finite at q=\(10000000000\.0, 0\.0\), qdot=\(1\.0, 0\.0\)$"
    for call in (lambda: rk4_step(model, con, s0, 1e-3), lambda: vnhc.tau_star(model, con, s0)):
        with pytest.raises(vnhc.EvalError, match=message):
            call()
    with pytest.raises(IntegrationError, match="^non-finite state at step 1$") as info:
        integrate(model, con, s0, t_end=2e-3, h=1e-3)
    assert (info.value.last_good_index, info.value.__cause__) == (0, None)


@functools.cache
def sampled_system(name):
    return build_gen5() if name == "gen5" else build_boat(*FIXTURE_CURRENTS[name])


@st.composite
def sampled_runs(draw):
    """A system (the three boats and gen5), a start state, a step size, a
    step count and sample_every."""
    name = draw(st.sampled_from([*FIXTURE_CURRENTS, "gen5"]))
    model, con = sampled_system(name)
    bound = 1.0 if name == "gen5" else 2.0
    x = st.floats(-bound, bound)
    s0 = State(q=tuple(draw(x) for _ in range(model.n)), qdot=tuple(draw(x) for _ in range(model.n)))
    return (model, con, s0, draw(st.sampled_from([1e-3, 1e-2])), draw(st.integers(1, 25)),
            draw(st.sampled_from([1, 2, 3, 7, 10])))


def run(model, con, s0, h, steps, every):
    try:
        return integrate(model, con, s0, t_end=h * steps, h=h, sample_every=every)
    except IntegrationError:  # a start far from the admissible set
        reject()


@settings(max_examples=40, deadline=None)
@given(sampled_runs())
def test_each_sampled_phi_is_con_phi(drawn):
    # The step kernel computes phi at each sample, the start's included; it
    # has the bits of con.phi at the sampled state.
    model, con, s0, h, steps, every = drawn
    traj = run(model, con, s0, h, steps, every)
    assert [repr(con.phi(s)) for s in traj.states] == [repr(list(p)) for p in traj.phis]


@settings(max_examples=40, deadline=None)
@given(sampled_runs())
def test_sampling_picks_from_the_every_step_run(drawn):
    # sample_every=k records, repr for repr, every k-th sample and the last
    # of the run that samples every step.
    model, con, s0, h, steps, every = drawn
    every_step, sampled = run(model, con, s0, h, steps, 1), run(model, con, s0, h, steps, every)
    n = len(every_step.times)
    picks = [*range(0, n - 1, every), n - 1]
    for field in ("times", "states", "controls", "phis"):
        assert repr(getattr(sampled, field)) == repr(tuple(getattr(every_step, field)[i]
                                                           for i in picks)), field
    # the drift report is the largest |phi - phi0| over the samples kept
    phi0 = sampled.phis[0]
    assert sampled.drift_report == tuple(max(abs(p[b] - phi0[b]) for p in sampled.phis)
                                         for b in range(con.m))
