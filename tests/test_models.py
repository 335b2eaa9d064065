import math

import numpy as np
import pytest

from vnhc import (
    State,
    build_boat,
    build_linear_fixture,
    closed_loop_acceleration,
    p_matrix,
    project_onto_A,
)
from vnhc.expr import free_symbols

from oracle import walk


def current_callables(c1_text, c2_text):
    from vnhc.expr import parse

    c1, c2 = parse(c1_text), parse(c2_text)
    return (
        lambda x, y: walk(c1, {"x": x, "y": y}),
        lambda x, y: walk(c2, {"x": x, "y": y}),
    )


class TestBuildBoat:
    def test_zero_current_has_zero_forces(self):
        model, _ = build_boat("0", "0")
        for f in model.external_force[:2]:
            assert free_symbols(f) == set()
        s = State(q=(1.0, 2.0, 0.5), qdot=(3.0, -1.0, 2.0))
        assert model._force_fn(*s.q, *s.qdot) == (0.0, 0.0, 0.0)

    def test_structure(self):
        model, con = build_boat("0.3", "0.1*x", m=2.0, I=3.0)
        assert model.coordinates == ("x", "y", "theta")
        assert np.allclose(model.metric_at((0, 0, 0)), np.diag([2.0, 2.0, 3.0]))
        th = 0.8
        assert np.allclose(
            model.coframe_at((0, 0, th))[0],
            [math.sin(th), -math.cos(th), 1.0],
        )
        assert np.allclose(con.mu_at((0, 0, th))[0], [math.sin(th), -math.cos(th), 0.0])
        x = 0.4
        assert con.z_at((x, 0.0, th))[0] == pytest.approx(
            math.cos(th) * 0.1 * x - math.sin(th) * 0.3
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_boat("0", "0", m=0.0)
        with pytest.raises(ValueError):
            build_boat("0", "0", I=-1.0)
        with pytest.raises(ValueError, match="only use x, y"):
            build_boat("thetad", "0")

    def test_forces_match_fd_of_coupling_functions(self, rng, boat_fixtures):
        eps = 1e-6
        for name, (c1_text, c2_text), model, con in boat_fixtures:
            c1, c2 = current_callables(c1_text, c2_text)

            def h1(x, y, th):
                return math.sin(th) ** 2 * c1(x, y) - math.sin(th) * math.cos(th) * c2(x, y)

            def h2(x, y, th):
                return -math.sin(th) * math.cos(th) * c1(x, y) + math.cos(th) ** 2 * c2(x, y)

            for _ in range(40):
                q = rng.uniform(-2, 2, 3)
                qd = rng.uniform(-2, 2, 3)
                w = model._force_fn(*q, *qd)
                for idx, h in ((0, h1), (1, h2)):
                    ref = sum(
                        (h(*(q + eps * np.eye(3)[j])) - h(*(q - eps * np.eye(3)[j])))
                        / (2 * eps) * qd[j]
                        for j in range(3)
                    )
                    assert w[idx] == pytest.approx(ref, abs=1e-6 * (1 + abs(ref))), name
                assert w[2] == 0.0

    def test_kinematic_relations_invariant_under_drift(self, rng, boat_fixtures):
        # With u = 0 and velocities equal to the current-coupling functions,
        # the time derivative of (xd - h1, yd - h2) vanishes along the drift.
        eps = 1e-6
        for name, (c1_text, c2_text), model, con in boat_fixtures:
            c1, c2 = current_callables(c1_text, c2_text)

            def h1(x, y, th):
                return math.sin(th) ** 2 * c1(x, y) - math.sin(th) * math.cos(th) * c2(x, y)

            def h2(x, y, th):
                return -math.sin(th) * math.cos(th) * c1(x, y) + math.cos(th) ** 2 * c2(x, y)

            for _ in range(20):
                q = tuple(rng.uniform(-2, 2, 3))
                thd = rng.uniform(-2, 2)
                qd = (h1(*q), h2(*q), thd)
                s = State(q=q, qdot=qd)
                a = model.drift_acceleration(s)
                for idx, h in ((0, h1), (1, h2)):
                    qa = np.array(q)
                    dh_dt = (h(*(qa + eps * np.array(qd))) - h(*(qa - eps * np.array(qd)))) / (2 * eps)
                    assert a[idx] == pytest.approx(dh_dt, abs=1e-6 * (1 + abs(dh_dt))), name

    def test_membership_form(self, rng, boat_fixtures):
        # project_onto_A output satisfies mu(v - C_lift) = 0 with the current
        # lifted as (C1, C2, 0).
        for name, (c1_text, c2_text), model, con in boat_fixtures:
            c1, c2 = current_callables(c1_text, c2_text)
            for _ in range(30):
                s = State(q=tuple(rng.uniform(-2, 2, 3)), qdot=tuple(rng.uniform(-2, 2, 3)))
                proj = project_onto_A(con, model, s)
                x, y, th = proj.q
                v_rel = (
                    proj.qdot[0] - c1(x, y),
                    proj.qdot[1] - c2(x, y),
                    proj.qdot[2],
                )
                mu = con.mu_at(proj.q)[0]
                assert sum(m * v for m, v in zip(mu, v_rel)) == pytest.approx(
                    0.0, abs=1e-12
                ), name


class TestLinearFixture:
    def test_equals_zero_current_boat(self, rng):
        lin_model, lin_con = build_linear_fixture(m=1.4, I=0.6)
        boat_model, boat_con = build_boat("0", "0", m=1.4, I=0.6)
        for _ in range(30):
            s = State(q=tuple(rng.uniform(-2, 2, 3)), qdot=tuple(rng.uniform(-2, 2, 3)))
            assert np.allclose(
                closed_loop_acceleration(lin_model, lin_con, s),
                closed_loop_acceleration(boat_model, boat_con, s),
                atol=1e-14,
            )

    def test_affine_part_vanishes(self):
        _, con = build_linear_fixture()
        for q in [(0, 0, 0), (1, -2, 2.5)]:
            assert con.z_at(q) == [0.0]

    def test_transversal_at_all_headings(self):
        model, con = build_linear_fixture(m=2.0)
        for th in np.linspace(-math.pi, math.pi, 25):
            P = p_matrix(model, con, (0.0, 0.0, th))
            assert P[0][0] == pytest.approx(0.5, abs=1e-14)
