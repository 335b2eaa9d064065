import math

import numpy as np
import pytest

from vnhc import (
    AffineConstraint,
    EvalError,
    MechanicalModel,
    ModelError,
    RankDefectError,
    State,
    build_boat,
    p_matrix,
    project_onto_A,
    tau_star,
    transversality_check,
)


def random_constant_system(rng, degenerate=False):
    """Random small system with constant metric, mu and coframe.

    With degenerate=True the single input is forced into the kernel of S.
    """
    n = int(rng.integers(2, 5))
    m = 1 if degenerate else int(rng.integers(1, min(2, n - 1) + 1))
    A = rng.uniform(-1, 1, size=(n, n))
    g = A @ A.T + n * np.eye(n)
    S = rng.uniform(-1, 1, size=(m, n))
    if degenerate:
        # pick f so that Y = g^-1 f lies in ker S
        kernel = np.linalg.svd(S)[2][m:].T  # n x (n-m)
        y = kernel @ rng.uniform(-1, 1, size=n - m)
        F = (g @ y)[None, :]
    else:
        F = rng.uniform(-1, 1, size=(m, n))
    coords = [f"q{i}" for i in range(n)]
    model = MechanicalModel(
        coords,
        [[float(g[i, j]) for j in range(n)] for i in range(n)],
        input_coframe=[[float(F[a, i]) for i in range(n)] for a in range(m)],
    )
    con = AffineConstraint(
        coords,
        [[float(S[b, i]) for i in range(n)] for b in range(m)],
        Z=[float(v) for v in rng.uniform(-1, 1, size=m)],
    )
    return model, con, g, S, F


def brute_force_transversal(g, S, F):
    """Oracle: [ker S basis | Y^a] spans n-space (model distribution plus
    input distribution fills the tangent space)."""
    m, n = S.shape
    kernel = np.linalg.svd(S)[2][m:].T
    Y = np.linalg.solve(g, F.T)
    M = np.hstack([kernel, Y])
    sv = np.linalg.svd(M, compute_uv=False)
    return sv[-1] > 1e-9 * sv[0]


class TestPhi:
    def test_boat(self, rng):
        _, con = build_boat("0.3", "0.1*x")
        for _ in range(20):
            x, y = rng.uniform(-2, 2, size=2)
            c2 = 0.1 * x
            s = State(q=(x, y, 0.0), qdot=(rng.uniform(-2, 2), c2, rng.uniform(-2, 2)))
            assert con.phi(s)[0] == pytest.approx(0.0, abs=1e-14)

    def test_zero_affine_zero_velocity(self):
        con = AffineConstraint(("x", "y"), [["1", "x"]], Z=["0"])
        s = State(q=(0.7, -0.3), qdot=(0.0, 0.0))
        assert con.phi(s) == [0.0]

    def test_projection_postcondition(self, rng):
        model, con = build_boat("sin(y)", "cos(x)")
        for _ in range(50):
            s = State(q=tuple(rng.uniform(-2, 2, 3)), qdot=tuple(rng.uniform(-2, 2, 3)))
            proj = project_onto_A(con, model, s)
            qd_norm = math.sqrt(sum(v * v for v in s.qdot))
            assert abs(con.phi(proj)[0]) <= 1e-12 * (1 + qd_norm)


class TestRankCheck:
    def test_boat_full_rank_everywhere(self):
        _, con = build_boat("0", "0")
        for th in np.linspace(-math.pi, math.pi, 17):
            r = con.rank_check((0.0, 0.0, th))
            assert r.ok and r.rank == 1

    def test_zero_row(self):
        con = AffineConstraint(("x", "y"), [["0", "0"]], Z=["0"])
        r = con.rank_check((1.0, 1.0))
        assert not r.ok
        assert r.rank == 0

    def test_proportional_rows(self):
        con = AffineConstraint(
            ("x", "y", "z"),
            [["1", "2", "0"], ["2", "4", "0"]],
            Z=["0", "0"],
        )
        r = con.rank_check((0.0, 0.0, 0.0))
        assert not r.ok
        assert r.rank == 1

    def test_scale_invariant_decision(self, rng):
        for _ in range(20):
            _, con, g, S, F = random_constant_system(rng)
            scaled = AffineConstraint(
                [f"q{i}" for i in range(S.shape[1])],
                (1e3 * S).tolist(),
                Z=[0.0] * S.shape[0],
            )
            base = AffineConstraint(
                [f"q{i}" for i in range(S.shape[1])],
                S.tolist(),
                Z=[0.0] * S.shape[0],
            )
            q = [0.0] * S.shape[1]
            assert scaled.rank_check(q).ok == base.rank_check(q).ok


class TestTransversality:
    def test_boat_scalar_p(self):
        for m_val in (1.0, 2.5):
            model, con = build_boat("0", "0", m=m_val)
            for th in np.linspace(0, 2 * math.pi, 9):
                r = transversality_check(con, model, (0.0, 0.0, th))
                assert r.ok
                # hand evaluation: (sin^2 + cos^2)/m
                assert r.p[0] == pytest.approx(1.0 / m_val, abs=1e-12)

    def test_input_in_kernel_violation(self):
        model = MechanicalModel(
            ("x", "y"), [[1, 0], [0, 1]], input_coframe=[["0", "1"]]
        )
        con = AffineConstraint(("x", "y"), [["1", "0"]], Z=["0"])
        r = transversality_check(con, model, (0.0, 0.0))
        assert not r.ok
        assert r.p[0] == 0.0
        assert r.cond_estimate == math.inf

    def test_random_nondegenerate_ok(self, rng):
        for _ in range(50):
            model, con, g, S, F = random_constant_system(rng)
            r = transversality_check(con, model, [0.0] * S.shape[1])
            det_oracle = np.linalg.det(S @ np.linalg.solve(g, F.T))
            assert r.det == pytest.approx(det_oracle, rel=1e-9)
            if abs(det_oracle) > 1e-6:
                assert r.ok

    def test_brute_force_oracle_agreement(self, rng):
        disagreements = 0
        for trial in range(200):
            degenerate = trial % 5 == 0
            model, con, g, S, F = random_constant_system(rng, degenerate=degenerate)
            r = transversality_check(con, model, [0.0] * S.shape[1])
            oracle = brute_force_transversal(g, S, F)
            if r.ok != oracle:
                disagreements += 1
        assert disagreements == 0


class TestProjection:
    def test_on_set_unchanged(self):
        model, con = build_boat("0", "0.5")
        s = State(q=(0.0, 0.0, 0.0), qdot=(1.0, 0.5, 0.3))
        assert con.phi(s)[0] == pytest.approx(0.0, abs=1e-15)
        proj = project_onto_A(con, model, s)
        assert np.allclose(proj.qdot, s.qdot, atol=1e-12)

    def test_boat_example(self):
        model, con = build_boat("0", "0.5", m=1.0, I=1.0)
        s = State(q=(0.0, 0.0, 0.0), qdot=(1.0, 0.0, 0.0))
        proj = project_onto_A(con, model, s)
        assert np.allclose(proj.qdot, [1.0, 0.5, 0.0], atol=1e-14)

    def test_idempotent(self, rng):
        model, con = build_boat("sin(y)", "cos(x)", m=2.0, I=0.5)
        for _ in range(30):
            s = State(q=tuple(rng.uniform(-2, 2, 3)), qdot=tuple(rng.uniform(-2, 2, 3)))
            p1 = project_onto_A(con, model, s)
            p2 = project_onto_A(con, model, p1)
            assert np.max(np.abs(np.array(p2.qdot) - np.array(p1.qdot))) <= 1e-12

    def test_rank_defect_raises(self):
        model = MechanicalModel(("x", "y"), [[1, 0], [0, 1]], input_coframe=[["1", "0"]])
        con = AffineConstraint(("x", "y"), [["0", "0"]], Z=["0"])
        with pytest.raises(RankDefectError):
            project_onto_A(con, model, State(q=(0, 0), qdot=(1, 1)))

    @pytest.mark.parametrize("mu, Z, expected", [
        # S G^-1 S^T = 1e-340 would underflow to 0; S scaled by 2^564 does not
        ("1e-170", "1", "State(q=(0.0, 0.0), qdot=(-1e+170, 0.0))"),
        # the correction phi / S = 1e200 / 1e-160 overflows
        ("1e-160", "1e200", "EvalError: projected qdot (-inf, 0.0) is not finite at q=(0.0, 0.0)"),
    ], ids=["underflow", "overflow"])
    def test_floating_point_failures_are_eval_errors(self, mu, Z, expected):
        # Tiny rows of S project; a velocity that overflows is an EvalError.
        model = MechanicalModel(("x", "y"), [[1, 0], [0, 1]], input_coframe=[["1", "0"]])
        con = AffineConstraint(("x", "y"), [[mu, "0"]], Z=[Z])
        assert con.rank_check((0.0, 0.0)).ok and transversality_check(con, model, (0.0, 0.0)).ok
        try:
            got = repr(project_onto_A(con, model, State(q=(0.0, 0.0), qdot=(0.0, 0.0))))
        except EvalError as err:
            got = f"EvalError: {err}"
        assert got == expected

    def test_singular_in_floating_point_is_an_eval_error(self):
        # The rows (1, 0, 0) and (1, 1e-8, 0) have rank 2, but S G^-1 S^T
        # rounds to [[1, 1], [1, 1]], which LU finds singular.
        model = MechanicalModel(("x", "y", "z"), [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                input_coframe=[["1", "0", "0"], ["0", "1", "0"]])
        con = AffineConstraint(("x", "y", "z"), [["1", "0", "0"], ["1", "1e-8", "0"]],
                               Z=["0", "1"])
        q = (0.0, 0.0, 0.0)
        assert con.rank_check(q).rank == 2
        with pytest.raises(EvalError) as err:
            project_onto_A(con, model, State(q=q, qdot=q))
        assert str(err.value) == ("S G^-1 S^T [[1.0, 1.0], [1.0, 1.0]] is singular "
                                  "at q=(0.0, 0.0, 0.0)")

    @pytest.mark.parametrize("k", [-600, -300, 300, 520])
    def test_rows_scaled_by_a_power_of_two_project_alike(self, k):
        # S and Z scaled by 2^k scale phi alike, so the projection keeps its
        # bits, also where S G^-1 S^T of the scaled rows would under- or
        # overflow (k = -600, 520).
        def projected(c):
            model = MechanicalModel(("x", "y"), [["2", "0.5"], ["0.5", "1"]],
                                    input_coframe=[["1", "0"]])
            con = AffineConstraint(("x", "y"), [[repr(c), repr(3 * c)]], Z=[repr(-0.5 * c)])
            return project_onto_A(con, model, State(q=(0.1, 0.2), qdot=(0.3, -0.4)))

        assert projected(math.ldexp(1.0, k)) == projected(1.0)

    def test_one_constraint_kernel_call(self, monkeypatch):
        # S, Z and so phi come from one call of the constraint's kernel at
        # (q, 0), and phi is added as con.phi adds it.
        model, con = build_boat("sin(y)", "cos(x)", m=2.0, I=0.5)
        s = State(q=(0.1, 0.2, 0.3), qdot=(0.4, 0.5, 0.6))
        expected, calls, kernel = project_onto_A(con, model, s), [], con._kernel
        monkeypatch.setattr(con, "_kernel", lambda *args: calls.append(args) or kernel(*args))
        assert repr(project_onto_A(con, model, s)) == repr(expected)
        assert calls == [(0.1, 0.2, 0.3, 0.0, 0.0, 0.0)]


class TestValidation:
    def test_velocity_in_mu_rejected(self):
        with pytest.raises(ModelError, match="velocity-free"):
            AffineConstraint(("x", "y"), [["xd", "0"]], Z=["0"])

    def test_velocity_in_z_rejected(self):
        with pytest.raises(ModelError, match="velocity-free"):
            AffineConstraint(("x", "y"), [["1", "0"]], Z=["yd"])

    def test_row_count_mismatch_with_model(self):
        model = MechanicalModel(
            ("x", "y", "z"), np.eye(3).tolist(),
            input_coframe=[["1", "0", "0"]],
        )
        con = AffineConstraint(
            ("x", "y", "z"),
            [["1", "0", "0"], ["0", "1", "0"]],
            Z=["0", "0"],
        )
        with pytest.raises(ModelError, match="equal"):
            transversality_check(con, model, (0, 0, 0))


class TestChart:
    """The constraint lives on the model's chart and keeps the model's chart rules."""

    def test_reordered_chart_rejected(self):
        model, con = build_boat("sin(y)", "cos(x)")
        (mu_x, mu_y, mu_theta), = con.mu
        reordered = AffineConstraint(
            ("theta", "y", "x"), [[mu_theta, mu_y, mu_x]], con.Z, model.parameters
        )
        state = State(q=(0.1, 0.2, 0.3), qdot=(0.4, 0.5, 0.6))
        with pytest.raises(ModelError, match="is not the model's"):
            tau_star(model, reordered, state)
        with pytest.raises(ModelError, match="is not the model's"):
            transversality_check(reordered, model, state.q)

    def test_coordinate_named_like_a_velocity_rejected(self):
        with pytest.raises(ModelError, match=r"duplicate coordinate or velocity names \['xd'\]"):
            AffineConstraint(("x", "xd"), [["1", "0"]], Z=["0"])

    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(ModelError, match=r"names \['x', 'xd'\]"):
            AffineConstraint(("x", "x"), [["1", "0"]], Z=["0"])

    def test_parameter_shadowing_coordinate_rejected(self):
        with pytest.raises(ModelError, match=r"shadow coordinates: \['x'\]"):
            AffineConstraint(("x", "y"), [["x", "1"]], Z=["0"], parameters={"x": 2.0})

    def test_empty_chart_rejected(self):
        with pytest.raises(ModelError, match="empty coordinate list"):
            AffineConstraint((), [[]], Z=["0"])

    def test_unknown_symbol_named(self):
        with pytest.raises(ModelError, match=r"Z\[0\] uses unknown symbols \['k'\]"):
            AffineConstraint(("x", "y"), [["1", "0"]], Z=["k*x"])

    @pytest.mark.parametrize("value", [[1], None, "abc", True, math.nan, math.inf])
    def test_parameter_must_be_finite_real(self, value):
        with pytest.raises(ModelError, match="parameter 'k' is not"):
            AffineConstraint(("x", "y"), [["1", "0"]], Z=["0"], parameters={"k": value})

    def test_state_dimension_checked(self):
        con = AffineConstraint(("x", "y"), [["1", "0"]], Z=["0"])
        with pytest.raises(ValueError, match="state dimension 3 does not match n=2"):
            con.phi(State(q=(0, 0, 0), qdot=(0, 0, 0)))


# Every view of q alone, by name: each checks the length of q first.
Q_VIEWS = {
    "transversality_check": lambda model, con, q: transversality_check(con, model, q),
    "p_matrix": p_matrix,
    "rank_check": lambda model, con, q: con.rank_check(q),
    "mu_at": lambda model, con, q: con.mu_at(q),
    "z_at": lambda model, con, q: con.z_at(q),
    "metric_at": lambda model, con, q: model.metric_at(q),
    "coframe_at": lambda model, con, q: model.coframe_at(q),
    "input_fields_at": lambda model, con, q: model.input_fields_at(q),
    "grad_potential": lambda model, con, q: model.grad_potential(q),
    "sharp": lambda model, con, q: model.sharp(q, [1.0, 0.0, 0.0]),
    "flat": lambda model, con, q: model.flat(q, [1.0, 0.0, 0.0]),
    "christoffel_at": lambda model, con, q: model.christoffel_at(q),
    "project_onto_A": lambda model, con, q: project_onto_A(con, model, State(q=q, qdot=q)),
}


@pytest.mark.parametrize("size", [2, 4])
@pytest.mark.parametrize("view", Q_VIEWS)
def test_q_of_the_wrong_length(view, size):
    # n - 1 and n + 1 entries on the vortex boat (n = 3): the ValueError
    # of a state of the wrong dimension, not a kernel's TypeError.
    model, con = build_boat("sin(y)", "cos(x)")
    with pytest.raises(ValueError, match=f"^state dimension {size} does not match n=3$"):
        Q_VIEWS[view](model, con, (0.1,) * size)
