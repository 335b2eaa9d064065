import math

import numpy as np
import pytest

from vnhc import MechanicalModel, ModelError, SPDError, State, build_boat

EUCLID_2D = MechanicalModel(("x", "y"), [[1, 0], [0, 1]])
POLAR = MechanicalModel(("r", "phi"), [["1", "0"], ["0", "r^2"]])
CURVED_2D = MechanicalModel(
    ("x", "y"),
    [["1 + x^2", "0.1*x*y"], ["0.1*x*y", "2 + y^2"]],
)
TEST_MODELS = [EUCLID_2D, POLAR, CURVED_2D]


def fd_christoffel(model, q, h=1e-6):
    """Independent oracle: closed form with finite-differenced metric."""
    n = model.n
    g = np.array(model.metric_at(q))
    dg = np.zeros((n, n, n))  # dg[i,j,k] = d g_ij / d q_k
    for k in range(n):
        hi = list(q)
        lo = list(q)
        hi[k] += h
        lo[k] -= h
        dg[:, :, k] = (
            np.array(model.metric_at(hi)) - np.array(model.metric_at(lo))
        ) / (2 * h)
    ginv = np.linalg.inv(g)
    gamma = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                gamma[k, i, j] = 0.5 * sum(
                    ginv[k, l] * (dg[j, l, i] + dg[i, l, j] - dg[i, j, l])
                    for l in range(n)
                )
    return gamma


class TestMetric:
    def test_boat_identity(self):
        model, _ = build_boat("0", "0", m=1.0, I=1.0)
        for q in [(0, 0, 0), (1.2, -0.5, 2.0)]:
            assert np.allclose(model.metric_at(q), np.eye(3))

    def test_euclidean(self):
        assert np.allclose(EUCLID_2D.metric_at((3.0, -1.0)), np.eye(2))

    def test_coordinate_dependent(self):
        m = MechanicalModel(("x", "y"), [["1 + x^2", "0"], ["0", "1"]])
        assert np.allclose(m.metric_at((2.0, 0.0)), [[5, 0], [0, 1]])

    def test_asymmetric_grid_rejected(self):
        with pytest.raises(ModelError, match="differ"):
            MechanicalModel(("x", "y"), [["1", "x"], ["0", "1"]])

    def test_spd_violation_reports_eigenvalues(self):
        m = MechanicalModel(("x", "y"), [["x", "0"], ["0", "1"]])
        with pytest.raises(SPDError) as err:
            m.metric_at((-1.0, 0.0))
        assert err.value.eigenvalues is not None
        assert min(err.value.eigenvalues) < 0

    def test_condition_cap(self):
        m = MechanicalModel(("x", "y", "z"), [[1, 0, 0], [0, 1, 0], [0, 0, 1e-13]])
        with pytest.raises(SPDError, match=r"metric condition estimate 1\.000e\+13 exceeds 1e\+12"):
            m.metric_at((0.0, 0.0, 0.0))

    def test_velocity_in_metric_rejected(self):
        with pytest.raises(ModelError):
            MechanicalModel(("x",), [["xd"]])

    def test_velocity_in_coframe_rejected(self):
        with pytest.raises(ModelError):
            MechanicalModel(("x", "y"), [[1, 0], [0, 1]], input_coframe=[["xd", "0"]])

    def test_too_many_inputs_rejected(self):
        with pytest.raises(ModelError, match="fewer inputs"):
            MechanicalModel(
                ("x", "y"), [[1, 0], [0, 1]],
                input_coframe=[["1", "0"], ["0", "1"]],
            )


class TestCompileCount:
    def test_boat_compiles_each_kernel_on_first_use(self, monkeypatch):
        # Construction compiles nothing.  Each of the six kernels is compiled
        # once, by the first view that calls it, and never again.
        import vnhc
        from vnhc import constraint, linalg

        s = State(q=(0.1, 0.2, 0.3), qdot=(0.4, 0.5, 0.6))
        views = [  # each with the kernel it compiles
            lambda model, con: vnhc.tau_star(model, con, s),  # the pair's step kernel
            lambda model, con: model.metric_at(s.q),  # the model's
            lambda model, con: model.drift_acceleration(s),  # the force's
            lambda model, con: model.christoffel_at(s.q),  # the Christoffel symbols'
            lambda model, con: con.phi(s),  # the constraint's
            lambda model, con: constraint.transversality_check(con, model, s.q),  # q-only
        ]
        warm = build_boat("0", "0")
        for view in views:  # builds the per-size linalg routines the views call
            view(*warm)
        sources, real = [], linalg._define
        monkeypatch.setattr(linalg, "_define",
                            lambda source: sources.append(source) or real(source))
        model, con = build_boat("sin(y)", "cos(x)")
        assert sources == []
        for kernels, view in enumerate(views, 1):
            view(model, con)
            view(model, con)
            assert len(sources) == kernels


class TestChristoffel:
    def test_constant_metric_vanishes(self):
        model, _ = build_boat("0", "0", m=2.0, I=3.0)
        gamma = model.christoffel_at((0.3, 0.4, 1.0))
        assert np.allclose(gamma, 0.0)

    def test_polar(self):
        r = 2.0
        gamma = np.array(POLAR.christoffel_at((r, 0.7)))
        # r index 0, angle index 1
        assert gamma[0][1][1] == pytest.approx(-r, abs=1e-12)
        assert gamma[1][0][1] == pytest.approx(1 / r, abs=1e-12)
        assert gamma[1][1][0] == pytest.approx(1 / r, abs=1e-12)
        expected_zero = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
        for k, i, j in expected_zero:
            assert gamma[k][i][j] == pytest.approx(0.0, abs=1e-12)

    def test_symmetry_exact(self, rng):
        for model in TEST_MODELS:
            for _ in range(100):
                q = rng.uniform(0.5, 2.0, size=model.n)
                gamma = model.christoffel_at(q)
                for k in range(model.n):
                    for i in range(model.n):
                        for j in range(model.n):
                            assert gamma[k][i][j] == gamma[k][j][i]

    def test_against_fd_metric(self, rng):
        for model in TEST_MODELS:
            for _ in range(100):
                q = rng.uniform(0.5, 2.0, size=model.n)
                sym = np.array(model.christoffel_at(q))
                num = fd_christoffel(model, q)
                assert np.max(np.abs(sym - num)) <= 1e-6 * (1 + np.max(np.abs(sym)))

    def test_metric_compatibility_via_fd(self, rng):
        # d_k (g_ij X^i Y^j) for constant X, Y equals the nabla expansion
        # written with Christoffel symbols.
        model = CURVED_2D
        for _ in range(20):
            q = rng.uniform(0.5, 1.5, size=2)
            X = rng.uniform(-1, 1, size=2)
            Y = rng.uniform(-1, 1, size=2)
            gamma = np.array(model.christoffel_at(q))
            g = np.array(model.metric_at(q))
            for k in range(2):
                h = 1e-6
                hi, lo = list(q), list(q)
                hi[k] += h
                lo[k] -= h
                lhs = (
                    X @ np.array(model.metric_at(hi)) @ Y
                    - X @ np.array(model.metric_at(lo)) @ Y
                ) / (2 * h)
                # nabla_k X has components Gamma^i_kj X^j for constant X
                covX = gamma[:, k, :] @ X
                covY = gamma[:, k, :] @ Y
                rhs = covX @ g @ Y + X @ g @ covY
                assert lhs == pytest.approx(rhs, abs=1e-6 * (1 + abs(lhs)))


class TestMusical:
    def test_identity_metric_sharp_is_identity(self):
        cov = [0.3, -1.7]
        assert np.allclose(EUCLID_2D.sharp((0, 0), cov), cov)

    def test_boat_sharp_of_control_force(self):
        model, _ = build_boat("0", "0", m=2.0, I=3.0)
        th = 0.9
        f = [math.sin(th), -math.cos(th), 1.0]
        y = model.sharp((0.0, 0.0, th), f)
        assert np.allclose(y, [math.sin(th) / 2, -math.cos(th) / 2, 1 / 3])

    def test_flat_sharp_inverse(self, rng):
        for model in TEST_MODELS:
            for _ in range(50):
                q = rng.uniform(0.5, 2.0, size=model.n)
                w = rng.uniform(-3, 3, size=model.n)
                back = model.flat(q, model.sharp(q, list(w)))
                assert np.max(np.abs(np.array(back) - w)) <= 1e-12 * (1 + np.max(np.abs(w)))
                v = rng.uniform(-3, 3, size=model.n)
                back = model.sharp(q, model.flat(q, list(v)))
                assert np.max(np.abs(np.array(back) - v)) <= 1e-12 * (1 + np.max(np.abs(v)))


class TestGradPotential:
    def test_zero_potential(self):
        assert np.allclose(EUCLID_2D.grad_potential((1.0, 2.0)), 0.0)

    def test_quadratic(self):
        m = MechanicalModel(("x", "y"), [[1, 0], [0, 1]], potential="x^2")
        assert np.allclose(m.grad_potential((3.0, 5.0)), [6.0, 0.0])

    def test_defining_identity(self, rng):
        m = MechanicalModel(
            ("x", "y"),
            [["1 + x^2", "0.1*x*y"], ["0.1*x*y", "2 + y^2"]],
            potential="sin(x)*y + x^2",
        )
        from oracle import walk

        from vnhc.expr import diff, parse

        v = parse("sin(x)*y + x^2")
        for _ in range(30):
            q = rng.uniform(0.5, 1.5, size=2)
            env = {"x": q[0], "y": q[1]}
            grad = m.grad_potential(q)
            g = np.array(m.metric_at(q))
            for i, s in enumerate(("x", "y")):
                dv = walk(diff(v, s), env)
                assert (g @ grad)[i] == pytest.approx(dv, abs=1e-12 * (1 + abs(dv)))


class TestDrift:
    def test_flat_free_system(self):
        s = State(q=(0.5, -1.0), qdot=(2.0, 3.0))
        assert np.allclose(EUCLID_2D.drift_acceleration(s), 0.0)

    def test_boat_zero_current(self):
        model, _ = build_boat("0", "0")
        s = State(q=(0.1, 0.2, 0.3), qdot=(1.0, -2.0, 0.5))
        assert np.allclose(model.drift_acceleration(s), 0.0)

    def test_boat_constant_current(self):
        model, _ = build_boat("1", "0", m=1.0, I=1.0)
        s = State(q=(0.0, 0.0, math.pi / 2), qdot=(0.0, 0.0, 1.0))
        a = model.drift_acceleration(s)
        assert np.allclose(a, [0.0, 1.0, 0.0], atol=1e-12)

    def test_boat_drift_fd_oracle(self, rng):
        # Oracle: W^i/m from finite differences of the current-coupling
        # functions, built without the symbolic machinery.
        c1 = lambda x, y: math.sin(y)
        c2 = lambda x, y: math.cos(x)
        h1 = lambda x, y, th: math.sin(th) ** 2 * c1(x, y) - math.sin(th) * math.cos(th) * c2(x, y)
        h2 = lambda x, y, th: -math.sin(th) * math.cos(th) * c1(x, y) + math.cos(th) ** 2 * c2(x, y)
        model, _ = build_boat("sin(y)", "cos(x)", m=1.5, I=1.0)
        eps = 1e-6
        for _ in range(50):
            q = rng.uniform(-2, 2, size=3)
            qd = rng.uniform(-2, 2, size=3)
            a = model.drift_acceleration(State(q=tuple(q), qdot=tuple(qd)))
            for idx, hfun in ((0, h1), (1, h2)):
                dh = sum(
                    (hfun(*(q + eps * np.eye(3)[j])) - hfun(*(q - eps * np.eye(3)[j])))
                    / (2 * eps) * qd[j]
                    for j in range(3)
                )
                # W = m * dh(qdot); acceleration = W / m = dh(qdot)
                assert a[idx] == pytest.approx(dh, abs=1e-6 * (1 + abs(dh)))
            assert a[2] == 0.0


class TestDriftNonConstantMetric:
    def test_equals_christoffel_form(self, rng):
        # drift = -G^k_ij qd^i qd^j + sharp(F) - grad V, with the full
        # n^3 array G from christoffel_at's own first-kind kernel and F
        # evaluated by the tree walker; the drift takes the geodesic form
        # w from the model kernel instead.
        from oracle import walk
        from test_control import build_gen4

        for model in (POLAR, CURVED_2D, build_gen4()[0]):
            n = model.n
            names = model.coordinates + model.velocities
            for _ in range(50):
                q = rng.uniform(0.5, 2.0, size=n)
                qd = rng.uniform(-2.0, 2.0, size=n)
                env = dict(zip(names, [*q, *qd]), **model.parameters)
                force = [walk(f, env) for f in model.external_force]
                gamma = np.array(model.christoffel_at(q))
                ref = (
                    -np.einsum("kij,i,j->k", gamma, qd, qd)
                    + np.array(model.sharp(q, force))
                    - np.array(model.grad_potential(q))
                )
                a = np.array(model.drift_acceleration(State(q=tuple(q), qdot=tuple(qd))))
                assert np.max(np.abs(a - ref)) <= 1e-12 * (1 + np.max(np.abs(ref))), model.n
