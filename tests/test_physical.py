"""The virtual constraint against the physical one.

Where the input one-forms are the constraint rows (coframe = S, so the
input fields Y = G^-1 S^T span the G-orthogonal complement of the
constraint distribution), the feedback tau* is the ideal force that holds
S qdot + Z constant physically: the closed loop moves as Gauss's principle
of least constraint says, and the Udwadia-Kalaba formula gives that
acceleration in closed form,

    a = a_free + G^-1/2 (S G^-1/2)^+ (-c - S a_free),

with ^+ the Moore-Penrose pseudoinverse and c the derivative of S qdot + Z
along qdot at fixed qdot (Udwadia & Kalaba, Proc. R. Soc. Lond. A 439,
1992).  The reference here shares no code with vnhc: the fields are
evaluated by `oracle.walk`, the metric's and the potential's derivatives
and c are central differences, and the linear algebra is numpy's `eigh`
and `pinv`; no P, no LU and no generated kernel.

With Z = 0, no external force and a start on the constraint set, the
ideal constraint force does no work, so E = qdot.G qdot / 2 + V is a
first integral (Bloch, Nonholonomic Mechanics and Control, 2015), and
`integrate` conserves it up to RK4's error, which falls 16x per halving
of the step.  Both properties fail where the inputs are not the rows, and
the second where Z is not 0: the negative controls below show it.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from oracle import grid_at, walk
from test_control import build_gen4, build_gen5

from vnhc import (
    AffineConstraint,
    IntegrationError,
    MechanicalModel,
    State,
    TransversalityError,
    closed_loop_acceleration,
    integrate,
)

H = 1e-5  # the central differences' step
# Udwadia-Kalaba against closed_loop_acceleration, relative to 1 + |a|:
# central differences of step H leave about 1e-11 (at most 1.4e-11 over
# 200 drawn models), far below the distance where the inputs are not the
# rows (up to 30)
GAUSS_RTOL = 1e-9
# RK4's energy drift falls 16x per halving: 15.0-17.8x over 150 drawn models
STEPS = (4e-2, 2e-2, 1e-2)
T_END, SAMPLES = 1.0, 10
# below this energy drift at the largest step, round-off would hide the order
STILL = 1e-11

DIAGONAL = ["2", "2 + 0.5*sin({x})", "2.5 - 0.5*cos({x})*cos({y})"]
OFF_DIAGONAL = ["0", "0.2", "0.3*sin({x})", "0.25*cos({x})", "-0.3*sin({x})*cos({y})"]
ROW = ["0", "0.5", "-1.5", "0.8*sin({x})", "cos({x})", "1 + 0.5*sin({x})*cos({y})"]


@st.composite
def systems(draw, rows=True, affine=False, force=True):
    """A drawn model and constraint, n = 3..5 and m = 1..2, and two states
    with entries in [-1, 1].  The metric is diagonally dominant, so SPD at
    every q, and each constraint row b has 1 at coordinate b and 0 at the
    other first m coordinates, so rank S = m at every q.  With rows, the
    coframe is S; else each input a has 1 at coordinate m + a and 0 at the
    first m, so its span meets S's in 0 alone.  Z is 0 unless affine, and
    the external force 0 unless force."""
    m = draw(st.integers(1, 2))
    n = draw(st.integers(max(3, 2 * m), 5))
    names = [f"q{i}" for i in range(n)]

    def entry(pool) -> str:
        x, y = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        return draw(st.sampled_from(pool)).format(x=x, y=y)

    G = [[""] * n for _ in names]
    for i in range(n):
        G[i][i] = entry(DIAGONAL)
        for j in range(i + 1, n):
            G[i][j] = G[j][i] = entry(OFF_DIAGONAL)
    S = [["1" if i == b else "0" if i < m else entry(ROW) for i in range(n)] for b in range(m)]
    coframe = S if rows else [["1" if i == m + a else "0" if i < m else entry(ROW)
                               for i in range(n)] for a in range(m)]
    potential = draw(st.sampled_from(["0", "0.5*q0*q1", "cos(q1)", "0.3*q2^2"]))
    F = [draw(st.sampled_from(["0", f"-0.1*{x}d", f"0.3*sin({x})"])) if force else "0"
         for x in names]
    Z = [draw(st.sampled_from(["0.5", "0.3*sin(q0)", "-0.4 + 0.2*q1*q2"])) if affine else "0"
         for _ in range(m)]
    model = MechanicalModel(names, G, potential=potential, external_force=F, input_coframe=coframe)
    entries = st.lists(st.floats(-1.0, 1.0), min_size=2 * n, max_size=2 * n)
    states = [draw(entries) for _ in range(2)]
    return model, AffineConstraint(names, S, Z), [(np.array(s[:n]), np.array(s[n:])) for s in states]


def env(model, q, qd=()) -> dict:
    return {**model.parameters, **dict(zip(model.coordinates, q)),
            **dict(zip(model.velocities, qd))}


def free_acceleration(model, q, qd) -> np.ndarray:
    """G^-1 (F - dV - w), w_l = qd^i qd^j (d_i G_jl - d_l G_ij / 2), with dG
    and dV by central differences."""
    n = len(q)
    dG, dV = [], []
    for k in range(n):
        e = H * np.eye(n)[k]
        dG.append((grid_at(model, model.metric, q + e) - grid_at(model, model.metric, q - e)) / (2 * H))
        dV.append((walk(model.potential, env(model, q + e))
                   - walk(model.potential, env(model, q - e))) / (2 * H))
    dG = np.array(dG)  # dG[k, i, j] = d_k G_ij
    w = np.einsum("i,j,ijl->l", qd, qd, dG) - 0.5 * np.einsum("i,j,lij->l", qd, qd, dG)
    F = np.array([walk(f, env(model, q, qd)) for f in model.external_force])
    return np.linalg.solve(grid_at(model, model.metric, q), F - np.array(dV) - w)


def phi(con, q, qd) -> np.ndarray:
    return grid_at(con, con.mu, q) @ qd + grid_at(con, [con.Z], q)[0]


def gauss(model, con, q, qd) -> tuple[np.ndarray, np.ndarray]:
    """The Udwadia-Kalaba acceleration at (q, qd), and -c - S a_free, what
    the free motion misses of the constraint's."""
    a = free_acceleration(model, q, qd)
    c = (phi(con, q + H * qd, qd) - phi(con, q - H * qd, qd)) / (2 * H)
    S = grid_at(con, con.mu, q)
    values, vectors = np.linalg.eigh(grid_at(model, model.metric, q))
    root = vectors @ np.diag(values**-0.5) @ vectors.T  # G^-1/2
    missed = -c - S @ a
    return a + root @ np.linalg.pinv(S @ root) @ missed, missed


def assert_gauss(model, con, q, qd):
    acc = np.array(closed_loop_acceleration(model, con, State(q=tuple(q), qdot=tuple(qd))))
    ref = gauss(model, con, q, qd)[0]
    assert np.max(np.abs(acc - ref)) <= GAUSS_RTOL * (1.0 + np.max(np.abs(ref))), (q, qd)


def energy(model, q, qd) -> float:
    return 0.5 * qd @ grid_at(model, model.metric, q) @ qd + walk(model.potential, env(model, q))


def energy_drifts(model, con, q, qd) -> list[float]:
    """max |E - E(0)| over the SAMPLES samples of a run to T_END from (q,
    qd) moved onto the constraint set, at each of STEPS; a run that fails
    or barely moves is rejected."""
    S, Z = grid_at(con, con.mu, q), grid_at(con, [con.Z], q)[0]
    qd = qd - S.T @ np.linalg.solve(S @ S.T, S @ qd + Z)  # S qd + Z = 0
    drifts = []
    for h in STEPS:
        try:
            run = integrate(model, con, State(q=tuple(q), qdot=tuple(qd)), t_end=T_END, h=h,
                            sample_every=round(T_END / SAMPLES / h))
        except (TransversalityError, IntegrationError):
            assume(False)
        E = [energy(model, np.array(s.q), np.array(s.qdot)) for s in run.states]
        drifts.append(max(abs(e - E[0]) for e in E))
    assume(drifts[0] > STILL)
    return drifts


def assert_rk4_order(drifts):
    """The drift falls 12-20x per halving of h: RK4's 16x."""
    for coarse, fine in zip(drifts, drifts[1:]):
        assert 12.0 <= coarse / fine <= 20.0, drifts


@settings(max_examples=16, deadline=None)
@given(systems())
def test_the_closed_loop_is_gauss(system):
    model, con, states = system
    for q, qd in states:
        assert_gauss(model, con, q, qd)


@pytest.mark.parametrize("build", [build_gen4, build_gen5])
def test_the_closed_loop_is_gauss_on_bundled_models(build):
    # the coframe of gen4 and gen5 is their constraint rows, with a
    # velocity-dependent force and a nonzero Z
    model, con = build()
    rng = np.random.default_rng(8)
    for _ in range(5):
        assert_gauss(model, con, rng.uniform(-1, 1, model.n), rng.uniform(-1, 1, model.n))


@settings(max_examples=5, deadline=None)
@given(systems(rows=False))
def test_other_inputs_are_not_gauss(system):
    # where the free motion misses the constraint, the inputs' force is not
    # the ideal one, and the assertion fails
    model, con, states = system
    tried = 0
    for q, qd in states:
        if np.max(np.abs(gauss(model, con, q, qd)[1])) > 1e-3:
            try:
                closed_loop_acceleration(model, con, State(q=tuple(q), qdot=tuple(qd)))
            except TransversalityError:  # P = S G^-1 coframe^T may be singular here
                continue
            with pytest.raises(AssertionError):
                assert_gauss(model, con, q, qd)
            tried += 1
    assume(tried)


@settings(max_examples=10, deadline=None)
@given(systems(force=False))
def test_energy_is_conserved_to_rk4_order(system):
    model, con, states = system
    assert_rk4_order(energy_drifts(model, con, *states[0]))


@pytest.mark.parametrize("kind", [{"rows": False}, {"affine": True}], ids=["inputs", "affine"])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_work_of_the_constraint_force_is_not_rk4_error(kind, data):
    # inputs that are not the rows, or Z != 0, make the constraint force do
    # work: the energy drifts at every h, and the assertion fails
    model, con, states = data.draw(systems(force=False, **kind))
    drifts = energy_drifts(model, con, *states[0])
    with pytest.raises(AssertionError):
        assert_rk4_order(drifts)
