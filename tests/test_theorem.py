"""The paper's theorem as a property of random models, against references
that share no code with the kernels' generator.

On drawn models (n = 2..4 coordinates, m = 1..n-1 inputs, a metric
A^T A + c I with trig or polynomial entries, constant in some draws,
random coframe and constraint rows and a nonzero Z) and at drawn states
where `transversality_check` holds:

- tangency: the closed-loop acceleration keeps phi = S qdot + Z constant,
  so its central difference along (qdot, acc) is about 0;
- P from `solve_control` is numpy's S G^-1 coframe^T (`oracle.reference`);
- uniqueness: acc + Y delta, the acceleration of tau* + delta, moves phi
  at the rate P delta, which is not 0 for delta != 0 since P is
  invertible.

phi is evaluated by `oracle.walk` of mu and Z, Y = G^-1 coframe^T by
numpy on walked grids.  The central difference takes criterion 4's step,
and its bound is scaled by 1 + |qdot|^2 + |acc|.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from oracle import grid_at, reference

from vnhc import (
    AffineConstraint,
    MechanicalModel,
    State,
    closed_loop_acceleration,
    solve_control,
    transversality_check,
)

EPS = 1e-6  # criterion 4's step
TOL = 1e-8  # on the central difference, times 1 + |qdot|^2 + |acc|
COEFFICIENTS = ["0.5", "-0.7", "1.0", "1.3", "-1.5"]
TEMPLATES = ["{c}", "{c}*{x}", "{c}*{x}*{y}", "{c} + 0.4*{x}^2", "{c}*sin({x})",
             "{c}*cos({y})", "0.6*sin({x})*cos({y})"]
STATES = 3


@st.composite
def systems(draw):
    """A drawn model and constraint, and STATES states with entries in
    [-1, 1]."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, n - 1))
    names = [f"q{i}" for i in range(n)]
    constant_metric = draw(st.booleans())

    def entry(templates=TEMPLATES) -> str:
        x, y = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        return draw(st.sampled_from(templates)).format(c=draw(st.sampled_from(COEFFICIENTS)),
                                                       x=x, y=y)

    A = [[entry(TEMPLATES[:1] if constant_metric else TEMPLATES) for _ in names] for _ in names]
    c = draw(st.sampled_from(["0.5", "1.0", "2.0"]))
    G = [[""] * n for _ in names]
    for i in range(n):
        for j in range(i, n):
            terms = [f"({A[k][i]})*({A[k][j]})" for k in range(n)]
            G[i][j] = G[j][i] = " + ".join([c] * (i == j) + terms)
    coframe = [[entry() for _ in names] for _ in range(m)]
    mu = [[entry() for _ in names] for _ in range(m)]
    Z = [entry(["{c}", "{c}*sin({x})", "{c} + 0.4*{x}*{y}"]) for _ in range(m)]
    potential = draw(st.sampled_from(["0", "0.5*q0*q1", "cos(q1)"]))
    force = [draw(st.sampled_from(["0", f"-0.1*{x}d", f"0.3*sin({x})"])) for x in names]
    model = MechanicalModel(names, G, potential=potential, external_force=force,
                            input_coframe=coframe)
    entries = st.lists(st.floats(-1.0, 1.0), min_size=2 * n, max_size=2 * n)
    states = [draw(entries) for _ in range(STATES)]
    return model, AffineConstraint(names, mu, Z), [State(q=s[:n], qdot=s[n:]) for s in states]


def phi(con, q, qdot) -> np.ndarray:
    """S(q) qdot + Z(q), by walks of mu and Z."""
    return grid_at(con, con.mu, q) @ qdot + grid_at(con, [con.Z], q)[0]


def rate(con, state, acc) -> np.ndarray:
    """The central difference of phi along (qdot, acc), with step EPS."""
    q, qd, acc = np.array(state.q), np.array(state.qdot), np.asarray(acc)
    ahead, behind = phi(con, q + EPS * qd, qd + EPS * acc), phi(con, q - EPS * qd, qd - EPS * acc)
    return (ahead - behind) / (2 * EPS)


def bound(state, acc) -> float:
    return TOL * (1.0 + float(np.dot(state.qdot, state.qdot)) + float(np.max(np.abs(acc))))


def transversal(model, con, states) -> list:
    """The states where transversality holds, at least one."""
    kept = [s for s in states if transversality_check(con, model, s.q).ok]
    assume(kept)
    return kept


@settings(max_examples=15, deadline=None)
@given(systems())
def test_closed_loop_is_tangent_to_the_constraint(system):
    model, con, states = system
    for state in transversal(model, con, states):
        acc = closed_loop_acceleration(model, con, state)
        assert np.max(np.abs(rate(con, state, acc))) <= bound(state, acc)


@settings(max_examples=15, deadline=None)
@given(systems())
def test_p_matches_numpy(system):
    model, con, states = system
    for state in transversal(model, con, states):
        P = np.array(solve_control(model, con, state).P)
        np.testing.assert_allclose(P, reference(model, con, state.q).P, rtol=1e-9, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(systems(), st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
def test_another_control_moves_phi_at_rate_p_delta(system, delta):
    model, con, states = system
    delta = np.array(delta[:con.m])
    assume(np.max(np.abs(delta)) >= 0.1)
    for state in transversal(model, con, states):
        G = grid_at(model, model.metric, state.q)
        Y = np.linalg.solve(G, grid_at(model, model.input_coframe, state.q).T)
        acc = np.array(closed_loop_acceleration(model, con, state)) + Y @ delta
        P = reference(model, con, state.q).P
        assert np.max(np.abs(rate(con, state, acc) - P @ delta)) <= bound(state, acc)
