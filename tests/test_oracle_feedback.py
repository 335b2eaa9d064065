"""`b_vector`, `solve_control` and `closed_loop_acceleration` against a
numpy reference that shares no code with vnhc.

The reference evaluates the model's and the constraint's fields by
`oracle.walk`.  The derivatives that the drift and c need are central
differences of step H (`test_physical.free_acceleration`, and c below);
G^-1 is numpy's `eigh`, and the rest numpy's products and `solve`:

    Y = G^-1 coframe^T,  P = S Y,  b = -(S a_free + c),
    P tau = b,  acc = a_free + Y tau,

with a_free = G^-1 (F - dV - w), w the Christoffel term, and c the
derivative of S qdot + Z along qdot at fixed qdot.  No LU, no Cholesky
factor and no generated kernel.

Checked on drawn models whose metric depends on q (`test_physical.systems`:
n = 3..5, m = 1..2, inputs the constraint rows or not, Z != 0) and on
gen5, at the states where `transversality_check` holds.  With |.| the
max norm, a difference is bounded by TOL times a scale of the reference:
1 + |P| for P, 1 + |b| for b, ||P^-1|| (1 + |b|) for tau, what a change
of 1 + |b| in b moves it by, and 1 + |a_free| + ||Y|| times that for the
acceleration.  The central differences leave about 1e-11 of that in b.
Over 600 drawn models the largest difference over its scale was 2.6e-11
(b), 2.3e-11 (tau), 1.9e-11 (acc) and 1.7e-15 (P, round-off alone); on
gen5, 6.9e-12.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from oracle import grid_at, walk
from test_control import build_gen5
from test_physical import H, env, free_acceleration, phi, systems

from vnhc import (MechanicalModel, State, b_vector, closed_loop_acceleration, solve_control,
                  transversality_check)

TOL = 1e-9


def reference(model, con, q, qd) -> dict:
    """P, b, tau and the acceleration at (q, qd), by numpy alone, and the
    scale each one's difference is bounded against (see above)."""
    values, vectors = np.linalg.eigh(grid_at(model, model.metric, q))
    Y = vectors @ np.diag(1.0 / values) @ vectors.T @ grid_at(model, model.input_coframe, q).T
    S = grid_at(con, con.mu, q)
    P = S @ Y
    a = free_acceleration(model, q, qd)
    c = (phi(con, q + H * qd, qd) - phi(con, q - H * qd, qd)) / (2 * H)
    b = -(S @ a + c)
    tau = np.linalg.solve(P, b)
    # what a difference of 1 + |b| in b moves tau and the acceleration by, at most
    moved = np.linalg.norm(np.linalg.inv(P), np.inf) * (1.0 + np.max(np.abs(b)))
    return {"P": P, "b": b, "tau": tau, "acc": a + Y @ tau,
            "scale": {"P": 1.0 + np.max(np.abs(P)), "b": 1.0 + np.max(np.abs(b)), "tau": moved,
                      "acc": 1.0 + np.max(np.abs(a)) + np.linalg.norm(Y, np.inf) * moved}}


def errors(model, con, q, qd, against=None) -> dict | None:
    """Each difference from the reference of the model against (by default
    model) over its scale, or None where P fails a gate."""
    state = State(q=tuple(q), qdot=tuple(qd))
    if not transversality_check(con, model, state.q).ok:
        return None
    ref = reference(against or model, con, q, qd)
    solve = solve_control(model, con, state)
    got = {"P": solve.P, "b": b_vector(model, con, state), "tau": solve.tau,
           "acc": closed_loop_acceleration(model, con, state)}
    return {name: float(np.max(np.abs(np.asarray(x) - ref[name]))) / ref["scale"][name]
            for name, x in got.items()}


def assert_close(model, con, q, qd) -> bool:
    found = errors(model, con, q, qd)
    if found is not None:
        assert max(found.values()) <= TOL, (q, qd, found)
    return found is not None


def varies(model, q) -> bool:
    """Whether the metric reads q: it differs at q and at q + 0.5."""
    return not np.array_equal(grid_at(model, model.metric, q),
                              grid_at(model, model.metric, q + 0.5))


@settings(max_examples=12, deadline=None)
@given(st.booleans().flatmap(lambda rows: systems(rows=rows, affine=True)))
def test_feedback_matches_numpy_on_drawn_models(system):
    model, con, states = system
    assume(varies(model, states[0][0]))
    assume(sum(assert_close(model, con, q, qd) for q, qd in states))


def test_feedback_matches_numpy_on_gen5():
    model, con = build_gen5()
    rng = np.random.default_rng(11)
    states = [(rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5)) for _ in range(6)]
    assert all(assert_close(model, con, q, qd) for q, qd in states)


def test_a_wrong_force_is_seen():
    # a negative control: gen5 with its force's first component off by
    # 1e-6 at the state, against the reference of gen5 itself, moves b, tau
    # and the acceleration past the bound, and P not
    model, con = build_gen5()
    q, qd = np.full(5, 0.3), np.full(5, -0.2)
    F = walk(model.external_force[0], env(model, q, qd))
    shifted = MechanicalModel(model.coordinates, model.metric, model.potential,
                              [repr(F + 1e-6), *model.external_force[1:]], model.input_coframe)
    found = errors(shifted, con, q, qd, against=model)
    assert found["P"] <= TOL < min(found["b"], found["tau"], found["acc"]), found
