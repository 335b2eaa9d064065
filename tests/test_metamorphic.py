"""Metamorphic relations of the feedback law (Chen et al., ACM Computing
Surveys 51(1), 2018): changes of a model that the paper's theorem says
how tau* answers, checked by comparing vnhc with itself.

- S -> R S, Z -> R Z, with R constant and invertible, describes the same
  constraint set and the same invariance: P -> R P and b -> R b, so tau*
  is unchanged.
- coframe -> K coframe, with K constant and invertible, renames the
  inputs: the input fields Y -> K Y, P -> P K^T, b is unchanged, so
  tau -> K^-T tau, and the closed-loop acceleration is unchanged.

Checked on drawn models with m >= 2 (`test_theorem.systems`) and on gen5,
with R and K orthogonal times a diagonal in [0.5, 2], so cond_2 <= 4.
The transformed models are written as expressions: their kernels compute
R S and K coframe in floats, so the results agree to round-off, which
the solve of P tau = b amplifies by up to cond(P).
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from test_control import build_gen5
from test_theorem import systems

from vnhc import (
    AffineConstraint,
    MechanicalModel,
    State,
    closed_loop_acceleration,
    solve_control,
    tau_star,
    to_string,
    transversality_check,
)

EPS = 2.0**-52
# A difference is bounded by TOL eps cond_1(P) (1 + |x|), with x tau or
# the acceleration and |.| the max norm: R's and K's products and the
# solve's backward error move P and b by a few eps relative, which the
# solve amplifies by at most cond(P) cond(R), and cond(R) <= 4.  Over 150
# drawn models the largest difference was 0.68 eps cond_1(P) (1 + |x|).
TOL = 64.0


def conditioned(seed: int, m: int) -> np.ndarray:
    """An m x m matrix Q D, Q orthogonal and D diagonal in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(m, m)))[0]
    return Q * rng.uniform(0.5, 2.0, m)


def combined(M, rows) -> list[list[str]]:
    """M times the expression grid rows, as expressions."""
    return [[" + ".join(f"({float(M[b, k])!r})*({to_string(rows[k][i])})" for k in range(len(rows)))
             for i in range(len(rows[0]))] for b in range(len(M))]


def close(x, y, cond) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return np.max(np.abs(x - y)) <= TOL * EPS * cond * (1.0 + np.max(np.abs(y)))


def check_relations(model, con, states, seed):
    """Both relations at each state where transversality holds."""
    m, n = con.m, model.n
    R, K = conditioned(seed, m), conditioned(seed + 1, m)
    rows = AffineConstraint(model.coordinates, combined(R, con.mu),
                            [z[0] for z in combined(R, [[z] for z in con.Z])])
    inputs = MechanicalModel(model.coordinates, model.metric, model.potential,
                             model.external_force, combined(K, model.input_coframe))
    checked = 0
    for state in states:
        if not transversality_check(con, model, state.q).ok:
            continue
        solve = solve_control(model, con, state)
        acc = closed_loop_acceleration(model, con, state)
        assert close(tau_star(model, rows, state), solve.tau, solve.cond_estimate), state
        assert close(tau_star(inputs, con, state), np.linalg.solve(K.T, solve.tau),
                     solve.cond_estimate), state
        assert close(closed_loop_acceleration(inputs, con, state), acc,
                     solve.cond_estimate), state
        checked += 1
    return checked


@settings(max_examples=12, deadline=None)
@given(system=systems().filter(lambda system: system[1].m >= 2), seed=st.integers(0, 2**32 - 2))
def test_relations_on_drawn_models(system, seed):
    check_relations(*system, seed)


def test_relations_on_gen5():
    model, con = build_gen5()
    rng = np.random.default_rng(42)
    states = [State(q=tuple(rng.uniform(-1, 1, 5)), qdot=tuple(rng.uniform(-1, 1, 5)))
              for _ in range(8)]
    assert check_relations(model, con, states, 7) == len(states)
