"""Metamorphic relations of the feedback law (Chen et al., ACM Computing
Surveys 51(1), 2018): changes of a model that the paper's theorem says
how tau* answers, checked by comparing vnhc with itself.

- S -> R S, Z -> R Z, with R constant and invertible, describes the same
  constraint set and the same invariance: P -> R P and b -> R b, so tau*
  is unchanged.
- coframe -> K coframe, with K constant and invertible, renames the
  inputs: the input fields Y -> K Y, P -> P K^T, b is unchanged, so
  tau -> K^-T tau, and the closed-loop acceleration is unchanged.
- q = A q', a linear change of coordinates, writes the same system in
  q': G' = A^T G(A q') A, V'(q') = V(A q'), F' = A^T F(A q', A qdot'),
  coframe' = coframe(A q') A, mu' = mu(A q') A and Z'(q') = Z(A q').  Then
  Y' = A^-1 Y, so P and b are unchanged, tau* too, and the closed-loop
  acceleration maps by A, as does every state of a run.

The first two are checked on drawn models with m >= 2
(`test_theorem.systems`) and on gen5, with R and K orthogonal times a
diagonal in [0.5, 2], so cond_2 <= 4.  The third is checked on drawn
models of every m and on gen5, and its runs on gen5, with A a
permutation times a diagonal of powers of two in [0.5, 2], so A q' is
exact.  The transformed models are written as expressions: their
kernels compute R S, K coframe and A^T G A in floats, so the results
agree to round-off, which the solve of P tau = b amplifies by up to
cond(P) for R and K; for A, whose sums are reordered, by up to the
first-order bound of `sensitivity`.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_control import build_gen5
from test_theorem import systems

from vnhc import (
    AffineConstraint,
    MechanicalModel,
    State,
    closed_loop_acceleration,
    integrate,
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
# q = A q' reorders the sums of P, b and the metric's factor, and where P
# or b cancels, cond_1(P) does not bound that round-off: over 4,023 drawn
# states it reached 5,770 eps cond_1(P) (1 + |x|), and 157 on a P = -0.033
# whose terms add up to 1.46 in magnitude.  So its differences are bounded
# by TOL eps `sensitivity`: over 4,039 drawn and gen5 states the largest
# was 1.28 of that for tau and 1.09 for the acceleration.
TOL = 64.0
# The short runs of q = A q' on gen5, (t_end, h): their samples map by A
# within RUN_TOL eps (1 + |x|), x the run's states' entries.  From the 8
# states and 3 matrices A of the test the largest difference was 0.25 eps
# (1 + |x|).  Drawn models are not run: from a drawn start where cond_1(P)
# is 5.9e10, the difference reached 2e6 eps (1 + |x|) in one step of 1e-3.
RUN = (0.2, 1e-2)
RUN_TOL = 4.0


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


def gen5_states(seed: int) -> list[State]:
    rng = np.random.default_rng(seed)
    return [State(q=tuple(rng.uniform(-1, 1, 5)), qdot=tuple(rng.uniform(-1, 1, 5)))
            for _ in range(8)]


def test_relations_on_gen5():
    model, con = build_gen5()
    assert check_relations(model, con, gen5_states(42), 7) == 8


def scaled_permutation(seed: int, n: int) -> np.ndarray:
    """An n x n matrix Pi D, Pi a permutation and D diagonal with entries
    0.5, 1 or 2, other than the identity."""
    rng = np.random.default_rng(seed)
    while True:
        A = np.eye(n)[rng.permutation(n)] * rng.choice([0.5, 1.0, 2.0], n)
        if (A != np.eye(n)).any():
            return A


def in_new_coordinates(model, con, A):
    """The model and constraint written in q' with q = A q': each expression
    of q and qdot at (A q', A qdot'), the metric's indices lowered by A on
    both sides, the force's, the coframe's and mu's on one.  Column i of A
    holds a_i alone, at row k_i, so q_{k_i} = a_i q'_i and each entry of A^T
    G A, of F A and of a row times A is one product."""
    names, velocities, r = model.coordinates, model.velocities, range(model.n)
    k = [int(np.flatnonzero(column)[0]) for column in A.T]
    a = [float(A[k[i], i]) for i in r]
    images = {}
    for i in r:
        images[names[k[i]]] = f"({a[i]!r}*{names[i]})"
        images[velocities[k[i]]] = f"({a[i]!r}*{velocities[i]})"
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, images)) + r")\b")

    def at(e) -> str:  # e at (A q', A qdot')
        return pattern.sub(lambda match: images[match[0]], to_string(e))

    def lowered(rows) -> list[list[str]]:  # rows A, rows the covectors of q
        return [[f"{a[i]!r}*({at(row[k[i]])})" for i in r] for row in rows]

    G = [[f"{a[i] * a[j]!r}*({at(model.metric[k[i]][k[j]])})" for j in r] for i in r]
    moved = MechanicalModel(names, G, at(model.potential), lowered([model.external_force])[0],
                            lowered(model.input_coframe))
    return moved, AffineConstraint(names, lowered(con.mu), [at(z) for z in con.Z])


def image(A, state, map_qdot=True) -> State:
    """state in q', q = A q'; without map_qdot, with its qdot as it is."""
    qd = np.linalg.solve(A, state.qdot) if map_qdot else state.qdot
    return State(q=tuple(np.linalg.solve(A, state.q)), qdot=tuple(qd))


def sensitivity(model, con, state, solve) -> tuple[float, float]:
    """The largest entry of the first-order bound, per unit eps, on what
    round-off in the terms of P = S Y^T and b = -(S drift + c) moves tau,
    |P^-1| (|S| |Y|^T |tau| + |S| |drift| + |c|), and of the same for the
    acceleration drift + Y^T tau, |drift| + |Y|^T (|tau| + that).  Unlike
    cond_1(P), it sees a P or a b that cancels."""
    S, _, c = (np.abs(np.array(x)) for x in con._kernel(*state.q, *state.qdot))
    Y = np.abs(np.array(model.input_fields_at(state.q)))
    drift = np.abs(np.array(model.drift_acceleration(state)))
    tau = np.abs(np.array(solve.tau))
    s_tau = np.abs(np.linalg.inv(np.array(solve.P))) @ (S @ Y.T @ tau + S @ drift + c)
    return np.max(s_tau), np.max(drift + Y.T @ (tau + s_tau))


def check_coordinates(model, con, states, seed, map_qdot=True):
    """q = A q' at each state where transversality holds: tau* unchanged and
    the acceleration mapped by A, each within TOL eps times its
    `sensitivity`.  Without map_qdot, the state's q alone is mapped, which
    the relation does not allow."""
    A = scaled_permutation(seed, model.n)
    moved, moved_con = in_new_coordinates(model, con, A)
    checked = 0
    for state in states:
        if not transversality_check(con, model, state.q).ok:
            continue
        new = image(A, state, map_qdot)
        solve = solve_control(model, con, state)
        s_tau, s_acc = sensitivity(model, con, state, solve)
        tau = np.array(tau_star(moved, moved_con, new))
        acc = A @ closed_loop_acceleration(moved, moved_con, new)
        assert np.max(np.abs(tau - solve.tau)) <= TOL * EPS * s_tau, state
        assert np.max(np.abs(acc - closed_loop_acceleration(model, con, state))) <= (
            TOL * EPS * s_acc), state
        checked += 1
    return checked


@settings(max_examples=12, deadline=None)
@given(system=systems(), seed=st.integers(0, 2**32 - 2))
def test_coordinates_on_drawn_models(system, seed):
    check_coordinates(*system, seed)


def test_coordinates_on_gen5():
    model, con = build_gen5()
    for seed in range(3):
        assert check_coordinates(model, con, gen5_states(43), seed) == 8


def test_coordinates_map_a_run_on_gen5():
    # one short run from each state, in q and in q': every sample maps by A
    model, con = build_gen5()
    for seed in range(3):
        A = scaled_permutation(seed, model.n)
        moved, moved_con = in_new_coordinates(model, con, A)
        for state in gen5_states(43):
            run = integrate(model, con, state, t_end=RUN[0], h=RUN[1])
            moved_run = integrate(moved, moved_con, image(A, state), t_end=RUN[0], h=RUN[1])
            x = np.array([[*s.q, *s.qdot] for s in run.states])
            y = np.array([[*A @ s.q, *A @ s.qdot] for s in moved_run.states])
            assert np.max(np.abs(y - x)) <= RUN_TOL * EPS * (1.0 + np.max(np.abs(x))), state


def test_coordinates_need_the_velocities_mapped():
    # q mapped and qdot not: the state is another one, whose tau* and
    # acceleration the assertions refuse
    model, con = build_gen5()
    for seed in range(3):
        with pytest.raises(AssertionError):
            check_coordinates(model, con, gen5_states(43), seed, map_qdot=False)
