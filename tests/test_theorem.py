"""The paper's theorem as a property of random models, against references
that share no code with the kernels' generator.

On drawn models (n = 2..5 coordinates, m = 1..n-1 inputs, a metric
A^T A + c I with trig or polynomial entries, constant in some draws,
random coframe and constraint rows and a nonzero Z) and at drawn states
where `transversality_check` holds:

- tangency: the closed-loop acceleration keeps phi = S qdot + Z constant,
  so its central difference along (qdot, acc) is about 0;
- P from `solve_control` is numpy's S G^-1 coframe^T (`oracle.reference`);
- uniqueness: acc + Y delta, the acceleration of tau* + delta, moves phi
  at the rate P delta, which is not 0 for delta != 0 since P is
  invertible;
- the rank hypothesis: where the q-only record certifies rank S = m (P
  invertible implies it), `_rank` finds rank m, on the drawn models and on
  a family whose S loses rank while P stays well conditioned;
- symmetry: on models whose metric, coframe and rows read a subset of the
  coordinates, a passing q-only record does not change when every
  coordinate outside the ones it reads moves, as `vnhc check` assumes.

phi is evaluated by `oracle.walk` of mu and Z, Y = G^-1 coframe^T by
numpy on walked grids.  The central difference takes criterion 4's step,
and its bound is scaled by 1 + |qdot|^2 + |acc|, plus the round-off that
solving P tau = b leaves in S acc + c, which grows with |tau|: near a
singular P, |tau| can be 1e9 times |acc|.
"""

import functools

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st
from oracle import grid_at, reference

from vnhc import (
    AffineConstraint,
    MechanicalModel,
    State,
    closed_loop_acceleration,
    constraint,
    solve_control,
    transversality_check,
)

EPS = 1e-6  # criterion 4's step
TOL = 1e-8  # on the central difference, times 1 + |qdot|^2 + |acc|
COEFFICIENTS = ["0.5", "-0.7", "1.0", "1.3", "-1.5"]
TEMPLATES = ["{c}", "{c}*{x}", "{c}*{x}*{y}", "{c} + 0.4*{x}^2", "{c}*sin({x})",
             "{c}*cos({y})", "0.6*sin({x})*cos({y})"]
STATES = 3
N_MAX = 5  # the most coordinates a drawn model has
# Plus ROUND times max(|S| |Y| |tau|): a backward-stable solve of P tau = b
# leaves about eps |S| |Y| |tau| in S acc + c, as acc = drift + Y tau
# cancels where |tau| >> |acc|; N_MAX allows for sums of N_MAX terms.
ROUND = N_MAX * 2.0**-52


@st.composite
def systems(draw, shape=False):
    """A drawn model and constraint, and STATES states with entries in
    [-1, 1].  With shape, the metric, coframe and constraint rows read a
    drawn proper subset of the coordinates, the shape, and Z may read any
    through lines that can raise, such as exp(q0)."""
    n = draw(st.integers(2, N_MAX))
    m = draw(st.integers(1, n - 1))
    names = [f"q{i}" for i in range(n)]
    constant_metric = draw(st.booleans())
    pool = (draw(st.lists(st.sampled_from(names), min_size=1, max_size=n - 1, unique=True))
            if shape else names)

    def entry(templates=TEMPLATES, names=pool) -> str:
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
    Z = [entry(["{c}", "{c}*sin({x})", "{c} + 0.4*{x}*{y}"]
               + ["{c}*exp({x})", "{c}*exp({x})/(2 + sin({y}))"] * shape, names)
         for _ in range(m)]
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


def input_fields(model, q) -> np.ndarray:
    """Y = G^-1 coframe^T at q, one column per input."""
    G, coframe = grid_at(model, model.metric, q), grid_at(model, model.input_coframe, q)
    return np.linalg.solve(G, coframe.T)


def bound(model, con, state, acc, tau) -> float:
    """The bound on the central difference at state, along acc, the
    acceleration of the control tau."""
    S, Y = np.abs(grid_at(con, con.mu, state.q)), np.abs(input_fields(model, state.q))
    return (TOL * (1.0 + float(np.dot(state.qdot, state.qdot)) + float(np.max(np.abs(acc))))
            + ROUND * float(np.max(S @ Y @ np.abs(tau))))


def near_singular_p():
    """A drawn system that failed the bound without its |tau| term: at
    q = (0, 1e-9, 0, 0) two coframe rows differ by 5e-10, so cond(P) is
    2.66e9, tau about (3.5e8, -3.5e8, 0.35) and |acc| about 0.35; the
    central difference is 6.54e-8, and TOL (1 + |qdot|^2 + |acc|) 3.35e-8."""
    names = ["q0", "q1", "q2", "q3"]
    g = "0.75 - 0.35*q0"
    G = [["1.5", "1", "1", g], ["1", "1.5", "1", g], ["1", "1", "1.5", g],
         [g, g, g, "1.25 + 0.49*q0^2"]]
    coframe = [["0.5*q0"] * 3 + ["0.5"], ["0.5*q0", "0.5*q0", "0.5*q1", "0.5"], ["0.5"] * 4]
    mu = [["0.5"] * 4, ["0.5", "0.5", "-0.7", "0.5"], ["0.5", "0.5", "0.5", "-0.7"]]
    return (MechanicalModel(names, G, input_coframe=coframe),
            AffineConstraint(names, mu, ["0.5"] * 3),
            [State(q=(0.0, 1e-9, 0.0, 0.0), qdot=(0.0, 0.0, 1.0, 1.0))])


def transversal(model, con, states) -> list:
    """The states where transversality holds, at least one."""
    kept = [s for s in states if transversality_check(con, model, s.q).ok]
    assume(kept)
    return kept


@settings(max_examples=15, deadline=None)
@given(systems())
@example(near_singular_p())
def test_closed_loop_is_tangent_to_the_constraint(system):
    model, con, states = system
    for state in transversal(model, con, states):
        tau = solve_control(model, con, state).tau
        acc = closed_loop_acceleration(model, con, state)
        assert np.max(np.abs(rate(con, state, acc))) <= bound(model, con, state, acc, tau)


@settings(max_examples=15, deadline=None)
@given(systems())
def test_p_matches_numpy(system):
    model, con, states = system
    for state in transversal(model, con, states):
        P = np.array(solve_control(model, con, state).P)
        np.testing.assert_allclose(P, reference(model, con, state.q).P, rtol=1e-9, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(systems(), st.lists(st.floats(-1.0, 1.0), min_size=N_MAX - 1, max_size=N_MAX - 1))
def test_another_control_moves_phi_at_rate_p_delta(system, delta):
    model, con, states = system
    delta = np.array(delta[:con.m])
    assume(np.max(np.abs(delta)) >= 0.1)
    for state in transversal(model, con, states):
        tau = np.array(solve_control(model, con, state).tau) + delta
        acc = (np.array(closed_loop_acceleration(model, con, state))
               + input_fields(model, state.q) @ delta)
        P = reference(model, con, state.q).P
        error = np.max(np.abs(rate(con, state, acc) - P @ delta))
        assert error <= bound(model, con, state, acc, tau)


@settings(max_examples=15, deadline=None)
@given(systems(shape=True), st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                     min_size=N_MAX, max_size=N_MAX))
def test_a_passing_record_reads_its_key_alone(system, others):
    # Where every gate held, the q-only record is the same, bit for bit,
    # with every coordinate outside the key (`constraint._reads`) replaced
    # by any finite value, as `vnhc check` takes it to be: drawn ones, and
    # +-1e300, where exp overflows and inline sums and products reach inf.
    model, con, states = system
    kernel = constraint._q_only(model, con)
    reads = constraint._pair(model, con).reads
    passing = [s.q for s in states if constraint._p_system(model, con, s.q).failed is None]
    assume(passing)
    for q in passing:
        for far in (others, [1e300] * N_MAX, [-1e300] * N_MAX):
            moved = tuple(v if i in reads else far[i] for i, v in enumerate(q))
            assert repr(kernel(moved)) == repr(kernel(q)), (q, moved)


@functools.cache
def thin_rows(k: int):
    """A system whose second S row is scaled by 10^-k and its coframe row by
    10^k: P = [[1, 0], [10^-k (cos y + 0.2 z / g), 1 / g]], g = 1 + 0.5
    sin(x)^2, stays well conditioned while sigma_2 / sigma_1 of S falls like
    10^-k, past RANK_RTOL from k = 10 on."""
    names = ["x", "y", "z"]
    G = [["1", "0", "0"], ["0", "1 + 0.5*sin(x)^2", "0"], ["0", "0", "1"]]
    coframe = [["1", "0.2*z", "0"], ["0", f"1e{k}", "0"]]
    mu = [["1", "0", "0.5*x"], [f"1e-{k}*cos(y)", f"1e-{k}", f"1e-{k}*0.3*z"]]
    return MechanicalModel(names, G, input_coframe=coframe), AffineConstraint(names, mu, ["0", "0"])


def certified(model, con, q) -> bool:
    """Whether the q-only record at q certifies rank S = m, which it does
    only where every gate held; where it does, `_rank` finds rank m."""
    record = constraint._p_system(model, con, q)
    if record.full_rank is not True:
        assert record.full_rank is False, q
        return False
    assert record.failed is None and con._rank(record.S)[0] == con.m, q
    return True


@settings(max_examples=15, deadline=None)
@given(systems())
def test_a_certified_rank_is_full(system):
    model, con, states = system
    for state in states:
        certified(model, con, state.q)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
def test_a_certified_rank_is_full_on_thin_rows(q):
    claims = [certified(*thin_rows(k), q) for k in range(15)]
    assert claims[0], claims  # the certificate is not vacuous
