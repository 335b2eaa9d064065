"""Fixed-step RK4 integration of the closed-loop system with invariance
diagnostics.

The control is re-solved at every RK4 stage; freezing it per step costs
an order of accuracy in the phi-drift certificate.  No adaptivity: the
diagnostics want uniform, reproducible sampling.

Inputs are validated once at the API boundary; the steps carry plain
q/qdot tuples.  Each step ends with the next step's stage-1 solve, whose
tau is the one sampled at that state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constraint import AffineConstraint, check_compatible
from .control import TransversalityError, _assemble
from .expr import EvalError
from .geometry import MechanicalModel, State


class IntegrationError(RuntimeError):
    def __init__(self, message: str, last_good_index: int | None = None):
        super().__init__(message)
        self.last_good_index = last_good_index


@dataclass(frozen=True)
class Trajectory:
    times: tuple
    states: tuple  # of State
    controls: tuple  # of m-tuples (tau* at each sample)
    phis: tuple  # of m-tuples
    drift_report: tuple  # per constraint row: max_t |phi_b(t) - phi_b(0)|


def _rk4(model, con, q0, v0, k1v, h):
    """One RK4 step from (q0, v0), given the stage-1 acceleration k1v."""
    h2, h6 = 0.5 * h, h / 6.0
    k2q = [v + h2 * a for v, a in zip(v0, k1v)]
    k2v = _assemble(model, con, [x + h2 * v for x, v in zip(q0, v0)], k2q).acc
    k3q = [v + h2 * a for v, a in zip(v0, k2v)]
    k3v = _assemble(model, con, [x + h2 * v for x, v in zip(q0, k2q)], k3q).acc
    k4q = [v + h * a for v, a in zip(v0, k3v)]
    k4v = _assemble(model, con, [x + h * v for x, v in zip(q0, k3q)], k4q).acc
    q1 = tuple([x + h6 * (a + 2.0 * b + 2.0 * c + d)
                for x, a, b, c, d in zip(q0, v0, k2q, k3q, k4q)])
    v1 = tuple([v + h6 * (a + 2.0 * b + 2.0 * c + d)
                for v, a, b, c, d in zip(v0, k1v, k2v, k3v, k4v)])
    return q1, v1


def rk4_step(model: MechanicalModel, con: AffineConstraint, state: State, h: float) -> State:
    """One classical Runge-Kutta step of (qdot, closed-loop acceleration)."""
    if h <= 0.0:
        raise ValueError("step size must be positive")
    check_compatible(model, con)
    model._check_state(state)
    k1v = _assemble(model, con, state.q, state.qdot, state).acc
    q1, v1 = _rk4(model, con, state.q, state.qdot, k1v, h)
    return State(q=q1, qdot=v1)


def integrate(
    model: MechanicalModel,
    con: AffineConstraint,
    state0: State,
    t_end: float,
    h: float,
    sample_every: int = 1,
) -> Trajectory:
    """Fixed-step RK4 run, sampling every sample_every steps plus the end."""
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if h <= 0.0:
        raise ValueError("step size must be positive")
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    check_compatible(model, con)
    model._check_state(state0)

    n_steps = max(1, int(round(t_end / h)))
    q, qd = state0.q, state0.qdot
    here = _assemble(model, con, q, qd, state0)
    times = [0.0]
    states = [state0]
    controls = [tuple(here.tau)]
    phis = [tuple(con.phi(state0))]

    for step in range(1, n_steps + 1):
        try:
            q, qd = _rk4(model, con, q, qd, here.acc, h)
            if not all(map(math.isfinite, q + qd)):
                raise IntegrationError(
                    f"non-finite state at step {step}", last_good_index=len(times) - 1
                )
            here = _assemble(model, con, q, qd)
        except (TransversalityError, EvalError) as err:
            raise IntegrationError(
                f"aborted at step {step}: {err}", last_good_index=len(times) - 1
            ) from err
        if step % sample_every == 0 or step == n_steps:
            state = State(q=q, qdot=qd)
            times.append(step * h)
            states.append(state)
            controls.append(tuple(here.tau))
            phis.append(tuple(con.phi(state)))

    phi0 = phis[0]
    drift = tuple(
        max(abs(p[b] - phi0[b]) for p in phis) for b in range(con.m)
    )
    return Trajectory(
        times=tuple(times),
        states=tuple(states),
        controls=tuple(controls),
        phis=tuple(phis),
        drift_report=drift,
    )
