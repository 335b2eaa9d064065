"""Fixed-step RK4 integration of the closed-loop system with invariance
diagnostics.

The control is re-solved at every RK4 stage; freezing it per step costs
an order of accuracy in the phi-drift certificate.  No adaptivity: the
diagnostics want uniform, reproducible sampling.

Inputs are validated once at the API boundary; the steps carry plain
q/qdot tuples.  A step is one call of the pair's step kernel
(`control._step`): the pair's folded closed-loop statements, written
once and run for each stage in a loop, with the RK4 stage arithmetic
between them, so a stage computes what the views' stage-1 call would,
bit for bit.  In `integrate` the call goes on to the next step's stage 1,
whose tau is the one sampled at the step's end, once it has found that
end finite.  Stage 1 at the start state is `control._stage1`, as for
the views.  Where a later stage's gate fails or it meets a math error,
the kernel returns the stage's state, and `control._raise_failure`,
called there, raises the typed error with its message, as it does for
the views.  A math error in phi at a sample after the start aborts the
run as a failed stage does: an `IntegrationError` naming the step.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .constraint import AffineConstraint
from .control import TransversalityError, _raise_failure, _stage1, _step
from .expr import EvalError
from .geometry import MechanicalModel, SPDError, State


class IntegrationError(RuntimeError):
    def __init__(self, message: str, last_good_index: int | None = None):
        super().__init__(message)
        self.last_good_index = last_good_index


# states: of State; controls: of m-tuples, tau* at each sample; phis: of
# m-tuples; drift_report: per constraint row, max_t |phi_b(t) - phi_b(0)|
Trajectory = namedtuple("Trajectory", "times states controls phis drift_report")


def rk4_step(model: MechanicalModel, con: AffineConstraint, state: State, h: float) -> State:
    """One classical Runge-Kutta step of (qdot, closed-loop acceleration)."""
    if not 0.0 < h < math.inf:
        raise ValueError("step size must be positive and finite")
    a = _stage1(model, con, state)[0]
    out = _step(model, con)(state.q, state.qdot, a, h, False)
    if out[0] is None:
        _raise_failure(model, con, *out[2:])
    return State(q=out[0], qdot=out[1])


def integrate(
    model: MechanicalModel,
    con: AffineConstraint,
    state0: State,
    t_end: float,
    h: float,
    sample_every: int = 1,
) -> Trajectory:
    """Fixed-step RK4 run, sampling every sample_every steps plus the end."""
    if not 0.0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    if not 0.0 < h < math.inf:
        raise ValueError("step size must be positive and finite")
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    steps = t_end / h
    if steps == math.inf:
        raise ValueError(f"t_end / step size overflows ({t_end!r} / {h!r})")
    n_steps = max(1, int(round(steps)))
    q, qd, (a, tau) = state0.q, state0.qdot, _stage1(model, con, state0)[:2]  # stage 1 of step 1
    kernel = _step(model, con)
    times = [0.0]
    states = [state0]
    controls = [tuple(tau)]
    phis = [tuple(con.phi(state0))]

    for step in range(1, n_steps + 1):
        out = kernel(q, qd, a, h, True)
        try:
            if out[0] is None:
                if out[1] == 0:
                    raise IntegrationError(f"non-finite state at step {step}",
                                           last_good_index=len(times) - 1)
                _raise_failure(model, con, *out[2:])
            q, qd, a, tau = out
            if step % sample_every == 0 or step == n_steps:
                state = State(q=q, qdot=qd)
                phis.append(tuple(con.phi(state)))  # first: it may raise
                times.append(step * h)
                states.append(state)
                controls.append(tau)
        except (TransversalityError, SPDError, EvalError) as err:  # a stage's or phi's
            raise IntegrationError(f"aborted at step {step}: {err}",
                                   last_good_index=len(times) - 1) from err

    phi0 = phis[0]
    drift = tuple(
        max(abs(p[b] - phi0[b]) for p in phis) for b in range(con.m)
    )
    return Trajectory(tuple(times), tuple(states), tuple(controls), tuple(phis), drift)
