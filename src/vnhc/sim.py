"""Fixed-step RK4 integration of the closed-loop system with invariance
diagnostics.

The control is re-solved at every RK4 stage; freezing it per step costs
an order of accuracy in the phi-drift certificate.  No adaptivity: the
diagnostics want uniform, reproducible sampling.

Inputs are validated once at the API boundary.  Every entry of a
trajectory comes from the pair's step kernel (`control._step_source`
states its protocol): the start's record through `control._stage1`, the
views' one entry, then one call per sample interval, whose record
`integrate` keeps as it comes.  A failed stage, or phi at a sample, is
raised by `control._raise_failure`, from the kernel's returned state and
math error, and chained to an `IntegrationError` naming the step: the
q-only kernel names the first failure in the views' order, and the step
kernel's own line the force's math error; nothing else is built or run.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from sys import float_info

from .constraint import AffineConstraint
from .control import TransversalityError, _raise_failure, _stage1, _step
from .expr import EvalError
from .geometry import MechanicalModel, SPDError, State


class IntegrationError(RuntimeError):
    def __init__(self, message: str, last_good_index: int | None = None):
        super().__init__(message)
        self.last_good_index = last_good_index


# A State made without the checks of its constructor, of the tuples of
# floats that the step kernel returns and has found finite.  State is
# bound here, at import: the benchmark's tracer (bench/spans.py) rebinds
# this module's State to a timing wrapper, which tuple.__new__ refuses.
_checked_state = functools.partial(tuple.__new__, State)

# states: of State; controls: of m-tuples, tau* at each sample; phis: of
# m-tuples; drift_report: per constraint row, max_t |phi_b(t) - phi_b(0)|
Trajectory = namedtuple("Trajectory", "times states controls phis drift_report")


def rk4_step(model: MechanicalModel, con: AffineConstraint, state: State, h: float) -> State:
    """One classical Runge-Kutta step of (qdot, closed-loop acceleration)."""
    if not 0.0 < h <= float_info.max:
        raise ValueError("step size must be positive and finite")
    a = _stage1(model, con, state)[0]
    out = _step(model, con)(state.q, state.qdot, a, h, False)
    if out[0] is None:
        _raise_failure(model, con, out[2], out[5])
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
    if not 0.0 < t_end <= float_info.max:
        raise ValueError("t_end must be positive and finite")
    if not 0.0 < h <= float_info.max:
        raise ValueError("step size must be positive and finite")
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    # a kernel call counts its steps down to 1: a fraction or NaN never gets there
    if sample_every % 1 != 0 and sample_every != math.inf:
        raise ValueError("sample_every must be a whole number of steps")
    steps = t_end / h
    if steps == math.inf:
        raise ValueError(f"t_end / step size overflows ({t_end!r} / {h!r})")
    n_steps = max(1, int(round(steps)))
    # 2.0 counts steps as 2 does, and more than n_steps (inf) as n_steps
    sample_every = int(min(sample_every, n_steps))
    h = float(h)  # so each step * h is a float, inf past the float range, for an int h too
    out = _stage1(model, con, state0, h)  # the start's record
    kernel = _step(model, con)
    times, states, controls, phis = [0.0], [], [], []
    step = 0
    while True:
        # a record: the sample's state, the acceleration of stage 1 there, tau and phi
        q, qd, a, tau, phi = out
        states.append(_checked_state((q, qd)))
        controls.append(tau)
        phis.append(phi)
        if step == n_steps:
            break
        # one call runs the steps up to the next sample and returns its record
        count = min(sample_every, n_steps - step)
        out = kernel(q, qd, a, h, count)
        if out[0] is None:
            step += count + 1 - out[4]  # the step that failed
            if out[1] == 0:
                raise IntegrationError(f"non-finite state at step {step}",
                                       last_good_index=len(times) - 1)
            try:
                _raise_failure(model, con, out[2], out[5])
            except (TransversalityError, SPDError, EvalError) as err:  # a stage's or phi's
                raise IntegrationError(f"aborted at step {step}: {err}",
                                       last_good_index=len(times) - 1) from err
        step += count
        times.append(step * h)

    phi0 = phis[0]
    drift = tuple(
        max(abs(p[b] - phi0[b]) for p in phis) for b in range(con.m)
    )
    return Trajectory(tuple(times), tuple(states), tuple(controls), tuple(phis), drift)
