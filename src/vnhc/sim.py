"""Fixed-step RK4 integration of the closed-loop system with invariance
diagnostics.

The control is re-solved at every RK4 stage; freezing it per step costs
an order of accuracy in the phi-drift certificate.  No adaptivity: the
diagnostics want uniform, reproducible sampling.

Inputs are validated once at the API boundary; the steps carry plain
q/qdot tuples.  A step is four calls of the pair's closed-loop field
(`control._closed_loop`: one generated kernel; where one of its gates
fails, the q-only path of `control` raises the typed error) and
straight-line stage arithmetic generated once per n.  Each step ends
with the next step's stage-1 solve, whose tau is the one sampled at that
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import linalg
from .constraint import AffineConstraint, check_compatible
from .control import TransversalityError, _closed_loop
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


def _rk4_source(n: int) -> list[str]:
    """Source of kernel(field, q, v, k1v, h) -> (q1, v1): one RK4 step from
    (q, v), given the stage-1 acceleration k1v, with three calls of the
    closed-loop field.  Straight-line stage arithmetic: the same operations
    in the same order as loops over the coordinates."""
    r = range(n)

    def vec(text: str) -> str:  # the tuple of text.format(i) over the coordinates
        return "(" + "".join(text.format(i) + ", " for i in r) + ")"

    body = ["h2, h6 = 0.5 * h, h / 6.0", f"{vec('x{0}')} = q", f"{vec('v{0}')} = v",
            f"{vec('a1_{0}')} = k1v"]
    # stage k: velocity k{k}q = v + dt a_{k-1}, acceleration a_k = field(q + dt slope, k{k}q)
    for k, dt, slope in ((2, "h2", "v{0}"), (3, "h2", "k2q{0}"), (4, "h", "k3q{0}")):
        body += [f"k{k}q{i} = v{i} + {dt} * a{k - 1}_{i}" for i in r]
        body.append(f"{vec(f'a{k}_{{0}}')} = field({vec(f'x{{0}} + {dt} * {slope}')}, "
                    f"{vec(f'k{k}q{{0}}')})[0]")
    return linalg._kernel_source(
        "field, q, v, k1v, h", body,
        vec("x{0} + h6 * (v{0} + 2.0 * k2q{0} + 2.0 * k3q{0} + k4q{0})") + ", "
        + vec("v{0} + h6 * (a1_{0} + 2.0 * a2_{0} + 2.0 * a3_{0} + a4_{0})"))


_RK4 = linalg._Kernels(_rk4_source)


def rk4_step(model: MechanicalModel, con: AffineConstraint, state: State, h: float) -> State:
    """One classical Runge-Kutta step of (qdot, closed-loop acceleration)."""
    if h <= 0.0:
        raise ValueError("step size must be positive")
    check_compatible(model, con)
    model._check_state(state)
    field = _closed_loop(model, con)
    k1v = field(state.q, state.qdot, state)[0]
    q1, v1 = _RK4[model.n](field, state.q, state.qdot, k1v, h)
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
    field, rk4 = _closed_loop(model, con), _RK4[model.n]
    q, qd = state0.q, state0.qdot
    here = field(q, qd, state0)
    times = [0.0]
    states = [state0]
    controls = [tuple(here[1])]
    phis = [tuple(con.phi(state0))]

    for step in range(1, n_steps + 1):
        try:
            q, qd = rk4(field, q, qd, here[0], h)
            if not all(map(math.isfinite, q + qd)):
                raise IntegrationError(
                    f"non-finite state at step {step}", last_good_index=len(times) - 1
                )
            here = field(q, qd)
        except (TransversalityError, EvalError) as err:
            raise IntegrationError(
                f"aborted at step {step}: {err}", last_good_index=len(times) - 1
            ) from err
        if step % sample_every == 0 or step == n_steps:
            state = State(q=q, qdot=qd)
            times.append(step * h)
            states.append(state)
            controls.append(tuple(here[1]))
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
