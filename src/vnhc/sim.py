"""Fixed-step RK4 integration of the closed-loop system with invariance
diagnostics.

The control is re-solved at every RK4 stage; freezing it per step costs
an order of accuracy in the phi-drift certificate.  No adaptivity: the
diagnostics want uniform, reproducible sampling.

Inputs are validated once at the API boundary; the steps carry plain
q/qdot tuples.  A step is one call of a kernel generated per (model,
constraint) pair from its closed-loop kernel (`control`): the RK4 stage
arithmetic with, inline at each stage, that kernel's folded statements,
so a stage computes what one closed-loop call would, bit for bit.  In
`integrate` the call goes on to the next step's stage 1, whose tau is the
one sampled at the step's end, once it has found that end finite.  Where
a stage's gate fails or it meets a math error, the kernel returns the
stage's state, and the pair's closed-loop field, called there, raises
the typed error with its message.
"""

from __future__ import annotations

import ast
import functools
import math
from dataclasses import dataclass

from . import linalg
from .constraint import AffineConstraint, check_compatible
from .control import TransversalityError, _closed_loop, _closed_loop_kernel
from .expr import EvalError
from .geometry import MechanicalModel, SPDError, State


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


def _step_source(closed_loop: str, n: int) -> list[str]:
    """Source of kernel(q, v, a, h, more) from the source of the pair's
    closed-loop kernel(q, qd), over n coordinates.

    With a the stage-1 acceleration at (q, v): stages 2, 3 and 4 and the
    step's end (q1, v1), the same operations in the same order as loops
    over the coordinates; then, with more and a finite end, stage 1 at the
    end, returning (q1, v1, acc, tau) there, and without more (q1, v1,
    None, None).  With a None: stage 1 at (q, v) alone.  Each stage runs
    the closed-loop statements on its state; where one of their gates
    fails or a math error is raised, the kernel returns (None, k, q_k,
    qdot_k) for stage k at (q_k, qdot_k), k = 0 for an end that is not
    finite."""
    r = range(n)
    # def, the unpacking of q and of qd, the statements (indented as in a
    # try block), and the return, whose first two items are acc and tau
    source = closed_loop.split("\n")
    statements = source[3:-1]
    acc, tau = (list(map(ast.unparse, e.elts))
                for e in ast.parse(source[-1].strip()).body[0].value.elts[:2])

    def vec(text: str) -> str:  # the tuple of text.format(i) over the coordinates
        return "(" + "".join(text.format(i) + ", " for i in r) + ")"

    def stage(k: int, q: str, v: str) -> list[str]:
        """Stage k at the state of the sources q.format(i), v.format(i)."""
        failed = f"return None, {k}, {vec('_a{0}')}, ({''.join(f'_a{n + i}, ' for i in r)})"
        return ["try:", *(f"    _a{i} = {q.format(i)}" for i in r),
                *(f"    _a{n + i} = {v.format(i)}" for i in r),
                *(line.replace("return None", failed) for line in statements),  # the gates
                "except (ArithmeticError, ValueError):", f"    {failed}"]

    rk4 = ["h2, h6 = 0.5 * h, h / 6.0", f"{vec('a1_{0}')} = a"]
    # stage k: velocity k{k}q = v + dt a_{k-1} at the position q + dt slope
    for k, dt, slope in ((2, "h2", "v{0}"), (3, "h2", "k2q{0}"), (4, "h", "k3q{0}")):
        rk4 += [f"k{k}q{i} = v{i} + {dt} * a{k - 1}_{i}" for i in r]
        rk4 += stage(k, f"x{{0}} + {dt} * {slope}", f"k{k}q{{0}}")
        rk4 += [f"a{k}_{i} = {acc[i]}" for i in r]
    rk4 += [f"x{i} = x{i} + h6 * (v{i} + 2.0 * k2q{i} + 2.0 * k3q{i} + k4q{i})" for i in r]
    rk4 += [f"v{i} = v{i} + h6 * (a1_{i} + 2.0 * a2_{i} + 2.0 * a3_{i} + a4_{i})" for i in r]
    end = f"{vec('x{0}')}, {vec('v{0}')}"
    # x - x is 0.0 for a finite x and NaN for inf and NaN, so the sum is 0.0
    # exactly where every entry is finite
    finite = " + ".join([f"(x{i} - x{i})" for i in r] + [f"(v{i} - v{i})" for i in r])
    rk4 += ["if not more:", f"    return {end}, None, None",
            f"if {finite} != 0.0:", f"    return None, 0, {end}"]
    return linalg._kernel_source(
        "q, v, a, h, more",
        [f"{vec('x{0}')} = q", f"{vec('v{0}')} = v", "if a is not None:",
         *(f"    {line}" for line in rk4), *stage(1, "x{0}", "v{0}")],
        f"{end}, ({''.join(f'{e}, ' for e in acc)}), ({''.join(f'{e}, ' for e in tau)})")


@functools.lru_cache(maxsize=linalg.DEFINE_CACHE_SIZE)
def _step_kernel(closed_loop, n: int):
    """The step kernel made from the compiled closed-loop kernel closed_loop:
    once per distinct closed-loop source per process, as `linalg._define`
    gives one function per source."""
    return linalg._define("\n".join(_step_source(closed_loop.source, n)))


def _step(model: MechanicalModel, con: AffineConstraint):
    """The pair's step kernel, built on the first step with this model and
    kept on con, one per model."""
    kernel = con._step.get(model)
    if kernel is None:
        closed_loop = _closed_loop_kernel(model, con)
        try:
            kernel = con._step[model] = _step_kernel(closed_loop, model.n)
        except RecursionError:  # as for the closed loop's, a few frames short
            raise EvalError("RK4 step kernel is nested too deeply to compile") from None
    return kernel


def _raise_stage_error(model: MechanicalModel, con: AffineConstraint, failed: tuple,
                       state: State | None = None):
    """Raise the typed error of the stage that failed in a step kernel's
    result failed = (None, k, q, qdot): the closed-loop field's at (q, qdot)."""
    _, k, q, qd = failed
    _closed_loop(model, con)(q, qd, state)
    raise AssertionError(f"RK4 stage {k} failed at q={q}, qdot={qd}, where the closed loop holds")


def rk4_step(model: MechanicalModel, con: AffineConstraint, state: State, h: float) -> State:
    """One classical Runge-Kutta step of (qdot, closed-loop acceleration)."""
    if not 0.0 < h < math.inf:
        raise ValueError("step size must be positive and finite")
    check_compatible(model, con)
    model._check_state(state)
    kernel = _step(model, con)
    out = kernel(state.q, state.qdot, None, h, False)  # stage 1
    if out[0] is None:
        _raise_stage_error(model, con, out, state)
    out = kernel(state.q, state.qdot, out[2], h, False)
    if out[0] is None:
        _raise_stage_error(model, con, out)
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
    check_compatible(model, con)
    model._check_state(state0)

    steps = t_end / h
    if steps == math.inf:
        raise ValueError(f"t_end / step size overflows ({t_end!r} / {h!r})")
    n_steps = max(1, int(round(steps)))
    kernel = _step(model, con)
    out = kernel(state0.q, state0.qdot, None, h, True)  # stage 1 of step 1
    if out[0] is None:
        _raise_stage_error(model, con, out, state0)
    q, qd, a, tau = out
    times = [0.0]
    states = [state0]
    controls = [tau]
    phis = [tuple(con.phi(state0))]

    for step in range(1, n_steps + 1):
        out = kernel(q, qd, a, h, True)
        if out[0] is None:
            if out[1] == 0:
                raise IntegrationError(
                    f"non-finite state at step {step}", last_good_index=len(times) - 1
                )
            try:
                _raise_stage_error(model, con, out)
            except (TransversalityError, SPDError, EvalError) as err:
                raise IntegrationError(
                    f"aborted at step {step}: {err}", last_good_index=len(times) - 1
                ) from err
        q, qd, a, tau = out
        if step % sample_every == 0 or step == n_steps:
            state = State(q=q, qdot=qd)
            times.append(step * h)
            states.append(state)
            controls.append(tau)
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
