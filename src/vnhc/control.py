"""Feedback synthesis: solve P(q) tau = b(v_q) for the unique control that
keeps the affine constraint set invariant, and the closed-loop field.

P has entries mu^b(Y^a) and depends on q only; b collects the derivative
of phi along the drift.  The law is defined wherever P is invertible, on
or off the constraint set; off the set it conserves phi at its initial
value instead of nulling it.

The closed-loop views (`solve_control`, `tau_star`,
`closed_loop_acceleration`) make one call of a kernel generated per
(model, constraint) pair: straight-line code with the model's, force's
and constraint's expressions (common subexpressions computed once across
all three), the metric's Cholesky factor, the input fields Y = G^-1
coframe, P = S Y, its pivoted LU and cond_1, the drift G^-1 (F - dV - w),
b = -(S drift + c), tau and the acceleration, all inline.  What of that
depends on no input, such as the whole metric block of a constant
metric, is computed once when the source is made (`linalg._fold`).  The
RK4 step kernel of `sim` runs the same folded statements at each stage.
Its field is built on the first closed-loop call with a model and kept on
the constraint, so loading a model does not pay for it; the statements
are folded and the source compiled once per distinct pair per process
(`linalg._fold`, `linalg._define`), so a pair built again from the same
model text reuses both.  No other code computes a closed-loop result.

The kernel's metric and P blocks, with every gate (metric SPD and
condition, exactly singular P, pivot, P condition, a non-finite cond),
come from one statement generator, `constraint._gate_lines`, which the
pair's q-only kernel shares.  Where a gate fails the closed-loop kernel
returns None.  There, and where a math error is raised, the field calls
the q-only kernel at q, which reports the failed gate on the same
numbers, and `_admissible` raises the typed error with its message; the
force's own kernel names a math error in F.  The q-only views
(`p_matrix`, `transversality_check`, `vnhc check`) never evaluate the
external force, which may be singular at rest (Coulomb friction).
`b_vector` needs no invertible P: it contracts the model's drift with the
constraint's kernel.  The integrator re-solves the control at every RK4
stage, and the tau it samples is the next step's stage-1 solve; where a
stage fails, the field at that stage's state raises its typed error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import expr as ex
from . import linalg
from .constraint import (AffineConstraint, _bind, _dot, _gate_lines, _p_system, _QOnly, _verdict,
                         check_compatible)
from .expr import EvalError
from .geometry import MechanicalModel, State


class TransversalityError(RuntimeError):
    """P(q) singular or too ill-conditioned; no admissible control."""

    def __init__(self, message: str, q=None, state=None, cond=None):
        super().__init__(message)
        self.q = q
        self.state = state
        self.cond = cond


@dataclass(frozen=True)
class ControlSolve:
    P: tuple  # rows of the m x m system matrix
    b: tuple
    tau: tuple
    cond_estimate: float


def _admissible(k: _QOnly, q, state=None) -> _QOnly:
    error, cond = _verdict(k, q)
    if error is not None:
        raise TransversalityError(error, q=tuple(q), state=state, cond=cond)
    return k


def _closed_loop_body(model: MechanicalModel, con: AffineConstraint) -> tuple[str, ...]:
    """The closed-loop kernel's statements over the locals _a0 .. _a<2n-1>
    holding (q, qd): the model's, force's and constraint's expressions
    with common subexpressions computed once, then the factorizations and
    solves, from the generators of `linalg`.  They bind the acceleration
    d<i>, tau t<a>, b<b>, P<b>_<a> and cond; a failing gate runs `return
    None`.  The gates are those of the q-only kernel, on the same numbers,
    so the statements fail exactly where that kernel reports a failed gate."""
    n, m = model.n, con.m
    mu, _, dphi = con._exprs  # Z is not needed
    lines, ((G, coframe, dV, w), F, S, c), _ = ex._emit(
        [model._exprs, model._force, mu, dphi], model.coordinates + model.velocities)
    gates, solves = _closed_loop_blocks(n, m)
    return (*lines, *_bind(G, coframe, S),
            *(f"d{i} = ({F[i]} - {dV[i]}) - {w[i]}" for i in range(n)),  # G^-1 (F - dV - w)
            *gates, *(f"b{b} = -({_dot(f'S{b}_', 'd', n)} + {c[b]})" for b in range(m)), *solves)


@functools.cache
def _closed_loop_blocks(n: int, m: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The closed-loop statements that depend on the size only: the metric
    and P blocks with the drift's solve, which b = -(S drift + c) reads; and
    tau with acc = drift + tau_a Y^a."""
    gates = (*_gate_lines(n, m, lambda gate: "return None"), *linalg._cho_solve_lines(n, "l", "d"))
    solves = linalg._lu_solve_lines(m, "u", "p", f"({linalg._vector('b', m)},)", "t")
    for a in range(m):
        solves += [f"if t{a} != 0.0:", *(f"    d{i} = d{i} + t{a} * y{a}_{i}" for i in range(n))]
    return gates, tuple(solves)


def _closed_loop_source(model: MechanicalModel, con: AffineConstraint) -> list[str]:
    """Source of kernel(q, qd) -> (acc, tau, b, P, cond), or None where a
    gate fails: the pair's closed-loop statements, folded (`linalg._fold`)."""
    n, m = model.n, con.m
    result = (*(f"d{i}" for i in range(n)), *(f"t{a}" for a in range(m)),  # acc, tau, b, P, cond
              *(f"b{b}" for b in range(m)), *(f"P{b}_{a}" for b in range(m) for a in range(m)), "cond")
    lines, out = linalg._fold(_closed_loop_body(model, con), result)
    acc, tau, b = (", ".join(out[k:k + size]) for k, size in ((0, n), (n, m), (n + m, m)))
    P = ", ".join(f"[{', '.join(out[k:k + m])}]" for k in range(n + 2 * m, len(out) - 1, m))
    return linalg._kernel_source(
        "q, qd", [f"{linalg._vector('_a', n)}, = q",
                  ", ".join(f"_a{n + i}" for i in range(n)) + ", = qd", *lines],
        f"[{acc}], [{tau}], [{b}], [{P}], {out[-1]}")


def _compile_closed_loop(model: MechanicalModel, con: AffineConstraint):
    return linalg._define("\n".join(_closed_loop_source(model, con)))


def _closed_loop_kernel(model: MechanicalModel, con: AffineConstraint):
    """The pair's compiled closed-loop kernel.  A pair whose expressions are
    too deep to compile here, a few stack frames short of the limit that
    loading met, is an EvalError."""
    try:
        return _compile_closed_loop(model, con)
    except RecursionError:
        raise EvalError("closed-loop kernel is nested too deeply to compile") from None


def _closed_loop(model: MechanicalModel, con: AffineConstraint):
    """field(q, qd, state=None) -> (acc, tau, b, P, cond) for this pair,
    built on the first call with this model and kept on con, one per
    model.  Where the kernel declines (returns None: a gate failed) or
    meets a math error, the q-only kernel at q and then the force's own
    kernel at (q, qd) raise the typed error with its message: the closed
    loop's gates are the q-only kernel's, and a math error in w or c at qd
    is one at rest, since their velocities only multiply."""
    field = con._closed_loop.get(model)
    if field is None:
        kernel = _closed_loop_kernel(model, con)

        def field(q, qd, state=None):
            try:
                out = kernel(q, qd)
            except (ArithmeticError, ValueError):
                out = None
            if out is None:
                _admissible(_p_system(model, con, q), q, state)
                model._force_fn(*q, *qd)
                raise AssertionError(f"closed-loop kernel declined q={q}, qdot={qd}, "
                                     "where every gate holds")
            return out

        con._closed_loop[model] = field
    return field


def p_matrix(model: MechanicalModel, con: AffineConstraint, q) -> list[list[float]]:
    """System matrix with entries mu^b(q)(Y^a); velocity-independent."""
    check_compatible(model, con)
    return _admissible(_p_system(model, con, q), q).P


def b_vector(model: MechanicalModel, con: AffineConstraint, state: State) -> list[float]:
    """Right-hand side b = -(S drift + c): minus the derivative of phi along
    the drift field; needs no invertible P."""
    check_compatible(model, con)
    drift = model.drift_acceleration(state)
    S, _, c = con._kernel(*state.q, *state.qdot)
    b = [-(linalg.dot(row, drift) + cb) for row, cb in zip(S, c)]
    _finite(state, b=b)
    return b


def _finite(state: State, **vectors):
    """The single-state views' check that each named vector is finite, in
    order; integrate checks its states instead, so RK4 stages skip this."""
    for name, v in vectors.items():
        if not all(map(math.isfinite, v)):
            raise EvalError(f"{name} {tuple(v)} is not finite at q={state.q}, qdot={state.qdot}")


def _checked(model: MechanicalModel, con: AffineConstraint, state: State) -> tuple:
    check_compatible(model, con)
    model._check_state(state)
    out = _closed_loop(model, con)(state.q, state.qdot, state)
    acc, tau, b = out[:3]
    # A non-finite b or tau always reaches acc (0 * inf is NaN): one sum
    # screens all three, and _finite names the first bad one.
    if not math.isfinite(sum(acc)):
        _finite(state, b=b, tau=tau, acceleration=acc)
    return out


def solve_control(
    model: MechanicalModel, con: AffineConstraint, state: State
) -> ControlSolve:
    """Assemble and solve P tau = b at one state."""
    _, tau, b, P, cond = _checked(model, con, state)
    return ControlSolve(
        P=tuple(tuple(row) for row in P),
        b=tuple(b),
        tau=tuple(tau),
        cond_estimate=cond,
    )


def tau_star(model: MechanicalModel, con: AffineConstraint, state: State) -> list[float]:
    """The unique control keeping phi constant along the closed loop."""
    return _checked(model, con, state)[1]


def closed_loop_acceleration(
    model: MechanicalModel, con: AffineConstraint, state: State
) -> list[float]:
    """Drift acceleration plus tau*_a Y^a: the controlled second-order field."""
    return _checked(model, con, state)[0]
