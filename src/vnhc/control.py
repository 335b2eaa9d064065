"""Feedback synthesis: solve P(q) tau = b(v_q) for the unique control that
keeps the affine constraint set invariant, and the closed-loop field.

P has entries mu^b(Y^a) and depends on q only; b collects the derivative
of phi along the drift.  The law is defined wherever P is invertible, on
or off the constraint set; off the set it conserves phi at its initial
value instead of nulling it.

Each (model, constraint) pair has one generated kernel of (q, qdot), the
RK4 step kernel, and it is the only code that computes a closed-loop
result.  At each RK4 stage it runs the same straight-line statements:
the model's, force's and constraint's expressions (common subexpressions
computed once across all three), the metric's Cholesky factor, the input
fields Y = G^-1 coframe, P = S Y, its pivoted LU and cond_1, the drift
G^-1 (F - dV - w), b = -(S drift + c), tau and the acceleration, all
inline.  What of that depends on no input, such as the whole metric
block of a constant metric, is computed once when the source is made
(`linalg._fold`).  The closed-loop views (`solve_control`, `tau_star`,
`closed_loop_acceleration`) make one call of its stage 1 alone, which
also returns b, P and cond; `sim` calls the whole step.  The kernel is
built on the first closed-loop call with a model and kept on the
constraint, so loading a model does not pay for it; the statements are
folded, the step source made and compiled once per distinct pair per
process (`linalg._fold`, `_step_text`, `linalg._define`), so a pair
built again from the same model text reuses all three.

The kernel's metric and P blocks, with every gate (metric SPD and
condition, exactly singular P, pivot, P condition, a non-finite cond),
come from one statement generator, `constraint._gate_lines`, which the
pair's q-only kernel shares.  Where a stage's gate fails or it meets a
math error, the kernel returns that stage's state, and `_raise_failure`
raises the typed error there for the views and for `sim` alike: the
q-only kernel at q reports the failed gate on the same numbers and
`_admissible` gives its message, then the force's own kernel names a
math error in F.  The q-only views (`p_matrix`, `transversality_check`,
`vnhc check`) never evaluate the external force, which may be singular
at rest (Coulomb friction).  `b_vector` needs no invertible P: it
contracts the model's drift with the constraint's kernel.
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
    """The closed-loop statements, which the step kernel runs at each RK4
    stage, over the locals _a0 .. _a<2n-1> holding (q, qd): the model's, force's and constraint's expressions
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


@functools.lru_cache(maxsize=linalg.DEFINE_CACHE_SIZE)
def _step_text(lines: tuple[str, ...], out: tuple[str, ...], n: int, m: int) -> str:
    """Source of the step kernel from the folded closed-loop statements
    lines and the sources out of (acc, tau, b, P, cond) after them, once per
    distinct folded text per process."""
    r = range(n)
    acc, tau, b = out[:n], out[n:n + m], out[n + m:n + 2 * m]
    P = ", ".join(f"[{', '.join(out[k:k + m])}]" for k in range(n + 2 * m, len(out) - 1, m))
    views = f"[{', '.join(acc)}], [{', '.join(tau)}], [{', '.join(b)}], [{P}], {out[-1]}"

    def vec(text: str) -> str:  # the tuple of text.format(i) over the coordinates
        return "(" + "".join(text.format(i) + ", " for i in r) + ")"

    def stage(k: int, q: str, v: str) -> list[str]:
        """Stage k at the state of the sources q.format(i), v.format(i)."""
        failed = f"return None, {k}, {vec('_a{0}')}, ({''.join(f'_a{n + i}, ' for i in r)})"
        return ["try:", *(f"    _a{i} = {q.format(i)}" for i in r),
                *(f"    _a{n + i} = {v.format(i)}" for i in r),
                *(f"    {line}".replace("return None", failed) for line in lines),  # the gates
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
    return "\n".join(linalg._kernel_source(
        "q, v, a, h, more",
        [f"{vec('x{0}')} = q", f"{vec('v{0}')} = v", "if a is not None:",
         *(f"    {line}" for line in rk4), *stage(1, "x{0}", "v{0}"),
         "if a is None:", f"    return {views}"],
        f"{end}, ({''.join(f'{e}, ' for e in acc)}), ({''.join(f'{e}, ' for e in tau)})"))


def _step_source(model: MechanicalModel, con: AffineConstraint) -> str:
    """Source of kernel(q, v, a, h, more), the pair's one closed-loop kernel:
    the RK4 stage arithmetic with the pair's closed-loop statements, folded
    (`linalg._fold`), inline at each stage.

    With a None: stage 1 at (q, v) alone, returning ([acc], [tau], [b],
    [P rows], cond) there; h and more are not read.  With a the stage-1
    acceleration at (q, v): stages 2, 3 and 4 and the step's end (q1, v1),
    the same operations in the same order as loops over the coordinates;
    then, with more and a finite end, stage 1 at the end, returning (q1, v1,
    acc, tau) there, and without more (q1, v1, None, None).  Where a
    stage's gate fails or it meets a math error, the kernel returns (None,
    k, q_k, qdot_k) for stage k at (q_k, qdot_k), k = 0 for an end that is
    not finite."""
    n, m = model.n, con.m
    outputs = (*(f"d{i}" for i in range(n)), *(f"t{a}" for a in range(m)),  # acc, tau, b, P, cond
               *(f"b{b}" for b in range(m)), *(f"P{b}_{a}" for b in range(m) for a in range(m)),
               "cond")
    return _step_text(*linalg._fold(_closed_loop_body(model, con), outputs), n, m)


def _step(model: MechanicalModel, con: AffineConstraint):
    """The pair's compiled step kernel, built on the first closed-loop call
    with this model and kept on con, one per model.  A pair whose
    expressions are too deep to compile here, a few stack frames short of
    the limit that loading met, is an EvalError."""
    kernel = con._step.get(model)
    if kernel is None:
        try:
            kernel = con._step[model] = linalg._define(_step_source(model, con))
        except RecursionError:
            raise EvalError("closed-loop kernel is nested too deeply to compile") from None
    return kernel


def _raise_failure(model: MechanicalModel, con: AffineConstraint, q, qd, state=None):
    """Raise the typed error of a closed-loop evaluation at (q, qd) where
    the step kernel failed: the q-only kernel's at q, then the force's own
    kernel's at (q, qd).  The closed loop's gates are the q-only kernel's,
    and a math error in w or c at qd is one at rest, since their velocities
    only multiply."""
    _admissible(_p_system(model, con, q), q, state)
    model._force_fn(*q, *qd)
    raise AssertionError(f"closed-loop kernel failed at q={q}, qdot={qd}, where every gate holds")


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
    out = _step(model, con)(state.q, state.qdot, None, None, False)
    if out[0] is None:
        _raise_failure(model, con, state.q, state.qdot, state)
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
