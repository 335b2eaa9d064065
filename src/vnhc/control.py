"""Feedback synthesis: solve P(q) tau = b(v_q) for the unique control that
keeps the affine constraint set invariant, and the closed-loop field.

P has entries mu^b(Y^a) and depends on q only; b collects the derivative
of phi along the drift.  The law is defined wherever P is invertible, on
or off the constraint set; off the set it conserves phi at its initial
value instead of nulling it.

Each (model, constraint) pair has one generated kernel of (q, qdot), the
RK4 step kernel, and it is the only code that computes a closed-loop
result.  At each RK4 stage it runs the same straight-line statements,
written once in a loop over the stages: the model's, force's and
constraint's expressions (common subexpressions computed once across all
three), the metric's Cholesky factor, the input fields Y = G^-1 coframe,
P = S Y, its pivoted LU and cond_1, the drift G^-1 (F - dV - w),
b = -(S drift + c), tau and the acceleration.  What of that depends on
no input, such as the whole metric block of a constant metric, is
computed once, as the statement generators write the source
(`linalg._Block`).  The closed-loop views
(`solve_control`, `tau_star`, `closed_loop_acceleration`) make one call
of its stage 1 alone, which also returns b, P and cond; `sim` calls the
whole step.  The kernel is built on the first closed-loop call with a
model and kept on the constraint, so loading a model does not pay for
it; a model text loaded again gives back the pair built from it
(`model_io.load_model`), so it generates, folds and compiles nothing, and
a pair built again from the same expressions compiles nothing
(`linalg._define` compiles once per distinct source).

The kernel's metric and P blocks, with every gate (metric SPD and
condition, exactly singular P, pivot, P condition, a non-finite cond),
come from one statement generator, `constraint._gate_lines`, which the
pair's q-only kernel shares.  Where a stage's gate fails or it meets a
math error, the kernel returns that stage's state, and `_raise_failure`
raises the typed error there for the views and for `sim` alike: the
q-only kernel at q reports the failed gate on the same numbers
(`constraint._p_system`) and `_admissible` gives its message, then the
force's own kernel names a math error in F.  `_stage1`, stage 1 at a
state or its typed error, is the one entry for the views and for `sim`'s
first stage.  The q-only views (`p_matrix`, `transversality_check`,
`vnhc check`) never evaluate the external force, which may be singular
at rest (Coulomb friction).  `b_vector` needs no invertible P: it
contracts the model's drift with the constraint's kernel.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import expr as ex
from . import linalg
from .linalg import _bin, _Block, _list, _Src, _text, _unary
from .constraint import (AffineConstraint, _bind, _built, _dot, _gate_lines, _p_system,
                         _QOnly, _verdict, check_compatible)
from .expr import EvalError
from .geometry import MechanicalModel, State


class TransversalityError(RuntimeError):
    """P(q) singular or too ill-conditioned; no admissible control."""

    def __init__(self, message: str, q=None, state=None, cond=None):
        super().__init__(message)
        self.q = q
        self.state = state
        self.cond = cond


# P: the rows of the m x m system matrix
ControlSolve = namedtuple("ControlSolve", "P b tau cond_estimate")


def _admissible(k: _QOnly, q, state=None) -> _QOnly:
    error, cond = _verdict(k, q)
    if error is not None:
        raise TransversalityError(error, q=tuple(q), state=state, cond=cond)
    return k


def _closed_loop_body(model: MechanicalModel, con: AffineConstraint):
    """The closed-loop statements, which the step kernel runs at each RK4
    stage, over the locals _a0 .. _a<2n-1> holding (q, qd): the model's,
    force's and constraint's expressions with common subexpressions
    computed once, then the factorizations and solves, from the generators
    of `linalg`, folded as they are written.  Returns them
    and the values of [acc], [tau], [b], [P rows] and cond after them; a
    failing gate runs `return None`.  The gates are those of the q-only
    kernel, on the same numbers, so the statements fail exactly where that
    kernel reports a failed gate."""
    n, m = model.n, con.m
    r, rm = range(n), range(m)
    mu, _, dphi = con._exprs  # Z is not needed
    lines, ((G, coframe, dV, w), F, S, c), _ = ex._emit(
        [model._exprs, model._force, mu, dphi], model.coordinates + model.velocities)
    block = _Block()
    block.lines += lines
    _bind(block, G, coframe, S)
    for i in r:  # G^-1 (F - dV - w), the drift
        block[f"d{i}"] = _bin(_bin(F[i], "-", dV[i]), "-", w[i])
    _gate_lines(block, n, m, lambda gate: "return None")
    linalg._cho_solve_lines(block, n, "l", "d")
    for b in rm:  # b = -(S drift + c)
        block[f"b{b}"] = _unary("-", _bin(_dot(block, f"S{b}_", "d", n), "+", c[b]))
    linalg._lu_solve_lines(block, m, "u", "p", [block[f"b{b}"] for b in rm], "t")

    def accelerate(then, a: int):  # d += t_a Y^a
        for i in r:
            then[f"d{i}"] = _bin(then[f"d{i}"], "+", _bin(then[f"t{a}"], "*", then[f"y{a}_{i}"]))

    for a in rm:  # acc = drift + tau_a Y^a
        block.when(_bin(block[f"t{a}"], "!=", 0.0), lambda then, a=a: accelerate(then, a),
                   names=[f"d{i}" for i in r])
    P = [[block[f"P{b}_{a}"] for a in rm] for b in rm]
    return block.lines, [[block[f"d{i}"] for i in r], [block[f"t{a}"] for a in rm],
                         [block[f"b{b}"] for b in rm], P, block["cond"]]


def _step_source(model: MechanicalModel, con: AffineConstraint) -> str:
    """Source of kernel(q, v, a, h, more), the pair's one closed-loop kernel:
    the pair's closed-loop statements, folded as they are written, once, in
    a loop over the RK4 stages, and the stage arithmetic between them.

    With a None: stage 1 at (q, v) alone, returning ([acc], [tau], [b],
    [P rows], cond) there; h and more are not read.  With a the stage-1
    acceleration at (q, v): stages 2, 3 and 4 and the step's end (q1, v1),
    whose sums v + 2 k2 + 2 k3 + k4 are added up stage by stage in that
    order, so each result has the bits of the classical formula; then, with
    more and a finite end, stage 1 at the end, returning (q1, v1, acc, tau)
    there, and without more (q1, v1, None, None).  Where a
    stage's gate fails or it meets a math error, the kernel returns (None,
    k, q_k, qdot_k) for stage k at (q_k, qdot_k), k = 0 for an end that is
    not finite."""
    return _step_text(*_closed_loop_body(model, con))


def _step_text(lines: list[str], outputs: list) -> str:
    """Source of the step kernel from the closed-loop statements lines and
    the values outputs of [acc], [tau], [b], [P rows] and cond after them:
    one copy of lines, run for each stage k in a loop over the stages."""
    acc = [_text(x) for x in outputs[0]]
    n = len(acc)

    def each(*texts) -> tuple:  # texts at each coordinate i; qdot_i is _a{j}, acc_i is {d}
        return tuple(_Src(text.format(i=i, j=n + i, d=acc[i])) for text in texts for i in range(n))

    xs, vs, qs, qds = (_list(each(text)) for text in ("x{i}", "v{i}", "_a{i}", "_a{j}"))
    failed = f"return None, k, {qs}, {qds}"
    # x - x is 0.0 for a finite x and NaN for inf and NaN, so the sum is 0.0
    # exactly where every entry is finite
    finite = " + ".join(each("(x{i} - x{i})", "(v{i} - v{i})"))
    # sx and sv are the sums of the slopes that the step's end adds up, and
    # stage k + 1 is at the velocity v + dt acc and the position x + dt
    # (stage k's velocity)
    body = [
        "if a is None:", "    stages = (1,)", f"    {qs} = q", f"    {qds} = v", "else:",
        "    stages = (2, 3, 4, 1)", "    h2, h6 = 0.5 * h, h / 6.0", f"    {xs} = q",
        f"    {vs} = v", f"    {_list(each('sx{i}'))} = v", f"    {_list(each('sv{i}'))} = a",
        *each("    _a{i} = x{i} + h2 * v{i}", "    _a{j} = v{i} + h2 * sv{i}"),
        "for k in stages:", "    try:",
        *(f"        {line}".replace("return None", failed) for line in lines or ["pass"]),
        "    except (ArithmeticError, ValueError):", f"        {failed}",
        "    if k == 1:", "        if a is None:",
        f"            return {', '.join(map(_list, outputs))}",
        f"        return {xs}, {vs}, {_list(tuple(outputs[0]))}, {_list(tuple(outputs[1]))}",
        "    if k == 4:",
        *each("        x{i} = x{i} + h6 * (sx{i} + _a{j})",
              "        v{i} = v{i} + h6 * (sv{i} + {d})"),
        "        if not more:", f"            return {xs}, {vs}, None, None",
        f"        if {finite} != 0.0:", f"            return None, 0, {xs}, {vs}",
        *each("        _a{i} = x{i}", "        _a{j} = v{i}"),
        "    else:",
        *each("        sx{i} = sx{i} + 2.0 * _a{j}", "        sv{i} = sv{i} + 2.0 * {d}"),
        "        dt = h2 if k == 2 else h",
        *each("        _a{i} = x{i} + dt * _a{j}", "        _a{j} = v{i} + dt * {d}")]
    return "\n".join(["def kernel(q, v, a, h, more):", *(f"    {line}" for line in body)])


def _step(model: MechanicalModel, con: AffineConstraint):
    """The pair's compiled step kernel, built on the first closed-loop call
    with this model and kept on con, one per model."""
    return con._step.get(model) or _built(con._step, model, lambda: _step_source(model, con),
                                          "closed-loop")


def _raise_failure(model: MechanicalModel, con: AffineConstraint, q, qd, state=None):
    """Raise the typed error of a closed-loop evaluation at (q, qd) where
    the step kernel failed: the q-only kernel's at q (`_p_system`, then the
    P gates' verdict), then the force's own kernel's at (q, qd).  The
    closed loop's gates are the q-only kernel's, and a math error in w or c
    at qd is one at rest, since their velocities only multiply."""
    _admissible(_p_system(model, con, q), q, state)
    model._force_fn(*q, *qd)
    raise AssertionError(f"closed-loop kernel failed at q={q}, qdot={qd}, where every gate holds")


def _stage1(model: MechanicalModel, con: AffineConstraint, state: State) -> tuple:
    """Stage 1 of the pair's step kernel at state, checked: its ([acc],
    [tau], [b], [P rows], cond) there, or the typed error of its failure."""
    check_compatible(model, con)
    model._check_state(state)
    out = _step(model, con)(state.q, state.qdot, None, None, False)
    if out[0] is None:
        _raise_failure(model, con, state.q, state.qdot, state)
    return out


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
    out = _stage1(model, con, state)
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
    return ControlSolve(tuple(map(tuple, P)), tuple(b), tuple(tau), cond)


def tau_star(model: MechanicalModel, con: AffineConstraint, state: State) -> list[float]:
    """The unique control keeping phi constant along the closed loop."""
    return _checked(model, con, state)[1]


def closed_loop_acceleration(
    model: MechanicalModel, con: AffineConstraint, state: State
) -> list[float]:
    """Drift acceleration plus tau*_a Y^a: the controlled second-order field."""
    return _checked(model, con, state)[0]
