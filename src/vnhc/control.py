"""Feedback synthesis: solve P(q) tau = b(v_q) for the unique control that
keeps the affine constraint set invariant, and the closed-loop field.

P has entries mu^b(Y^a) and depends on q only; b collects the derivative
of phi along the drift.  The law is defined wherever P is invertible, on
or off the constraint set; off the set it conserves phi at its initial
value instead of nulling it.

Each (model, constraint) pair has one generated kernel of (q, qdot), the
RK4 step kernel (`_step_source` states its protocol), and it is the only
code that computes a closed-loop result.  At each stage it runs the same
straight-line statements: the model's, force's and constraint's
expressions, the metric's Cholesky factor, Y = G^-1 coframe, P = S Y,
its pivoted LU and cond_1, the drift, b = -(S drift + c), tau and the
acceleration, with what depends on no input computed once, as the source
is written (`linalg._Block`), and the terms of its sums known to be zero
dropped, which moves only signed zeros and the kind of a value already not
finite, and no gate.  The metric and P blocks, with every gate, come from
`constraint._gate_lines`, which the pair's q-only kernel shares and folds
by the same rules, so both kernels run the same statements there.

The kernel is built on the first closed-loop call with a model and kept
on the constraint (`_step`), which checks the pair (`check_compatible`)
right before the build, so a warm call checks nothing about the pair
again.  `_stage1`, stage 1 at a state or its typed error, is the one
entry of the views (`solve_control`, `tau_star`,
`closed_loop_acceleration`) and of `sim`'s start.  The views' stage 1
also runs the lines that Z alone needs, so the views refuse a q where Z
has no value, as the q-only views and a run's start do; the stages
between a run's samples do not run them.  Where the kernel fails,
`_raise_failure` raises the typed error from the q-only kernel at q
(`constraint._p_system`, judged by `_verdict`), which names the first
failure in the views' order, and where that kernel's record is
admissible, from the step kernel's own failure: the math error it
returns, named by the line that raised, which can then only be the
force's (`expr._math_error`).  Nothing else is built or run.  The q-only
views (`p_matrix`, `transversality_check`, `vnhc check`) never evaluate
the external force, which may be singular at rest (Coulomb friction).
`b_vector` needs no invertible P: it contracts the model's drift with
the constraint's kernel.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import expr as ex
from . import linalg
from .linalg import _bin, _Block, _list, _Src, _text, _unary
from .constraint import (AffineConstraint, _built, _dot, _gate_lines, _p_system, _QOnly,
                         _verdict, check_compatible)
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
    of `linalg`, folded as they are written.  Returns them, the values of
    [acc], [tau], [b], [P rows] and cond after them, and phi = S qd + Z at a
    sample: the statements that only Z needs, run after stage 1 there and
    in the views' stage 1, and the values of [phi] after them, each S_b qd
    added left to right from 0, then Z_b, as `con.phi` adds them.  A
    failing gate runs `return None`; the gates are those of the q-only
    kernel, on the same numbers, so the statements fail exactly where that
    kernel reports a failed gate.

    One emission gives every expression, Z last, so the lines that the
    stages need come first.  The lines from the first one whose node no
    stage root reaches are Z's alone, and no stage between samples runs
    them."""
    n, m = model.n, con.m
    r, rm = range(n), range(m)
    mu, Z, dphi = con._exprs
    stage = [model._exprs, model._force, mu, dphi]
    lines, ((G, coframe, dV, w), F, S, c, Z), nodes = ex._emit(
        [*stage, Z], model.coordinates + model.velocities)
    reached = ex._leaves(stage)[2]
    head = next((i for i, node in enumerate(nodes) if id(node) not in reached), len(lines))
    block = _Block()
    block.lines += lines[:head]
    for i in r:  # G^-1 (F - dV - w), the drift
        block[f"d{i}"] = _bin(_bin(F[i], "-", dV[i]), "-", w[i])
    _gate_lines(block, n, m, lambda gate: "return None", G, coframe, (), S)
    linalg._cho_solve_lines(block, n, "l", "d")
    for b in rm:  # b = -(S drift + c), S finite past P's gate
        block[f"b{b}"] = _unary("-", _bin(_dot(block, f"S{b}_", "d", n, finite=True), "+", c[b]))
    linalg._lu_solve_lines(block, m, "u", "p", [block[f"b{b}"] for b in rm], "t")

    def accelerate(then, a: int):  # d += t_a Y^a
        for i in r:
            then[f"d{i}"] = _bin(then[f"d{i}"], "+", _bin(then[f"t{a}"], "*", then[f"y{a}_{i}"]))

    for a in rm:  # acc = drift + tau_a Y^a
        block.when(_bin(block[f"t{a}"], "!=", 0.0), lambda then, a=a: accelerate(then, a),
                   names=[f"d{i}" for i in r])
    P = [[block[f"P{b}_{a}"] for a in rm] for b in rm]
    qd = [_Src(f"_a{n + i}") for i in r]
    phi = [_bin(block.sum("+", 0.0, [(block[f"S{b}_{i}"], qd[i]) for i in r]), "+", Z[b])
           for b in rm]
    return block.lines, [[block[f"d{i}"] for i in r], [block[f"t{a}"] for a in rm],
                         [block[f"b{b}"] for b in rm], P, block["cond"]], (lines[head:], phi), nodes


def _step_source(model: MechanicalModel, con: AffineConstraint) -> str:
    """Source of kernel(q, v, a, h, more), the pair's one closed-loop kernel,
    which every closed-loop result comes from: the pair's closed-loop
    statements (`_closed_loop_body`), folded as they are written, once, in
    a loop over the RK4 stages and steps, the stage arithmetic between
    them, and the statements of phi at a sample.

    - a and h None: stage 1 and the statements that Z alone needs at (q,
      v), returning ([acc], [tau], [b], [P rows], cond) there, for the
      views.
    - a None, h given and more 1: a run's start record, stage 1 and phi at
      (q, v), returning (q, v, acc, tau, phi) there; h is not read.
    - a the stage-1 acceleration at (q, v) and more false: stages 2, 3 and
      4 and the step's end, returning (q1, v1), whose sums v + 2 k2 + 2 k3
      + k4 are added up stage by stage in that order, so each result has
      the bits of the classical formula.
    - a given and more a count of steps: one sample interval, that many
      steps, each ended by the test that its end is finite and by stage 1
      there, whose acceleration starts the next step; after the last, phi
      there, returning the record (q1, v1, acc, tau, phi) at the last end.

    phi = S qdot + Z is computed from the S of stage 1 at the record's
    state and the statements that Z alone needs, which run there and at
    the views' stage 1, so the views share the q-only kernel's domain; no
    stage between samples evaluates what only phi needs, so phi between
    samples never fails a run.  Where a stage's gate fails or it meets a
    math error (phi's at a record included), the kernel returns (None, k,
    q_k, qdot_k, more, error) for stage k at (q_k, qdot_k), k = 0 for an
    end that is not finite, more the count of steps left, the failing one
    included (as given where a is None or more is false), and error the
    math error caught, whose traceback holds the kernel's line that raised
    (None for a failed gate or an end that is not finite);
    `_raise_failure` raises the typed error there.  The kernel's line ->
    node table (`expr._table`) is kept on con."""
    *body, nodes = _closed_loop_body(model, con)
    source = _step_text(*body)
    con._tables["closed-loop", model] = ex._table(source.splitlines(), nodes)
    return source


def _step_text(lines: list[str], outputs: list, sample: tuple) -> str:
    """Source of the step kernel from the closed-loop statements lines, the
    values outputs of [acc], [tau], [b], [P rows] and cond after them, and
    sample, the statements of phi and its values (`_closed_loop_body`): one
    copy of lines, run for each stage k in a loop over the stages and the
    steps, and two copies of phi's statements, run at stage 1 where the
    views' outputs are returned (h None) and where the record is (more 1),
    whose state is the locals _a, which hold (q, v) at the start and a
    step's end alike.  No other stage runs them."""
    acc = [_text(x) for x in outputs[0]]
    n = len(acc)
    phi_lines, phi = [f"                {line}" for line in sample[0]], sample[1]

    def each(*texts) -> tuple:  # texts at each coordinate i; qdot_i is _a{j}, acc_i is {d}
        return tuple(_Src(text.format(i=i, j=n + i, d=acc[i])) for text in texts for i in range(n))

    xs, vs, qs, qds = (_list(each(text)) for text in ("x{i}", "v{i}", "_a{i}", "_a{j}"))
    # x - x is 0.0 for a finite x and NaN for inf and NaN, so the sum is 0.0
    # exactly where every entry is finite
    finite = " + ".join(each("(x{i} - x{i})", "(v{i} - v{i})"))
    # sx and sv are the sums of the slopes that the step's end adds up, and
    # stage k + 1 is at the velocity v + dt acc and the position x + dt
    # (stage k's velocity); a failing gate or a math error leaves the loop
    # at stage k, whose state the kernel returns, with the math error
    start = each("_a{i} = x{i} + h2 * v{i}", "_a{j} = v{i} + h2 * sv{i}")
    body = [
        "if a is None:", "    k = 1", f"    {qs} = q", f"    {qds} = v", "else:",
        "    k = 2", "    h2, h6 = 0.5 * h, h / 6.0", f"    {xs} = q", f"    {vs} = v",
        f"    {_list(each('sx{i}'))} = v", f"    {_list(each('sv{i}'))} = a",
        *(f"    {line}" for line in start),
        "try:", "    while True:",
        *(f"        {line}".replace("return None", "break") for line in lines or ["pass"]),
        "        if k == 1:", "            if h is None:", *phi_lines,
        f"                return {', '.join(map(_list, outputs))}",
        "            if more == 1:", *phi_lines,
        f"                return {qs}, {qds}, {_list(tuple(outputs[0]))}, "
        f"{_list(tuple(outputs[1]))}, {_list(tuple(phi))}",
        "            more = more - 1", "            k = 2",
        *each("            sx{i} = v{i}", "            sv{i} = {d}"),
        *(f"            {line}" for line in start),
        "        elif k == 4:",
        *each("            x{i} = x{i} + h6 * (sx{i} + _a{j})",
              "            v{i} = v{i} + h6 * (sv{i} + {d})"),
        "            if not more:", f"                return {xs}, {vs}",
        f"            if {finite} != 0.0:",
        f"                return None, 0, {xs}, {vs}, more, None",
        "            k = 1", *each("            _a{i} = x{i}", "            _a{j} = v{i}"),
        "        else:",
        *each("            sx{i} = sx{i} + 2.0 * _a{j}", "            sv{i} = sv{i} + 2.0 * {d}"),
        "            dt = h2 if k == 2 else h", "            k = k + 1",
        *each("            _a{i} = x{i} + dt * _a{j}", "            _a{j} = v{i} + dt * {d}"),
        "except (ArithmeticError, ValueError) as error:",
        f"    return None, k, {qs}, {qds}, more, error", f"return None, k, {qs}, {qds}, more, None"]
    return "\n".join(["def kernel(q, v, a, h, more):", *(f"    {line}" for line in body)])


def _step(model: MechanicalModel, con: AffineConstraint, state: State | None = None):
    """The pair's compiled step kernel, built on the first closed-loop call
    with this model and kept on con, one per model.  The pair is checked
    (`check_compatible`) here, on the cold path alone, right before the
    build: both are immutable and models hash by identity, so a kernel kept
    in con._step[model] proves the check passed.  Any failed lookup (con
    not an AffineConstraint, a model not yet built, an unhashable argument)
    takes the cold path and its typed error; a given state's q is checked
    after the pair, so its error too comes before a build."""
    try:
        return con._step[model]
    except (AttributeError, KeyError, TypeError):
        check_compatible(model, con)
        if state is not None:
            model._check_q(state.q)
        return _built(con._step, model, lambda: _step_source(model, con), "closed-loop")


def _raise_failure(model: MechanicalModel, con: AffineConstraint, q, error, state=None):
    """Raise the typed error of a closed-loop evaluation at q where the
    step kernel failed and returned error, the math error it caught or
    None: the q-only kernel's at q (`_p_system`, then its judgment,
    `_verdict`), which names the first failure in the views' order, then,
    where its record is admissible, the EvalError that names the step
    kernel's line that raised error.  The closed loop's gates are the
    q-only kernel's, on the same numbers, so error is then a math error;
    one in w or c at any qdot is one at rest, since their velocities only
    multiply: the operations that can raise take q alone, and each is a
    line of the q-only kernel (`expr._emit`), as is each line of Z.  So
    the step kernel's error can then only be the force's."""
    _admissible(_p_system(model, con, q), q, state)
    table = con._tables["closed-loop", model]
    raise ex._math_error(error, table.get(error.__traceback__.tb_lineno)) from None


def _stage1(model: MechanicalModel, con: AffineConstraint, state: State,
            h: float | None = None) -> tuple:
    """Stage 1 of the pair's step kernel at state, checked, or the typed
    error of its failure: without h, the views' ([acc], [tau], [b], [P
    rows], cond) there, screened finite; given a run's step h, the run's
    start record (q, qdot, acc, tau, phi), which integrate checks on its
    states instead.  The one entry of the views and of `integrate`'s start:
    warm, one lookup of the kernel (whose build checked the pair, `_step`),
    one length test and one kernel call, then the views' finite check."""
    try:
        kernel = con._step[model]
    except (AttributeError, KeyError, TypeError):
        kernel = _step(model, con, state)
    q = state.q
    if len(q) != model.n:
        model._check_q(q)
    out = kernel(q, state.qdot, None, h, 1)
    if out[0] is None:
        _raise_failure(model, con, q, out[5], state)
    # A non-finite b or tau always reaches acc (0 * inf is NaN): one sum
    # screens all three, and _finite names the first bad one.  Only whether
    # the sum is finite is used, which no order of summation changes.
    if h is None and not math.isfinite(sum(out[0])):
        _finite(state, b=out[2], tau=out[1], acceleration=out[0])
    return out


def p_matrix(model: MechanicalModel, con: AffineConstraint, q) -> list[list[float]]:
    """System matrix with entries mu^b(q)(Y^a); velocity-independent."""
    check_compatible(model, con)
    return _admissible(_p_system(model, con, q), q).P


def b_vector(model: MechanicalModel, con: AffineConstraint, state: State) -> list[float]:
    """Right-hand side b = -(S drift + c): minus the derivative of phi along
    the drift field; needs no invertible P.  It contracts the model's drift,
    whose per-size solve knows no zeros and keeps every term, so a b that is
    not finite can be NaN here where the step kernel's views report an
    infinity."""
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


def solve_control(model: MechanicalModel, con: AffineConstraint, state: State) -> ControlSolve:
    """Assemble and solve P tau = b at one state."""
    _, tau, b, P, cond = _stage1(model, con, state)
    return ControlSolve(tuple(map(tuple, P)), tuple(b), tuple(tau), cond)


def tau_star(model: MechanicalModel, con: AffineConstraint, state: State) -> list[float]:
    """The unique control keeping phi constant along the closed loop."""
    return _stage1(model, con, state)[1]


def closed_loop_acceleration(model: MechanicalModel, con: AffineConstraint,
                             state: State) -> list[float]:
    """Drift acceleration plus tau*_a Y^a: the controlled second-order field."""
    return _stage1(model, con, state)[0]
