"""Feedback synthesis: solve P(q) tau = b(v_q) for the unique control that
keeps the affine constraint set invariant, and the closed-loop field.

P has entries mu^b(Y^a) and depends on q only; b collects the derivative
of phi along the drift.  The law is defined wherever P is invertible, on
or off the constraint set; off the set it conserves phi at its initial
value instead of nulling it.

The closed-loop views (`solve_control`, `tau_star`,
`closed_loop_acceleration`, and `sim`'s RK4 stages) make one call of a
kernel generated per (model, constraint) pair: straight-line code with
the model's, force's and constraint's expressions (common subexpressions
computed once across all three), the metric's Cholesky factor, the input
fields Y = G^-1 coframe, P = S Y, its pivoted LU and cond_1, the drift
G^-1 (F - dV - w), b = -(S drift + c), tau and the acceleration, all
inline.  It is compiled on the first closed-loop call with a model and
kept on the constraint, so loading a model does not pay for it.  No
other code computes a closed-loop result.

Every gate (metric SPD and condition, exactly singular P, pivot, P
condition, a non-finite cond) is a branch in that kernel.  Where one
fails, or a math error is raised, the q-only path runs at the same state
and raises the typed error with its message: `_p_system` calls the
model's and the constraint's kernels once each, factors G and P once and
tests the same gates on the same numbers, and the force's own kernel
names a math error in F.  The q-only views (`p_matrix`,
`transversality_check`, `vnhc check`) use `_p_system` at qdot = 0 and
never evaluate the external force, which may be singular there (Coulomb
friction).  `b_vector` needs no invertible P: it contracts the model's
drift with the constraint's kernel.  The integrator re-solves the
control at every RK4 stage, and the tau it samples is the next step's
stage-1 solve.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain, repeat, starmap
from typing import NamedTuple

from . import expr as ex
from . import linalg
from .constraint import AffineConstraint, check_compatible
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


PIVOT_RTOL = 1e-12


class _PSystem(NamedTuple):
    """P(q) with its one LU factorization and the transversality verdict."""

    P: list
    lu: list | None  # None when P is exactly singular
    piv: list | None
    cond: float  # inf when P is singular or its smallest pivot is negligible
    error: str | None  # why no control exists at q; None when P is admissible


def _p_system(model: MechanicalModel, con: AffineConstraint, q, qd) -> _PSystem:
    """P at q from the model's and the constraint's kernels at (q, qd),
    factored, with its verdict; reports a bad P instead of raising."""
    g, coframe, _, _ = model._kernel(*q, *qd)
    L = model._factor(q, g)
    Y = list(map(linalg.cho_solve, repeat(L), coframe))
    S = con._kernel(*q, *qd)[0]
    P = [list(map(linalg.dot, repeat(Sb), Y)) for Sb in S]
    try:
        lu, piv = linalg.lu_factor(P)
        cond = linalg.cond1_from_lu(P, lu, piv)
        min_pivot = min(map(abs, map(operator.getitem, lu, range(con.m))))
    except linalg.SingularMatrixError:
        lu, piv, cond, min_pivot = None, None, math.inf, 0.0
    # A non-finite entry makes P singular or cond non-finite: only then is P checked.
    if not math.isfinite(cond) and not all(map(math.isfinite, chain.from_iterable(P))):
        raise EvalError(f"P matrix {P} is not finite at q={tuple(q)}")
    # The magnitude of P's entries before cancellation: the largest
    # constraint-row norm times the largest input-field norm.
    scale = max(starmap(math.hypot, S)) * max(starmap(math.hypot, Y))
    error = None
    if lu is None:
        error = f"singular P matrix at q={tuple(q)}"
    elif min_pivot <= PIVOT_RTOL * scale:
        cond = math.inf
        error = (
            f"numerically singular P matrix at q={tuple(q)} "
            f"(pivot {min_pivot:.3e} vs scale {scale:.3e})"
        )
    elif not cond <= linalg.CONDITION_CAP:  # NaN too, as the kernel's gate
        error = (
            f"P condition estimate {cond:.3e} exceeds {linalg.CONDITION_CAP:.0e} "
            f"at q={tuple(q)}"
        )
    return _PSystem(P, lu, piv, cond, error)


def _admissible(ps: _PSystem, q, state=None) -> _PSystem:
    if ps.error is not None:
        raise TransversalityError(ps.error, q=tuple(q), state=state, cond=ps.cond)
    return ps


def _closed_loop_source(model: MechanicalModel, con: AffineConstraint) -> list[str]:
    """Source of kernel(q, qd) -> (acc, tau, b, P, cond), or None where a
    gate fails: the model's, force's and constraint's expressions with
    common subexpressions computed once, then the factorizations and
    solves, from the generators of `linalg`.  Its gates are those of
    `model._factor` and `_p_system`, tested on the same numbers, so it
    declines exactly where they raise."""
    n, m = model.n, con.m
    r, rm = range(n), range(m)
    mu, _, dphi = con._exprs  # Z is not needed
    lines, ((G, coframe, dV, w), F, S, c), _ = ex._emit(
        [model._exprs, model._force, mu, dphi], model.coordinates + model.velocities)
    body = [f"{linalg._vector('_a', n)}, = q",
            ", ".join(f"_a{n + i}" for i in r) + ", = qd", *lines]
    body += [f"g{i}_{j} = {G[i][j]}" for i in r for j in range(i + 1)]
    body += [f"y{a}_{i} = {coframe[a][i]}" for a in rm for i in r]
    body += [f"S{b}_{i} = {S[b][i]}" for b in rm for i in r]
    body += [f"d{i} = ({F[i]} - {dV[i]}) - {w[i]}" for i in r]  # drift: G^-1 (F - dV - w)
    # The metric: SPD and condition gates, then the input fields Y^a = G^-1 coframe^a.
    body += linalg._cholesky_lines(n, "g", "l", "return None")
    diag = [f"l{i}_{i}" for i in r]
    body += [f"ratio = {linalg._max(diag)} / {linalg._min(diag)}",
             f"if ratio * ratio > {linalg.CONDITION_CAP!r}:", "    return None"]
    for a in rm:
        body += linalg._cho_solve_lines(n, "l", f"y{a}_")
    # P = S Y, factored, with its singular, condition and pivot gates.

    def dot(x: str, y: str) -> str:  # {x} . {y}, added up as sum() does, from 0
        return "0.0" + "".join(f" + {x}{i} * {y}{i}" for i in r)

    body += [f"P{b}_{a} = {dot(f'S{b}_', f'y{a}_')}" for b in rm for a in rm]
    body += [f"u{b}_{a} = P{b}_{a}" for b in rm for a in rm]
    body += linalg._lu_factor_lines(m, "u", "p", "return None")
    body += linalg._cond1_lines(m, "P", "u", "p", "cond")

    def longest(x: str) -> str:  # the largest row norm of {x}: the pivot scale's factors
        return linalg._max([f"hypot({linalg._vector(f'{x}{a}_', n)})" for a in rm])

    min_pivot = linalg._min([f"abs(u{a}_{a})" for a in rm])
    body += [f"if not cond <= {linalg.CONDITION_CAP!r} or "
             f"{min_pivot} <= {PIVOT_RTOL!r} * ({longest('S')} * {longest('y')}):",
             "    return None"]
    # The drift, b = -(S drift + c), tau and acc = drift + tau_a Y^a.
    body += linalg._cho_solve_lines(n, "l", "d")
    body += [f"b{b} = -({dot(f'S{b}_', 'd')} + {c[b]})" for b in rm]
    body += linalg._lu_solve_lines(m, "u", "p", f"({linalg._vector('b', m)},)", "t")
    for a in rm:
        body += [f"if t{a} != 0.0:", *(f"    d{i} = d{i} + t{a} * y{a}_{i}" for i in r)]
    return linalg._kernel_source(
        "q, qd", body,
        f"[{linalg._vector('d', n)}], [{linalg._vector('t', m)}], [{linalg._vector('b', m)}], "
        f"{linalg._matrix('P', m)}, cond")


def _compile_closed_loop(model: MechanicalModel, con: AffineConstraint):
    namespace = {"math": math, "sqrt": math.sqrt, "hypot": math.hypot}
    exec("\n".join(_closed_loop_source(model, con)), namespace)
    return namespace["kernel"]


def _closed_loop(model: MechanicalModel, con: AffineConstraint):
    """field(q, qd, state=None) -> (acc, tau, b, P, cond) for this pair,
    compiled on the first call with this model and kept on con, one per
    model.  Where the kernel declines (returns None: a gate failed) or
    meets a math error, the q-only path of `p_matrix` and then the force's
    own kernel run at (q, qd) and raise the typed error with its message:
    the kernel's gates and expressions are theirs.  A pair whose
    expressions are too deep to compile here, a few stack frames short of
    the limit that loading met, is an EvalError."""
    field = con._closed_loop.get(model)
    if field is None:
        try:
            kernel = _compile_closed_loop(model, con)
        except RecursionError:
            raise EvalError("closed-loop kernel is nested too deeply to compile") from None

        def field(q, qd, state=None):
            try:
                out = kernel(q, qd)
            except (ArithmeticError, ValueError):
                out = None
            if out is None:
                _admissible(_p_system(model, con, q, qd), q, state)
                model._force_fn(*q, *qd)
                raise AssertionError(f"closed-loop kernel declined q={q}, qdot={qd}, "
                                     "where every gate holds")
            return out

        con._closed_loop[model] = field
    return field


def p_matrix(model: MechanicalModel, con: AffineConstraint, q) -> list[list[float]]:
    """System matrix with entries mu^b(q)(Y^a); velocity-independent."""
    check_compatible(model, con)
    return _admissible(_p_system(model, con, q, model._rest), q).P


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
