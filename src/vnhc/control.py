"""Feedback synthesis: solve P(q) tau = b(v_q) for the unique control that
keeps the affine constraint set invariant, and the closed-loop field.

P has entries mu^b(Y^a) and depends on q only; b collects the derivative
of phi along the drift.  The law is defined wherever P is invertible, on
or off the constraint set; off the set it conserves phi at its initial
value instead of nulling it.

Every entry point is a view over one assembly: `_p_system` calls the
model's and the constraint's kernels once each and factors G and P once
at q; `_assemble` adds the drift G^-1 (F - dV - w), b = -(S drift + c),
tau and the acceleration.  The velocity-quadratic forms w and c come out
of the kernels; no contraction happens here.  The q-only views call the
kernels at qdot = 0.  The integrator still re-solves the control at every
RK4 stage, and the tau it samples is the next step's stage-1 solve.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain, repeat, starmap
from typing import NamedTuple

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


def p_scale(S, Y) -> float:
    """Natural magnitude of P entries before cancellation: the largest
    constraint-row norm times the largest input-field norm."""
    return max(starmap(math.hypot, S)) * max(starmap(math.hypot, Y))


class _PSystem(NamedTuple):
    """P(q) with its one LU factorization and the transversality verdict."""

    k: tuple  # model._kernel(*q, *qd)
    c: tuple  # con._kernel(*q, *qd)
    L: list  # Cholesky factor of the metric
    Y: list  # input fields Y^a
    P: list
    lu: list | None  # None when P is exactly singular
    piv: list | None
    min_pivot: float
    cond: float  # inf when P is singular or its smallest pivot is negligible
    error: str | None  # why no control exists at q; None when P is admissible


class _Assembly(NamedTuple):
    p: _PSystem
    b: list
    tau: list
    acc: list  # drift plus tau_a Y^a


def _p_system(model: MechanicalModel, con: AffineConstraint, q, qd) -> _PSystem:
    """The kernels at (q, qd) and the q-only half of the assembly; reports a
    bad P instead of raising."""
    k = model._kernel(*q, *qd)
    L = model._factor(q, k[0])
    Y = list(map(linalg.cho_solve, repeat(L), k[1]))
    c = con._kernel(*q, *qd)
    S = c[0]
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
    scale = p_scale(S, Y)
    error = None
    if lu is None:
        error = f"singular P matrix at q={tuple(q)}"
    elif min_pivot <= PIVOT_RTOL * scale:
        cond = math.inf
        error = (
            f"numerically singular P matrix at q={tuple(q)} "
            f"(pivot {min_pivot:.3e} vs scale {scale:.3e})"
        )
    elif cond > linalg.CONDITION_CAP:
        error = (
            f"P condition estimate {cond:.3e} exceeds {linalg.CONDITION_CAP:.0e} "
            f"at q={tuple(q)}"
        )
    return _PSystem(k, c, L, Y, P, lu, piv, min_pivot, cond, error)


def _admissible(ps: _PSystem, q, state=None) -> _PSystem:
    if ps.error is not None:
        raise TransversalityError(ps.error, q=tuple(q), state=state, cond=ps.cond)
    return ps


def _assemble(model: MechanicalModel, con: AffineConstraint, q, qd, state=None) -> _Assembly:
    """Solve P tau = b at (q, qd); raises TransversalityError where P is not
    admissible.  Inputs are trusted: callers validate at the API boundary."""
    ps = _admissible(_p_system(model, con, q, qd), q, state)
    drift = model._drift(q, qd, ps.L, ps.k)
    b = _b(ps.c, drift)
    tau = linalg.lu_solve(ps.lu, ps.piv, b)
    acc = drift
    for t, ya in zip(tau, ps.Y):
        if t != 0.0:
            acc = list(map(operator.add, acc, map(operator.mul, repeat(t), ya)))
    return _Assembly(ps, b, tau, acc)


def p_matrix(model: MechanicalModel, con: AffineConstraint, q) -> list[list[float]]:
    """System matrix with entries mu^b(q)(Y^a); velocity-independent."""
    check_compatible(model, con)
    return _admissible(_p_system(model, con, q, model._rest), q).P


def b_vector(model: MechanicalModel, con: AffineConstraint, state: State) -> list[float]:
    """Right-hand side: minus the derivative of phi along the drift field;
    needs no invertible P."""
    check_compatible(model, con)
    model._check_state(state)
    q, qd = state.q, state.qdot
    k = model._kernel(*q, *qd)
    drift = model._drift(q, qd, model._factor(q, k[0]), k)
    b = _b(con._kernel(*q, *qd), drift)
    _finite(state, b=b)
    return b


def _b(k, drift) -> list[float]:
    """b = -dphi/dt along the drift, -(S drift + c); k is `con._kernel(*q, *qd)`."""
    S, _, c = k
    return [-(linalg.dot(row, drift) + cb) for row, cb in zip(S, c)]


def _finite(state: State, **vectors):
    """The single-state views' check that each named vector is finite, in
    order; integrate checks its states instead, so RK4 stages skip this."""
    for name, v in vectors.items():
        if not all(map(math.isfinite, v)):
            raise EvalError(f"{name} {tuple(v)} is not finite at q={state.q}, qdot={state.qdot}")


def _checked(model: MechanicalModel, con: AffineConstraint, state: State) -> _Assembly:
    check_compatible(model, con)
    model._check_state(state)
    a = _assemble(model, con, state.q, state.qdot, state)
    # A non-finite b or tau always reaches acc (0 * inf is NaN): one sum
    # screens all three, and _finite names the first bad one.
    if not math.isfinite(sum(a.acc)):
        _finite(state, b=a.b, tau=a.tau, acceleration=a.acc)
    return a


def solve_control(
    model: MechanicalModel, con: AffineConstraint, state: State
) -> ControlSolve:
    """Assemble and solve P tau = b at one state."""
    a = _checked(model, con, state)
    return ControlSolve(
        P=tuple(tuple(row) for row in a.p.P),
        b=tuple(a.b),
        tau=tuple(a.tau),
        cond_estimate=a.p.cond,
    )


def tau_star(model: MechanicalModel, con: AffineConstraint, state: State) -> list[float]:
    """The unique control keeping phi constant along the closed loop."""
    return _checked(model, con, state).tau


def closed_loop_acceleration(
    model: MechanicalModel, con: AffineConstraint, state: State
) -> list[float]:
    """Drift acceleration plus tau*_a Y^a: the controlled second-order field."""
    return _checked(model, con, state).acc
