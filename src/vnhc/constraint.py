"""Affine velocity constraints: phi(q, qdot) = S(q) qdot + Z(q).

The constraint is declared through its one-form rows mu^b (the rows of S)
and the affine part Z; both depend on q only.  One kernel of (q, qdot)
returns S, Z and c = dZ qdot + qdot^T dS qdot, the part of dphi/dt that
does not involve the acceleration, so dphi/dt = S qddot + c.  Hypothesis
checks return report objects rather than raising, so callers can batch
them over grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import expr as ex
from . import linalg
from .geometry import MechanicalModel, ModelError, State, _Chart, contract

RANK_RTOL = 1e-9


class RankDefectError(RuntimeError):
    """S(q) lost row rank at a queried point."""


@dataclass(frozen=True)
class RankReport:
    ok: bool
    rank: int
    expected_rank: int
    singular_values: tuple
    q: tuple


@dataclass(frozen=True)
class TransversalityReport:
    ok: bool
    p: tuple  # row-major m x m entries of P(q)
    det: float
    cond_estimate: float
    q: tuple


class AffineConstraint(_Chart):
    """m constraint one-forms and the affine term, with one compiled kernel."""

    def __init__(self, model_coordinates: Sequence[str], mu, Z, parameters=None):
        super().__init__(model_coordinates, parameters)
        self.mu = ex.grid(mu)
        self.Z = [ex.as_expr(z) for z in Z]
        self.m = len(self.mu)
        if self.m == 0:
            raise ModelError("constraint needs at least one row")
        if any(len(r) != self.n for r in self.mu):
            raise ModelError("mu rows must have n components")
        if len(self.Z) != self.m:
            raise ModelError("Z must have one entry per constraint row")

        # One kernel of (q, qdot): (S rows, Z, c), where
        # c_b = sum_i (d_i mu^b(qdot) + d_i Z_b) qdot^i is dphi_b/dt less S_b qddot.
        mu, Z = self._fold({"constraint.mu": self.mu, "constraint.Z": self.Z})
        v = [ex.Symbol(s) for s in self.velocities]
        dmu = [[[ex.diff(e, x) for e in row] for x in self.coordinates] for row in mu]
        dZ = [[ex.diff(z, x) for x in self.coordinates] for z in Z]
        c = [contract([contract(d, v) + dz for d, dz in zip(dmu_b, dZ_b)], v)
             for dmu_b, dZ_b in zip(dmu, dZ)]
        self._exprs = [mu, Z, c]
        self._kernel = self._compile_qv(self._exprs, {"constraint.mu": dmu, "constraint.Z": dZ})
        # model -> the closed-loop field of (model, self), built by `control`
        # on the first closed-loop evaluation with that model.
        self._closed_loop = {}

    # -- evaluation ---------------------------------------------------------

    def mu_at(self, q: Sequence[float]) -> list[list[float]]:
        return [list(row) for row in self._kernel(*q, *self._rest)[0]]

    def z_at(self, q: Sequence[float]) -> list[float]:
        return list(self._kernel(*q, *self._rest)[1])

    def phi(self, state: State) -> list[float]:
        """Constraint values S(q) qdot + Z(q); zero exactly on the affine set."""
        self._check_state(state)
        S, Z, _ = self._kernel(*state.q, *self._rest)
        return [linalg.dot(row, state.qdot) + z for row, z in zip(S, Z)]

    # -- hypothesis checks --------------------------------------------------

    def rank_check(self, q: Sequence[float]) -> RankReport:
        """Row rank of S(q) by singular values, relative tolerance 1e-9;
        raises EvalError naming a non-finite entry of S, such as an overflow."""
        S = self.mu_at(q)
        for b, (row, exprs) in enumerate(zip(S, self.mu)):
            for i, (v, e) in enumerate(zip(row, exprs)):
                if not math.isfinite(v):
                    raise ex.EvalError(
                        f"constraint.mu[{b}][{i}] = {ex.to_string(e)} is not finite ({v!r})")
        sv = linalg.singular_values(S)
        rank = sum(s > RANK_RTOL * sv[0] for s in sv)  # 0 when S = 0; S has m >= 1 rows
        return RankReport(
            ok=(rank == self.m),
            rank=rank,
            expected_rank=self.m,
            singular_values=tuple(sv),
            q=tuple(float(v) for v in q),
        )


def check_compatible(model: MechanicalModel, con: AffineConstraint):
    """Raise ModelError unless con is declared on model's chart, the same
    names in the same order, and has one row per control input."""
    if con.coordinates != model.coordinates:
        raise ModelError(f"constraint chart {con.coordinates} is not the model's")
    if con.m != model.m:
        raise ModelError(
            f"number of constraint rows ({con.m}) must equal number of "
            f"control inputs ({model.m})"
        )


def transversality_check(
    con: AffineConstraint, model: MechanicalModel, q: Sequence[float]
) -> TransversalityReport:
    """Invertibility of P(q) with entries mu^b(Y^a); certifies A and the
    input distribution are transversal (given the rank hypothesis)."""
    from .control import _p_system

    check_compatible(model, con)
    ps = _p_system(model, con, q, model._rest)
    return TransversalityReport(
        ok=ps.cond <= linalg.CONDITION_CAP,
        p=tuple(v for row in ps.P for v in row),
        det=0.0 if ps.lu is None else linalg.det_from_lu(ps.lu, ps.piv),
        cond_estimate=ps.cond,
        q=tuple(float(v) for v in q),
    )


def project_onto_A(
    con: AffineConstraint, model: MechanicalModel, state: State
) -> State:
    """Metric-orthogonal (kinetic-energy-minimal) projection of the velocity
    onto the affine constraint set at the same base point."""
    check_compatible(model, con)
    report = con.rank_check(state.q)
    if not report.ok:
        raise RankDefectError(
            f"constraint rank defect at q={report.q}: rank {report.rank} < {report.expected_rank}"
        )
    phi = con.phi(state)
    S = con.mu_at(state.q)
    L = model._factor(state.q)
    # qdot' = qdot - G^-1 S^T (S G^-1 S^T)^-1 phi
    GiST = [linalg.cho_solve(L, list(row)) for row in S]  # rows: G^-1 mu^b
    m = con.m
    A = [[linalg.dot(S[b], GiST[a]) for a in range(m)] for b in range(m)]
    lam = linalg.solve(A, phi)
    qd = list(state.qdot)
    for b in range(m):
        for i in range(con.n):
            qd[i] -= GiST[b][i] * lam[b]
    return State(q=state.q, qdot=tuple(qd))
