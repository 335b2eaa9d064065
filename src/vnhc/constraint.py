"""Affine velocity constraints: phi(q, qdot) = S(q) qdot + Z(q), and the
checks of the theorem's hypotheses.

The constraint is declared through its one-form rows mu^b (the rows of S)
and the affine part Z; both depend on q only.  One kernel of (q, qdot)
returns S, Z and c = dZ qdot + qdot^T dS qdot, the part of dphi/dt that
does not involve the acceleration, so dphi/dt = S qddot + c.  Hypothesis
checks return reports rather than raising, so callers can batch them over
grids; a report (`RankReport`, `TransversalityReport`) is a named tuple,
cheap to make and equal to the plain tuple of its fields.

`rank_check` reads the constraint's kernel.  Transversality, the
invertibility of P(q) = [mu^b(Y^a)], is decided by the second of the
two kernels generated per (model, constraint) pair (the first is the
step kernel of `control`), evaluated at q alone: every expression the model's and the
constraint's kernels evaluate at (q, 0), then the metric's Cholesky
factor with its SPD and condition gates, P = S G^-1 coframe, its pivoted
LU factor, cond_1 and determinant, and the singular, pivot and condition
gates, from the statement generator that the step kernel shares at each
stage, with what depends on no input computed once, as the source is
written (`linalg._Block`; a constant metric's whole block goes).  A
model text loaded again gives back the pair built from it, with the
kernels it has built (`model_io.load_model`), so it generates neither
again.  The q-only kernel returns its verdict as data: a failing gate
returns what was computed before it, with the gate's name.  `_p_system`
is the one call of it, for `transversality_check`, `control.p_matrix`,
`control._raise_failure` (the typed error of a failed closed-loop stage)
and `vnhc check` (one call per point, the rank from the returned S): it
wraps the kernel's tuple as a `_QOnly`, the fields a failing gate leaves
out padded with their defaults, without a constructor call; raises the
typed errors in their one order; and alone runs the model's and the
constraint's own kernels again where the kernel meets a math error, to
name the expression.  `_verdict` words a failed P gate.  The kernel is
built on the first q-only call with a model and kept on the constraint,
so loading a model does not pay for it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from itertools import chain, combinations, product

from . import expr as ex
from . import linalg
from .linalg import _bin, _Block, _call, _chain, _if_else, _list, _Src, _unary
from .expr import EvalError
from .geometry import MechanicalModel, ModelError, State, _Chart, _spd_error, contract

RANK_RTOL = 1e-9
PIVOT_RTOL = 1e-12


class RankDefectError(RuntimeError):
    """S(q) lost row rank at a queried point."""


RankReport = namedtuple("RankReport", "ok rank expected_rank singular_values q")
# p: the row-major m x m entries of P(q)
TransversalityReport = namedtuple("TransversalityReport", "ok p det cond_estimate q")
_new = tuple.__new__  # _new(record type, fields): a record without a call of its __new__


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
        # model -> the step kernel (built by `control`) and the q-only kernel
        # of (model, self), each built on its first use with that model.
        self._step = {}
        self._q_only = {}

    # -- evaluation ---------------------------------------------------------

    def mu_at(self, q: Sequence[float]) -> list[list[float]]:
        return [list(row) for row in self._at_rest(q)[0]]

    def z_at(self, q: Sequence[float]) -> list[float]:
        return list(self._at_rest(q)[1])

    def phi(self, state: State) -> list[float]:
        """Constraint values S(q) qdot + Z(q); zero exactly on the affine set."""
        S, Z, _ = self._at_rest(state.q)
        return [linalg.dot(row, state.qdot) + z for row, z in zip(S, Z)]

    # -- hypothesis checks --------------------------------------------------

    def rank_check(self, q: Sequence[float]) -> RankReport:
        """Row rank of S(q) by singular values, relative tolerance 1e-9;
        raises EvalError naming a non-finite entry of S, such as an overflow."""
        rank, sv = self._rank(self._at_rest(q)[0])
        return _new(RankReport, (rank == self.m, rank, self.m, tuple(sv), tuple(map(float, q))))

    def _rank(self, S) -> tuple[int, list[float]]:
        """The rank and the singular values of S, the rows of S(q)."""
        if not all(map(math.isfinite, chain.from_iterable(S))):
            for b, (row, exprs) in enumerate(zip(S, self.mu)):
                for i, (v, e) in enumerate(zip(row, exprs)):
                    if not math.isfinite(v):
                        raise EvalError(
                            f"constraint.mu[{b}][{i}] = {ex.to_string(e)} is not finite ({v!r})")
        sv = linalg.singular_values(S)
        return sum(map((RANK_RTOL * sv[0]).__lt__, sv)), sv  # 0 when S = 0; S has m >= 1 rows


def check_compatible(model: MechanicalModel, con: AffineConstraint, con_first: bool = False):
    """Raise TypeError unless model is a MechanicalModel and con an
    AffineConstraint, naming the order the caller takes them in (con
    first with con_first); and ModelError unless con is declared on
    model's chart, the same names in the same order, and has one row per
    control input."""
    if not isinstance(model, MechanicalModel) or not isinstance(con, AffineConstraint):
        got = {"model": type(model).__name__, "con": type(con).__name__}
        order = ("con", "model") if con_first else ("model", "con")
        raise TypeError(f"expected ({', '.join(order)}, ...) with model a MechanicalModel and "
                        f"con an AffineConstraint; got {', '.join(f'{x}={got[x]}' for x in order)}")
    if con.coordinates != model.coordinates:
        raise ModelError(f"constraint chart {con.coordinates} is not the model's")
    if con.m != model.m:
        raise ModelError(
            f"number of constraint rows ({con.m}) must equal number of "
            f"control inputs ({model.m})"
        )


# -- the q-only kernel of a (model, constraint) pair ------------------------

# One call of a pair's q-only kernel at q, its tuple with the defaults after
# it (`_p_system`).  A failing gate returns what was computed before it; the
# fields after that keep their defaults:
#   failed: None, or the gate that failed: metric, singular, pivot or cond;
#   S: the rows of S(q);
#   g: the metric where it fails a gate, for the SPDError's eigenvalues;
#   ratio: of the metric's Cholesky diagonal; None if G is not SPD;
#   P: the rows of P(q);
#   cond: cond_1(P); inf where P is exactly singular;
#   det: from the LU factors: U's diagonal and the parity of the row swaps;
#   min_pivot, scale: where the pivot or P condition gate fails, for the
#     verdict's message; scale is P's entries before cancellation, max |S_b|
#     times max |Y^a|.
_QOnly = namedtuple("_QOnly", "failed S g ratio P cond det min_pivot scale")
# The defaults of the fields after the kernel's tuple of 3, 4, 5, 7 or 9, by its length:
_PADS = {n: (None, None, math.inf, 0.0, None, None)[n - 3:] for n in (3, 4, 5, 7, 9)}


def _dot(block: _Block, x: str, y: str, n: int):
    """{x} . {y}, added up as sum() does, from 0."""
    return _chain("+", [0.0, *(_bin(block[f"{x}{i}"], "*", block[f"{y}{i}"]) for i in range(n))])


def _gate_lines(block: _Block, n: int, m: int, fail):
    """The metric and P blocks of both kernels of a pair, over the locals
    g{i}_{j} (the metric's lower triangle), y{a}_{i} (the coframe rows)
    and S{b}_{i}.  fail(gate) is the statement a failing gate runs; the
    gates, in order: spd and ratio (the metric's), singular and P (the
    pivot and P condition gates, tested together)."""
    rm = range(m)
    # The metric: SPD and condition gates, then the input fields Y^a = G^-1 coframe^a.
    linalg._cholesky_lines(block, n, "g", "l", fail("spd"))
    diag = [block[f"l{i}_{i}"] for i in range(n)]
    block["ratio"] = _bin(_call("max", *diag), "/", _call("min", *diag))
    block.gate(_bin(_bin(block["ratio"], "*", block["ratio"]), ">", linalg.CONDITION_CAP),
               fail("ratio"))
    for a in rm:
        linalg._cho_solve_lines(block, n, "l", f"y{a}_")
    # P = S Y, factored, with its singular, condition and pivot gates.
    for b, a in product(rm, rm):
        block[f"P{b}_{a}"] = _dot(block, f"S{b}_", f"y{a}_", n)
    for b, a in product(rm, rm):
        block[f"u{b}_{a}"] = block[f"P{b}_{a}"]
    linalg._lu_factor_lines(block, m, "u", "p", fail("singular"))
    linalg._cond1_lines(block, m, "P", "u", "p", "cond")
    block.gate(_bin(_unary("not", _bin(block["cond"], "<=", linalg.CONDITION_CAP)), "or",
                    _pivots(block, n, m)[2]), fail("P"))


def _pivots(block: _Block, n: int, m: int) -> tuple:
    """P's smallest pivot magnitude, its scale (the largest constraint-row
    norm times the largest input-field norm), and whether the pivot is too
    small for the scale."""
    norms = [_call("max", *(_call("hypot", *(block[f"{x}{a}_{i}"] for i in range(n)))
                            for a in range(m))) for x in "Sy"]  # the longest of the rows
    min_pivot = _call("min", *(_call("abs", block[f"u{a}_{a}"]) for a in range(m)))
    scale = _bin(norms[0], "*", norms[1])
    return min_pivot, scale, _bin(min_pivot, "<=", _bin(PIVOT_RTOL, "*", scale))


def _bind(block: _Block, G, coframe, S):
    """Bind the metric's lower triangle, the coframe rows and S, the roots
    of `expr._emit`, to the locals that `_gate_lines` reads."""
    r, rm = range(len(G)), range(len(S))
    for name, root in chain(((f"g{i}_{j}", G[i][j]) for i in r for j in range(i + 1)),
                            ((f"y{a}_{i}", coframe[a][i]) for a in rm for i in r),
                            ((f"S{b}_{i}", S[b][i]) for b in rm for i in r)):
        block[name] = root


def _q_only_source(model: MechanicalModel, con: AffineConstraint) -> list[str]:
    """Source lines of kernel(q) -> the fields of `_QOnly`: every expression
    the model's and the constraint's kernels evaluate at (q, 0), with
    common subexpressions computed once, then the gates of the step kernel,
    folded as they are written.  dV, w, Z and c are evaluated for their
    math errors only.  A failing gate returns the fields computed before it."""
    n, m = model.n, con.m
    r, rm = range(n), range(m)
    lines, ((G, coframe, dV, w), (S, Z, c)), _ = ex._emit(
        [model._exprs, con._exprs], model.coordinates + model.velocities)
    block = _Block()  # the velocities at rest, the expressions, then the roots
    block.lines += [*(f"_a{n + i} = 0.0" for i in r), *lines,  # not a local or a literal
                    *(e for e in chain(dV, w, Z, c) if type(e) is _Src and not e.isidentifier())]
    _bind(block, G, coframe, S)

    def rows(x: str, size: int) -> list:  # of the values of the locals {x}b_a
        return [[block[f"{x}{b}_{a}"] for a in range(size)] for b in rm]

    def fields(gate: str | None) -> str:
        """The fields of `_QOnly` that the gate's failure returns, from the
        values of the locals there: those computed before it, or all but the
        pivot and its scale where every gate holds (gate None)."""
        min_pivot, scale, small = _pivots(block, n, m)
        det = _chain("*", [block[f"u{a}_{a}"] for a in rm])
        if m > 1:  # the sign of the row permutation
            swaps = _chain("+", [_bin(block[f"p{a}"], ">", block[f"p{b}"])
                                 for a, b in combinations(rm, 2)])
            det = _if_else(_bin(swaps, "%", 2), _unary("-", det), det)
        failed = {"spd": "metric", "ratio": "metric", "singular": "singular",
                  "P": _if_else(small, "pivot", "cond")}.get(gate)
        metric = [[block[f"g{max(i, j)}_{min(i, j)}"] for j in r] for i in r]
        out = [failed, rows("S", n), metric if failed == "metric" else None, block["ratio"],
               rows("P", m), block["cond"], det, min_pivot, scale]
        return ", ".join(map(_list, out[:{"spd": 3, "ratio": 4, "singular": 5, None: 7}.get(gate)]))

    _gate_lines(block, n, m, lambda gate: f"return {fields(gate)}")
    return linalg._kernel_source("q", [f"{linalg._vector('_a', n)}, = q", *block.lines],
                                 fields(None))


def _built(kernels: dict, model: MechanicalModel, source, what: str):
    """The pair kernel that source() defines, compiled and kept in kernels,
    one of the constraint's dicts, under model.  A pair whose expressions
    are too deep to compile here, a few stack frames short of the limit
    that loading met, is an EvalError naming what kernel."""
    try:
        kernel = kernels[model] = linalg._define(source())
    except RecursionError:
        raise EvalError(f"{what} kernel is nested too deeply to compile") from None
    return kernel


def _q_only(model: MechanicalModel, con: AffineConstraint):
    """The pair's compiled q-only kernel, built on the first q-only call
    with this model and kept on con, one per model."""
    return con._q_only.get(model) or _built(con._q_only, model,
                                            lambda: "\n".join(_q_only_source(model, con)), "q-only")


def _p_system(model: MechanicalModel, con: AffineConstraint, q) -> _QOnly:
    """The pair's q-only kernel at q, or the typed error of its failure
    there, named in the order the model's and the constraint's kernels
    meet them: the model's expressions, the metric's gates (SPDError), the
    constraint's expressions, then a non-finite P (EvalError).  A failed P
    gate is left in `failed`.  Where the kernel meets a math error, the
    model's kernel, the metric's gates and the constraint's kernel run in
    turn at (q, 0) to name it."""
    con._check_q(q)
    try:
        k = _q_only(model, con)(q)
    except (ArithmeticError, ValueError):
        model._factor(q)
        con._at_rest(q)
        raise
    k = _new(_QOnly, k + _PADS[len(k)])
    if k.failed == "metric":
        raise _spd_error(q, k.g, k.ratio)
    # A non-finite entry makes P singular or cond non-finite: only then is P checked.
    if not math.isfinite(k.cond) and not all(map(math.isfinite, chain.from_iterable(k.P))):
        raise EvalError(f"P matrix {k.P} is not finite at q={tuple(q)}")
    return k


def _verdict(k: _QOnly, q) -> tuple[str | None, float]:
    """Why no control exists at q, None where P is admissible, and the
    condition estimate to report: inf where P is singular, or numerically so."""
    if k.failed == "singular":
        return f"singular P matrix at q={tuple(q)}", math.inf
    if k.failed == "pivot":
        return (f"numerically singular P matrix at q={tuple(q)} "
                f"(pivot {k.min_pivot:.3e} vs scale {k.scale:.3e})"), math.inf
    if k.failed == "cond":
        return (f"P condition estimate {k.cond:.3e} exceeds {linalg.CONDITION_CAP:.0e} "
                f"at q={tuple(q)}"), k.cond
    return None, k.cond


def transversality_check(
    con: AffineConstraint, model: MechanicalModel, q: Sequence[float]
) -> TransversalityReport:
    """Invertibility of P(q) with entries mu^b(Y^a); certifies A and the
    input distribution are transversal (given the rank hypothesis)."""
    check_compatible(model, con, con_first=True)
    k = _p_system(model, con, q)
    error, cond = _verdict(k, q)
    return _new(TransversalityReport, (error is None, tuple(chain.from_iterable(k.P)), k.det,
                                       cond, tuple(map(float, q))))


def project_onto_A(
    con: AffineConstraint, model: MechanicalModel, state: State
) -> State:
    """Metric-orthogonal (kinetic-energy-minimal) projection of the velocity
    onto the affine constraint set at the same base point.  Raises
    RankDefectError where S(q) has lost rank, and EvalError where S G^-1 S^T
    is singular in floating point or the projected velocity is not finite."""
    check_compatible(model, con, con_first=True)
    S = con.mu_at(state.q)
    rank = con._rank(S)[0]
    if rank < con.m:
        raise RankDefectError(f"constraint rank defect at q={state.q}: rank {rank} < {con.m}")
    phi = con.phi(state)
    L = model._factor(state.q)
    # qdot' = qdot - G^-1 S^T (S G^-1 S^T)^-1 phi.  S is scaled first by f,
    # the power of two (at most 2^1023) that brings its largest entry to
    # [0.5, 1), so S G^-1 S^T of tiny or huge rows neither under- nor
    # overflows, and the correction is scaled back by f.  The scalings are
    # exact: a result that neither under- nor overflows keeps its bits.
    f = math.ldexp(1.0, -max(math.frexp(max(map(abs, chain.from_iterable(S))))[1], -1023))
    S = [[s * f for s in row] for row in S]
    GiST = [linalg.cho_solve(L, row) for row in S]  # rows: G^-1 mu^b, scaled by f
    m = con.m
    A = [[linalg.dot(S[b], GiST[a]) for a in range(m)] for b in range(m)]
    try:
        lam = linalg.lu_solve(*linalg.lu_factor(A), phi)
    except linalg.SingularMatrixError:  # in floating point, though S has full rank
        A = [[a / f / f for a in row] for row in A]
        raise EvalError(f"S G^-1 S^T {A} is singular at q={tuple(state.q)}") from None
    qd = list(state.qdot)
    for b in range(m):
        for i in range(con.n):
            qd[i] -= GiST[b][i] * lam[b] * f
    if not all(map(math.isfinite, qd)):
        raise EvalError(f"projected qdot {tuple(qd)} is not finite at q={tuple(state.q)}")
    return State(q=state.q, qdot=tuple(qd))
