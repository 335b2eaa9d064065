"""Affine velocity constraints: phi(q, qdot) = S(q) qdot + Z(q), and the
checks of the theorem's hypotheses.

The constraint is declared through its one-form rows mu^b (the rows of S)
and the affine part Z; both depend on q only.  One kernel of (q, qdot),
compiled on its first use (`geometry._compiled`, as every kernel is),
returns S, Z and c = dZ qdot + qdot^T dS qdot, the part of dphi/dt that
does not involve the acceleration, so dphi/dt = S qddot + c.  Hypothesis
checks return reports rather than raising, so callers can batch them over
grids; a report (`RankReport`, `TransversalityReport`) is a named tuple,
cheap to make and equal to the plain tuple of its fields.

`rank_check` reads the constraint's kernel.  Transversality, the
invertibility of P(q) = [mu^b(Y^a)], is decided by the second of the
two kernels generated per (model, constraint) pair (the first is the
step kernel of `control`), evaluated at q alone, in the views' order:
the expressions the model's kernel evaluates at (q, 0), the metric's
Cholesky factor with its SPD and condition gates, the constraint's
expressions at (q, 0), then P = S G^-1 coframe, its pivoted LU factor,
cond_1 and determinant, and the singular, pivot and condition gates,
from the statement generator that the step kernel shares at each stage,
folded by the step kernel's rules (`linalg._Block`): what depends on no
input is computed once, as the source is written (a constant metric's
whole block goes), and the terms of its sums known to be zero drop out,
so both kernels run the same statements on the same numbers.  A model
text loaded again gives back the pair built from it, with the kernels it
has built (`model_io.load_model`), so it generates neither again.

A pair's generated artefacts live in one record, the pair's record
(`_Pair`), which the constraint keeps for each model and `_pair` alone
makes, right after the pair's check (`check_compatible`): a kept record
proves the check passed, so every function that takes a pair checks it
on its first call alone.  Each artefact is built on its first use: the
q-only kernel with the coordinates its record reads (`_q_only`), the
step kernel with its line -> node table (`control._step`).

The q-only kernel returns its verdict as data: a failing gate
returns what was computed before it, with the gate's name.  One
evaluation and one judgment serve `transversality_check`,
`control.p_matrix`, `control._raise_failure` (the typed error of a
failed closed-loop stage) and `vnhc check` (one call per point, or per
value of the coordinates the record reads; the rank is m where the
record certifies it, and otherwise decided on the record's S).
`_p_system` calls the kernel for the views: it wraps the kernel's tuple
as a `_QOnly` without a constructor call, as each of the kernel's
returns writes all ten fields, the defaults of those a failing gate
leaves out as literals.  `vnhc check` calls it in its own loop and
writes the line of a record whose every gate held and which certifies
the rank from the tuple itself.  The kernel names its own math error,
as `expr.compile_exprs`'s kernels do: the pair's record keeps it bound
to `expr._named` and its line -> node table, which map the line that
raised to the EvalError naming the expression; no other kernel runs.
So the first failure in the views' order is named (a math error in the
model's expressions, a failed metric gate, as a record, a math error in
the constraint's expressions, then P's gates), as it is the first in the
kernel's own order.  `_verdict` alone judges the record: a record whose
every gate held is admissible at once; otherwise, in one order, the
metric's gates (SPDError), a non-finite P (EvalError), then the wording
of a failed P gate.  The kernel is built on the first
q-only call with a model, so loading a model does not pay for it; with
it the pair's record keeps the coordinates that the kernel's record
reads (`_reads`), derived from the same emission.  On a system with symmetry
the metric, the coframe and the constraint rows are invariant under the
group and depend on the shape coordinates alone (Bloch, Krishnaprasad,
Marsden & Murray, "Nonholonomic mechanical systems with symmetry",
ARMA 136, 1996), and so does the record where no line that can raise
reads another coordinate: on the boat, theta.  `vnhc check` reuses a
record for the length of one call at every point with the same values
of these coordinates.
`project_onto_A` takes S and Z from one call of the constraint's kernel.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from functools import partial
from itertools import chain, combinations, product

from . import expr as ex
from . import linalg
from .linalg import _bin, _Block, _call, _chain, _extreme, _if_else, _list, _Src, _unary
from .expr import EvalError, _named
from .geometry import (MechanicalModel, ModelError, State, _Chart, _compiled, _spd_error,
                       contract)

RANK_RTOL = 1e-9
PIVOT_RTOL = 1e-12


class RankDefectError(RuntimeError):
    """S(q) lost row rank at a queried point."""


RankReport = namedtuple("RankReport", "ok rank expected_rank singular_values q")
# p: the row-major m x m entries of P(q)
TransversalityReport = namedtuple("TransversalityReport", "ok p det cond_estimate q")
_new = tuple.__new__  # _new(record type, fields): a record without a call of its __new__


class AffineConstraint(_Chart):
    """m constraint one-forms and the affine term, with one kernel."""

    _what = "constraint"

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

        # The expressions of `_kernel` of (q, qdot): (S rows, Z, c), where
        # c_b = sum_i (d_i mu^b(qdot) + d_i Z_b) qdot^i is dphi_b/dt less S_b qddot.
        mu, Z = self._fold({"constraint.mu": self.mu, "constraint.Z": self.Z})
        v = [ex.Symbol(s) for s in self.velocities]
        dmu = [[[ex.diff(e, x) for e in row] for x in self.coordinates] for row in mu]
        dZ = [[ex.diff(z, x) for x in self.coordinates] for z in Z]
        c = [contract([contract(d, v) + dz for d, dz in zip(dmu_b, dZ_b)], v)
             for dmu_b, dZ_b in zip(dmu, dZ)]
        self._check_derived({"constraint.mu": dmu, "constraint.Z": dZ})
        self._exprs = [mu, Z, c]
        # model -> the record of (model, self), made by `_pair` alone
        self._pairs = {}

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
        # A non-finite entry makes the sum inf or NaN, as in `State`; only
        # then is each entry looked at.
        if not math.isfinite(sum(chain.from_iterable(S))):
            for b, (row, exprs) in enumerate(zip(S, self.mu)):
                for i, (v, e) in enumerate(zip(row, exprs)):
                    if not math.isfinite(v):
                        raise EvalError(
                            f"constraint.mu[{b}][{i}] = {ex.to_string(e)} is not finite ({v!r})")
        sv, e = linalg._scaled_singular_values(S)  # of S 2^-e, which has S's rank
        tol = RANK_RTOL * sv[0]
        # all where the smallest passes, as they are descending; else a sum
        # of booleans, an int; 0 when S = 0; S has m >= 1 rows
        return len(sv) if tol < sv[-1] else sum(map(tol.__lt__, sv)), linalg._unscaled(sv, e)


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
        raise ModelError(f"number of constraint rows ({con.m}) must equal number of "
                         f"control inputs ({model.m})")


class _Pair:
    """What a (model, constraint) pair has built, each entry on its first
    use: q_only, the q-only kernel, which names its own math errors
    (`_q_only`), with reads, the coordinates its record reads (`_reads`);
    step, `control`'s step kernel, with table, its line -> node table
    (`expr._table`).  An entry not yet built is unset, and reading it
    raises AttributeError."""

    __slots__ = ("q_only", "reads", "step", "table")


def _pair(model: MechanicalModel, con: AffineConstraint, con_first: bool = False) -> _Pair:
    """The pair's record, made right after `check_compatible` passes and
    kept in con._pairs[model]: both are immutable and models hash by
    identity, so a kept record proves the check passed, and a warm call
    checks nothing.  Any failed lookup (con not an AffineConstraint, a
    model not yet paired, an unhashable argument) takes the check and its
    typed error, in the order the caller takes them (con_first)."""
    try:
        return con._pairs[model]
    except (AttributeError, KeyError, TypeError):
        check_compatible(model, con, con_first)
        return con._pairs.setdefault(model, _Pair())


# -- the q-only kernel of a (model, constraint) pair ------------------------

# One call of a pair's q-only kernel at q, its tuple of ten fields
# (`_p_system`).  A failing gate returns what was computed before it, and
# the defaults of the fields after that (`_DEFAULTS`) as literals:
#   failed: None, or the gate that failed: metric, singular, pivot or cond;
#   S: the rows of S(q); None where the metric fails a gate before a line
#     of the constraint's that can raise has run (`_q_only_source`);
#   g: the metric where it fails a gate, for the SPDError's eigenvalues;
#   ratio: of the metric's Cholesky diagonal; None if G is not SPD;
#   P: the rows of P(q);
#   cond: cond_1(P); inf where P is exactly singular;
#   det: from the LU factors: U's diagonal and the parity of the row swaps;
#   min_pivot, scale: where the pivot or P condition gate fails, for the
#     verdict's message; scale is P's entries before cancellation, max |S_b|
#     times max |Y^a|;
#   full_rank: where every gate held, whether P's inverse proves that S has
#     rank m by `_rank`'s tolerance (`_q_only_source`); False otherwise.
_QOnly = namedtuple("_QOnly", "failed S g ratio P cond det min_pivot scale full_rank")
# The defaults of the fields from ratio on (ratio, P, cond, det, min_pivot,
# scale, full_rank), as the kernel's returns write them:
_DEFAULTS = [None, None, _Src("math.inf"), 0.0, None, None, False]


def _dot(block: _Block, x: str, y: str, n: int, finite: bool = False):
    """{x} . {y}, added left to right from 0, as `linalg.dot` adds; a term
    drops only if it is a known zero (`_Block.sum`), or, where finite says
    that every {x} entry is finite (b's S, past P's gate), if its {y} entry
    is a known zero.  Such a term x * 0.0 is a zero of either sign, and a
    sum from 0.0 is never -0.0 (x + y is -0.0 only where both are), so
    adding it leaves every partial sum's bits as they were: for finite S,
    0.0 + S0 * 0.0 + S1 * 0.0 + c has exactly the bits of 0.0 + c."""
    return block.sum("+", 0.0, [(block[f"{x}{i}"], block[f"{y}{i}"]) for i in range(n)
                                if not (finite and block[f"{y}{i}"] == 0.0)], products=False)


def _gate_lines(block: _Block, n: int, m: int, fail, G, coframe, lines, S):
    """The metric and P blocks of both kernels of a pair, over the roots
    of `expr._emit` G (the metric's rows), coframe and S, bound to locals
    (`_bind`) where each block reads them, with lines, `_emit`'s too, run
    between the blocks.  fail(gate) is the statement a failing gate runs;
    the gates, in order: spd and ratio (the metric's), singular and P (the
    pivot and P condition gates, tested together), whose fail also gets
    `_pivots`'s tuple.  The ratio's largest and smallest Cholesky diagonal
    entries, hi and lo, and cond_1's largest column sums are comparisons
    (`linalg._extreme`), as are `_pivots`'s extremes, bound once before
    the P gate.  Returns `_pivots`'s tuple and ||P^-1||_1, for the q-only
    kernel's last return."""
    rm = range(m)
    _bind(block, g=G, y=coframe)
    # The metric: SPD and condition gates, then the input fields Y^a = G^-1 coframe^a.
    linalg._cholesky_lines(block, n, "g", "l", fail("spd"))
    diag = [block[f"l{i}_{i}"] for i in range(n)]
    block["ratio"] = _bin(_extreme(block, "hi", ">", diag), "/", _extreme(block, "lo", "<", diag))
    block.gate(_bin(_bin(block["ratio"], "*", block["ratio"]), ">", linalg.CONDITION_CAP),
               fail("ratio"))
    for a in rm:
        linalg._cho_solve_lines(block, n, "l", f"y{a}_")
    block.lines += lines
    _bind(block, S=S)
    # P = S Y, factored, with its singular, condition and pivot gates.
    for b, a in product(rm, rm):
        block[f"P{b}_{a}"] = _dot(block, f"S{b}_", f"y{a}_", n)
    for b, a in product(rm, rm):
        block[f"u{b}_{a}"] = block[f"P{b}_{a}"]
    linalg._lu_factor_lines(block, m, "u", "p", fail("singular"))
    inverse = linalg._cond1_lines(block, m, "P", "u", "p", "cond")
    pivots = _pivots(block, n, m)
    block.gate(_bin(_unary("not", _bin(block["cond"], "<=", linalg.CONDITION_CAP)), "or",
                    pivots[2]), fail("P", pivots))
    return pivots, inverse


def _pivots(block: _Block, n: int, m: int) -> tuple:
    """P's smallest pivot magnitude, its scale (the largest constraint-row
    norm times the largest input-field norm), and whether the pivot is too
    small for the scale.  The largest norms and the smallest pivot are
    bound once, by `_extreme`'s comparisons, to Snorm, ynorm and pivot."""
    norms = [_extreme(block, f"{x}norm", ">", [  # the longest of the rows
        _call("hypot", *(block[f"{x}{a}_{i}"] for i in range(n))) for a in range(m)]) for x in "Sy"]
    min_pivot = _extreme(block, "pivot", "<", [_call("abs", block[f"u{a}_{a}"]) for a in range(m)])
    scale = _bin(norms[0], "*", norms[1])
    return min_pivot, scale, _bin(min_pivot, "<=", _bin(PIVOT_RTOL, "*", scale))


def _bind(block: _Block, **roots):
    """Bind roots of `expr._emit` to the locals that `_gate_lines` reads: g
    the metric's rows (their lower triangle), y the coframe rows and S the
    constraint rows, entry j of row i to the local {name}{i}_{j}."""
    for name, rows in roots.items():
        for i, row in enumerate(rows):
            for j, root in enumerate(row[:i + 1] if name == "g" else row):
                block[f"{name}{i}_{j}"] = root


def _q_only_source(model: MechanicalModel, con: AffineConstraint) -> tuple[str, dict, tuple]:
    """The source of kernel(q) -> the fields of `_QOnly`, in the views'
    order: the lines of every expression the model's kernel evaluates at
    (q, 0), the metric's block, the lines that the constraint's expressions
    at (q, 0) add, then the P block, from one emission, so that common
    subexpressions are computed once, folded as they are written.  The
    constraint's lines run before the metric's block where none of them
    can raise, at any q (a shared +, -, * or neg), as they cannot change
    which failure comes first, and a failing metric gate then returns S;
    from the first that can raise, after it, and such a return carries S
    None.  (`expr._may_raise` would let a sin of a coordinate run first,
    which raises at an infinite q, where the views take the metric's
    failure first.)  No field returns dV, w, Z or c at rest, so only their
    lines run; but each of their operations that can raise is a line
    (`expr._emit`), so the q-only views and `vnhc check` fail where the
    model or the constraint is not differentiable at q, and
    `control._raise_failure` finds a step kernel's math error in w or c
    here.  A failing gate returns the fields computed before it, then the
    defaults of the others.  Returns the source, its line -> node table
    (`expr._table`), by which the kernel names its math errors
    (`expr._named`), and the coordinates its record reads (`_reads`), for
    `_q_only` to keep on the pair's record.

    Where every gate held, full_rank certifies rank S = m, as P = S Y
    invertible does in exact arithmetic, if ||P^-1||_1 scale, the largest
    of the column sums cond_c{j} of |P^-1| times the pivot gate's scale,
    is below 1 / (2 RANK_RTOL m^1.5).  For then, by sigma_i(A B) <=
    sigma_i(A) ||B||_2 (Horn & Johnson, Topics in Matrix Analysis, 3.3)
    and the norm bounds ||B||_2 <= sqrt(m) ||B||_1 and ||Y||_2 <= sqrt(m)
    max |Y^a| (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 6): sigma_m(S) >= sigma_m(P) / ||Y||_2 >= 1 / (m ||P^-1||_1 max
    |Y^a|), with sigma_1(S) <= sqrt(m) max |S_b|, so sigma_m(S) /
    sigma_1(S) >= 1 / (m^1.5 ||P^-1||_1 scale) > 2 RANK_RTOL, which
    `_rank` counts as rank m.  Y may be the computed one: the bound holds
    for any Y.  The factor 2 covers the round-off of P's sums, of the LU
    inverse and of the Jacobi singular values: where the certificate
    holds, cond_1(P) <= m ||P^-1||_1 scale < 5e8, so each is below about
    n 5e8 eps < 1e-6 relative.  A NaN or inf makes the test false."""
    n, m = model.n, con.m
    r, rm = range(n), range(m)
    lines, ((G, coframe, _, _), (S, _, _)), nodes = ex._emit(
        [model._exprs, con._exprs], model.coordinates + model.velocities)
    # The lines that no model root reaches are the constraint's alone, after
    # the model's.  From the first of them that can raise, at any q, finite
    # or not, they run after the metric block, whose failing returns then
    # carry no S.
    reached = ex._leaves(model._exprs)[2]
    cut = next((i for i, node in enumerate(nodes)
                if id(node) not in reached and node.op not in ex._INLINE), len(lines))
    carried = [list(row) for row in S] if cut == len(lines) else None
    block = _Block()  # the velocities at rest, then the model's lines
    block.lines += [*(f"_a{n + i} = 0.0" for i in r), *lines[:cut]]

    def rows(x: str, size: int) -> list:  # of the values of the locals {x}b_a
        return [[block[f"{x}{b}_{a}"] for a in range(size)] for b in rm]

    def fields(gate: str | None, pivots=(None,) * 3, inverse=None) -> str:
        """The ten fields of `_QOnly` that the gate's failure returns, from
        the values of the locals there: those computed before it, or all but
        the pivot and its scale, with the rank certificate, where every gate
        holds (gate None), then the defaults of the others.  pivots, for the
        P gate and gate None, is `_pivots`'s, and inverse ||P^-1||_1."""
        min_pivot, scale, small = pivots
        det = _chain("*", [block[f"u{a}_{a}"] for a in rm])
        if m > 1:  # the sign of the row permutation
            swaps = _chain("+", [_bin(block[f"p{a}"], ">", block[f"p{b}"])
                                 for a, b in combinations(rm, 2)])
            det = _if_else(_bin(swaps, "%", 2), _unary("-", det), det)
        failed = {"spd": "metric", "ratio": "metric", "singular": "singular",
                  "P": _if_else(small, "pivot", "cond")}.get(gate)
        metric = [[block[f"g{max(i, j)}_{min(i, j)}"] for j in r] for i in r]
        out = [failed, carried if failed == "metric" else rows("S", n),
               metric if failed == "metric" else None, block["ratio"], rows("P", m),
               block["cond"], det, min_pivot, scale]
        if gate is None:  # no pivot, no scale, but the rank certificate (see above)
            out[7:] = None, None, _bin(1 / (2 * RANK_RTOL * m * math.sqrt(m)), ">",
                                       _bin(inverse, "*", scale))
        kept = {"spd": 3, "ratio": 4, "singular": 5, "P": 9}.get(gate, 10)
        return ", ".join(map(_list, out[:kept] + _DEFAULTS[kept - 3:]))

    ends = _gate_lines(block, n, m, lambda *gate: f"return {fields(*gate)}", G, coframe,
                       lines[cut:], S)
    source = linalg._kernel_source("q", [f"{linalg._vector('_a', n)}, = q", *block.lines],
                                   fields(None, *ends))
    return "\n".join(source), ex._table(source, nodes), _reads(model, con, nodes)


def _reads(model: MechanicalModel, con: AffineConstraint, nodes) -> tuple[int, ...]:
    """The indices of the coordinates that the pair's q-only record reads,
    nodes being the subexpressions that the lines of its emission bind:
    the coordinates of the roots G, coframe and S, which its gates read,
    and those of every line that can raise at a finite q
    (`expr._may_raise`).  Any other line cannot raise, and feeds only
    dV, w, Z and c at rest, which no field returns, or a root or line
    counted here.  So where the kernel returns at one q, it returns the
    same record, bit for bit, at every q whose entries at these indices
    have the same bits.  On a system with symmetry the metric, the coframe
    and the constraint rows are invariant under the group, and these are
    the shape coordinates: theta alone on the boat, whatever its
    current."""
    G, coframe = model._exprs[:2]
    symbols = ex._leaves([G, coframe, con._exprs[0], [e for e in nodes if ex._may_raise(e)]])[0]
    return tuple(i for i, c in enumerate(model.coordinates) if c in symbols)


def _q_only(model: MechanicalModel, con: AffineConstraint):
    """The pair's compiled q-only kernel, built on its first use and kept
    on the pair's record (`_pair`) with the coordinates its record reads.
    It names its own math errors, as `expr.compile_exprs`'s kernels do:
    its source's line -> node table is bound into it (`expr._named`)."""
    pair = _pair(model, con)
    if not hasattr(pair, "q_only"):
        source, table, pair.reads = _compiled("q-only kernel", _q_only_source, model, con)
        pair.q_only = partial(_named, _compiled("q-only kernel", linalg._define, source), table.get)
    return pair.q_only


def _p_system(model: MechanicalModel, con: AffineConstraint, q) -> _QOnly:
    """The pair's q-only kernel at q, its record whichever gate failed, for
    the views, which judge it with `_verdict` (`vnhc check` calls the
    kernel and judges its record in its own loop); where the kernel meets
    a math error, the EvalError that names it, from the kernel's own line.
    The pair's record is looked up first (`_pair`, which checks a pair it
    does not yet keep), then q is checked, both before a build; warm, the
    kernel is read from the record."""
    _pair(model, con)
    con._check_q(q)
    return _new(_QOnly, _q_only(model, con)(q))


def _verdict(k: _QOnly, q) -> tuple[str | None, float]:
    """The judgment of the q-only record k at q: None and cond where every
    gate held; else the metric's SPDError where it failed its gates, then
    EvalError where P is not finite; otherwise why no control exists at q
    and the condition estimate to report: inf where P is singular, or
    numerically so."""
    if k.failed is None:  # every gate held, so cond <= CAP and P is finite
        return None, k.cond
    if k.failed == "metric":
        raise _spd_error(q, k.g, k.ratio)
    # A non-finite entry makes P singular or cond non-finite: only then is P checked.
    if not math.isfinite(k.cond) and not all(map(math.isfinite, chain.from_iterable(k.P))):
        raise EvalError(f"P matrix {k.P} is not finite at q={tuple(q)}")
    if k.failed == "singular":
        return f"singular P matrix at q={tuple(q)}", math.inf
    if k.failed == "pivot":
        return (f"numerically singular P matrix at q={tuple(q)} "
                f"(pivot {k.min_pivot:.3e} vs scale {k.scale:.3e})"), math.inf
    return (f"P condition estimate {k.cond:.3e} exceeds {linalg.CONDITION_CAP:.0e} "
            f"at q={tuple(q)}"), k.cond


def transversality_check(
    con: AffineConstraint, model: MechanicalModel, q: Sequence[float]
) -> TransversalityReport:
    """Invertibility of P(q) with entries mu^b(Y^a); certifies A and the
    input distribution are transversal (given the rank hypothesis)."""
    _pair(model, con, con_first=True)
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
    _pair(model, con, con_first=True)
    S, Z, _ = con._at_rest(state.q)
    rank = con._rank(S)[0]
    if rank < con.m:
        raise RankDefectError(f"constraint rank defect at q={state.q}: rank {rank} < {con.m}")
    phi = [linalg.dot(row, state.qdot) + z for row, z in zip(S, Z)]  # as `con.phi` adds
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
