"""Riemannian data of a mechanical control system on a chart.

Everything is coordinate-based on an open subset of n-space.  The model
holds the kinetic-energy metric, potential, external force covector and
the control coframe rows; at construction the parameters' values are
folded into them and their symbolic derivatives are taken once, into the
expressions of one kernel of (q, qdot) for the metric, coframe, potential
gradient and the geodesic form w = Gamma(qdot, qdot) lowered by the
metric.  The stored fields stay symbolic.  Views that depend on q only
call it at qdot = 0, where w vanishes; the external force stays out of
them because it may be singular there (Coulomb friction), and has a
kernel of its own, as the symbols `christoffel_at` uses do.  Construction
compiles nothing: each kernel, these three and the constraint's and the
pair's of `constraint` and `control`, is compiled on its first use by its
owner, through `_compiled`.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Mapping, Sequence
from functools import cached_property

from . import expr as ex
from . import linalg


class ModelError(ValueError):
    """Invalid model data detected at construction/load time."""


class SPDError(RuntimeError):
    """Metric failed the symmetric positive-definite check at a point."""

    def __init__(self, message: str, eigenvalues=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues


def _spd_error(q, g, ratio=None) -> SPDError:
    """The SPDError of the metric g at q: not positive definite where ratio,
    the max / min of its Cholesky diagonal, is None, else too ill-conditioned."""
    eigs = linalg.eigvalsh(g)
    return SPDError(
        f"metric not positive definite at q={tuple(q)}; eigenvalues {eigs}" if ratio is None
        else f"metric condition estimate {ratio * ratio:.3e} exceeds "
        f"{linalg.CONDITION_CAP:.0e} at q={tuple(q)}",
        eigenvalues=eigs,
    )


_TEXT = (str, bytes, bytearray)
_BYTE_FORMATS = ("b", "B", "c")  # the `struct` formats of one byte


class State(namedtuple("State", "q qdot")):
    """A configuration q and a velocity qdot of one length, each a tuple of
    finite floats: an immutable tuple (q, qdot), checked however it is made."""

    __slots__ = ()

    def __new__(cls, q, qdot):
        # float would read a str's characters as digits, and bytes, or a view
        # of bytes (of whatever object: a float array cast to bytes too), as
        # their codes; two tuples, the common case, skip the tests
        if type(q) is not tuple or type(qdot) is not tuple:
            for name, x in ("q", q), ("qdot", qdot):
                if isinstance(x, _TEXT) or isinstance(x, memoryview) and x.format.lstrip(
                        "@=<>!") in _BYTE_FORMATS:
                    raise TypeError(
                        f"State {name} must be a sequence of numbers, not a {type(x).__name__}")
        q, qd = tuple(map(float, q)), tuple(map(float, qdot))
        if len(q) != len(qd):
            raise ValueError("q and qdot dimensions differ")
        # a sum of finite entries is finite unless it overflows: only then is
        # each looked at.  Only whether the sum is finite is used, which no
        # order of summation changes (sum() of floats is compensated from
        # Python 3.12 on): a non-finite entry makes any sum inf or NaN
        if not math.isfinite(sum(q + qd)) and not all(map(math.isfinite, q + qd)):
            raise ValueError("non-finite state entry")
        return tuple.__new__(cls, (q, qd))

    @classmethod
    def _make(cls, iterable):  # and so _replace, which makes its record here
        return cls(*iterable)


def _compiled(what: str, build, *args):
    """build(*args), the kernel named what, which its owner builds on the
    kernel's first use.  An expression that loaded can be a few stack
    frames short of the limit there: its RecursionError is an EvalError
    naming what, never a traceback."""
    try:
        return build(*args)
    except RecursionError:
        raise ex.EvalError(f"{what} is nested too deeply to compile") from None


def contract(row: Sequence, vector: Sequence) -> ex.Expr:
    """The expression sum_i row_i vector_i, skipping the ZERO entries of row
    (what diff returns for a vanishing derivative) without building them."""
    total = ex.ZERO
    for a, b in zip(row, vector):
        if a is not ex.ZERO:
            total = total + a * b
    return total


class _Chart:
    """The chart a model and its constraint share: coordinates q^i, velocity
    names q^i + "d", all 2n distinct, and parameters, finite real numbers
    that shadow none of them.  Kernels take q positionally, so a model and
    a constraint fit together only on equal `coordinates` tuples."""

    def __init__(self, coordinates: Sequence[str], parameters: Mapping[str, float] | None):
        self.coordinates = tuple(coordinates)
        self.n = len(self.coordinates)
        if self.n == 0:
            raise ModelError("empty coordinate list")
        self.velocities = tuple(c + "d" for c in self.coordinates)
        names = self._names = self.coordinates + self.velocities  # a kernel's arguments
        if len(set(names)) != 2 * self.n:
            twice = sorted({c for c in names if names.count(c) > 1})
            raise ModelError(f"duplicate coordinate or velocity names {twice}")
        self.parameters = dict(parameters or {})
        bad = set(self.parameters) & set(names)
        if bad:
            raise ModelError(f"parameter names shadow coordinates: {sorted(bad)}")
        for name, value in self.parameters.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ModelError(f"parameter {name!r} is not a real number ({value!r})")
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int beyond float range
                raise ModelError(f"parameter {name!r} is out of range") from None
            if not finite:
                raise ModelError(f"parameter {name!r} is not finite ({float(value)!r})")
        self._rest = (0.0,) * self.n

    def _fold(self, fields: Mapping[str, object], with_velocities=False) -> list:
        """The source fields (name -> an expression or a nested list of
        them) with the parameters' values substituted, so that identities and
        constant subtrees fold before anything is differentiated or compiled
        (see `expr.substitute`), after checking that they use only coordinates
        and parameters, plus velocities if with_velocities, and hold no
        non-finite constant, such as a folded 1e200*1e200; a symbol error in
        any field is reported first.  The source fields stay symbolic."""
        v = set(self.velocities)
        allowed = set(self.parameters) | set(self.coordinates) | (v if with_velocities else set())
        bad = []

        def fold(where: str, field):
            if not isinstance(field, ex.Expr):
                return [fold(f"{where}[{i}]", f) for i, f in enumerate(field)]
            e = ex.substitute(field, self.parameters)
            symbols, constants, _ = ex._leaves(field)
            extra = symbols - allowed
            if extra:
                kind = "must be velocity-free; offending" if extra & v else "uses unknown"
                raise ModelError(f"{where} {kind} symbols {sorted(extra & v or extra)}")
            bad.extend(f"{where}: constant is not finite ({c!r})" for c in constants)
            return e

        folded = [fold(name, field) for name, field in fields.items()]
        del fold  # a recursive closure: see expr._emit
        if bad:
            raise ModelError(bad[0])
        return folded

    def _check_derived(self, derived: Mapping[str, list]):
        """Raise ModelError naming the first source field in derived (name ->
        its derivatives) where differentiation folded a non-finite constant,
        such as d/dx (1e200*x*1e200): `_fold` has checked the fields."""
        for name, tree in derived.items():
            bad = ex._leaves(tree)[1]
            if bad:
                raise ModelError(f"{name}: constant is not finite ({bad[0]!r})")

    @cached_property
    def _kernel(self):
        """The chart's kernel of (q, qdot), over `_exprs`."""
        return _compiled(f"{self._what} kernel", ex.compile_exprs, self._exprs, self._names)

    def _check_q(self, q: Sequence[float]):
        """Raise ValueError unless q has one entry per coordinate: the
        kernels take q positionally."""
        if len(q) != self.n:
            raise ValueError(f"state dimension {len(q)} does not match n={self.n}")

    def _at_rest(self, q: Sequence[float]) -> tuple:
        """The chart's kernel at (q, 0), once q is checked."""
        self._check_q(q)
        return self._kernel(*q, *self._rest)


class MechanicalModel(_Chart):
    """Metric, potential, external force and control coframe on one chart.

    Immutable after construction; all evaluation methods are pure.
    """

    _what = "model"

    def __init__(
        self,
        coordinates: Sequence[str],
        metric,
        potential=0.0,
        external_force: Sequence | None = None,
        input_coframe: Sequence | None = None,
        parameters: Mapping[str, float] | None = None,
    ):
        super().__init__(coordinates, parameters)
        self.metric = ex.grid(metric)
        if len(self.metric) != self.n or any(len(r) != self.n for r in self.metric):
            raise ModelError("metric grid is not n x n")
        for i in range(self.n):
            for j in range(i):
                if self.metric[i][j] != self.metric[j][i]:
                    raise ModelError(
                        f"metric entries ({i},{j}) and ({j},{i}) differ as expressions"
                    )
        self.potential = ex.as_expr(potential)
        if external_force is None:
            external_force = [0.0] * self.n
        self.external_force = [ex.as_expr(f) for f in external_force]
        if len(self.external_force) != self.n:
            raise ModelError("external force must have n components")
        self.input_coframe = ex.grid(input_coframe or [])
        self.m = len(self.input_coframe)
        if any(len(r) != self.n for r in self.input_coframe):
            raise ModelError("input coframe rows must have n components")
        if self.m >= self.n:
            raise ModelError(f"need fewer inputs than coordinates (m={self.m}, n={self.n})")

        # The expressions of `_kernel` of (q, qdot), from the parameter-folded
        # fields: the metric, coframe, dV and the geodesic form w_l = qd^i
        # qd^j (d_i g_jl - 1/2 d_l g_ij); and the folded external force of
        # `_force_fn`.  The pair's kernels take them from `_exprs` and
        # `_force` too.  With D[l][i] = d_i (G qd)_l, w_l = sum_i D[l][i]
        # qd^i - 1/2 sum_m D[m][l] qd^m: the velocity-quadratic part of the
        # Euler-Lagrange operator.  w is ZERO for a constant metric.
        coords, r = self.coordinates, range(self.n)
        g, potential, coframe = self._fold(
            {"metric": self.metric, "potential": self.potential, "inputs": self.input_coframe})
        v = [ex.Symbol(s) for s in self.velocities]
        # dg[i][j][k] = d_k g_ij, from the upper triangle: `diff` is memoized,
        # so each symmetric pair is differentiated once
        dg = [[[ex.diff(g[min(i, j)][max(i, j)], c) for c in coords] for j in r] for i in r]
        D = [[contract([dg[l][j][i] for j in r], v) for i in r] for l in r]
        half = ex.Constant(0.5)
        w = [contract(D[l], v) - half * contract([row[l] for row in D], v) for l in r]
        dV = [ex.diff(potential, c) for c in coords]
        self._check_derived({"potential": dV, "metric": w})
        self._exprs = [g, coframe, dV, w]
        (self._force,) = self._fold({"external_force": self.external_force}, with_velocities=True)

    @cached_property
    def _force_fn(self):
        """Kernel of (q, qdot) for the external force: the pair's step kernel
        of `control` evaluates the force itself, so only `drift_acceleration`
        (and `b_vector` through it) and `control._raise_failure` call this."""
        return _compiled("external force", ex.compile_exprs, self._force, self._names)

    @cached_property
    def _first_kind(self):
        """Kernel of q for the Christoffel symbols of the first kind,
        [i][j][l] = 1/2 (d_i g_jl + d_j g_il - d_l g_ij)."""
        coords, g, r = self.coordinates, self._exprs[0], range(self.n)
        dg = [[[ex.diff(e, c) for c in coords] for e in row] for row in g]  # d_k g_ij
        half = ex.Constant(0.5)
        first = [[[half * (dg[j][l][i] + dg[i][l][j] - dg[i][j][l]) for l in r] for j in r]
                 for i in r]
        return _compiled("Christoffel kernel", ex.compile_exprs, first, coords)

    # -- evaluation ---------------------------------------------------------
    #
    # Every view below unpacks one `_kernel(*q, *qd)` call, (metric rows,
    # coframe rows, dV, w); the views of q alone make it by `_at_rest`.

    def metric_at(self, q: Sequence[float]) -> list[list[float]]:
        """Metric matrix at q; raises SPDError if not positive definite."""
        g = self._at_rest(q)[0]
        self._factor(q, g)  # SPD + conditioning gate
        return [list(row) for row in g]

    def _factor(self, q, g=None) -> list[list[float]]:
        """Cholesky factor of the metric; rejects non-SPD or cond > 1e12."""
        if g is None:
            g = self._at_rest(q)[0]
        try:
            L = linalg.cholesky(g)
        except linalg.SingularMatrixError:
            raise _spd_error(q, g) from None
        diag = list(map(operator.getitem, L, range(self.n)))
        ratio = max(diag) / min(diag)
        if ratio * ratio > linalg.CONDITION_CAP:  # inf, not OverflowError, past 1.3e154
            raise _spd_error(q, g, ratio)
        return L

    def christoffel_at(self, q: Sequence[float]) -> list[list[list[float]]]:
        """Levi-Civita symbols G^k_ij: G^-1 applied to the symbols of the
        first kind from their own kernel, which the drift does not use."""
        L = self._factor(q)
        cols = [[linalg.cho_solve(L, row) for row in rows] for rows in self._first_kind(*q)]
        return [[[col[k] for col in rows] for rows in cols] for k in range(self.n)]

    def sharp(self, q: Sequence[float], covector: Sequence[float]) -> list[float]:
        L = self._factor(q)
        return linalg.cho_solve(L, covector)

    def flat(self, q: Sequence[float], vector: Sequence[float]) -> list[float]:
        return [linalg.dot(row, vector) for row in self.metric_at(q)]

    def grad_potential(self, q: Sequence[float]) -> list[float]:
        g, _, dv, _ = self._at_rest(q)
        return linalg.cho_solve(self._factor(q, g), dv)

    def coframe_at(self, q: Sequence[float]) -> list[list[float]]:
        return [list(row) for row in self._at_rest(q)[1]]

    def input_fields_at(self, q: Sequence[float]) -> list[list[float]]:
        """Control force vector fields: sharp of each coframe row."""
        g, coframe, _, _ = self._at_rest(q)
        L = self._factor(q, g)
        return [linalg.cho_solve(L, row) for row in coframe]

    def drift_acceleration(self, state: State) -> list[float]:
        """Acceleration of the unactuated forced system (the drift field)."""
        q, qd = state.q, state.qdot
        self._check_q(q)
        g, _, dv, w = self._kernel(*q, *qd)
        L = self._factor(q, g)
        rhs = map(operator.sub, map(operator.sub, self._force_fn(*q, *qd), dv), w)
        return linalg.cho_solve(L, list(rhs))  # G^-1 (F - dV - w)
