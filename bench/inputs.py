"""Seeded input generator for the benchmark.

Everything a workload feeds the program is made here from the seed: the
`tau-sweep` states, the `gen5` model file, the `check-grid` axes and the
`simulate-vortex` start states.  The same seed gives the same inputs.

`gen5` is a 5-coordinate, 2-input model.  Its metric is A(q)^T A(q) + c I
with trig entries in A, so it is SPD by construction; its constraint rows
S(q) have a unit-diagonal leading 2x2 block whose off-diagonal entries are
bounded by 0.4 in magnitude, so S has full rank everywhere; its input
coframe rows equal its constraint rows, so P = S G^-1 S^T is SPD and
transversality holds.  `check_gen5` re-checks SPD and rank with numpy at
the states a run will visit, from the same coefficients and without the
program, before anything is timed.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

N5, M5 = 5, 2
GEN5_COORDS = [f"q{i + 1}" for i in range(N5)]
GEN5_SHIFT = 0.5  # the c in A^T A + c I

# The criterion-2 start of the vortex boat (projected by the CLI).
CRITERION2_Q0 = (0.1, -0.2, 0.5)
CRITERION2_QDOT0 = (0.4, 0.3, 0.8)

BOAT_CURRENTS = ("still", "shear", "vortex")
TAU_MODELS = BOAT_CURRENTS + ("gen5",)

_TRIG = {"sin": math.sin, "cos": math.cos}


class Term:
    """coef * fn(q[var]) with fn in {sin, cos}, or a constant when fn is None."""

    def __init__(self, coef: float, fn: str | None = None, var: int = 0):
        self.coef, self.fn, self.var = coef, fn, var

    def text(self) -> str:
        if self.fn is None:
            return repr(self.coef)
        return f"({self.coef!r}*{self.fn}({GEN5_COORDS[self.var]}))"

    def value(self, q) -> float:
        if self.fn is None:
            return self.coef
        return self.coef * _TRIG[self.fn](q[self.var])


def _coef(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 3)


def _trig(rng: random.Random, bound: float) -> Term:
    return Term(_coef(rng, -bound, bound), rng.choice(("sin", "cos")), rng.randrange(N5))


class Gen5:
    """Coefficients of the gen5 model, and its JSON model file."""

    def __init__(self, seed: int):
        rng = random.Random(f"gen5-{seed}")
        # A: unit diagonal plus two trig entries per row.
        self.A = [[None] * N5 for _ in range(N5)]
        for k in range(N5):
            self.A[k][k] = Term(1.0)
            self.A[k][(k + 1) % N5] = _trig(rng, 0.6)
            self.A[k][(k + 3) % N5] = _trig(rng, 0.6)
        # S: unit leading 2x2 diagonal, |off-diagonal| <= 0.4 there.
        self.S = [[None] * N5 for _ in range(M5)]
        for b in range(M5):
            for i in range(N5):
                if i == b:
                    self.S[b][i] = Term(1.0)
                elif i < M5:
                    self.S[b][i] = _trig(rng, 0.4)
                else:
                    self.S[b][i] = _trig(rng, 0.8)
        self.Z = [f"{_trig(rng, 0.5).text()} + {_trig(rng, 0.3).text()}" for _ in range(M5)]
        self.potential = " + ".join(
            [_trig(rng, 0.5).text() for _ in range(3)]
            + [f"({_coef(rng, 0.05, 0.2)!r}*{GEN5_COORDS[rng.randrange(N5)]}^2)"]
        )
        self.force = [
            f"(-{_coef(rng, 0.05, 0.2)!r}*{GEN5_COORDS[i]}d) + "
            f"({_coef(rng, -0.1, 0.1)!r}*{GEN5_COORDS[(i + 1) % N5]}d*{_trig(rng, 1.0).text()})"
            for i in range(N5)
        ]

    def metric_text(self) -> list[list[str]]:
        g = [[None] * N5 for _ in range(N5)]
        for i in range(N5):
            for j in range(i, N5):
                terms = [
                    f"{self.A[k][i].text()}*{self.A[k][j].text()}"
                    for k in range(N5)
                    if self.A[k][i] is not None and self.A[k][j] is not None
                ]
                if i == j:
                    terms.append(repr(GEN5_SHIFT))
                g[i][j] = g[j][i] = " + ".join(terms) if terms else "0"
        return g

    def model_dict(self) -> dict:
        s_rows = [[t.text() for t in row] for row in self.S]
        return {
            "coordinates": list(GEN5_COORDS),
            "metric": self.metric_text(),
            "potential": self.potential,
            "external_force": self.force,
            "inputs": s_rows,
            "constraint": {"mu": s_rows, "Z": self.Z},
        }

    def metric_at(self, q) -> np.ndarray:
        A = np.array([[0.0 if t is None else t.value(q) for t in row] for row in self.A])
        return A.T @ A + GEN5_SHIFT * np.eye(N5)

    def s_at(self, q) -> np.ndarray:
        return np.array([[t.value(q) for t in row] for row in self.S])


def check_gen5(gen: Gen5, states) -> None:
    """Raise ValueError unless G is SPD and S has full rank at every state."""
    for q, _ in states:
        eig_min = float(np.linalg.eigvalsh(gen.metric_at(q))[0])
        if not eig_min > 0.0:
            raise ValueError(f"gen5 metric not SPD at q={q}: min eigenvalue {eig_min}")
        sv = np.linalg.svd(gen.s_at(q), compute_uv=False)
        if not sv[-1] > 1e-9 * sv[0]:
            raise ValueError(f"gen5 S rank defect at q={q}: singular values {sv}")


def write_gen5(path, gen: Gen5) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(gen.model_dict(), f, indent=1)


def _uniform(rng: random.Random, n: int, bound: float) -> tuple:
    return tuple(rng.uniform(-bound, bound) for _ in range(n))


def tau_states(seed: int, per_model: int) -> list[tuple[str, tuple, tuple]]:
    """(model name, q, qdot) with |q_i|, |qdot_i| <= 2, models interleaved."""
    rng = random.Random(f"tau-{seed}")
    out = []
    for _ in range(per_model):
        for name in TAU_MODELS:
            n = N5 if name == "gen5" else 3
            out.append((name, _uniform(rng, n, 2.0), _uniform(rng, n, 2.0)))
    return out


def check_grids(seed: int, count: int, per_axis: int) -> list[list[str]]:
    """`--grid` argument lists over (x, y, theta), one per check call."""
    rng = random.Random(f"grid-{seed}")
    grids = []
    for _ in range(count):
        args = []
        for name, bound in (("x", 2.0), ("y", 2.0), ("theta", math.pi)):
            lo, hi = sorted((rng.uniform(-bound, bound), rng.uniform(-bound, bound)))
            args += ["--grid", f"{name}={lo!r}:{hi!r}:{per_axis}"]
        grids.append(args)
    return grids


def simulate_starts(seed: int, count: int) -> list[tuple[tuple, tuple]]:
    """The criterion-2 start, then seeded starts within 0.1 of it."""
    rng = random.Random(f"sim-{seed}")
    starts = [(CRITERION2_Q0, CRITERION2_QDOT0)]
    while len(starts) < count:
        starts.append((
            tuple(v + rng.uniform(-0.1, 0.1) for v in CRITERION2_Q0),
            tuple(v + rng.uniform(-0.1, 0.1) for v in CRITERION2_QDOT0),
        ))
    return starts
