"""A reference for the q-only views, independent of the code generator.

The model's and the constraint's source fields are evaluated by
`vnhc.evaluate`, the tree walker, with the parameters bound, and the
linear algebra is numpy's: P = S G^-1 coframe^T, its determinant and
1-norm condition number, and the singular values of S.
"""

from typing import NamedTuple

import numpy as np

from vnhc import evaluate
from vnhc.constraint import RANK_RTOL


class Reference(NamedTuple):
    S: np.ndarray
    P: np.ndarray
    det: float
    cond: float  # cond_1(P)
    singular_values: np.ndarray  # of S, descending

    @property
    def rank(self) -> int:
        return int(np.sum(self.singular_values > RANK_RTOL * self.singular_values[0]))


def grid_at(chart, rows, q) -> np.ndarray:
    """The rows of expressions of a model or constraint, evaluated at q."""
    env = {**chart.parameters, **dict(zip(chart.coordinates, q))}
    return np.array([[evaluate(e, env) for e in row] for row in rows])


def reference(model, con, q) -> Reference:
    G = grid_at(model, model.metric, q)
    coframe = grid_at(model, model.input_coframe, q)
    S = grid_at(con, con.mu, q)
    P = S @ np.linalg.solve(G, coframe.T)
    return Reference(S, P, float(np.linalg.det(P)), float(np.linalg.cond(P, 1)),
                     np.linalg.svd(S, compute_uv=False))
