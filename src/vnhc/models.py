"""Bundled fixture systems.

The main fixture is a planar boat with orientation, drifting in a
position-dependent current: chart (x, y, theta), kinetic metric
diag(m, m, I), one control input acting along sin(theta) dx
- cos(theta) dy + dtheta, and the affine constraint
sin(theta) xd - cos(theta) yd + cos(theta) C2 - sin(theta) C1 = 0.

The external-force components are built here by symbolic differentiation
of the current-coupling functions, so they track whatever current fields
the caller supplies.
"""

from __future__ import annotations

from . import expr as ex
from .constraint import AffineConstraint
from .geometry import MechanicalModel, contract


def build_boat(C1="0", C2="0", m: float = 1.0, I: float = 1.0):
    """Boat-in-a-current system; C1, C2 are current components in (x, y)."""
    if m <= 0 or I <= 0:
        raise ValueError("mass and inertia must be positive")
    c1 = ex.as_expr(C1)
    c2 = ex.as_expr(C2)
    for name, c in (("C1", c1), ("C2", c2)):
        extra = ex.free_symbols(c) - {"x", "y"}
        if extra:
            raise ValueError(f"current component {name} may only use x, y; got {sorted(extra)}")

    sin_t = ex.parse("sin(theta)")
    cos_t = ex.parse("cos(theta)")
    mass = ex.Symbol("m")

    # force potentials: the current coupling functions of (x, y, theta)
    h1 = sin_t * sin_t * c1 - sin_t * cos_t * c2
    h2 = cos_t * cos_t * c2 - sin_t * cos_t * c1

    def force_row(h):
        # m * d(h)(qdot) = m * sum_j dh/dq^j qd^j
        dh = [ex.diff(h, coord) for coord in ("x", "y", "theta")]
        return mass * contract(dh, [ex.Symbol(coord + "d") for coord in ("x", "y", "theta")])

    model = MechanicalModel(
        coordinates=("x", "y", "theta"),
        metric=[["m", 0, 0], [0, "m", 0], [0, 0, "I"]],
        potential=0,
        external_force=[force_row(h1), force_row(h2), ex.ZERO],
        input_coframe=[[sin_t, -cos_t, ex.ONE]],
        parameters={"m": float(m), "I": float(I)},
    )
    con = AffineConstraint(
        model_coordinates=model.coordinates,
        mu=[[sin_t, -cos_t, ex.ZERO]],
        Z=[cos_t * c2 - sin_t * c1],
        parameters=model.parameters,
    )
    return model, con


def build_linear_fixture(m: float = 1.0, I: float = 1.0):
    """Knife-edge-style linear constraint (Z = 0): the boat with no current."""
    return build_boat("0", "0", m=m, I=I)


# Named current fields used across the test and acceptance suites.
FIXTURE_CURRENTS = {
    "still": ("0", "0"),
    "shear": ("0.3", "0.1*x"),
    "vortex": ("sin(y)", "cos(x)"),
}
