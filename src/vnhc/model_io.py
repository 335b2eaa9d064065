"""Model file format: JSON with all expressions as DSL strings.

Schema (unknown keys are errors):

    {
      "coordinates": ["x", "y", "theta"],
      "parameters": {"m": 1.0, "I": 1.0},
      "metric": [["m", "0", "0"], ...],
      "potential": "0",
      "external_force": ["...", "...", "0"],
      "inputs": [["sin(theta)", "-cos(theta)", "1"]],
      "constraint": {"mu": [[...]], "Z": [...]}
    }

"potential", "external_force" and "parameters" are optional.  The
constraint block takes either "Z" directly or a vector field "X" (n DSL
strings), in which case Z = -S X is formed symbolically at load time.
`load_model` gives back the pair it built when it reads the same content
again, from a `functools.lru_cache` of `LOAD_CACHE_SIZE` contents: the
process-wide memo of the pairs a build makes.  The others keep
`linalg._sized`'s per-size routines, `expr.evaluate`'s last 64 kernels
and `cli.build_parser`'s parser.  A load parses,
folds and differentiates, checks the pair and makes its record
(`constraint._pair`), and compiles no kernel; the memo's pair holds, on
that record, the kernels it has compiled since, each on its first use.  A pair built
otherwise parses, emits and compiles anew; only the derivatives kept on
live expression nodes are shared.  A model file is UTF-8 JSON text (RFC 8259, section 8.1).
"""

from __future__ import annotations

import functools
import json

from . import expr as ex
from .constraint import AffineConstraint, _pair
from .geometry import MechanicalModel, ModelError

_TOP_KEYS = {
    "coordinates", "parameters", "metric", "potential",
    "external_force", "inputs", "constraint",
}
_CON_KEYS = {"mu", "Z", "X"}


class ModelFileError(ValueError):
    """Malformed model file (syntax, schema, or expression errors)."""


def _parse_field(value, where: str, depth: int = 0):
    """An expression from a DSL string or a number; for depth > 0, a list of
    fields of depth - 1 (a grid such as the metric has depth 2)."""
    if depth:
        if not isinstance(value, list):
            raise ModelFileError(f"{where} must be a list{' of rows' if depth > 1 else ''}")
        return [_parse_field(v, f"{where}[{i}]", depth - 1) for i, v in enumerate(value)]
    try:
        return ex.as_expr(value)
    except (ex.ExprError, TypeError) as err:  # TypeError: not a number or string
        raise ModelFileError(f"{where}: {err}") from err


def load_model_dict(data: dict) -> tuple[MechanicalModel, AffineConstraint]:
    if not isinstance(data, dict):
        raise ModelFileError("model file must contain a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ModelFileError(f"unknown keys {sorted(unknown)}")
    for key in ("coordinates", "metric", "inputs", "constraint"):
        if key not in data:
            raise ModelFileError(f"missing required key {key!r}")

    coords = data["coordinates"]
    if not isinstance(coords, list) or not all(isinstance(c, str) for c in coords):
        raise ModelFileError("coordinates must be a list of names")
    params = data.get("parameters", {})
    if not isinstance(params, dict):
        raise ModelFileError("parameters must be a name -> number map")

    metric = _parse_field(data["metric"], "metric", 2)
    inputs = _parse_field(data["inputs"], "inputs", 2)
    potential = _parse_field(data.get("potential", "0"), "potential")
    force = data.get("external_force")
    force = None if force is None else _parse_field(force, "external_force", 1)

    cdata = data["constraint"]
    if not isinstance(cdata, dict):
        raise ModelFileError("constraint must be an object")
    unknown = set(cdata) - _CON_KEYS
    if unknown:
        raise ModelFileError(f"constraint: unknown keys {sorted(unknown)}")
    if "mu" not in cdata:
        raise ModelFileError("constraint: missing key 'mu'")
    mu = _parse_field(cdata["mu"], "constraint.mu", 2)
    if ("Z" in cdata) == ("X" in cdata):
        raise ModelFileError("constraint: give exactly one of 'Z' or 'X'")
    if "Z" in cdata:
        Z = _parse_field(cdata["Z"], "constraint.Z", 1)
    else:
        X = _parse_field(cdata["X"], "constraint.X", 1)
        if len(X) != len(coords):
            raise ModelFileError("constraint.X must have one entry per coordinate")
        Z = [ex.ZERO] * len(mu)
        for b, row in enumerate(mu):
            for mu_i, x_i in zip(row, X):
                Z[b] = Z[b] - mu_i * x_i

    try:
        model = MechanicalModel(
            coordinates=coords,
            metric=metric,
            potential=potential,
            external_force=force,
            input_coframe=inputs,
            parameters=params,
        )
        con = AffineConstraint(
            model_coordinates=coords, mu=mu, Z=Z, parameters=params
        )
        _pair(model, con)
    except (ModelError, ex.EvalError) as err:  # EvalError: a non-finite number
        raise ModelFileError(str(err)) from err
    except RecursionError:
        raise ModelFileError("an expression is nested too deeply to differentiate") from None
    return model, con


LOAD_CACHE_SIZE = 256


@functools.lru_cache(maxsize=LOAD_CACHE_SIZE)
def _load_content(content: bytes) -> tuple[MechanicalModel, AffineConstraint]:
    """The pair of a model file's content, the memo of `load_model`."""
    return load_model_dict(json.loads(content.decode("utf-8")))


def load_model(path) -> tuple[MechanicalModel, AffineConstraint]:
    """The pair of the model file at path, read on every call.  The same
    content gives the same pair, which is immutable after construction: the
    pairs of the last `LOAD_CACHE_SIZE` distinct contents are kept, each
    with the record of the kernels it has built (`constraint._Pair`), so loading a content again decodes,
    parses, generates and compiles nothing.  A failed load keeps nothing."""
    with open(path, "rb") as f:
        content = f.read()
    try:
        return _load_content(content)
    except ModelFileError:
        raise
    # ValueError: not UTF-8, a JSONDecodeError, or an integer of more digits
    # than int() converts; RecursionError: nested too deeply
    except (ValueError, RecursionError) as err:
        raise ModelFileError(f"{path}: invalid JSON: {err}") from err


def model_to_dict(model: MechanicalModel, con: AffineConstraint) -> dict:
    _pair(model, con)
    return {
        "coordinates": list(model.coordinates),
        "parameters": dict(model.parameters),
        "metric": [[ex.to_string(g) for g in row] for row in model.metric],
        "potential": ex.to_string(model.potential),
        "external_force": [ex.to_string(f) for f in model.external_force],
        "inputs": [[ex.to_string(f) for f in row] for row in model.input_coframe],
        "constraint": {
            "mu": [[ex.to_string(e) for e in row] for row in con.mu],
            "Z": [ex.to_string(z) for z in con.Z],
        },
    }


def save_model(path, model: MechanicalModel, con: AffineConstraint):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(model_to_dict(model, con), f, indent=2)
        f.write("\n")
