"""Property test: the vortex-boat model file with one injected defect is a
usage error (exit 2) whose message names the field or parameter at fault."""

import json
import math
import sys

import pytest

from hypothesis import HealthCheck, given, settings, strategies as st

from vnhc import build_boat, model_to_dict
from vnhc.cli import main

VORTEX = model_to_dict(*build_boat("sin(y)", "cos(x)", m=1.5, I=0.5))

# (path in the file, the name the error gives the field, may use velocities)
FIELDS = [
    (("metric", 0, 0), "metric[0][0]", False),
    (("metric", 2, 2), "metric[2][2]", False),
    (("potential",), "potential", False),
    (("external_force", 0), "external_force[0]", True),
    (("external_force", 1), "external_force[1]", True),
    (("inputs", 0, 1), "inputs[0][1]", False),
    (("constraint", "mu", 0, 0), "constraint.mu[0][0]", False),
    (("constraint", "mu", 0, 2), "constraint.mu[0][2]", False),
    (("constraint", "Z", 0), "constraint.Z[0]", False),
]
DIFFERENTIATED = ("metric", "potential", "constraint.mu", "constraint.Z")
BAD_VALUES = [[1], None, "abc", True, False, {"v": 1}, math.nan, math.inf, -math.inf]


def edit(data, path, change):
    *head, last = path
    for key in head:
        data = data[key]
    data[last] = change(data[last])


@st.composite
def defective_files(draw):
    """(model dict with one defect, substrings the error must contain)."""
    data = json.loads(json.dumps(VORTEX))
    kind = draw(st.sampled_from(
        ["duplicate", "velocity_named", "parameter", "shadow", "foreign", "velocity", "overflow",
         "derivative_overflow"]
    ))
    coords = data["coordinates"]
    if kind == "duplicate":
        i, j = draw(st.permutations(range(3)))[:2]
        coords[j] = coords[i]
        return data, ["duplicate", repr(coords[i])]
    if kind == "velocity_named":
        i, j = draw(st.permutations(range(3)))[:2]
        coords[j] = coords[i] + "d"
        return data, ["duplicate", repr(coords[j])]
    if kind == "parameter":
        name = draw(st.sampled_from(["m", "I", "k"]))
        data["parameters"][name] = draw(st.sampled_from(BAD_VALUES))
        return data, [f"parameter {name!r}"]
    if kind == "shadow":
        name = draw(st.sampled_from(coords + [c + "d" for c in coords]))
        data["parameters"][name] = 1.0
        return data, ["shadow", repr(name)]
    if kind == "velocity":
        path, label, _ = draw(st.sampled_from([f for f in FIELDS if not f[2]]))
        velocity = draw(st.sampled_from([c + "d" for c in coords]))
        edit(data, path, lambda text: f"({text}) + {velocity}")
        return data, [label, "velocity-free", repr(velocity)]
    if kind == "derivative_overflow":  # finite, but d/dx folds to 1e200*1e200
        path, label, _ = draw(st.sampled_from(
            [f for f in FIELDS if f[1].startswith(DIFFERENTIATED)]))
        edit(data, path, lambda text: f"({text}) + 1e200*x*1e200")
        return data, [f"{label.split('[')[0]}: constant is not finite (inf)"]
    path, label, _ = draw(st.sampled_from(FIELDS))
    if kind == "foreign":
        edit(data, path, lambda text: f"({text}) + zz")
        return data, [label, "'zz'"]
    edit(data, path, lambda text: f"({text}) + 1e200*1e200*x")
    return data, [label, "not finite (inf)"]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(defective_files())
def test_defect_is_usage_error_naming_field(tmp_path, capsys, case):
    data, expected = case
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    for text in expected:
        assert text in err


def test_deep_model_round_trips(tmp_path):
    # A 700-term sum loads (the parser is iterative); printing it must not
    # recurse per tree level either, or save_model raises RecursionError.
    from vnhc import load_model, save_model

    data = dict(VORTEX, potential=" + ".join(["x"] * 700))
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(data))
    model, con = load_model(path)
    save_model(tmp_path / "saved.json", model, con)
    again = load_model(tmp_path / "saved.json")
    assert model_to_dict(*again) == model_to_dict(model, con)
    assert model_to_dict(model, con)["potential"] == data["potential"]


def test_deeply_nested_json_is_invalid(tmp_path, capsys):
    # The JSON decoder recurses per nesting level: too deep a file is one
    # usage-error line, not a RecursionError traceback.
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: invalid JSON: maximum recursion depth exceeded")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python converts integers of any length")
def test_too_long_a_json_integer_is_invalid(tmp_path, capsys):
    # json.loads raises a plain ValueError for an integer of more digits
    # than int() converts: one usage-error line that names the file.
    limit = sys.get_int_max_str_digits()
    text = json.dumps({**VORTEX, "parameters": {**VORTEX["parameters"], "k": 0}})
    path = tmp_path / "long.json"
    path.write_text(text.replace('"k": 0', f'"k": 1{"0" * limit}'))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: invalid JSON: Exceeds the limit ({limit} digits)")
    assert err.count("\n") == 1 and err.endswith("\n")
    path.write_text(text.replace('"k": 0', f'"k": 1{"0" * (limit - 1)}'))
    assert main(["check", str(path)]) == 2  # a parameter beyond float range
    assert capsys.readouterr().err == "error: parameter 'k' is out of range\n"
