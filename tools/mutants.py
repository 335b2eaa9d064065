"""Run Tier-1 against a fixed list of small mutants of `src/vnhc`.

Each mutant is a (file, old, new) text replacement, and old must occur
exactly once in the file.  For each mutant the committed tree (`git
archive HEAD`) is unpacked into a temporary directory of its own, the
replacement is made there, and Tier-1 runs in that copy with `-x`,
without `tests/test_golden.py` and without `REPRS_SHA256`'s test (pins
that any change to a source or an output moves).  A mutant that makes a
test fail is killed, and the first failing test is printed; one under
which every test passes survived.  The unmutated tree runs first and must
pass, or no verdict means anything.  Hypothesis draws from a fixed seed,
so a run can be repeated.  Not part of Tier-1 or CI; it takes a few
minutes, one pytest process at a time.

    python tools/mutants.py

Exit status: 0 if every mutant is killed, 1 if one survives, 2 if the
unmutated tree fails.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--continue-on-collection-errors", "--hypothesis-seed=0",
          "--ignore=tests/test_golden.py",
          "--deselect=tests/test_records.py::test_reprs_are_unchanged"]

# name -> (file, old, new)
MUTANTS = {
    "quotient-rule": ("src/vnhc/expr.py", "return div(sub(mul(du, v), mul(u, dv))",
                      "return div(add(mul(du, v), mul(u, dv))"),
    "sine-derivative-sign": ("src/vnhc/expr.py", 'return mul(fn("cos", u), du)',
                             'return neg(mul(fn("cos", u), du))'),
    "rk4-weight": ("src/vnhc/control.py", '"            sv{i} = sv{i} + 2.0 * {d}"',
                   '"            sv{i} = sv{i} + 1.0 * {d}"'),
    "b-without-c": ("src/vnhc/control.py",
                    '_unary("-", _bin(_dot(block, f"S{b}_", "d", n, finite=True), "+", c[b]))',
                    '_unary("-", _dot(block, f"S{b}_", "d", n, finite=True))'),
    "rank-certificate-x1e4": ("src/vnhc/constraint.py", "_bin(1 / (2 * RANK_RTOL",
                              "_bin(1e4 / (2 * RANK_RTOL"),
    "reads-without-raising-lines": (
        "src/vnhc/constraint.py",
        "con._exprs[0], [e for e in nodes if ex._may_raise(e)]])[0]", "con._exprs[0]])[0]"),
    "may-raise-any-sin-safe": ("src/vnhc/expr.py", 'not (node.op in ("sin", "cos", "tan")',
                               'not (node.op == "sin" or node.op in ("sin", "cos", "tan")'),
    "pivot-rtol-x100": ("src/vnhc/constraint.py", "PIVOT_RTOL = 1e-12", "PIVOT_RTOL = 1e-10"),
    "condition-cap-x100": ("src/vnhc/linalg.py", "CONDITION_CAP = 1e12", "CONDITION_CAP = 1e14"),
    "failed-step-number": ("src/vnhc/sim.py", "step += count + 1 - out[4]",
                           "step += count - out[4]"),
    "pair-unchecked": ("src/vnhc/constraint.py", "        check_compatible(model, con, con_first)\n",
                       "        pass\n"),
}


def tier1(tree: Path) -> tuple[str, str]:
    """Tier-1 in tree: ("pass", ""), ("fail", the first failing test or
    collection error) or ("timeout", "")."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        run = subprocess.run(PYTEST, cwd=tree, env=env, capture_output=True, text=True,
                             timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    if run.returncode == 0:
        return "pass", ""
    first = next((line for line in run.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), run.stdout.strip()[-200:])
    return "fail", first.split(" - ")[0]  # the test, without pytest's cut message


def mutated_tree(archive: bytes, parent: str, mutant: tuple | None) -> Path:
    """The archive unpacked under parent, with mutant's replacement made."""
    tree = Path(parent)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # extraction filters exist from Python 3.10.12 and 3.11.4 on; the
        # archive is this repository's own, so it is safe unfiltered
        if hasattr(tarfile, "data_filter"):
            tar.extractall(tree, filter="data")
        else:
            tar.extractall(tree)
    if mutant is not None:
        file, old, new = mutant
        path = tree / file
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"error: {file}: the mutant's text occurs {text.count(old)} times")
        path.write_text(text.replace(old, new), encoding="utf-8")
    return tree


def main() -> int:
    archive = subprocess.run(["git", "archive", "--format=tar", "HEAD"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    survived = False
    for name in [None, *MUTANTS]:
        with tempfile.TemporaryDirectory() as parent:
            verdict, first = tier1(mutated_tree(archive, parent, MUTANTS.get(name)))
        if name is None:
            if verdict != "pass":
                print(f"error: the unmutated tree does not pass Tier-1: {verdict} {first}",
                      file=sys.stderr)
                return 2
            continue
        label = {"pass": "survived", "fail": "killed", "timeout": "killed (timeout)"}[verdict]
        survived |= verdict == "pass"
        print(f"{label:<16} {name:<28} {first}".rstrip(), flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
