"""Command-line interface.

Commands:
  check       hypothesis checks (rank, transversality) on points or a grid
  simulate    integrate the closed-loop system, write a CSV trajectory
  control-at  evaluate P, b, tau* at one state
  fixture     write a bundled fixture as a model file

Exit codes: 0 ok, 1 mathematical failure (violation/abort, or a math
error such as a division by zero while evaluating the model), 2 usage or
parse error, or a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
import time

from . import model_io, models
from .constraint import RankDefectError, _p_system, _verdict, project_onto_A
from .control import TransversalityError, solve_control
from .expr import EvalError
from .geometry import SPDError, State
from .model_io import ModelFileError
from .sim import IntegrationError, integrate

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _parse_assignments(text: str) -> dict:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"expected name=value, got {part!r}")
        name, _, value = part.partition("=")
        name = name.strip()
        if name in out:
            raise ValueError(f"--point gives coordinate {name!r} twice")
        out[name] = float(value)
    return out


def _parse_vector(text: str, n: int, flag: str) -> list[float]:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != n:
        raise ValueError(f"{flag} needs {n} comma-separated values, got {len(parts)}")
    return [float(p) for p in parts]


def _points(args, coordinates) -> tuple[list[tuple], list[str]]:
    """The points of --point and of the product of the --grid axes (the
    origin if neither is given), and the label of each, its coordinates as
    `check` prints them: a grid axis's values are formatted once, and the
    labels are joined from their product as the points are; a usage error
    for a malformed or repeated axis or coordinate or a non-finite
    coordinate."""
    pts, labels = [], []
    for text in args.point or []:
        values = _parse_assignments(text)
        unknown = set(values) - set(coordinates)
        if unknown:
            raise ValueError(f"unknown coordinates {sorted(unknown)} in --point")
        pts.append(tuple(values.get(c, 0.0) for c in coordinates))
        if not all(map(math.isfinite, pts[-1])):
            raise ValueError(f"non-finite coordinate in --point {text!r}")
        labels.append(", ".join(f"{v:g}" for v in pts[-1]))
    axes = {}
    for text in args.grid or []:
        name, _, spec = text.partition("=")
        if name not in coordinates:
            raise ValueError(f"unknown coordinate {name!r} in --grid")
        if name in axes:
            raise ValueError(f"--grid axis {name!r} is given twice")
        try:
            lo, hi, count = spec.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
        except ValueError:
            raise ValueError(f"--grid expects NAME=LO:HI:COUNT, got {text!r}") from None
        if count < 1:
            raise ValueError("--grid count must be at least 1")
        step = (hi - lo) / (count - 1) if count > 1 else 0.0
        axes[name] = [lo + i * step for i in range(count)]
        if not all(map(math.isfinite, axes[name])):
            raise ValueError(f"non-finite coordinate in --grid {text!r}")
    if axes or not pts:
        values = [axes.get(c, [0.0]) for c in coordinates]
        pts.extend(itertools.product(*values))
        labels.extend(map(", ".join, itertools.product(*([f"{v:g}" for v in axis]
                                                         for axis in values))))
    return pts, labels


def cmd_check(args) -> int:
    """One line per point, written before the next point is evaluated."""
    model, con = model_io.load_model(args.model)
    points, labels = _points(args, model.coordinates)
    m, write = con.m, sys.stdout.write
    full = f" rank=ok({m}/{m})"
    all_ok = True
    for q, label in zip(points, labels):
        k = None
        try:  # one q-only kernel call and its verdict; their error comes after the rank's
            k = _p_system(model, con, q)
            (error, cond), failure = _verdict(k, q), None
        except (SPDError, EvalError) as err:
            failure = err
        try:  # S from the record; from the constraint's kernel where the q-only kernel raised
            rank, sv = con._rank(con.mu_at(q) if k is None else k.S)
        except EvalError as err:
            verdict = f" rank=ERROR ({err})"
        else:
            if rank < m:
                verdict = f" rank=DEFECT({rank}/{m}) singular_values={[f'{s:.3e}' for s in sv]}"
            elif failure is None:
                write(f"q=({label}){full} transversality={'ok' if error is None else 'VIOLATION'}"
                      f" cond={cond:.6g} det={k.det:.6g}\n")
                all_ok &= error is None
                continue
            elif isinstance(failure, SPDError):
                verdict = f"{full} metric=SPD-FAILURE ({failure})"
            else:
                verdict = f"{full} transversality=ERROR ({failure})"
        write(f"q=({label}){verdict}\n")
        all_ok = False
    return EXIT_OK if all_ok else EXIT_FAILURE


def _wrap_angle(v: float) -> float:
    w = (v + math.pi) % (2.0 * math.pi) - math.pi
    return math.pi if w == -math.pi else w


def cmd_simulate(args, parser) -> int:
    """Writes the CSV only once the run succeeds: a run that fails leaves
    no new file, not even the target of a dangling link, and an existing
    one untouched.  Where --out is the file stdout writes to
    (/dev/stdout), the CSV is written through stdout, before the
    summary."""
    model, con = model_io.load_model(args.model)
    n = model.n
    q0 = _parse_vector(args.q0, n, "--q0")
    qd0 = _parse_vector(args.qdot0, n, "--qdot0")
    wrap_idx = set()
    for name in args.wrap or []:
        if name not in model.coordinates:
            parser.error(f"--wrap: unknown coordinate {name!r}")
        wrap_idx.add(model.coordinates.index(name))

    state0 = State(q=tuple(q0), qdot=tuple(qd0))
    if args.project:
        state0 = project_onto_A(con, model, state0)

    # an unwritable --out fails here, before the run; a file this makes goes
    # again, and behind a dangling link that is the link's target
    new = not os.path.exists(args.out)
    open(args.out, "a").close()
    if new:
        os.remove(os.path.realpath(args.out))

    start = time.perf_counter()
    traj = integrate(
        model, con, state0,
        t_end=args.t_end, h=args.dt, sample_every=args.sample_every,
    )
    runtime = time.perf_counter() - start

    header = (
        ["t"]
        + list(model.coordinates)
        + list(model.velocities)
        + [f"tau_{a + 1}" for a in range(model.m)]
        + [f"phi_{b + 1}" for b in range(con.m)]
    )
    row = ",".join(["%.17g"] * len(header)) + "\n"  # prints what f"{v:.17g}" does
    values = []  # of every row, formatted with one %
    for t, (q, qd), tau, phi in zip(traj.times, traj.states, traj.controls, traj.phis):
        if wrap_idx:
            q = [_wrap_angle(v) if i in wrap_idx else v for i, v in enumerate(q)]
        values += (t, *q, *qd, *tau, *phi)
    text = ",".join(header) + "\n" + (row * len(traj.times)) % tuple(values)
    # --out naming stdout's own file, opened again, would be written from its
    # start and then the summary over it: the CSV goes through stdout instead
    try:
        same = os.path.samestat(os.stat(args.out), os.fstat(sys.stdout.fileno()))
    except (AttributeError, OSError, ValueError):  # no file descriptor: a caller captures stdout
        same = False
    with contextlib.nullcontext(sys.stdout) if same else open(
            args.out, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)

    summary = {
        "samples": len(traj.times),
        "t_end": args.t_end,
        "dt": args.dt,
        "phi0": list(traj.phis[0]),
        "drift_report": list(traj.drift_report),
        "runtime_s": runtime,
        "out": args.out,
    }
    print(json.dumps(summary))
    return EXIT_OK


def cmd_control_at(args) -> int:
    model, con = model_io.load_model(args.model)
    n = model.n
    q = _parse_vector(args.q, n, "--q")
    qd = _parse_vector(args.qdot, n, "--qdot")
    solve = solve_control(model, con, State(q=tuple(q), qdot=tuple(qd)))
    print(json.dumps(solve._asdict()))  # tuples are written as arrays
    return EXIT_OK


def cmd_fixture(args, parser) -> int:
    if args.name == "boat":
        c1, c2 = models.FIXTURE_CURRENTS.get(args.current, (None, None))
        if c1 is None:
            parser.error(
                f"--current must be one of {sorted(models.FIXTURE_CURRENTS)}"
            )
        model, con = models.build_boat(c1, c2, m=args.mass, I=args.inertia)
    else:
        model, con = models.build_linear_fixture(m=args.mass, I=args.inertia)
    model_io.save_model(args.out, model, con)
    print(json.dumps({"out": args.out, "fixture": args.name}))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    call in the process: parsing a command line leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="vnhc",
        description="Synthesize and certify feedback laws that keep an "
        "affine velocity constraint invariant.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="rank and transversality checks")
    p.add_argument("model")
    p.add_argument("--point", action="append",
                   help="comma-separated name=value list; repeatable")
    p.add_argument("--grid", action="append", metavar="NAME=LO:HI:COUNT",
                   help="grid axis; repeatable, axes combine as a product")

    p = sub.add_parser("simulate", help="integrate the closed-loop system")
    p.add_argument("model")
    p.add_argument("--q0", required=True)
    p.add_argument("--qdot0", required=True)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--sample-every", type=int, default=1)
    p.add_argument("--project", action="store_true",
                   help="project the initial velocity onto the constraint set")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--wrap", action="append", metavar="COORD",
                   help="wrap this coordinate to (-pi, pi] in the CSV only")

    p = sub.add_parser("control-at", help="evaluate P, b, tau* at one state")
    p.add_argument("model")
    p.add_argument("--q", required=True)
    p.add_argument("--qdot", required=True)

    p = sub.add_parser("fixture", help="write a bundled fixture model file")
    p.add_argument("name", choices=["boat", "linear"])
    p.add_argument("--current", default="still",
                   help="boat current field: " + ", ".join(sorted(models.FIXTURE_CURRENTS)))
    p.add_argument("--m", dest="mass", type=float, default=1.0)
    p.add_argument("--I", dest="inertia", type=float, default=1.0)
    p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return cmd_check(args)
        if args.command == "simulate":
            if not 0 < args.t_end < math.inf:
                parser.error("--t-end must be positive and finite")
            if not 0 < args.dt < math.inf:
                parser.error("--dt must be positive and finite")
            if args.sample_every < 1:
                parser.error("--sample-every must be at least 1")
            return cmd_simulate(args, parser)
        if args.command == "control-at":
            return cmd_control_at(args)
        return cmd_fixture(args, parser)
    except (TransversalityError, IntegrationError, SPDError, RankDefectError,
            EvalError) as err:  # before ValueError: EvalError is one
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILURE
    except (ModelFileError, OSError, ValueError) as err:  # OSError: a missing file, a directory
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
