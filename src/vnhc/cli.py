"""Command-line interface.

Commands:
  check       hypothesis checks (rank, transversality) on points or a grid
  simulate    integrate the closed-loop system, write a CSV trajectory
  control-at  evaluate P, b, tau* at one state
  fixture     write a bundled fixture as a model file

Exit codes: 0 ok, 1 mathematical failure (violation/abort, or a math
error such as a division by zero while evaluating the model), 2 usage or
parse error, or a file that cannot be read or written.

A plain command line is parsed from the table of the command its first
word names (`_plain`): every word after the command is a declared option
string, as `--name value` or, but for a flag, `--name=value`; a value not
starting with `-`; or the command's one positional; each value passes its
type and choices, and every required argument is given.  Any other line,
and one whose first word names no command (none, -h, an unknown word),
goes to the full parser, so every help text and usage error is the one it
prints.  These are the only two paths.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import stat
import sys
import time
from operator import itemgetter

from . import model_io, models
from .constraint import RankDefectError, _new, _pair, _q_only, _QOnly, _verdict, project_onto_A
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
    for part in filter(None, map(str.strip, text.split(","))):
        name, eq, value = part.partition("=")
        if not eq:
            raise ValueError(f"expected name=value, got {part!r}")
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
    """One line per point, written before the next point is evaluated.

    A point is one call of the pair's q-only kernel, read from the pair's
    record (`constraint._pair`, made when the model loaded) at the first
    point (and again at each while it fails to compile, which is that
    point's error), and its record is judged here.  A record whose
    every gate held and which certifies rank m gets its line at once; any
    other record goes through `_verdict` and the rank of its S.  A math
    error of the kernel is named by the kernel itself (`expr._named`),
    and the rank then comes from the constraint's kernel, as it does for a
    record without S, where the metric failed a gate before a line of the
    constraint's that can raise; neither calls the q-only kernel again.

    On a system with symmetry the record reads the shape coordinates
    alone (`constraint._reads`, kept as reads on the pair's record: theta on
    the boat), so for this call the tail of a line written at once, all of
    it after the point's label, is formatted once and kept under their
    values, and every later point with the same values writes its label
    and that tail, with no kernel call.  A kernel that raised and a record
    that failed a gate or declined the certificate keep nothing, and a
    record that reads every coordinate (gen5's) is not looked up."""
    model, con = model_io.load_model(args.model)
    points, labels = _points(args, model.coordinates)
    m, n, write = con.m, model.n, sys.stdout.write
    full = f" rank=ok({m}/{m})"
    # tails: the values of the coordinates that the record reads -> the
    # tail of the line written at once at the first point with those
    # values, all of it after the label, formatted there once and written
    # as it is at every later point with them.  0.0 and -0.0 are one key,
    # yet the tail is the one of the point's own kernel call: it prints
    # only cond and det, both nonzero where every gate held, and no
    # nonzero value depends on the sign of a zero input, as x/0, log(0) and
    # 0 raised to a negative power all raise in Python.  Where no key is
    # looked up, `at` stays None: a slot written, never read.
    all_ok, kernel, key, at, tails = True, None, None, None, {}
    for q, label in zip(points, labels):
        k = tail = None
        try:  # one q-only kernel call; its error, and the verdict's, come after the rank's
            if kernel is None:
                kernel, reads = _q_only(model, con), _pair(model, con).reads
                if len(reads) < n:
                    key = itemgetter(*reads) if reads else lambda q: ()
            if key is None or (tail := tails.get(at := key(q))) is None:
                k = kernel(q)
                failed, _, _, _, _, cond, det, _, _, full_rank = k
                if failed is None and full_rank:
                    tail = tails[at] = f"{full} transversality=ok cond={cond:.6g} det={det:.6g}\n"
            if tail:
                write(f"q=({label}){tail}")
                continue
            (error, cond), failure = _verdict(k := _new(_QOnly, k), q), None
        except (SPDError, EvalError) as err:
            failure = err
        try:  # of S: the record's, or the constraint's kernel's where the record has none
            rank, sv = con._rank(con.mu_at(q) if k is None or k.S is None else k.S)
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
    """Opens --out once, before the run, and writes the CSV only once the
    run succeeds: a run that fails leaves no new file, not even the target
    of a dangling link, and an existing one untouched.  An existing file
    is written over in place and cut to the CSV's length, so it keeps its
    inode and its hard links.  Where --out is the file stdout writes to
    (/dev/stdout), the CSV is written through stdout, before the
    summary."""
    model, con = model_io.load_model(args.model)
    q0 = _parse_vector(args.q0, model.n, "--q0")
    qd0 = _parse_vector(args.qdot0, model.n, "--qdot0")
    wrap_idx = set()
    for name in args.wrap or []:
        if name not in model.coordinates:
            parser.error(f"--wrap: unknown coordinate {name!r}")
        wrap_idx.add(model.coordinates.index(name))

    state0 = State(q=tuple(q0), qdot=tuple(qd0))
    if args.project:
        state0 = project_onto_A(con, model, state0)

    # --out is opened once, here, so an unwritable path fails before the run.
    # Without O_TRUNC: ext4 writes back a file cut to zero when it is closed,
    # so an existing file is written over and then cut to the CSV's length.
    new = not os.path.exists(args.out)
    with open(args.out, "wb",
              opener=lambda path, flags: os.open(path, flags & ~os.O_TRUNC, 0o666)) as f:
        try:
            start = time.perf_counter()
            traj = integrate(
                model, con, state0,
                t_end=args.t_end, h=args.dt, sample_every=args.sample_every,
            )
            runtime = time.perf_counter() - start

            header = ["t", *model.coordinates, *model.velocities,
                      *(f"tau_{a + 1}" for a in range(model.m)),
                      *(f"phi_{b + 1}" for b in range(con.m))]
            row = ",".join(["%.17g"] * len(header)) + "\n"  # prints what f"{v:.17g}" does
            values = []  # of every row, formatted with one %
            for t, (q, qd), tau, phi in zip(traj.times, traj.states, traj.controls, traj.phis):
                if wrap_idx:
                    q = [_wrap_angle(v) if i in wrap_idx else v for i, v in enumerate(q)]
                values += (t, *q, *qd, *tau, *phi)
            text = ",".join(header) + "\n" + (row * len(traj.times)) % tuple(values)
            # --out naming stdout's own file would be written from its start
            # and then the summary over it: the CSV goes through stdout instead
            st = os.fstat(f.fileno())
            try:
                same = os.path.samestat(st, os.fstat(sys.stdout.fileno()))
            except (AttributeError, OSError, ValueError):  # no descriptor: a caller captures stdout
                same = False
            if same:
                sys.stdout.write(text)
            else:
                f.write(text.encode())
                if stat.S_ISREG(st.st_mode):  # a device or a FIFO is not cut
                    f.truncate()  # at the CSV's end, never 0: the header is there
        except BaseException:  # KeyboardInterrupt too
            f.close()
            if new:  # a file this run made goes again; behind a dangling link, its target
                os.remove(os.path.realpath(args.out))
            raise

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
    q = _parse_vector(args.q, model.n, "--q")
    qd = _parse_vector(args.qdot, model.n, "--qdot")
    solve = solve_control(model, con, State(q=tuple(q), qdot=tuple(qd)))
    print(json.dumps(solve._asdict()))  # tuples are written as arrays
    return EXIT_OK


def cmd_fixture(args, parser) -> int:
    if args.name == "boat":
        c1, c2 = models.FIXTURE_CURRENTS.get(args.current, (None, None))
        if c1 is None:
            parser.error(f"--current must be one of {sorted(models.FIXTURE_CURRENTS)}")
        model, con = models.build_boat(c1, c2, m=args.mass, I=args.inertia)
    else:
        model, con = models.build_linear_fixture(m=args.mass, I=args.inertia)
    model_io.save_model(args.out, model, con)
    print(json.dumps({"out": args.out, "fixture": args.name}))
    return EXIT_OK


def _plain(command, argv):
    """The namespace the full parser gives a plain line `argv`, from the
    table of its command's subparser; None for any other line (see the
    module's docstring).  An explicit value that is empty or `--`, which
    argparse reads differently from one version to the next, is not
    plain.  A default is taken as it is: argparse runs a string default
    through the argument's type, and no argument here has both."""
    table, given, words = command.table, {}, iter(argv[1:])
    for word in words:
        option = word.startswith("-")
        name, eq, value = word.partition("=") if option else (None, "", word)
        kind, action = table.get(name, (None, None))
        if kind == "store_true" and not eq:
            given[action] = action.const
            continue
        # an unknown word or kind, a flag given a value, a second positional
        if kind not in ("store", "append") or not option and action in given:
            return None
        if option and not eq:
            value = next(words, "-")  # a missing value reads as "-", which is not plain
        # a separate value starting with "-" argparse may read as an option
        if value.startswith("-") if not eq else value in ("", "--"):
            return None
        try:
            value = action.type(value) if action.type else value
        except ValueError:
            return None
        if action.choices is not None and value not in action.choices:
            return None
        if kind == "append":  # onto a copy, never onto the default
            value = [*(given.get(action) or action.default or ()), value]
        given[action] = value
    if any(action.required and action not in given for _, action in table.values()):
        return None
    return argparse.Namespace(command=argv[0], **{
        action.dest: given.get(action, action.default) for _, action in table.values()})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    call in the process: parsing a command line leaves no state on it.
    Each subparser's `table` maps each option string it declares (None for
    its positional) to the kind the argument is added with, its `action=`,
    and the Action that `add_argument` returns."""
    parser = argparse.ArgumentParser(
        prog="vnhc",
        description="Synthesize and certify feedback laws that keep an "
        "affine velocity constraint invariant.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, **kwargs):  # a subparser, with an empty table
        p = sub.add_parser(name, **kwargs)
        p.table = {}
        return p

    def add(*names, action="store", **kwargs):  # an argument of p, entered in its table
        entry = action, p.add_argument(*names, action=action, **kwargs)
        for name in names:
            p.table[name if name.startswith("-") else None] = entry

    p = command("check", help="rank and transversality checks")
    add("model")
    add("--point", action="append", help="comma-separated name=value list; repeatable")
    add("--grid", action="append", metavar="NAME=LO:HI:COUNT",
        help="grid axis; repeatable, axes combine as a product")

    p = command("simulate", help="integrate the closed-loop system")
    add("model")
    add("--q0", required=True)
    add("--qdot0", required=True)
    add("--t-end", type=float, required=True)
    add("--dt", type=float, required=True)
    add("--sample-every", type=int, default=1)
    add("--project", action="store_true",
        help="project the initial velocity onto the constraint set")
    add("--out", required=True, help="CSV output path")
    add("--wrap", action="append", metavar="COORD",
        help="wrap this coordinate to (-pi, pi] in the CSV only")

    p = command("control-at", help="evaluate P, b, tau* at one state")
    add("model")
    add("--q", required=True)
    add("--qdot", required=True)

    p = command("fixture", help="write a bundled fixture model file")
    add("name", choices=["boat", "linear"])
    add("--current", default="still",
        help="boat current field: " + ", ".join(sorted(models.FIXTURE_CURRENTS)))
    add("--m", dest="mass", type=float, default=1.0)
    add("--I", dest="inertia", type=float, default=1.0)
    add("--out", required=True)
    parser.commands = sub.choices  # each command's subparser, by name
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = parser.commands.get(argv[0]) if argv else None
    # a plain line from the command's table; any other, and a line that
    # names no command, from the full parser
    args = command and _plain(command, argv) or parser.parse_args(argv)
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
