"""Benchmark of the vnhc pipeline: synthesize tau*, integrate, certify.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
`src/` directory.  One process, one thread, BLAS pinned to one thread.

Workloads (see BENCHMARK.json for why each was chosen):
  simulate-vortex  `vnhc simulate` in-process on the vortex-boat file
  tau-sweep        `tau_star` on seeded states of four models
  check-grid       `vnhc check` in-process over seeded 3-D grids

A run generates its inputs from the seed under `.bench_work/` in the
checkout, then repeats calls of the workload for --seconds seconds in
0.25 s batches.  After each batch it times one set-up (model loading) and
one calibration pass (bench/calibration.py); reported times are scaled to
a reference machine speed by the passes around the batch they were
measured in.  Every call's output is checked; a call that raises, exits
nonzero or fails a gate counts as failed, and a run with any failure
reports no metrics and exits 1.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced batches (spans from bench/spans.py), then probes every layer
function at states the workload visited, prints the per-layer metrics
(from the workload's own calls where it made them, else from the probe)
and writes the spans to `.bench_out/`.

The last line of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
A human-readable summary goes to standard error.
"""

from __future__ import annotations

import os

# BLAS reads these once, when numpy is first imported, so they come first.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
from calibration import Calibration  # noqa: E402
from spans import Tracer  # noqa: E402

# Correctness gates.
PHI_DRIFT_GATE = 1e-8  # criterion 2
TAU_ERR_GATE = 1e-9  # criterion 1: boat law
TANGENCY_GATE = 1e-9  # criterion 4: |dphi|/(1+|qd|^2)
TANGENCY_EPS = 1e-6

SIM_T_END, SIM_DT, SIM_SAMPLE_EVERY = 0.2, 1e-3, 10
SIM_STARTS = 8
TAU_STATES_PER_MODEL = 250
TANGENCY_STATES_PER_MODEL = 50
GRID_CALLS, GRID_PER_AXIS = 32, 4

SETUP_FIRST_REPS = 5
BATCH_SECONDS = 0.25  # one set-up between batches; traced batches alternate
PROBE_STATES = 40  # per model
RESERVOIR = 20000


class GateFailure(Exception):
    """A call's output is wrong."""


def units_of(metrics: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in metrics}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def import_program():
    """Import vnhc from this checkout's sources, never from elsewhere."""
    if not (SRC / "vnhc" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC / 'vnhc'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import vnhc
    import vnhc.cli
    import vnhc.linalg

    if Path(vnhc.__file__).resolve().parent != (SRC / "vnhc").resolve():
        raise SystemExit(f"error: imported vnhc from {vnhc.__file__}, not {SRC}")
    return vnhc


def run_cli(vnhc, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = vnhc.cli.main(argv)
        except SystemExit as exit_:  # argparse usage errors
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


def fmt_vector(v) -> str:
    return ",".join(repr(float(x)) for x in v)


class Reservoir:
    """Uniform sample of at most `cap` (value, batch) pairs (Algorithm R),
    so memory stays fixed however many calls a run makes."""

    def __init__(self, cap: int, seed: int):
        self.cap, self.seen = cap, 0
        self.values = array("d")
        self.batches = array("i")
        self._rng = random.Random(seed)

    def add(self, value: float, batch: int):
        self.seen += 1
        if len(self.values) < self.cap:
            self.values.append(value)
            self.batches.append(batch)
        else:
            j = self._rng.randrange(self.seen)
            if j < self.cap:
                self.values[j] = value
                self.batches[j] = batch


# ---------------------------------------------------------------------------
# Workloads.  Each makes its inputs from the seed, loads its models (the
# timed set-up), performs call k, and checks the output of call k.

class Workload:
    def __init__(self, vnhc, work: Path, seed: int):
        self.vnhc, self.work, self.seed = vnhc, work, seed
        self.gates: dict[str, float] = {}
        self.models: dict = {}  # name -> (model, constraint), from the set-up
        self.cli_overhead: list[float] = []  # simulate: wall - runtime_s
        self.check_point_s: list[float] = []  # check: wall per point

    def write_boat(self, current: str) -> Path:
        path = self.work / f"boat-{current}.json"
        code, _, err = run_cli(
            self.vnhc, ["fixture", "boat", "--current", current, "--out", str(path)]
        )
        if code != 0:
            raise RuntimeError(f"vnhc fixture failed: {err}")
        return path

    def gate_max(self, name: str, value: float):
        self.gates[name] = max(self.gates.get(name, 0.0), value)

    def model_files(self) -> dict[str, Path]:
        raise NotImplementedError

    def load(self) -> dict:
        return {name: self.vnhc.model_io.load_model(path)
                for name, path in self.model_files().items()}

    def final_checks(self):
        pass

    def visited(self) -> dict[str, list[tuple]]:
        """model name -> (q, qdot) states this run visited, for probes."""
        raise NotImplementedError


class SimulateVortex(Workload):
    def __init__(self, vnhc, work, seed):
        super().__init__(vnhc, work, seed)
        self.path = self.write_boat("vortex")
        self.starts = inputs.simulate_starts(seed, SIM_STARTS)
        self.steps = max(1, int(round(SIM_T_END / SIM_DT)))
        # t = 0, every SIM_SAMPLE_EVERY-th step, and the last step
        self.samples = 1 + math.ceil(self.steps / SIM_SAMPLE_EVERY)
        self.refs: dict[int, tuple] = {}
        self.states: list[tuple] = []
        self.csv = work / "traj.csv"

    def model_files(self):
        return {"vortex": self.path}

    def call(self, k):
        q0, qd0 = self.starts[k % len(self.starts)]
        return run_cli(self.vnhc, [
            "simulate", str(self.path), f"--q0={fmt_vector(q0)}", f"--qdot0={fmt_vector(qd0)}",
            "--t-end", repr(SIM_T_END), "--dt", repr(SIM_DT),
            "--sample-every", str(SIM_SAMPLE_EVERY), "--project", "--out", str(self.csv),
        ])

    def check(self, k, result, wall) -> int:
        code, out, err = result
        if code != 0:
            raise GateFailure(f"simulate exit {code}: {err.strip()}")
        summary = json.loads(out.strip().splitlines()[-1])
        drift = max(summary["drift_report"])
        self.gate_max("max_phi_drift", drift)
        if not drift <= PHI_DRIFT_GATE:
            raise GateFailure(f"phi drift {drift:.3e} > {PHI_DRIFT_GATE:.0e}")
        rows = self.csv.read_text(encoding="utf-8").splitlines()
        if summary["samples"] != self.samples or len(rows) != self.samples + 1:
            raise GateFailure(f"{len(rows) - 1} CSV rows, {summary['samples']} samples; "
                              f"expected {self.samples}")
        key = (tuple(summary["phi0"]), tuple(summary["drift_report"]), rows[-1])
        i = k % len(self.starts)
        if i not in self.refs:
            self.refs[i] = key
            n = 3  # the boat's coordinates
            for row in rows[1:]:
                v = [float(x) for x in row.split(",")]
                self.states.append((tuple(v[1:1 + n]), tuple(v[1 + n:1 + 2 * n])))
        elif self.refs[i] != key:
            raise GateFailure("simulate output differs from the same call earlier in the run")
        self.cli_overhead.append(wall - summary["runtime_s"])
        return self.steps

    def visited(self):
        return {"vortex": self.states}


class TauSweep(Workload):
    def __init__(self, vnhc, work, seed):
        super().__init__(vnhc, work, seed)
        self.paths = {c: self.write_boat(c) for c in inputs.BOAT_CURRENTS}
        self.gen5 = inputs.Gen5(seed)
        self.paths["gen5"] = work / "gen5.json"
        inputs.write_gen5(self.paths["gen5"], self.gen5)
        self.states = inputs.tau_states(seed, TAU_STATES_PER_MODEL)
        inputs.check_gen5(self.gen5, [(q, qd) for name, q, qd in self.states if name == "gen5"])
        self.refs: dict[int, tuple] = {}

    def model_files(self):
        return self.paths

    def call(self, k):
        name, q, qd = self.states[k % len(self.states)]
        model, con = self.models[name]
        return self.vnhc.tau_star(model, con, self.vnhc.State(q=q, qdot=qd))

    def check(self, k, result, wall) -> int:
        i = k % len(self.states)
        tau = tuple(result)
        ref = self.refs.get(i)
        if ref is None:
            name, q, qd = self.states[i]
            if name != "gen5":
                th = q[2]
                law = -1.0 * qd[2] * (math.cos(th) * qd[0] + math.sin(th) * qd[1])
                err = abs(tau[0] - law)
                self.gate_max("max_tau_err", err)
                if not err <= TAU_ERR_GATE:
                    raise GateFailure(f"|tau - boat law| = {err:.3e} at q={q}, qdot={qd}")
            self.refs[i] = tau
        elif ref != tau:
            raise GateFailure(f"tau_star differs from the same call earlier in the run: {ref} {tau}")
        return 1

    def final_checks(self):
        """Criterion-4 tangency residual on every model, outside the timing."""
        vn = self.vnhc
        seen: dict[str, int] = {}
        for name, q, qd in self.states:
            if seen.get(name, 0) >= TANGENCY_STATES_PER_MODEL:
                continue
            seen[name] = seen.get(name, 0) + 1
            model, con = self.models[name]
            s = vn.State(q=q, qdot=qd)
            acc = vn.closed_loop_acceleration(model, con, s)
            n, e = len(q), TANGENCY_EPS
            fwd = vn.State(q=tuple(q[i] + e * qd[i] for i in range(n)),
                           qdot=tuple(qd[i] + e * acc[i] for i in range(n)))
            bwd = vn.State(q=tuple(q[i] - e * qd[i] for i in range(n)),
                           qdot=tuple(qd[i] - e * acc[i] for i in range(n)))
            speed2 = sum(v * v for v in qd)
            for pf, pb in zip(con.phi(fwd), con.phi(bwd)):
                self.gate_max("max_tangency_residual", abs(pf - pb) / (2 * e) / (1 + speed2))
        worst = self.gates["max_tangency_residual"]
        if not worst <= TANGENCY_GATE:
            raise GateFailure(f"tangency residual {worst:.3e} > {TANGENCY_GATE:.0e}")

    def visited(self):
        out: dict[str, list] = {}
        for name, q, qd in self.states:
            out.setdefault(name, []).append((q, qd))
        return out


class CheckGrid(Workload):
    def __init__(self, vnhc, work, seed):
        super().__init__(vnhc, work, seed)
        self.path = self.write_boat("vortex")
        self.grids = inputs.check_grids(seed, GRID_CALLS, GRID_PER_AXIS)
        self.points = GRID_PER_AXIS ** 3
        self.refs: dict[int, str] = {}
        self.qs: list[tuple] = []

    def model_files(self):
        return {"vortex": self.path}

    def call(self, k):
        return run_cli(self.vnhc, ["check", str(self.path)] + self.grids[k % len(self.grids)])

    def check(self, k, result, wall) -> int:
        code, out, err = result
        if code != 0:
            raise GateFailure(f"check exit {code}: {err.strip()}")
        lines = out.splitlines()
        if len(lines) != self.points:
            raise GateFailure(f"check printed {len(lines)} lines for {self.points} points")
        bad = [ln for ln in lines if " rank=ok(" not in ln or " transversality=ok " not in ln]
        if bad:
            raise GateFailure(f"check verdict not ok: {bad[0]}")
        i = k % len(self.grids)
        if i not in self.refs:
            self.refs[i] = out
            for ln in lines[:4]:
                inner = ln[ln.index("q=(") + 3:ln.index(")")]
                self.qs.append(tuple(float(v) for v in inner.split(",")))
        elif self.refs[i] != out:
            raise GateFailure("check output differs from the same call earlier in the run")
        self.check_point_s.append(wall / self.points)
        return self.points

    def visited(self):
        rng = random.Random(f"grid-qdot-{self.seed}")
        return {"vortex": [(q, tuple(rng.uniform(-2, 2) for _ in q)) for q in self.qs]}


WORKLOADS = {"simulate-vortex": SimulateVortex, "tau-sweep": TauSweep, "check-grid": CheckGrid}


# ---------------------------------------------------------------------------
# Measurement.

class Counts:
    def __init__(self):
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class Setup:
    """Set-up times: model loading, repeated between batches of calls so
    that the median spans the whole run."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.times: list[tuple[float, int]] = []  # (seconds, batch before it)

    def once(self, batch: int) -> dict:
        t0 = time.perf_counter()
        models = self.wl.load()
        self.times.append((time.perf_counter() - t0, batch))
        return models

    def median(self, factor) -> float:
        return statistics.median(t * factor(b) for t, b in self.times)


class Timing:
    """Timed calls of one kind (untraced or traced), by batch."""

    def __init__(self, seed: int):
        self.calls = 0
        self.ops: dict[int, int] = {}
        self.busy: dict[int, float] = {}
        self.per_op = Reservoir(RESERVOIR, seed)

    def add(self, batch: int, ops: int, wall: float):
        self.calls += 1
        self.ops[batch] = self.ops.get(batch, 0) + ops
        self.busy[batch] = self.busy.get(batch, 0.0) + wall
        self.per_op.add(wall / ops, batch)

    def rate(self, factor) -> float:
        """Operations per second, each batch's time scaled by factor(batch)."""
        return sum(self.ops.values()) / sum(t * factor(b) for b, t in self.busy.items())

    def quantile(self, p: int, factor) -> float:
        scaled = [v * factor(b) for v, b in zip(self.per_op.values, self.per_op.batches)]
        return statistics.quantiles(scaled, n=100)[p - 1]


def one_call(wl: Workload, k: int, counts: Counts, timing: Timing | None, batch: int):
    counts.attempted += 1
    t0 = time.perf_counter()
    try:
        result = wl.call(k)
    except Exception as err:  # every exception from the program is a failed operation
        counts.fail(f"call {k}: {type(err).__name__}: {err}")
        return
    wall = time.perf_counter() - t0
    try:
        ops = wl.check(k, result, wall)
    except (GateFailure, ValueError, KeyError, IndexError) as err:
        counts.fail(f"call {k}: {type(err).__name__}: {err}")
        return
    if timing is not None:
        timing.add(batch, ops, wall)


def run_calls(wl, setup: Setup, cal: Calibration, seconds, counts, seed,
              tracer: Tracer | None = None):
    """Calls for `seconds` in batches, with one set-up and one calibration
    pass after each batch; with a tracer, batches alternate untraced and
    traced."""
    plain, traced = Timing(seed), Timing(seed + 1)
    k = 0
    for _ in range(3):  # warm-up, not timed
        one_call(wl, k, counts, None, -1)
        k += 1
    deadline = time.perf_counter() + seconds
    batch_seconds = min(BATCH_SECONDS, seconds / 4)
    batch = 0
    while time.perf_counter() < deadline:
        on = tracer is not None and batch % 2 == 1
        timing = traced if on else plain
        batch_end = min(deadline, time.perf_counter() + batch_seconds)
        if on:
            tracer.install()
        try:
            while True:
                one_call(wl, k, counts, timing, batch)
                k += 1
                if time.perf_counter() >= batch_end:
                    break
        finally:
            if on:
                tracer.uninstall()
        setup.once(batch)
        cal.measure()
        batch += 1
    return plain, traced


def end_to_end(setup: Setup, timing: Timing, factor) -> dict:
    """Every time scaled by factor(batch in which it was measured)."""
    return {
        "setup_s": setup.median(factor),
        "ops_per_s": timing.rate(factor),
        "op_p50_us": timing.quantile(50, factor) * 1e6,
        "op_p90_us": timing.quantile(90, factor) * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def unscaled(batch: int) -> float:
    return 1.0


TIME_UNITS = {"s", "ms", "us"}


def at_reference(raw: dict, units: dict, factor: float) -> dict:
    """Times multiplied, rates divided, by one calibration factor."""
    out = {}
    for name, value in raw.items():
        if units[name] in TIME_UNITS:
            value *= factor
        elif units[name] == "1/s":
            value /= factor
        out[name] = value
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics.

# metric -> (span, scale); the value is the mean total time of one call.
SPAN_METRICS = {
    "model_io.load_s": ("model_io.load_model", 1.0),
    "linalg.cholesky_us": ("linalg.cholesky", 1e6),
    "linalg.lu_factor_us": ("linalg.lu_factor", 1e6),
    "linalg.cond1_us": ("linalg.cond1_from_lu", 1e6),
    "geometry.state_us": ("geometry.State", 1e6),
    "geometry.drift_us": ("geometry.drift_acceleration", 1e6),
    "geometry.input_fields_us": ("geometry.input_fields_at", 1e6),
    "geometry.metric_at_us": ("geometry.metric_at", 1e6),
    "constraint.phi_us": ("constraint.phi", 1e6),
    "constraint.rank_check_us": ("constraint.rank_check", 1e6),
    "constraint.transversality_us": ("constraint.transversality_check", 1e6),
    "constraint.project_us": ("constraint.project_onto_A", 1e6),
    "control.solve_us": ("control.solve_control", 1e6),
    "control.closed_loop_us": ("control.closed_loop_acceleration", 1e6),
    "control.p_matrix_us": ("control.p_matrix", 1e6),
    "control.b_vector_us": ("control.b_vector", 1e6),
    "sim.rk4_step_us": ("sim.rk4_step", 1e6),
}
KERNELS = ("force", "metric", "dmetric", "coframe", "mu", "dmu", "dZ")


def compile_kernels(vnhc, model, con) -> dict:
    """The model's expression sets, compiled with the public compile_exprs."""
    ex = vnhc.expr
    xs, vs, p = list(model.coordinates), list(model.velocities), model.parameters
    n = len(xs)
    sets = {
        "force": (model.external_force, xs + vs),
        "metric": ([g for row in model.metric for g in row], xs),
        "dmetric": ([ex.diff(model.metric[i][j], xs[k])
                     for i in range(n) for j in range(n) for k in range(n)], xs),
        "coframe": ([f for row in model.input_coframe for f in row], xs),
        "mu": ([e for row in con.mu for e in row], xs),
        "dmu": ([ex.diff(e, x) for row in con.mu for e in row for x in xs], xs),
        "dZ": ([ex.diff(z, x) for z in con.Z for x in xs], xs),
    }
    return {name: (ex.compile_exprs(exprs, args, p), name == "force")
            for name, (exprs, args) in sets.items()}


def probe(vnhc, wl: Workload, tracer: Tracer) -> dict:
    """Call every layer function at states the workload visited, traced.

    Returns the kernel spans of each model: model -> kernel -> [count, total_s]."""
    ln = vnhc.linalg
    simulate_calls, check_calls = bool(wl.cli_overhead), bool(wl.check_point_s)
    kernel_stats = {}
    for name, states in wl.visited().items():
        model, con = wl.models[name]
        step = max(1, len(states) // PROBE_STATES)
        picked = states[::step][:PROBE_STATES]
        pre = []
        for q, qd in picked:  # inputs of the linalg probes, made untraced
            g = model.metric_at(q)
            p = vnhc.p_matrix(model, con, q)
            pre.append((g, p, ln.lu_factor(p)))
        ktracer = Tracer()
        kernels = {k: (ktracer.wrap(k, fn), with_v)
                   for k, (fn, with_v) in compile_kernels(vnhc, model, con).items()}
        with tracer:
            for (q, qd), (g, p, (lu, piv)) in zip(picked, pre):
                s = vnhc.State(q=q, qdot=qd)
                for fn, with_v in kernels.values():
                    if with_v:
                        fn(*q, *qd)
                    else:
                        fn(*q)
                ln.cholesky(g)
                ln.lu_factor(p)
                ln.cond1_from_lu(p, lu, piv)
                model.metric_at(q)
                model.input_fields_at(q)
                model.drift_acceleration(s)
                con.phi(s)
                con.rank_check(q)
                vnhc.transversality_check(con, model, q)
                vnhc.project_onto_A(con, model, s)
                vnhc.solve_control(model, con, s)
                vnhc.closed_loop_acceleration(model, con, s)
                vnhc.p_matrix(model, con, q)
                vnhc.b_vector(model, con, s)
                vnhc.rk4_step(model, con, s, SIM_DT)
            q, qd = picked[0]
            vnhc.integrate(model, con, vnhc.State(q=q, qdot=qd), t_end=50 * SIM_DT,
                           h=SIM_DT, sample_every=SIM_SAMPLE_EVERY)
            vnhc.model_io.load_model(wl.model_files()[name])
            # A short simulate and a small check through the CLI, for
            # workloads that make no such calls.
            path = str(wl.model_files()[name])
            if not simulate_calls:
                probe_simulate(vnhc, wl, path, q, qd)
            if not check_calls:
                probe_check(vnhc, wl, path, model.coordinates, [q for q, _ in picked[:8]])
        kernel_stats[name] = {k: v[:2] for k, v in ktracer.by_name().items()}
    return kernel_stats


def probe_simulate(vnhc, wl: Workload, path: str, q, qd):
    t0 = time.perf_counter()
    code, out, err = run_cli(vnhc, [
        "simulate", path, f"--q0={fmt_vector(q)}", f"--qdot0={fmt_vector(qd)}",
        "--t-end", repr(20 * SIM_DT), "--dt", repr(SIM_DT),
        "--sample-every", str(SIM_SAMPLE_EVERY), "--out", str(wl.work / "probe.csv"),
    ])
    wall = time.perf_counter() - t0
    if code != 0:
        raise GateFailure(f"probe simulate exit {code}: {err.strip()}")
    wl.cli_overhead.append(wall - json.loads(out.splitlines()[-1])["runtime_s"])


def probe_check(vnhc, wl: Workload, path: str, coordinates, qs):
    argv = ["check", path]
    for q in qs:
        argv += ["--point", ",".join(f"{x}={v!r}" for x, v in zip(coordinates, q))]
    t0 = time.perf_counter()
    code, _, err = run_cli(vnhc, argv)
    wall = time.perf_counter() - t0
    if code != 0:
        raise GateFailure(f"probe check exit {code}: {err.strip()}")
    wl.check_point_s.append(wall / len(qs))


def cholesky_per_eval(vnhc, wl: Workload) -> float:
    """linalg.cholesky calls inside one closed_loop_acceleration call."""
    tracer = Tracer()
    evals = 0
    with tracer:
        for name, states in wl.visited().items():
            model, con = wl.models[name]
            for q, qd in states[:10]:
                vnhc.closed_loop_acceleration(model, con, vnhc.State(q=q, qdot=qd))
                evals += 1
    return tracer.count("linalg.cholesky") / evals


def sample_share(tracer: Tracer) -> float | None:
    rec = tracer.by_name().get("sim.integrate")
    if not rec:
        return None
    sampling = (tracer.child_total("sim.integrate", "control.solve_control")
                + tracer.child_total("sim.integrate", "constraint.phi"))
    return sampling / rec[1]


def per_layer(vnhc, wl, traced: Tracer, probed: Tracer, kernel_stats: dict,
              plain: Timing, traced_timing: Timing, factor) -> dict:
    out = {}

    def span_mean(span, scale):
        for tr in (traced, probed):  # the workload's own calls first
            if tr.count(span):
                return tr.mean_total(span) * scale
        raise GateFailure(f"no {span} span recorded")

    for k in KERNELS:
        count = sum(stats[k][0] for stats in kernel_stats.values())
        out[f"expr.kernel_us.{k}"] = sum(stats[k][1] for stats in kernel_stats.values()) / count * 1e6
    out["linalg.cholesky_per_eval"] = cholesky_per_eval(vnhc, wl)
    for metric, (span, scale) in SPAN_METRICS.items():
        out[metric] = span_mean(span, scale)
    out["sim.stage_overhead_us"] = out["sim.rk4_step_us"] - 4 * out["control.closed_loop_us"]
    share = sample_share(traced)
    out["sim.sample_share"] = share if share is not None else sample_share(probed)
    out["cli.overhead_s"] = statistics.fmean(wl.cli_overhead)
    out["cli.check_point_us"] = statistics.fmean(wl.check_point_s) * 1e6
    out["trace_overhead"] = plain.rate(factor) / traced_timing.rate(factor) - 1.0
    return out


def span_cost_s(calls: int = 20000) -> float:
    """Time one span adds around a call with a few arguments."""
    def noop(a, b, c, h=None):
        return a

    wrapped = Tracer().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop(1, 2, 3)
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped(1, 2, 3)
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / calls


def rk4_accounting(vnhc, wl) -> dict:
    """Where a traced RK4 step's time goes, and whether the spans explain
    the gap to an untraced step.

    Untraced and traced passes over the same states alternate, so both
    see the same machine speed.  The self times of the spans inside a
    traced step add up to the step; the traced step exceeds the untraced
    one by about (spans inside a step) x (cost of one span)."""
    name, states = next(iter(wl.visited().items()))
    model, con = wl.models[name]
    sts = [vnhc.State(q=q, qdot=qd) for q, qd in states[:PROBE_STATES]]
    tracer = Tracer()
    plain_s = traced_s = 0.0
    for _ in range(10):
        t0 = time.perf_counter()
        for s in sts:
            vnhc.rk4_step(model, con, s, SIM_DT)
        t1 = time.perf_counter()
        with tracer:
            for s in sts:
                vnhc.rk4_step(model, con, s, SIM_DT)
        plain_s += t1 - t0
        traced_s += time.perf_counter() - t1
    steps = tracer.count("sim.rk4_step")
    inside = tracer.under("sim.rk4_step")
    self_us = {k: v[1] / steps * 1e6 for k, v in sorted(inside.items())}
    nested = sum(c for c, _ in inside.values()) / steps - 1
    span_us = span_cost_s() * 1e6
    return {
        "model": name,
        "traced_step_us": tracer.mean_total("sim.rk4_step") * 1e6,
        "self_us_per_step": self_us,
        "sum_self_us": sum(self_us.values()),
        "untraced_step_us": plain_s / steps * 1e6,
        "spans_per_step": nested,
        "span_cost_us": span_us,
        "measured_gap_us": (traced_s - plain_s) / steps * 1e6,
        "predicted_gap_us": nested * span_us,
    }


def env_stamp() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
    }


# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object (see module docstring)."""
    spec = load_spec()
    vnhc = import_program()
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    counts = Counts()
    try:
        wl = WORKLOADS[workload](vnhc, work, seed)
        cal = Calibration()
        cal.measure()
        setup = Setup(wl)
        for _ in range(SETUP_FIRST_REPS):
            wl.models = setup.once(-1)
        traced = Tracer() if trace else None
        plain, traced_timing = run_calls(wl, setup, cal, seconds, counts, seed, traced)
        try:
            wl.final_checks()
        except GateFailure as err:
            counts.fail(f"final: {err}")
        raw, metrics, extra = {}, {}, {}
        wanted = spec["per_layer" if trace else "end_to_end"]
        if trace and counts.failed == 0:
            probed = Tracer()
            try:
                kernel_stats = probe(vnhc, wl, probed)
            except Exception as err:  # a failing probe is a failed operation
                counts.fail(f"probe: {type(err).__name__}: {err}")
            if counts.failed == 0:
                raw = per_layer(vnhc, wl, traced, probed, kernel_stats, plain,
                                traced_timing, cal.local_factor)
                metrics = at_reference(raw, units_of(spec["per_layer"]), cal.factor())
                extra = {"rk4_accounting": rk4_accounting(vnhc, wl),
                         "kernel_us_by_model": {
                             m: {k: total / count * 1e6 for k, (count, total) in st.items()}
                             for m, st in kernel_stats.items()},
                         "spans": traced.dump(), "probe_spans": probed.dump()}
        elif counts.failed == 0:
            raw = end_to_end(setup, plain, unscaled)
            metrics = end_to_end(setup, plain, cal.local_factor)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    units = units_of(wanted)
    if metrics and set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    result = {
        "correct": counts.failed == 0,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": env_stamp(), "gates": wl.gates, "errors": counts.errors,
        "error_rate": counts.failed / max(1, counts.attempted),
        "setup_reps": len(setup.times),
        "calibration_factor": cal.factor(), "calibration_passes": len(cal.times),
        "raw_metrics": raw, "calls": plain.calls, "latency_samples": plain.per_op.seen,
        **extra,
    }
    return {"result": result, "report": report}


def summarize(out: dict) -> str:
    rep, res = out["report"], out["result"]
    lines = [f"workload {rep['workload']} seed {rep['seed']} trace {int(rep['trace'])}: "
             f"{res['attempted']} calls, {res['failed']} failed "
             f"(error_rate {rep['error_rate']:.3g}), {rep['calls']} timed calls, "
             f"{rep['latency_samples']} latency samples, setup x{rep['setup_reps']}, "
             f"calibration factor {rep['calibration_factor']:.3f} over {rep['calibration_passes']} passes"]
    lines += [f"  gate {k} = {v:.3e}" for k, v in rep["gates"].items()]
    lines += [f"  error: {e}" for e in rep["errors"]]
    lines += [f"  {k:32s} {m['value']:.6g} {m['unit']} (raw {rep['raw_metrics'][k]:.6g})"
              for k, m in res["metrics"].items()]
    acc = rep.get("rk4_accounting")
    if acc:
        lines.append(f"  rk4 step ({acc['model']}): traced {acc['traced_step_us']:.1f} us = "
                     f"sum of self {acc['sum_self_us']:.1f} us; untraced "
                     f"{acc['untraced_step_us']:.1f} us; gap {acc['measured_gap_us']:.1f} us "
                     f"measured, {acc['predicted_gap_us']:.1f} us predicted from "
                     f"{acc['spans_per_step']:.0f} spans x {acc['span_cost_us']:.2f} us")
    lines.append(f"  env {json.dumps(rep['env'])}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(summarize(out), file=sys.stderr)
    if args.trace:
        trace_dir = ROOT / ".bench_out"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
        print(f"  spans written to {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
