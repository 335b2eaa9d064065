"""In-memory spans around calls into the vnhc layers.

`Tracer.install` replaces each layer function the benchmark knows about
with a wrapper that records a span, and `uninstall` puts the originals
back.  Functions are wrapped where the program looks them up at call
time: module attributes (so `from .x import f` copies are wrapped in the
importing module too) and class methods.  A name the program no longer
has is skipped, and its time then shows in the self time of the span
that called it.

Spans are aggregated by call path in a tree.  For each path the tracer
keeps the call count, the total time and the time covered by child
spans, so a span's self time is total minus child time.
"""

from __future__ import annotations

import importlib
import time

# span name -> where the program looks the function up
MODULE_TARGETS = {
    "model_io.load_model": [("vnhc.model_io", "load_model"), ("vnhc", "load_model")],
    "geometry.State": [
        ("vnhc", "State"), ("vnhc.cli", "State"), ("vnhc.constraint", "State"),
        ("vnhc.sim", "State"),
    ],
    "linalg.cholesky": [("vnhc.linalg", "cholesky")],
    "linalg.cho_solve": [("vnhc.linalg", "cho_solve")],
    "linalg.lu_factor": [("vnhc.linalg", "lu_factor")],
    "linalg.lu_solve": [("vnhc.linalg", "lu_solve")],
    "linalg.cond1_from_lu": [("vnhc.linalg", "cond1_from_lu")],
    "constraint.transversality_check": [
        ("vnhc.constraint", "transversality_check"), ("vnhc.cli", "transversality_check"),
        ("vnhc", "transversality_check"),
    ],
    "constraint.project_onto_A": [("vnhc.constraint", "project_onto_A"), ("vnhc", "project_onto_A")],
    "control.solve_control": [
        ("vnhc.control", "solve_control"), ("vnhc.sim", "solve_control"),
        ("vnhc.cli", "solve_control"), ("vnhc", "solve_control"),
    ],
    "control.tau_star": [("vnhc.control", "tau_star"), ("vnhc", "tau_star")],
    "control.closed_loop_acceleration": [
        ("vnhc.control", "closed_loop_acceleration"), ("vnhc", "closed_loop_acceleration"),
    ],
    "control.p_matrix": [("vnhc.control", "p_matrix"), ("vnhc", "p_matrix")],
    "control.b_vector": [("vnhc.control", "b_vector"), ("vnhc", "b_vector")],
    "sim.rk4_step": [("vnhc.sim", "rk4_step"), ("vnhc", "rk4_step")],
    "sim.integrate": [("vnhc.sim", "integrate"), ("vnhc.cli", "integrate"), ("vnhc", "integrate")],
    "cli.main": [("vnhc.cli", "main")],
}

# span name -> (module, class, method)
METHOD_TARGETS = {
    "geometry.metric_at": ("vnhc.geometry", "MechanicalModel", "metric_at"),
    "geometry.input_fields_at": ("vnhc.geometry", "MechanicalModel", "input_fields_at"),
    "geometry.coframe_at": ("vnhc.geometry", "MechanicalModel", "coframe_at"),
    "geometry.drift_acceleration": ("vnhc.geometry", "MechanicalModel", "drift_acceleration"),
    "constraint.phi": ("vnhc.constraint", "AffineConstraint", "phi"),
    "constraint.mu_at": ("vnhc.constraint", "AffineConstraint", "mu_at"),
    "constraint.rank_check": ("vnhc.constraint", "AffineConstraint", "rank_check"),
}


class _Node:
    """One call path: its call count, total time and time in child spans."""

    __slots__ = ("children", "count", "total", "child")

    def __init__(self):
        self.children: dict[str, _Node] = {}
        self.count = 0
        self.total = 0.0
        self.child = 0.0


class Tracer:
    def __init__(self):
        self._root = _Node()
        self._stack: list[_Node] = [self._root]
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter

        def span(*args, **kwargs):
            parent = stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = _Node()
            stack.append(node)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                node.count += 1
                node.total += elapsed
                parent.child += elapsed

        span.__wrapped__ = fn
        return span

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, sites in MODULE_TARGETS.items():
            for modname, attr in sites:
                mod = importlib.import_module(modname)
                fn = getattr(mod, attr, None)
                if fn is not None:
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, self.wrap(name, fn))
        for name, (modname, clsname, meth) in METHOD_TARGETS.items():
            cls = getattr(importlib.import_module(modname), clsname, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if fn is not None:
                self._saved.append((cls, meth, fn))
                setattr(cls, meth, self.wrap(name, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- aggregates ----------------------------------------------------------

    @property
    def paths(self) -> dict[tuple, _Node]:
        """Every call path below the root, as a tuple of span names."""
        out, todo = {}, [((), self._root)]
        while todo:
            path, node = todo.pop()
            for name, child in node.children.items():
                out[path + (name,)] = child
                todo.append((path + (name,), child))
        return out

    def by_name(self) -> dict[str, list]:
        """name -> [count, total_s, self_s] summed over every path ending in it."""
        out: dict[str, list] = {}
        for path, node in self.paths.items():
            rec = out.setdefault(path[-1], [0, 0.0, 0.0])
            rec[0] += node.count
            rec[1] += node.total
            rec[2] += node.total - node.child
        return out

    def count(self, name: str) -> int:
        return self.by_name().get(name, [0])[0]

    def mean_total(self, name: str) -> float:
        rec = self.by_name().get(name)
        return rec[1] / rec[0] if rec and rec[0] else 0.0

    def under(self, root: str) -> dict[str, list]:
        """Spans inside `root` spans: name -> [count, self_s], root included."""
        out: dict[str, list] = {}
        for path, node in self.paths.items():
            if root in path:
                rec = out.setdefault(path[-1], [0, 0.0])
                rec[0] += node.count
                rec[1] += node.total - node.child
        return out

    def child_total(self, parent: str, name: str) -> float:
        """Total time of `name` spans called directly from a `parent` span."""
        return sum(
            node.total
            for path, node in self.paths.items()
            if len(path) >= 2 and path[-1] == name and path[-2] == parent
        )

    def dump(self) -> list[dict]:
        return [
            {"path": "/".join(path), "count": n.count, "total_s": n.total,
             "self_s": n.total - n.child}
            for path, n in sorted(self.paths.items())
        ]
