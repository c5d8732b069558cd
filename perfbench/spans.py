"""Span tracing of the resnet layers from outside the package.

:class:`Tracer` wraps the public functions of each layer module at every
module binding that holds them (``kernels.solve_poisson`` as well as
``solver.solve_poisson``), records one span per call in memory, and restores
every binding when the traced block ends.  Nothing inside ``src/resnet`` is
changed.  A span is a name, a start, an end and the index of its parent span;
self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Layer modules, keyed by the short name that prefixes their span names.
LAYER_MODULES = ("models", "network", "solver", "operators", "kernels",
                 "gaussgreen", "transience", "randomwalk", "serialize", "cli")

# Per-element helpers called millions of times: a span per call would cost
# far more than the work it measures, so they stay inside their callers.
UNTRACED = {"network.vertex_key", "network.vsorted", "serialize.fmt_float"}

# Methods traced in addition to module-level functions.
TRACED_METHODS = (("network", "Network", "boundary_of"),)


def _solve_key(args, kwargs, name):
    region = frozenset(args[1])
    if name == "solver.solve_poisson":
        return region, kwargs.get("bc", args[3] if len(args) > 3 else None)
    return region, kwargs.get("bc", "free"), args[2]


def _count_solve(tracer, name, args, kwargs):
    key = _solve_key(args, kwargs, name)
    tracer.counters["solver.rows"] += len(key[0])
    if key in tracer.solved:
        tracer.counters["solver.repeats"] += 1
    tracer.solved.add(key)


def _count_energy(tracer, name, args, kwargs):
    u = args[1]
    v = kwargs.get("v", args[2] if len(args) > 2 else None)
    window = kwargs.get("window", args[3] if len(args) > 3 else None)
    if window is None:
        window = u.window if v is None or v is u else u.window & v.window
    tracer.counters["operators.energy.vertices"] += len(window)


def _count_stages(tracer, name, args, kwargs):
    alt = kwargs.get("alt_plan", args[4] if len(args) > 4 else None)
    tracer.counters["gaussgreen.stages"] += len(args[3].stages) + (
        len(alt.stages) if alt is not None else 0)


def _count_walks(tracer, name, args, kwargs):
    tracer.counters["randomwalk.walks"] += args[-1].n_walks


# Counters taken from a call's arguments, before the call runs.
ON_CALL = {
    "solver.solve_poisson": _count_solve,
    "solver.solve_regularized": _count_solve,
    "operators.energy": _count_energy,
    "gaussgreen.gauss_green": _count_stages,
    "randomwalk.green_estimate": _count_walks,
    "randomwalk.escape_probability": _count_walks,
    "randomwalk.hitting_probability": _count_walks,
}


def _count_network(tracer, result):
    # load_network returns the network its nested build made: count it once.
    tracer.networks[id(result)] = len(result.vertices)


def _count_bytes(tracer, result):
    tracer.counters["serialize.bytes"] += len(result.encode("utf-8"))


# Counters taken from a call's result.
ON_RESULT = {
    "models.build": _count_network,
    "models.load_network": _count_network,
    "serialize.canonical_json": _count_bytes,
    "serialize.csv_text": _count_bytes,
}


class Tracer:
    """In-memory span recorder that wraps the resnet layer functions."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = Counter()
        self.counters = Counter()
        self.solved = set()      # (region, bc[, eps]) of every solve so far
        self.networks = {}       # id(network) -> materialized vertex count
        self._ids = {}
        self._stack = []

    # -- recording ---------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name, start, end, parent):
        """Append one finished span; returns its index."""
        self.name_id.append(self._id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def _wrap(self, name, fn):
        nid = self._id(name)
        on_call, on_result = ON_CALL.get(name), ON_RESULT.get(name)
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        depth = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Recursive calls (canonical_json) belong to the outermost span.
            if depth[0]:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(self, name, args, kwargs)
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            depth[0] = 1
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                end[i] = perf_counter()
                depth[0] = 0
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    # -- installing and restoring -------------------------------------------

    @staticmethod
    def targets():
        """{function: span name} for every traced layer function."""
        found = {}
        for short in LAYER_MODULES:
            mod = importlib.import_module(f"resnet.{short}")
            for attr, value in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    found[value] = name
        for short, cls, attr in TRACED_METHODS:
            mod = importlib.import_module(f"resnet.{short}")
            found[getattr(mod, cls).__dict__[attr]] = f"{short}.{attr}"
        return found

    @staticmethod
    def bindings():
        """(owner, attribute, function) for every binding of a traced function."""
        targets = Tracer.targets()
        out = []
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name != "resnet" and not mod_name.startswith("resnet."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in targets:
                    out.append((mod, attr, value))
        for short, cls, attr in TRACED_METHODS:
            owner = getattr(importlib.import_module(f"resnet.{short}"), cls)
            out.append((owner, attr, owner.__dict__[attr]))
        return out, targets

    @contextmanager
    def installed(self):
        """Wrap every binding for the duration of the block, then restore."""
        bindings, targets = self.bindings()
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        wrapped = []
        try:
            for owner, attr, fn in bindings:
                setattr(owner, attr, wrappers[fn])
                wrapped.append((owner, attr, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(wrapped):
                setattr(owner, attr, fn)

    # -- results -----------------------------------------------------------

    def summary(self):
        """{span name: (calls, total self seconds)}."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (self.end[i] - self.start[i]) - child[i])
        return out

    def write(self, path):
        """Spans as JSON lines: a header naming the columns and the span
        names, then one ``[name_id, parent, start, end]`` row per span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"columns": ["name", "parent", "start", "end"],
                                 "names": self.names}) + "\n")
            for i in range(len(self.start)):
                fh.write(f"[{self.name_id[i]}, {self.parent[i]}, "
                         f"{self.start[i] - t0:.9f}, {self.end[i] - t0:.9f}]\n")

    def layer_metrics(self):
        """The per-layer metrics of the benchmark, from spans and counters."""
        summary = self.summary()
        counters = self.counters

        def calls(name):
            return summary.get(name, (0, 0.0))[0]

        def self_s(*names):
            return sum(summary.get(name, (0, 0.0))[1] for name in names)

        solves = calls("solver.solve_poisson") + calls("solver.solve_regularized")
        return {
            "network.materialize_s": self_s("models.build", "models.load_network"),
            "network.vertices": sum(self.networks.values()),
            "network.make_exhaustion_s": self_s("network.make_exhaustion"),
            "network.boundary_of.calls": calls("network.boundary_of"),
            "network.boundary_of_s": self_s("network.boundary_of"),
            "solver.solve_poisson.calls": calls("solver.solve_poisson"),
            "solver.solve_poisson_s": self_s("solver.solve_poisson"),
            "solver.solve_regularized.calls": calls("solver.solve_regularized"),
            "solver.solve_regularized_s": self_s("solver.solve_regularized"),
            "solver.rows": counters["solver.rows"],
            "solver.repeat_frac": counters["solver.repeats"] / solves if solves else 0.0,
            "solver.raised": (self.raised["solver.solve_poisson"]
                              + self.raised["solver.solve_regularized"]),
            "operators.energy.calls": calls("operators.energy"),
            "operators.energy_s": self_s("operators.energy"),
            "operators.energy.vertices": counters["operators.energy.vertices"],
            "operators.laplacian_apply.calls": calls("operators.laplacian_apply"),
            "operators.laplacian_apply_s": self_s("operators.laplacian_apply"),
            "operators.normal_derivative.calls": calls("operators.normal_derivative"),
            "operators.normal_derivative_s": self_s("operators.normal_derivative"),
            "operators.scaled_laplacian_residual_s":
                self_s("operators.scaled_laplacian_residual"),
            "kernels.monopole_s": self_s("kernels.monopole"),
            "kernels.harm_part_s": self_s("kernels.harm_part"),
            "kernels.energy_kernel_s": self_s("kernels.energy_kernel"),
            "gaussgreen.gauss_green_s": self_s("gaussgreen.gauss_green"),
            "gaussgreen.stages": counters["gaussgreen.stages"],
            "transience.classify_s": self_s("transience.classify"),
            "transience.grounded_projection_of_one_s":
                self_s("transience.grounded_projection_of_one"),
            "transience.harm_dimension_probe_s":
                self_s("transience.harm_dimension_probe"),
            "randomwalk.green_estimate_s": self_s("randomwalk.green_estimate"),
            "randomwalk.escape_probability_s": self_s("randomwalk.escape_probability"),
            "randomwalk.walks": counters["randomwalk.walks"],
            "serialize.canonical_json_s": self_s("serialize.canonical_json"),
            "serialize.bytes": counters["serialize.bytes"],
            "cli.self_s": self_s("cli.main"),
        }
