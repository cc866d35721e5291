"""Span tracing for the benchmark's traced run.

The package is traced from the outside: every public function of the seven
fhdlab modules is replaced by a wrapper that records one span (name, start,
end, parent span, op id). A function is replaced wherever a caller looks it
up -- module globals such as ``fhdlab.cli.evolve`` as well as
``fhdlab.evolution.evolve``, and dict tables such as the CLI's workflow map
-- so spans nest as the calls do. ``Trajectory.values`` is a property and is
wrapped on its class. The private RK4 right-hand side ``evolution._rhs`` is
counted, not spanned: it runs ~10^5 times per run and a span per call would
cost more than the count is worth. ``output.format_float`` runs once per
CSV value (~10^6 times in the dense workload) and is left unwrapped, so its
time shows as the self time of ``output.write_csv``.

Spans live in memory until ``write`` is called; ``summarize`` derives the
per-layer totals and self times from them.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("core", "pseudopotential", "profiles", "evolution", "lax", "output", "cli")

DIAGNOSTICS = ("evolution.measure_speed", "evolution.shape_error",
               "evolution.conservation_drift")
SAMPLES = ("pseudopotential.potential_samples", "pseudopotential.phase_samples")
UNWRAPPED = ("output.format_float",)
TIMED = (
    "profiles.profile_by_quadrature",
    "profiles.profile_by_shooting",
    "profiles.translated_trajectory",
    "profiles.profile_metrics",
    "pseudopotential.existence_check",
)


class Tracer:
    """Records spans of the wrapped package functions and a few counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self.rhs_counted = False
        self._stack: list[int] = []
        self._undo: list = []

    def _span(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # hooks that count work at the boundary where it happens

    def _after_write_csv(self, args, kwargs, path) -> None:
        columns = kwargs["columns"] if "columns" in kwargs else args[2]
        self.counts["output.csv_rows"] += len(columns[0])
        self.counts["output.csv_bytes"] += os.path.getsize(path)

    def _after_evolve(self, args, kwargs, trajectory) -> None:
        frames = len(trajectory.times)
        self.counts["evolution.frames"] += frames
        self.counts["core.trajectory_bytes"] += 8.0 * frames * trajectory.grid.n

    def install(self) -> None:
        """Wrap the package in place; ``uninstall`` restores it."""
        after = {
            "output.write_csv": self._after_write_csv,
            "evolution.evolve": self._after_evolve,
        }
        replace: dict[int, tuple] = {}
        for layer in LAYERS:
            module = sys.modules[f"fhdlab.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    key = f"{layer}.{name}"
                    if key in UNWRAPPED:
                        continue
                    replace[id(obj)] = (obj, self._span(key, obj, after.get(key)))
        rhs = getattr(sys.modules["fhdlab.evolution"], "_rhs", None)
        if inspect.isfunction(rhs):
            replace[id(rhs)] = (rhs, self._count("evolution.rhs_calls", rhs))
            self.rhs_counted = True

        for modname, module in list(sys.modules.items()):
            if modname != "fhdlab" and not modname.startswith("fhdlab."):
                continue
            for name, obj in list(vars(module).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])
                    self._undo.append((setattr, module, name, obj))
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        hit = replace.get(id(value))
                        if hit is not None and hit[0] is value:
                            obj[key] = hit[1]
                            self._undo.append((dict.__setitem__, obj, key, value))

        trajectory = sys.modules["fhdlab.core"].Trajectory
        prop = trajectory.__dict__.get("values")
        if isinstance(prop, property):
            trajectory.values = property(
                self._span("core.trajectory_values", prop.fget), doc=prop.__doc__
            )
            self._undo.append((setattr, trajectory, "values", prop))

    def uninstall(self) -> None:
        while self._undo:
            restore, target, key, value = self._undo.pop()
            restore(target, key, value)

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines, times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent, "op": op,
                    "start_us": round((start - origin) * 1e6, 3),
                    "end_us": round((end - origin) * 1e6, 3),
                }) + "\n")


def summarize(spans: list[list]) -> dict:
    """Per-name totals, self times and call counts, and the root-span total.

    A span's self time is its duration minus that of its direct children;
    calls run on one thread, so children never overlap.
    """
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    child = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    root = 0.0
    for i, (name, start, end, parent, _op) in enumerate(spans):
        duration = end - start
        total[name] += duration
        self_time[name] += duration - child[i]
        calls[name] += 1
        if parent < 0:
            root += duration
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in self_time.items():
        layer_self[name.split(".", 1)[0]] += value
    return {"total": total, "self": self_time, "calls": calls,
            "layer_self": layer_self, "root": root}
