"""Span tracing of glcell from outside the program.

Tracer.install() replaces every public glcell function in each glcell
module's namespace with a timing wrapper, under the name that module calls
it by (so `glcell.minimize.energy` and `glcell.energy.covariant_differences`
are both wrapped).  A span is named `<defining module>.<function>` and kept
in memory as [name, start, end, parent index]; uninstall() restores the
originals.  layer_metrics() turns the spans of the traced passes into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict

# per-layer metric -> unit; the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "grid.boundary_factors.calls": "count",
    "grid.boundary_factors.s": "s",
    "energy.energy.calls": "count",
    "energy.energy.self_s": "s",
    "energy.energy.ms_per_call": "ms",
    "energy.gradient.calls": "count",
    "energy.gradient.self_s": "s",
    "energy.gradient.ms_per_call": "ms",
    "energy.covariant_differences.calls": "count",
    "energy.covariant_differences.s": "s",
    "minimize.iterations": "count",
    "minimize.evals_per_iter": "ratio",
    "minimize.minimize.self_s": "s",
    "minimize.estimate_g.s": "s",
    "trial.build_trial.calls": "count",
    "trial.build_trial.s": "s",
    "trial.solve_cell_green.s": "s",
    "vortices.find_balls.s": "s",
    "vortices.classify_squares.s": "s",
    "vortices.coverage_gaps.s": "s",
    "vortices.vorticity.s": "s",
    "vortices.lipschitz_dual_distance.s": "s",
    "vortices.lipschitz_dual_distance.atom_pairs": "count",
    "vortices.winding.calls": "count",
    "vortices.wrap_value.calls": "count",
    "vortices.balls": "count",
    "analysis.aggregate_tiles.s": "s",
    "analysis.build_sweep.s": "s",
    "analysis.sweep_to_csv.s": "s",
    "snapshot.read_snapshot.s": "s",
    "snapshot.write_snapshot.s": "s",
    "snapshot.bytes": "B",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
}


def _dual_distance_pairs(fn, args, kwargs, result):
    """Computed work of one lipschitz_dual_distance call: tents x atoms."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    depth = bound.arguments["dictionary_depth"]
    tents = sum(4**d for d in range(depth + 1))
    atoms = len(bound.arguments["mu_a"].points) + len(bound.arguments["mu_b"].points)
    return tents * atoms


# span name -> (counter, function of (fn, args, kwargs, result) giving the increment)
_COUNTERS = {
    "minimize.minimize": ("minimize.iterations", lambda fn, a, k, r: r.iterations),
    "vortices.find_balls": ("vortices.balls", lambda fn, a, k, r: len(r)),
    "vortices.lipschitz_dual_distance": ("vortices.lipschitz_dual_distance.atom_pairs",
                                         _dual_distance_pairs),
    "snapshot.read_snapshot": ("snapshot.bytes", lambda fn, a, k, r: os.path.getsize(a[0])),
    "snapshot.write_snapshot": ("snapshot.bytes", lambda fn, a, k, r: os.path.getsize(a[0])),
}


class Tracer:
    def __init__(self, mods: dict):
        self.mods = mods
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for mod in self.mods.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                if not home.startswith("glcell."):
                    continue
                name = f"{home[len('glcell.'):]}.{obj.__name__}"
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(name, obj))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, obj = self._saved.pop()
            setattr(mod, attr, obj)

    def _wrap(self, name, fn):
        spans, stack, counter = self.spans, self._stack, _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if counter is not None:
                self.counters[counter[0]] += counter[1](fn, args, kwargs, result)
            return result

        return wrapper

    def layer_metrics(self, passes: int, cpu_s: float, overhead_s: float) -> dict:
        """Per-layer metrics per traced pass: calls, inclusive s, self_s."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = defaultdict(float)
        evals_in_minimize = 0
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
            if name in ("energy.energy", "energy.gradient") and self._inside(parent, "minimize.minimize"):
                evals_in_minimize += 1
        per = 1.0 / passes
        values = {"process.cpu_s": cpu_s * per, "trace.overhead_s": overhead_s}
        for key, amount in self.counters.items():
            values[key] = amount * per
        iterations = self.counters.get("minimize.iterations", 0)
        values["minimize.evals_per_iter"] = evals_in_minimize / iterations if iterations else 0.0
        values["vortices.wrap_value.calls"] = calls["grid.wrap_value"] * per
        out = {}
        for metric, unit in LAYER_METRICS.items():
            if metric not in values:
                span, _, quantity = metric.rpartition(".")
                if quantity == "calls":
                    values[metric] = calls[span] * per
                elif quantity == "s":
                    values[metric] = total[span] * per
                elif quantity == "self_s":
                    values[metric] = (total[span] - child[span]) * per
                elif quantity == "ms_per_call":
                    values[metric] = 1e3 * total[span] / calls[span] if calls[span] else 0.0
                else:
                    values[metric] = 0.0  # a counter this workload never touched
            out[metric] = {"value": values[metric], "unit": unit}
        return out

    def _inside(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False
