"""Layer timing from outside the program.

The tracer rebinds each wrapped public function in every loaded `tomolab`
module that holds it (the package imports with `from .x import name`, so
patching only the defining module would miss internal calls).  Every call
becomes a span: id, layer, function, start, end, parent span, job id,
whether it raised, and the layer's work counts.  Spans stay in memory and
are written out when the run ends.  A span's self time is its duration
minus the union of its children's intervals; spans opened on a worker
thread (the limit studies' pool) take the main thread's innermost open
span as parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def x_points(i: int, name: str, key: str):
    return lambda args, kwargs, result: {key: int(np.size(_arg(args, kwargs, i, name)))}


def grid_points(i: int, name: str, j: int, other: str, key: str):
    def count(args, kwargs, result):
        return {key: int(np.size(_arg(args, kwargs, i, name)) * np.size(_arg(args, kwargs, j, other)))}
    return count


def hermite_counts(args, kwargs, result):
    return {"hermite_order_sum": int(_arg(args, kwargs, 0, "n")),
            "hermite_points": int(np.size(_arg(args, kwargs, 1, "x")))}


def family_counts(args, kwargs, result):
    v = result.values
    return {"frames": int(v.shape[0] * v.shape[1]), "tensor_mb": v.nbytes / 1e6,
            "nonzero": int(np.count_nonzero(v)), "stored": int(v.size)}


def _is_box_state(args, kwargs) -> bool:
    from tomolab.states import BoxEigen

    return isinstance(_arg(args, kwargs, 0, "state"), BoxEigen)


@dataclass(frozen=True)
class Wrap:
    module: str
    func: str
    counter: Callable | None = None
    skip: Callable | None = None   # calls for which no span is recorded


# layer -> wrapped public functions; work counts are added only at a layer's
# outermost span, so nested calls inside one layer are not counted twice
LAYERS: dict[str, list[Wrap]] = {
    "cli": [Wrap("cli", "main")],
    "kernel": [Wrap("kernel", f) for f in
               ("write_tomogram", "read_tomogram", "normalization_residual", "tomogram_distance_l1")],
    "specfun": [Wrap("specfun", "hermite_phi", hermite_counts), Wrap("specfun", "parabolic_u_asymptotic")],
    "states": [Wrap("states", f) for f in ("parse_state", "position_wavefunction",
                                           "momentum_wavefunction", "position_extent", "natural_scales")],
    "quantum.closed": [Wrap("quantum", "hermite_tomogram", x_points(2, "X", "x_points")),
                       Wrap("quantum", "coherent_tomogram", x_points(2, "X", "x_points")),
                       Wrap("quantum", "cat_tomogram", x_points(3, "X", "x_points")),
                       Wrap("quantum", "superposition_tomogram", x_points(3, "X", "x_points"))],
    "quantum.quadrature": [Wrap("quantum", "tomogram_from_wavefunction",
                                x_points(2, "x_grid", "x_points"), skip=_is_box_state)],
    "quantum.box": [Wrap("quantum", "box_tomogram", x_points(3, "x_grid", "x_points"))],
    "quantum.family": [Wrap("quantum", "build_state_family", family_counts),
                       Wrap("quantum", "build_state_slices", family_counts)],
    "quantum.inverse": [
        Wrap("quantum", "wigner_from_tomogram_grid", grid_points(1, "q_grid", 2, "p_grid", "out_points")),
        Wrap("quantum", "density_grid_from_tomogram", grid_points(1, "x_points", 1, "x_points", "out_points")),
        Wrap("quantum", "wigner_grid_from_density", grid_points(1, "q_grid", 2, "p_grid", "out_points")),
        Wrap("quantum", "tomogram_from_wigner", x_points(2, "x_grid", "out_points"))],
    "classical.radon": [Wrap("classical", "radon_density", lambda a, k, r: {"frames": 1}),
                        Wrap("classical", "build_radon_family", family_counts)],
    "classical.inverse": [Wrap("classical", "inverse_radon_grid"),
                          Wrap("classical", "characteristic_quadrature")],
    "classical.time_average": [
        Wrap("classical", "time_averaged_tomogram", x_points(2, "x_grid", "x_points")),
        Wrap("classical", "classical_oscillator_tomogram_build", x_points(2, "x_grid", "x_points")),
        Wrap("classical", "classical_box_tomogram_build", x_points(2, "x_grid", "x_points"))],
    "limits": [Wrap("limits", f) for f in (
        "weak_delta_convergence", "interference_decay", "cat_interference_planck",
        "ehrenfest_coherent", "ehrenfest_cat", "ehrenfest_box", "ehrenfest_oscillator",
        "oscillator_windowed_distance", "box_windowed_distance")],
    "chirp": [Wrap("chirp", "chirp_integral")],
}

# per-layer work counts reported as metrics: name -> (source counter, how to combine)
WORK_COUNTS = {
    "kernel.bytes_written": ("kernel", "bytes_written", "sum"),
    "specfun.hermite_order_sum": ("specfun", "hermite_order_sum", "sum"),
    "specfun.hermite_points": ("specfun", "hermite_points", "sum"),
    "quantum.closed.x_points": ("quantum.closed", "x_points", "sum"),
    "quantum.quadrature.x_points": ("quantum.quadrature", "x_points", "sum"),
    "quantum.box.x_points": ("quantum.box", "x_points", "sum"),
    "quantum.family.frames": ("quantum.family", "frames", "sum"),
    "quantum.family.tensor_mb": ("quantum.family", "tensor_mb", "max"),
    "quantum.family.fill_ratio": ("quantum.family", None, "fill"),
    "quantum.inverse.out_points": ("quantum.inverse", "out_points", "sum"),
    "classical.radon.frames": ("classical.radon", "frames", "sum"),
    "classical.radon.tensor_mb": ("classical.radon", "tensor_mb", "max"),
    "classical.radon.fill_ratio": ("classical.radon", None, "fill"),
    "classical.time_average.x_points": ("classical.time_average", "x_points", "sum"),
}

JOB_LAYER = "job"  # root span of one benchmark job; its self time is code outside every layer


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, layer, func, start, end, parent, job, failed, counts)
        self.extra: dict[str, dict[str, float]] = {}  # counts the harness adds per layer
        self.job = -1
        self._ids = iter(range(1, 1 << 62))
        self._local = threading.local()
        self._main = self._stack()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        top = stack[-1] if stack else (self._main[-1] if self._main else (0, None))
        return stack, top

    def wrap(self, layer: str, w: Wrap, orig: Callable) -> Callable:
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if w.skip is not None and w.skip(args, kwargs):
                return orig(*args, **kwargs)
            stack, (parent, parent_layer) = tracer._open()
            sid = next(tracer._ids)
            stack.append((sid, layer))
            failed, result = True, None
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = None
                if w.counter is not None and not failed and parent_layer != layer:
                    counts = w.counter(args, kwargs, result)
                tracer.spans.append((sid, layer, w.func, start, end, parent, tracer.job, failed, counts))
        return traced

    def install(self) -> None:
        importlib.import_module("tomolab.cli")  # loads every tomolab module
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "tomolab" or name.startswith("tomolab."))]
        for layer, wraps in LAYERS.items():
            for w in wraps:
                orig = getattr(importlib.import_module(f"tomolab.{w.module}"), w.func)
                traced = self.wrap(layer, w, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, traced)
                            self._patches.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()

    def begin_job(self, job_id: int) -> None:
        self.job = job_id
        sid = next(self._ids)
        self._main.append((sid, JOB_LAYER))
        self._job_start = (sid, time.perf_counter())

    def end_job(self, kind: str, failed: bool) -> None:
        end = time.perf_counter()
        sid, start = self._job_start
        self._main.pop()
        self.spans.append((sid, JOB_LAYER, kind, start, end, 0, self.job, failed, None))

    def add_count(self, layer: str, key: str, value: float) -> None:
        d = self.extra.setdefault(layer, {})
        d[key] = d.get(key, 0.0) + value

    def self_times(self) -> dict[int, float]:
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            children.setdefault(s[5], []).append((s[3], s[4]))
        out = {}
        for sid, _, _, start, end, *_ in self.spans:
            covered, reach = 0.0, start
            for a, b in sorted(children.get(sid, ())):
                a, b = max(a, reach), min(b, end)
                if b > a:
                    covered += b - a
                    reach = b
            out[sid] = (end - start) - covered
        return out

    def layer_summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, self_s, failed and the summed/maxed work counts."""
        selfs = self.self_times()
        summary = {layer: {"calls": 0, "self_s": 0.0, "failed": 0} for layer in [*LAYERS, JOB_LAYER]}
        maxed = {key for key, (_, _, how) in WORK_COUNTS.items() if how == "max"}
        for sid, layer, _, _, _, _, _, failed, counts in self.spans:
            row = summary[layer]
            row["calls"] += 1
            row["self_s"] += selfs[sid]
            row["failed"] += int(failed)
            for key, value in (counts or {}).items():
                if f"{layer}.{key}" in maxed:
                    row[key] = max(row.get(key, 0.0), value)
                else:
                    row[key] = row.get(key, 0) + value
        for layer, counts in self.extra.items():
            for key, value in counts.items():
                summary[layer][key] = summary[layer].get(key, 0) + value
        return summary

    def write(self, path: str) -> None:
        fields = ["id", "layer", "func", "start", "end", "parent", "job", "failed", "counts"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


def layer_metrics(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Flatten a layer summary into the per-layer metric names."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        row = summary[layer]
        out[f"{layer}.calls"] = row["calls"]
        out[f"{layer}.self_s"] = row["self_s"]
        out[f"{layer}.failed"] = row["failed"]
    for name, (layer, key, how) in WORK_COUNTS.items():
        row = summary[layer]
        if how == "fill":
            out[name] = row.get("nonzero", 0) / row["stored"] if row.get("stored") else 0.0
        else:
            out[name] = row.get(key, 0)
    return out
