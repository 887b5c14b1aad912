"""Outside-in span tracer for the shorttime package.

``Tracer.patch`` replaces the public functions of each module (and the
methods listed in ``METHODS``) with timing wrappers, everywhere the same
object is bound, so names that other modules re-bind by import (such as
``evolution.kernel_matrix``) are traced too. Nothing under src/ changes.

Spans stay in memory as ``(name, start, end, parent, size)``; ``parent`` is
the index of the enclosing span or -1. A span's self time is its duration
minus the durations of its direct children. No traced function calls
itself, so a name's total time is the plain sum of its span durations.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("drift", "lamperti", "girsanov", "kernels", "evolution", "sampler",
          "cli")
# (module, class) -> {method: span suffix}
METHODS = {
    ("drift", "DriftExpr"): {"__call__": "eval", "jets": "jets"},
    ("lamperti", "LampertiMap"): {
        "flow": "flow", "lambda_map": "lambda_map",
        "lambda_inverse": "lambda_inverse"},
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# Work counted per span, from the call's arguments.
SIZES = {
    "drift.eval": lambda a, k: np.size(_arg(a, k, 1, "x")),
    "drift.jets": lambda a, k: np.size(_arg(a, k, 1, "x")),
    "lamperti.flow": lambda a, k: np.broadcast(
        _arg(a, k, 1, "x"), _arg(a, k, 2, "t")).size,
    "lamperti.lambda_map": lambda a, k: np.size(_arg(a, k, 1, "x")),
    "lamperti.lambda_inverse": lambda a, k: np.size(_arg(a, k, 1, "y")),
    "girsanov.lp_error": lambda a, k: (
        _arg(a, k, 2, "cfg").n_paths * _arg(a, k, 2, "cfg").n_steps),
    "girsanov.approx_exponential": lambda a, k: np.size(_arg(a, k, 1, "b_T")),
    "kernels.kernel_eval": lambda a, k: np.broadcast(
        _arg(a, k, 3, "x"), _arg(a, k, 4, "x_prime")).size,
    "kernels.kernel_matrix": lambda a, k: (
        np.size(_arg(a, k, 3, "xs")) * np.size(_arg(a, k, 4, "x_primes"))),
    "evolution.compose_chapman": lambda a, k: _arg(a, k, 1, "plan").n_slices - 1,
    "evolution.solve_fokker_planck": lambda a, k: _arg(a, k, 4, "n_time_steps"),
    "sampler.sample_crypto": lambda a, k: _arg(a, k, 3, "n"),
    "sampler.sample_em_path": lambda a, k: _arg(a, k, 4, "n"),
    "sampler.ks_distance": lambda a, k: np.size(_arg(a, k, 0, "s").values),
}

# The per-layer metrics, in output order: (name, unit).
METRICS = (
    ("drift.eval.calls", "count"), ("drift.eval.points", "count"),
    ("drift.eval.self_ms", "ms"), ("drift.jets.calls", "count"),
    ("drift.jets.points", "count"), ("drift.jets.self_ms", "ms"),
    ("drift.self_ms", "ms"),
    ("lamperti.flow.calls", "count"), ("lamperti.flow.points", "count"),
    ("lamperti.flow.total_ms", "ms"), ("lamperti.lambda_map.calls", "count"),
    ("lamperti.lambda_map.self_ms", "ms"),
    ("lamperti.lambda_inverse.self_ms", "ms"), ("lamperti.self_ms", "ms"),
    ("lamperti.lambda_map_calls_per_inverse", "ratio"),
    ("lamperti.drift_points_per_flow_point", "ratio"),
    ("girsanov.lp_error.calls", "count"), ("girsanov.lp_error.self_ms", "ms"),
    ("girsanov.approx_exponential.total_ms", "ms"),
    ("girsanov.path_steps", "count"), ("girsanov.path_steps_per_s", "1/s"),
    ("girsanov.self_ms", "ms"),
    ("kernels.kernel_matrix.calls", "count"),
    ("kernels.kernel_matrix.cells", "count"),
    ("kernels.kernel_matrix.self_ms", "ms"),
    ("kernels.kernel_eval.points", "count"),
    ("kernels.kernel_eval.self_ms", "ms"),
    ("kernels.normalization_defect.total_ms", "ms"), ("kernels.self_ms", "ms"),
    ("evolution.compose_chapman.self_ms", "ms"),
    ("evolution.compose_chapman.matvecs", "count"),
    ("evolution.solve_fokker_planck.self_ms", "ms"),
    ("evolution.solve_fokker_planck.steps", "count"),
    ("evolution.self_ms", "ms"),
    ("sampler.sample_crypto.samples", "count"),
    ("sampler.sample_crypto.self_ms", "ms"),
    ("sampler.sample_em_path.samples", "count"),
    ("sampler.sample_em_path.self_ms", "ms"),
    ("sampler.ks_distance.self_ms", "ms"), ("sampler.self_ms", "ms"),
    ("cli.ops", "count"), ("cli.run_command.self_ms", "ms"),
    ("cli.artifact_bytes", "bytes"), ("cli.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


class Tracer:
    """Records nested spans of wrapped calls (single-threaded)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        size = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)  # keeps start order: parents before children
            self._stack.append(idx)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                n = int(size(args, kwargs)) if size else 0
                self.spans[idx] = (name, start, end, parent, n)

        return traced

    @contextlib.contextmanager
    def patch(self, package="shorttime"):
        """Wrap the package's public functions for the duration of the block."""
        mods = {k: v for k, v in sys.modules.items()
                if k == package or k.startswith(package + ".")}
        undo = []

        def rebind(owner, attr, new):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        try:
            for layer in LAYERS:
                mod = mods[f"{package}.{layer}"]
                for attr, fn in list(vars(mod).items()):
                    if (attr.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != mod.__name__):
                        continue
                    traced = self.wrap(f"{layer}.{attr}", fn)
                    for other in mods.values():
                        for name, value in list(vars(other).items()):
                            if value is fn:
                                rebind(other, name, traced)
            for (layer, cls_name), methods in METHODS.items():
                cls = getattr(mods[f"{package}.{layer}"], cls_name)
                for attr, suffix in methods.items():
                    rebind(cls, attr, self.wrap(f"{layer}.{suffix}",
                                                vars(cls)[attr]))
            yield self
        finally:
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)

    def self_times(self):
        """Self time of every span, in span order."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c
                for (_, start, end, _, _), c in zip(self.spans, child)]

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer, artifact_bytes, overhead_pct):
    """The METRICS values from a finished trace, plus each layer's share of
    the traced op time (in percent) for the printed breakdown."""
    spans = tracer.spans
    selfs = tracer.self_times()
    calls = defaultdict(int)
    points = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    in_flow = [False] * len(spans)
    flow_drift_points = 0
    map_in_inverse = 0
    for i, ((name, start, end, parent, n), own) in enumerate(zip(spans, selfs)):
        calls[name] += 1
        points[name] += n
        self_s[name] += own
        total_s[name] += end - start
        if parent >= 0:
            pname = spans[parent][0]
            in_flow[i] = in_flow[parent] or pname == "lamperti.flow"
            if name == "lamperti.lambda_map" and pname == "lamperti.lambda_inverse":
                map_in_inverse += 1
        if in_flow[i] and name in ("drift.eval", "drift.jets"):
            flow_drift_points += n

    layer_self = defaultdict(float)
    for name, s in self_s.items():
        layer_self[name.split(".", 1)[0]] += s
    op_s = sum(end - start for _, start, end, parent, _ in spans if parent < 0)

    def ms(x):
        return 1e3 * x

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "lamperti.lambda_map_calls_per_inverse": ratio(
            map_in_inverse, calls["lamperti.lambda_inverse"]),
        "lamperti.drift_points_per_flow_point": ratio(
            flow_drift_points, points["lamperti.flow"]),
        "girsanov.path_steps": points["girsanov.lp_error"],
        "girsanov.path_steps_per_s": ratio(
            points["girsanov.lp_error"], total_s["girsanov.lp_error"]),
        "evolution.compose_chapman.matvecs": points["evolution.compose_chapman"],
        "evolution.solve_fokker_planck.steps": points["evolution.solve_fokker_planck"],
        "sampler.sample_crypto.samples": points["sampler.sample_crypto"],
        "sampler.sample_em_path.samples": points["sampler.sample_em_path"],
        "kernels.kernel_matrix.cells": points["kernels.kernel_matrix"],
        "cli.ops": calls["cli.run_command"],
        "cli.artifact_bytes": artifact_bytes,
        "trace.overhead_pct": overhead_pct,
    }
    for name, _ in METRICS:
        if name in values:
            continue
        base, _, stat = name.rpartition(".")
        if base in LAYERS and stat == "self_ms":
            values[name] = ms(layer_self[base])
        elif stat == "calls":
            values[name] = calls[base]
        elif stat == "points":
            values[name] = points[base]
        elif stat == "self_ms":
            values[name] = ms(self_s[base])
        elif stat == "total_ms":
            values[name] = ms(total_s[base])
        else:
            raise KeyError(name)
    shares = {layer: 100.0 * ratio(layer_self[layer], op_s) for layer in LAYERS}
    return values, shares
