"""Span tracing installed around the package's public functions from outside.

`Tracer.install()` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent) and, for some targets, a
work count. Functions are patched in every `ioncodesign` module namespace
that binds them, so calls made through `from .x import f` are seen too;
methods are patched on their class. `Tracer.uninstall()` restores the
originals. A target that no longer exists in the package is skipped and
its metrics read 0, so the benchmark keeps running across refactors.

Spans live in memory until `write_jsonl` dumps them. `layer_metrics`
derives per-layer calls, self times (span duration minus the time its
direct children cover) and counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("spinsim", "hamiltonian", "trotter", "motional_noise", "feedforward",
           "spectroscopy", "calibration", "harness")


def _gate_columns(counts, args, kwargs, result):
    array, angles = args[1], args[2]
    columns = array.shape[1] if np.ndim(array) > 1 else 1
    counts["spinsim.gate_columns"] += len(angles) * columns


def _hyp_points(counts, args, kwargs, result):
    z = args[3] if len(args) > 3 else kwargs["z"]
    counts["motional_noise.hyp1f2.points"] += int(np.size(z))


def _corner_read(counts, args, kwargs, result):
    counts["feedforward.corner_reads"] += 1


def _nfev(counts, args, kwargs, result):
    counts["calibration.minimize_scalar.nfev"] += int(getattr(result, "nfev", 0))


# (span name, home module, attribute path, count hook, record a span,
#  namespaces to patch: None means every package module that binds it)
TARGETS = (
    ("spinsim.CompiledCircuit", "spinsim", "CompiledCircuit.__init__", None, True, None),
    ("spinsim.apply", "spinsim", "CompiledCircuit.apply", _gate_columns, True, None),
    ("trotter.build_trotter_circuit", "trotter", "build_trotter_circuit", None, True, None),
    ("motional_noise.sample_trajectory", "motional_noise", "sample_trajectory", None, True, None),
    ("motional_noise.hyp1f2", "motional_noise", "hyp1f2", _hyp_points, True, None),
    ("feedforward.correct_circuit", "feedforward", "correct_circuit", None, True, None),
    ("feedforward.lookup", "feedforward", "FeedforwardTable.lookup", None, True, None),
    ("feedforward.corner", "feedforward", "FeedforwardTable._corner", _corner_read, False, None),
    ("feedforward.optimal_input_angle", "feedforward", "optimal_input_angle", None, True, None),
    ("hamiltonian.ExactEvolver", "hamiltonian", "ExactEvolver.__init__", None, True, None),
    ("hamiltonian.unitary", "hamiltonian", "ExactEvolver.unitary", None, True, None),
    ("hamiltonian.evolve", "hamiltonian", "ExactEvolver.evolve", None, True, None),
    ("spectroscopy.fidelity_trace", "spectroscopy", "fidelity_trace", None, True, None),
    ("spectroscopy.noisy_response", "spectroscopy", "noisy_response", None, True, None),
    ("spectroscopy.response_function", "spectroscopy", "response_function", None, True, None),
    ("spectroscopy.evolve", "spectroscopy", "TrotterEvolver.evolve", None, True, None),
    ("spectroscopy.spectrum", "spectroscopy", "spectrum", None, True, None),
    ("spectroscopy.hellinger", "spectroscopy", "hellinger", None, True, None),
    ("calibration.simulate_calibration", "calibration", "simulate_calibration", None, True, None),
    ("calibration.fit_c2", "calibration", "fit_c2", None, True, None),
    ("calibration.fit_phase_damping", "calibration", "fit_phase_damping", None, True, None),
    ("calibration.return_probability", "motional_noise", "return_probability", None, True,
     ("calibration",)),
    ("calibration.minimize_scalar", "calibration", "minimize_scalar", _nfev, False,
     ("calibration",)),
    ("harness.run_depth_sweep", "harness", "run_depth_sweep", None, True, None),
    ("harness.run_inference_demo", "harness", "run_inference_demo", None, True, None),
    ("harness.simulate_spectrum", "harness", "simulate_spectrum", None, True, None),
)

# Per-layer metrics reported on every workload, in report order.
CALLS = ("spinsim.CompiledCircuit", "spinsim.apply", "trotter.build_trotter_circuit",
         "motional_noise.sample_trajectory", "motional_noise.hyp1f2",
         "feedforward.correct_circuit", "feedforward.lookup",
         "feedforward.optimal_input_angle", "hamiltonian.ExactEvolver",
         "hamiltonian.unitary", "hamiltonian.evolve", "spectroscopy.evolve",
         "spectroscopy.spectrum", "spectroscopy.hellinger",
         "calibration.return_probability", "harness.simulate_spectrum")
SELF = ("spinsim.CompiledCircuit", "spinsim.apply", "trotter.build_trotter_circuit",
        "motional_noise.sample_trajectory", "motional_noise.hyp1f2",
        "feedforward.correct_circuit", "feedforward.lookup",
        "feedforward.optimal_input_angle", "hamiltonian.ExactEvolver",
        "hamiltonian.unitary", "hamiltonian.evolve", "spectroscopy.fidelity_trace",
        "spectroscopy.noisy_response", "spectroscopy.response_function",
        "spectroscopy.spectrum", "spectroscopy.hellinger",
        "calibration.simulate_calibration", "calibration.fit_c2",
        "calibration.fit_phase_damping", "harness.run_depth_sweep",
        "harness.run_inference_demo")
TOTAL = ("feedforward.lookup", "feedforward.optimal_input_angle")
COUNTS = ("spinsim.gate_columns", "motional_noise.hyp1f2.points",
          "calibration.minimize_scalar.nfev")


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    names = [(f"{n}.calls", "count") for n in CALLS]
    names += [(f"{n}.self_s", "s") for n in SELF]
    names += [(f"{n}.total_s", "s") for n in TOTAL]
    names += [(n, "count") for n in COUNTS]
    names += [("feedforward.corner_hit_ratio", "ratio"), ("trace.overhead_s", "s"),
              ("trace.span_coverage", "ratio")]
    return names


def _resolve(module, path):
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    return owner, attr


class Tracer:
    """Records spans and counts while installed; single-threaded use only."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start, end, parent index or -1)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name, fn, hook, span):
        counts = self.counts
        if not span:
            @functools.wraps(fn)
            def probe(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(counts, args, kwargs, result)
                return result
            return probe

        name_id = self._name_id(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"ioncodesign.{m}") for m in MODULES}
        for name, home, path, hook, span, only in TARGETS:
            owner, attr = _resolve(modules[home], path)
            if owner is None or attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, hook, span)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            namespaces = [modules[m] for m in only] if only else \
                [m for m in sys.modules.values()
                 if getattr(m, "__name__", "").startswith("ioncodesign")]
            for module in namespaces:
                if vars(module).get(attr) is original:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: entries, self seconds and total seconds.

        A span directly nested in a span of the same name (a function
        recursing into itself, such as a sign-flipped table lookup) is not
        counted as another entry and adds no total time of its own.
        """
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        children = [0.0] * len(self.spans)
        top_level = 0.0
        for name_id, start, end, parent in self.spans:
            duration = end - start
            if parent < 0:
                top_level += duration
            else:
                children[parent] += duration
        for index, (name_id, start, end, parent) in enumerate(self.spans):
            duration = end - start
            self_s[name_id] += duration - children[index]
            if parent < 0 or self.spans[parent][0] != name_id:
                calls[name_id] += 1
                total[name_id] += duration
        names = self.names
        return {"calls": {names[k]: v for k, v in calls.items()},
                "self_s": {names[k]: v for k, v in self_s.items()},
                "total_s": {names[k]: v for k, v in total.items()},
                "top_level_s": top_level}

    def write_jsonl(self, path) -> None:
        """One span per line; times in seconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for index, (name_id, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": self.names[name_id],
                                     "start": start - origin, "end": end - origin,
                                     "parent": None if parent < 0 else parent}) + "\n")


def layer_metrics(tracer: Tracer, rounds: int, traced_wall_s: float,
                  overhead_s: float) -> dict:
    """Per-round per-layer metrics from `rounds` traced rounds.

    `traced_wall_s` is the summed wall time of those rounds, used for the
    share of it that named spans cover.
    """
    summary = tracer.summary()
    out = {}
    for name, unit in per_layer_names():
        if name.endswith(".calls"):
            value = summary["calls"].get(name[:-len(".calls")], 0) / rounds
        elif name.endswith(".self_s"):
            value = summary["self_s"].get(name[:-len(".self_s")], 0.0) / rounds
        elif name.endswith(".total_s"):
            value = summary["total_s"].get(name[:-len(".total_s")], 0.0) / rounds
        elif name == "feedforward.corner_hit_ratio":
            reads = tracer.counts.get("feedforward.corner_reads", 0)
            solves = summary["calls"].get("feedforward.optimal_input_angle", 0)
            value = (reads - solves) / reads if reads else 0.0
        elif name == "trace.overhead_s":
            value = overhead_s
        elif name == "trace.span_coverage":
            value = summary["top_level_s"] / traced_wall_s if traced_wall_s > 0 else 0.0
        else:
            value = tracer.counts.get(name, 0) / rounds
        out[name] = {"value": value, "unit": unit}
    return out
