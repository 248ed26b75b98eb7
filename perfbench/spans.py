"""Span recorder for the traced benchmark run.

Spans are recorded from outside the simulator: :func:`install_solvers` and
:func:`install_remsim` replace the layer entry points with timing wrappers in
the namespaces their callers look them up in, so ``src/remsim`` carries no
tracing code.  Spans stay in memory
as (name, start, end, parent, run id, counts) and are written out once the
run ends; :func:`layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time

LINSOLVE = "linsolve"

# scipy's sparse and banded solve and factor entry points
SCIPY_SOLVERS = {
    "scipy.sparse.linalg": ("spsolve", "splu", "spilu", "factorized", "spsolve_triangular"),
    "scipy.linalg": ("solve_banded", "solveh_banded", "cholesky_banded", "cho_solve_banded"),
}


class SpanRecorder:
    """In-memory spans of one run; nested calls of one name record once."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, counts=None):
        """Time ``fn`` as span ``name``; ``counts(args, kwargs, result)``
        returns extra counters for the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._open and self.spans[self._open[-1]]["name"] == name:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = {"name": name, "start": 0.0, "end": 0.0, "parent": parent,
                    "run": self.run_id, "counts": {}}
            self.spans.append(span)
            self._open.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span["counts"] = counts(args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------

def _rebind(original, wrapped) -> None:
    """Point every name bound to ``original`` in remsim's modules at ``wrapped``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or mod_name.split(".")[0] != "remsim":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


class _TracedFactor:
    """A factor object (``splu`` result) whose ``solve`` is traced."""

    def __init__(self, factor, recorder):
        self._factor = factor
        self.solve = recorder.wrap(LINSOLVE, factor.solve)

    def __getattr__(self, attr):
        return getattr(self._factor, attr)


def install_solvers(recorder: SpanRecorder) -> None:
    """Wrap the scipy solver entry points; call before importing remsim so
    that names it imports from scipy are the wrapped ones."""
    for mod_name, names in SCIPY_SOLVERS.items():
        module = importlib.import_module(mod_name)
        for attr in names:
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapped = recorder.wrap(LINSOLVE, original)
            if attr in ("splu", "spilu"):
                wrapped = _wrap_result(wrapped, lambda f: _TracedFactor(f, recorder))
            elif attr == "factorized":
                wrapped = _wrap_result(wrapped, lambda f: recorder.wrap(LINSOLVE, f))
            setattr(module, attr, wrapped)


def _wrap_result(fn, convert):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        return convert(fn(*args, **kwargs))

    return call


def install_remsim(recorder: SpanRecorder) -> None:
    """Wrap the remsim layer entry points where their callers find them."""
    import remsim.checkpoint
    import remsim.export
    import remsim.flow
    import remsim.nzvi
    import remsim.reaction
    import remsim.solute
    import remsim.stages
    from remsim.scenario import Scenario
    from remsim.solute import TransportKernel
    from remsim.twophase import ImpesStepper

    def function(name, fn, counts=None):
        _rebind(fn, recorder.wrap(name, fn, counts))

    def method(cls, attr, name, counts=None):
        setattr(cls, attr, recorder.wrap(name, getattr(cls, attr), counts))

    for stage in (1, 2, 3, 4):
        function(f"stage{stage}", getattr(remsim.stages, f"run_stage{stage}"))
    function("flow.solve_pressure", remsim.flow.solve_pressure)
    method(ImpesStepper, "substep", "twophase.substep")
    method(ImpesStepper, "closures", "twophase.closures")
    method(TransportKernel, "__init__", "solute.kernel_build")

    def substeps(args, kwargs, result):
        kernel, dt = args[0], (args[2] if len(args) > 2 else kwargs["dt"])
        if not math.isfinite(kernel.stable_dt):
            return {"substeps": 1}
        return {"substeps": max(1, math.ceil(dt / kernel.stable_dt))}

    method(TransportKernel, "step", "solute.step", substeps)
    function("solute.dissolution", remsim.solute.dissolution_substep)
    for layer in (remsim.nzvi, remsim.reaction):
        for _, fn in inspect.getmembers(layer, inspect.isfunction):
            if fn.__module__ == layer.__name__ and not fn.__name__.startswith("_"):
                function(layer.__name__.rsplit(".", 1)[1], fn)

    function("checkpoint.read", remsim.checkpoint.read_checkpoint,
             lambda a, kw, r: {"bytes": os.path.getsize(a[0])})
    function("checkpoint.write", remsim.checkpoint.write_checkpoint,
             lambda a, kw, r: {"bytes": os.path.getsize(a[1])})
    for writer in (remsim.export.write_csv, remsim.export.write_vtk, remsim.export.write_series_csv):
        function("export", writer, lambda a, kw, r: {"files": 1, "bytes": os.path.getsize(a[0])})
    Scenario.build = classmethod(recorder.wrap("scenario.build", Scenario.build.__func__))


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(span["end"] - span["start"] - covered)
    return out


def layer_metrics(spans: list[dict], root: int) -> dict[str, float]:
    """Per-layer metrics from the spans under ``root`` (the timed run), plus
    the scenario build of the set-up that precedes it."""
    selfs = self_times(spans)
    inside = set()
    for index, span in enumerate(spans):
        if index == root or (span["parent"] is not None and span["parent"] in inside):
            inside.add(index)

    def pick(name):
        return [i for i in inside if spans[i]["name"] == name]

    def total(name):
        return sum(spans[i]["end"] - spans[i]["start"] for i in pick(name))

    def total_self(*names):
        return sum(selfs[i] for n in names for i in pick(n))

    def count(name, key=None):
        return sum(spans[i]["counts"].get(key, 0) if key else 1 for i in pick(name))

    stages = [f"stage{s}" for s in (1, 2, 3, 4)]
    wall = spans[root]["end"] - spans[root]["start"]
    metrics = {
        "linsolve.calls": count(LINSOLVE),
        "linsolve.s": total(LINSOLVE),
        "linsolve.share": total(LINSOLVE) / wall,
        "twophase.substeps": count("twophase.substep"),
        "twophase.substep_s": total("twophase.substep"),
        "twophase.closures_s": total("twophase.closures"),
        "twophase.self_s": total_self("twophase.substep"),
        "flow.solves": count("flow.solve_pressure"),
        "flow.self_s": total_self("flow.solve_pressure"),
        "solute.kernel_builds": count("solute.kernel_build"),
        "solute.kernel_build_s": total("solute.kernel_build"),
        "solute.steps": count("solute.step"),
        "solute.step_s": total("solute.step"),
        "solute.substeps": count("solute.step", "substeps"),
        "solute.dissolution_s": total("solute.dissolution"),
        "nzvi.calls": count("nzvi"),
        "nzvi.s": total("nzvi"),
        "reaction.calls": count("reaction"),
        "reaction.s": total("reaction"),
        "checkpoint.read_s": total("checkpoint.read"),
        "checkpoint.read_bytes": count("checkpoint.read", "bytes"),
        "checkpoint.write_s": total("checkpoint.write"),
        "checkpoint.write_bytes": count("checkpoint.write", "bytes"),
        "export.files": count("export", "files"),
        "export.bytes": count("export", "bytes"),
        "export.s": total("export"),
        "stages.self_s": total_self(*stages),
        "scenario.build_s": sum(
            s["end"] - s["start"] for s in spans[:root] if s["name"] == "scenario.build"
        ),
    }
    for stage in stages:
        metrics[f"{stage}.s"] = total(stage)
    return metrics
