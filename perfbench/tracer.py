"""Spans around nmsir's public functions, recorded from outside the package.

The tracer never edits nmsir.  It collects the public functions of each layer
module, then replaces every attribute of every loaded ``nmsir`` module that
*is* one of those function objects (matched by identity, so a function
re-exported or imported under another module survives refactors), and every
such object held in a module-level dict, directly or inside a tuple (the CLI
keeps its special solvers in one).  ``Trajectory.to_csv``/``from_csv`` are
wrapped on the class.  A function that no longer exists is simply never
wrapped; a metric about it then reads zero calls.

Spans are kept in memory as ``Span`` records: name, start, end, the index of
the enclosing traced span, whether the call raised, and per-call counts that
an observer took from the call's arguments or result.  Self time is a span's
duration minus the durations of its direct traced children; calls run on one
thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

# Layers in the order the package documents them; ``cli`` contributes only
# its entry point, so ``cli.main`` self time is all CLI-side work.
LAYERS = ("recovery", "network", "simulate", "solvers", "reference", "analysis", "trajectory", "cli")
CLI_ENTRY_POINTS = ("main",)
CLASS_METHODS = (("trajectory", "Trajectory", "to_csv"), ("trajectory", "Trajectory", "from_csv"))


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    error: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, clock(), parent=stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                span.counts = observe(args, kwargs, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def public_functions(layers=LAYERS) -> dict[str, object]:
    """Span name -> function object for the public functions of ``layers``."""
    found = {}
    for layer in layers:
        try:
            module = importlib.import_module(f"nmsir.{layer}")
        except ModuleNotFoundError:
            continue
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            if layer == "cli" and attr not in CLI_ENTRY_POINTS:
                continue
            found[f"{layer}.{attr}"] = obj
    return found


def _observe_steps(args, kwargs, result):
    return {"steps": len(result.t) - 1}


def _observe_infections(args, kwargs, result):
    return {"infections": int(result.meta.get("total_infections", 0))}


def _observe_write(args, kwargs, result):
    traj = args[0]
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"rows": len(traj.t), "bytes": os.path.getsize(path)}


def _observe_read(args, kwargs, result):
    return {"rows": len(result.t)}


def observer_for(name: str):
    """Per-call counts taken where the work happens, or None."""
    layer, _, func = name.partition(".")
    if name == "simulate.run_single":
        return _observe_infections
    if layer in ("solvers", "reference") and func.startswith("solve_"):
        return _observe_steps
    if name == "trajectory.to_csv":
        return _observe_write
    if name == "trajectory.from_csv":
        return _observe_read
    return None


def install(tracer: Tracer, layers=LAYERS):
    """Wrap the public functions of ``layers``; return a callable that undoes it."""
    targets = public_functions(layers)
    wrappers = {id(fn): tracer.wrap(name, fn, observer_for(name)) for name, fn in targets.items()}
    originals = {id(fn): fn for fn in targets.values()}
    undo = []

    def is_target(value):
        return originals.get(id(value)) is value

    def swap(value):
        """The wrapped replacement for ``value``, or None if it holds no target."""
        if is_target(value):
            return wrappers[id(value)]
        if isinstance(value, tuple) and any(is_target(v) for v in value):
            return tuple(wrappers[id(v)] if is_target(v) else v for v in value)
        return None

    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "nmsir" or mod_name.startswith("nmsir.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            new = swap(value)
            if new is not None:
                undo.append((namespace, attr, value))
                namespace[attr] = new
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    new = swap(item)
                    if new is not None:
                        undo.append((value, key, item))
                        value[key] = new

    for layer, cls_name, attr in CLASS_METHODS:
        if layer not in layers:
            continue
        module = sys.modules.get(f"nmsir.{layer}")
        cls = getattr(module, cls_name, None)
        raw = getattr(cls, "__dict__", {}).get(attr)
        if raw is None:
            continue
        name = f"{layer}.{attr}"
        if isinstance(raw, classmethod):
            new = classmethod(tracer.wrap(name, raw.__func__, observer_for(name)))
        else:
            new = tracer.wrap(name, raw, observer_for(name))
        undo.append((cls, attr, raw))
        setattr(cls, attr, new)

    def restore():
        for holder, key, value in reversed(undo):
            if isinstance(holder, dict):
                holder[key] = value
            else:
                setattr(holder, key, value)

    return restore


def percentile(values, q: float) -> float:
    """Inclusive percentile (q in 0..100) of ``values``; 0.0 when empty."""
    data = sorted(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return float(data[0])
    if q == 50:
        return float(statistics.median(data))
    return float(statistics.quantiles(data, n=100, method="inclusive")[int(q) - 1])


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; absent functions read zero."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def durations(name):
        return [spans[i].duration for i in by_name.get(name, [])]

    def total(name):
        return sum(durations(name))

    def count(name, key):
        return sum(spans[i].counts.get(key, 0) for i in by_name.get(name, []))

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    out: dict[str, float] = {}
    for name in ("network.generate_regular", "simulate.run_single",
                 "solvers.solve_pairwise", "solvers.solve_meanfield"):
        ms = [d * 1e3 for d in durations(name)]
        out[f"{name}.calls"] = len(ms)
        out[f"{name}.s"] = total(name)
        out[f"{name}.ms_p50"] = percentile(ms, 50)
        out[f"{name}.ms_p90"] = percentile(ms, 90)

    infections = count("simulate.run_single", "infections")
    out["simulate.infections"] = infections
    out["simulate.infections_per_s"] = rate(infections, total("simulate.run_single"))
    out["simulate.run_ensemble.self_s"] = sum(
        selfs[i] for i in by_name.get("simulate.run_ensemble", [])
    )

    solver_names = ("solvers.solve_pairwise", "solvers.solve_meanfield")
    steps = sum(count(n, "steps") for n in solver_names)
    out["solvers.steps"] = steps
    out["solvers.steps_per_s"] = rate(steps, sum(total(n) for n in solver_names))
    out["solvers.errors"] = sum(1 for s in spans if s.layer == "solvers" and s.error)

    ref_names = [
        f"reference.{f}" for f in ("solve_markovian_pairwise", "solve_fixed_delay_pairwise",
                                   "solve_gamma_chain", "solve_uniform_delay_pairwise")
    ]
    for name in ref_names:
        out[f"{name}.s"] = total(name)
    ref_spans = [s for s in spans if s.layer == "reference"]
    out["reference.steps_per_s"] = rate(
        sum(s.counts.get("steps", 0) for s in ref_spans), sum(s.duration for s in ref_spans)
    )

    for name in ("trajectory.to_csv", "trajectory.from_csv"):
        out[f"{name}.s"] = total(name)
        out[f"{name}.rows_per_s"] = rate(count(name, "rows"), total(name))
    out["trajectory.bytes_written"] = count("trajectory.to_csv", "bytes")

    analysis = [s for s in spans if s.layer == "analysis"]
    out["analysis.calls"] = len(analysis)
    out["analysis.s"] = sum(
        s.duration for s in analysis if s.parent < 0 or spans[s.parent].layer != "analysis"
    )
    out["cli.main.self_s"] = sum(selfs[i] for i in by_name.get("cli.main", []))
    out["recovery.parse_distribution.calls"] = len(by_name.get("recovery.parse_distribution", []))

    for layer in LAYERS:
        own = sum(t for s, t in zip(spans, selfs) if s.layer == layer)
        out[f"{layer}.share"] = own / wall_s if wall_s > 0 else 0.0
    return out
