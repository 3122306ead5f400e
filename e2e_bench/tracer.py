"""Outside-in span tracer for the end-to-end benchmark.

The benchmark never edits the program.  In a traced pass it replaces
each layer's public entry points with wrappers that record one span per
call -- ``[name, start, end, parent, outcome]`` -- in an in-memory list.
Spans nest: ``parent`` is the index of the innermost wrapped call that
was open when this one started, so a layer's self time (its duration
minus the time its direct children cover) can be computed afterwards
without double counting.

Forked pool workers inherit the wrappers but not a useful buffer: the
first traced call in a new process drops the inherited spans and starts
a fresh list.  A worker appends its spans to ``spans-<pid>.jsonl`` in
the span directory each time its outermost span closes, because pool
workers exit without running ``atexit`` handlers.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
from time import perf_counter


def _landed(args, result):
    return result is not None


def _built(args, result):
    return bool(result[2])


def _cells(args, result):
    return len(args[0])


def _plan(args, result):
    report = result[1]
    return [report.cells, report.unique]


def _band(args, result):
    report = result[1]
    return [report.cells, report.simulated]


#: (module, attribute, span name, outcome) for every wrapped entry
#: point.  ``attribute`` may name a class method as ``Class.method``.
#: The outcome function turns a call's arguments and return value into
#: the small JSON value the per-layer counters are computed from.
TARGETS = (
    ("repro.sim.simulator", "simulate", "simulate", None),
    ("repro.sim.simulator", "compile_workload", "compiler.lookup", None),
    ("repro.compiler.pipeline", "compile_kernel", "compiler.compile", None),
    ("repro.sim.trace", "expand", "trace.expand", None),
    ("repro.sim.stream", "build_stream", "stream.build", None),
    ("repro.sim.stream", "classify_stream", "stream.classify", None),
    ("repro.cpu.replay", "build_replay_fn", "codegen.py", None),
    ("repro.cpu.ckernel", "compile_kernel_so", "codegen.c", _built),
    ("repro.cpu.replay_cnative", "run_cnative", "replay.c", _landed),
    ("repro.cpu.replay_native", "run_native", "replay.numpy", _landed),
    ("repro.cpu.replay", "run_replay", "replay.python", _landed),
    ("repro.cpu.pipeline", "run_single_issue", "replay.interp", _landed),
    ("repro.cpu.dual_issue", "run_dual_issue", "replay.interp", _landed),
    ("repro.cpu.replay", "run_blocking_summary", "closed_form", _landed),
    ("repro.analysis.screen", "run_band", "screen.band", _band),
    ("repro.sim.bounds", "cell_bounds", "screen.bounds", None),
    ("repro.sim.resultstore", "ResultStore.load", "store.load", _landed),
    ("repro.sim.resultstore", "ResultStore.store", "store.store",
     lambda args, result: bool(result)),
    ("repro.sim.planner", "run_plan", "planner", _plan),
    ("repro.sim.parallel", "dispatch", "dispatch", _cells),
    ("repro.sim.parallel", "shutdown_pool", "dispatch.shutdown", None),
    ("repro.telemetry", "flush", "telemetry", None),
)


class Tracer:
    """Span buffer of one process plus the wrapper factory."""

    def __init__(self, span_dir: str) -> None:
        self.span_dir = span_dir
        self.owner = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.ident = threading.get_ident()
        self.spans = []
        self.stack = []
        self.flushed = 0

    def _flush_worker(self) -> None:
        path = os.path.join(self.span_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as fh:
            for span in self.spans[self.flushed:]:
                fh.write(json.dumps(span) + "\n")
        self.flushed = len(self.spans)

    def wrap(self, fn, name, outcome=None):
        """``fn`` recording one ``name`` span per main-thread call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._reset()
            if threading.get_ident() != tracer.ident:
                return fn(*args, **kwargs)
            spans = tracer.spans
            stack = tracer.stack
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                record[2] = perf_counter()
                if outcome is not None:
                    record[4] = outcome(args, result)
                return result
            finally:
                if not record[2]:
                    record[2] = perf_counter()
                stack.pop()
                if not stack and tracer.pid != tracer.owner:
                    tracer._flush_worker()

        return traced

    def call(self, name, outcome, fn, *args, **kwargs):
        """Run ``fn`` inside a ``name`` span tagged with ``outcome``."""
        return self.wrap(fn, name, lambda a, r: outcome)(*args, **kwargs)

    def install(self) -> None:
        """Wrap every target.

        Each function is replaced wherever a loaded ``repro`` module
        binds it (``from x import f`` copies the reference), so the
        target modules are imported first.  Modules imported later pick
        the wrapper up from the patched defining module.
        """
        for module_name, attribute, name, outcome in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                owner_name, method = attribute.split(".")
                owner = getattr(module, owner_name)
                setattr(owner, method,
                        self.wrap(getattr(owner, method), name, outcome))
                continue
            original = getattr(module, attribute)
            replace_everywhere(original, self.wrap(original, name, outcome))


def replace_everywhere(original, wrapper) -> None:
    """Rebind ``original`` to ``wrapper`` in every loaded repro module."""
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded is None or not (loaded_name == "repro"
                                  or loaded_name.startswith("repro.")):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapper)
