"""One pass of a benchmark workload, in a fresh interpreter.

``python child.py <spec.json>`` runs the operations the spec lists
through the program's public entry points and writes what it saw to
``spec["out"]``: one digest per operation, the spans of a traced pass,
and for the ``verify`` mode the results of the output checks.  The
parent (``run.py``) times the whole process from outside; this file
never reports a time of its own except ``setup_s``, the CPU time of the
set-up alone, without interpreter start-up.

Modes:

* ``pass``   -- run every operation once (cold or warm is decided by
  the cache directory the parent hands over);
* ``setup``  -- probe the compiler and build the C-kernel families the
  parent lists, from an empty cache directory;
* ``verify`` -- run every operation again against a filled store and
  check a seed-drawn sample of its outputs against slower paths.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import math
import random
import re
import resource
import statistics
import sys
import time
import traceback

#: Timing lines the experiment CLI appends; stripped before digesting.
_TIMING = re.compile(r"^\(\S+ regenerated in [0-9.]+s[^)]*\)$", re.M)

#: Columns of Figure 13 in the experiment's row layout.
_FIG13_COLUMNS = ("mc=0", "mc=1", "mc=2", "fc=1", "fc=2", "no restrict")


def digest(text: str) -> str:
    return hashlib.sha256(_TIMING.sub("", text).encode()).hexdigest()


def result_key(result):
    """Cycles, instructions and stall breakdown of one cell."""
    miss = result.miss
    return (result.cycles, result.instructions, result.truedep_stall_cycles,
            miss.structural_stall_cycles, miss.blocking_stall_cycles,
            miss.write_allocate_stall_cycles, miss.write_buffer_stall_cycles)


# -- inputs --------------------------------------------------------------------


def _model(name, seed):
    from repro.workloads.spec92 import get_benchmark

    workload = get_benchmark(name)
    if seed is not None:
        workload = dataclasses.replace(workload, seed=seed)
    return workload


def _geometry(size, associativity):
    from repro.cache.geometry import CacheGeometry

    return CacheGeometry(size=size, line_size=32, associativity=associativity)


def _policy(spec):
    from repro.core import policies

    name, args, kwargs = spec
    return getattr(policies, name)(*args, **kwargs)


# -- operations ------------------------------------------------------------------
#
# Each ``*_ops`` function returns [(op id, callable)]; the callable runs
# the operation through the program and returns (output text, extra).


def reproduce_ops(inputs):
    from repro.api import run_experiment
    from repro.experiments.base import ExperimentOptions

    def run(experiment_id):
        # The CLI's defaults: serial, memoized, full scale.
        options = ExperimentOptions(scale=inputs["scale"], workers=1,
                                    cache=True)
        result = run_experiment(experiment_id, options=options)
        return result.render(), result

    return [(eid, (lambda eid=eid: run(eid))) for eid in inputs["order"]]


def sweep_ops(inputs):
    from repro import api
    from repro.sim.config import baseline_config

    models = [_model(name, seed) for name, seed in inputs["models"]]

    def run(size, associativity, latency):
        base = dataclasses.replace(
            baseline_config(), geometry=_geometry(size, associativity))
        table = api.sweep(models, load_latency=latency, base=base,
                          scale=inputs["scale"], workers=inputs["workers"])
        lines = [
            f"{workload} {policy} {result_key(table.rows[workload][policy])}"
            for workload in table.rows for policy in table.policy_names
        ]
        return "\n".join(lines), table

    return [
        (label, (lambda s=size, a=assoc, l=latency: run(s, a, l)))
        for label, size, assoc, latency in inputs["tables"]
    ]


def frontier_cells(inputs, name, seed, kb, latency):
    from repro.sim.config import MachineConfig

    workload = _model(name, seed)
    geometry = _geometry(kb * 1024, 1)
    return [
        (workload, MachineConfig(geometry=geometry, policy=_policy(policy),
                                 miss_penalty=16, issue_width=1),
         latency, inputs["scale"])
        for _description, policy, _bits in inputs["catalogue"]
    ]


def frontier_of(inputs, entries):
    from repro.analysis.designspace import DesignPoint, pareto_frontier

    points = []
    for entry, (description, policy, bits) in zip(entries,
                                                  inputs["catalogue"]):
        if entry.result is not None:
            mcpi = entry.result.mcpi
        else:
            mcpi = entry.bounds.mcpi_high
        points.append(DesignPoint(description=description,
                                  policy=_policy(policy),
                                  storage_bits=bits, mcpi=mcpi))
    return "\n".join(f"{p.description} {p.storage_bits} {p.mcpi!r}"
                     for p in pareto_frontier(points))


def frontier_ops(inputs):
    from repro.analysis.screen import run_band

    bits = [b for _d, _p, b in inputs["catalogue"]]

    def run(cells):
        entries, _report = run_band(cells, bits, fidelity="auto")
        return frontier_of(inputs, entries), entries

    ops = []
    for name, seed in inputs["models"]:
        for kb in inputs["sizes_kb"]:
            for latency in inputs["latencies"]:
                cells = frontier_cells(inputs, name, seed, kb, latency)
                ops.append((f"{name}/{kb}KB/lat{latency}",
                            (lambda c=cells: run(c))))
    return ops


def design_ops(inputs):
    """The sweep tables, then the frontier scenarios, in one process."""
    sweep = sweep_ops(inputs["sweep"])
    frontier = frontier_ops(inputs["frontier"])
    return ([(f"sweep:{op_id}", fn) for op_id, fn in sweep]
            + [(f"frontier:{op_id}", fn) for op_id, fn in frontier])


OPERATIONS = {
    "reproduce": reproduce_ops,
    "design": design_ops,
}


def run_ops(spec, tracer=None, on_start=None):
    """Run every operation once; one record per operation.

    ``on_start`` is called with each operation's id before it runs.
    """
    records = []
    extras = {}
    for op_id, fn in OPERATIONS[spec["workload"]](spec["inputs"]):
        if on_start is not None:
            on_start(op_id)
        record = {"id": op_id, "digest": None, "error": None}
        try:
            if tracer is None:
                text, extra = fn()
            else:
                text, extra = tracer.call("operation", op_id, fn)
            record["digest"] = digest(text)
            extras[op_id] = extra
        except Exception:
            record["error"] = traceback.format_exc(limit=4)
        records.append(record)
    return records, extras


def finish(tracer=None):
    """What the experiment CLI does before exiting."""
    from repro import telemetry
    from repro.sim.parallel import shutdown_pool

    if tracer is None:
        shutdown_pool()
        telemetry.flush()
    else:
        tracer.call("operation", None, shutdown_pool)
        tracer.call("operation", None, telemetry.flush)


# -- checks --------------------------------------------------------------------


def fig13_log2_err(result) -> float:
    """Median |log2(ours / paper)| over Figure 13's 18 x 6 cells."""
    from repro.workloads.spec92 import PAPER_FIG13

    headers = list(result.headers)
    columns = [headers.index(f"{c} mcpi") for c in _FIG13_COLUMNS[:-1]]
    columns.append(headers.index("inf mcpi"))
    errors = []
    for row in result.rows:
        paper = PAPER_FIG13[row[0]]
        for column, name in zip(columns, _FIG13_COLUMNS):
            ours = float(row[column])
            errors.append(abs(math.log2(ours / paper[name]))
                          if ours > 0 else math.inf)
    return statistics.median(errors)


def record_cells():
    """Capture every (operation, cell, result) the planner hands out.

    Returns the list it fills and a callback that names the operation
    now running (``run_ops``'s ``on_start``).
    """
    from repro.sim import planner
    from tracer import replace_everywhere

    seen = []
    current = [None]
    run_plan = planner.run_plan
    cached_simulate = planner.cached_simulate

    def recording_run_plan(cells, *args, **kwargs):
        results, report = run_plan(cells, *args, **kwargs)
        seen.extend((current[0], cell, result)
                    for cell, result in zip(cells, results))
        return results, report

    def recording_cached_simulate(workload, config=None, load_latency=10,
                                  scale=1.0, *args, **kwargs):
        result = cached_simulate(workload, config, load_latency, scale,
                                 *args, **kwargs)
        seen.append((current[0], (workload, config, load_latency, scale),
                     result))
        return result

    def on_start(op_id):
        current[0] = op_id

    replace_everywhere(run_plan, recording_run_plan)
    replace_everywhere(cached_simulate, recording_cached_simulate)
    return seen, on_start


def lane_of(config) -> str:
    """The lane a cell's configuration routes it to.

    Only the sample below uses this, to spread its cells over the
    lanes; the traced run counts the lanes cells really landed on.
    """
    from repro.cpu.replay import replay_supported
    from repro.cpu.replay_native import native_supported

    if config.issue_width != 1 or config.perfect_cache:
        return "interp"
    if config.policy.blocking:
        if config.write_buffer_depth is None:
            return "closed_form"
        return "interp"
    if native_supported(config):
        return "numpy"
    return "c" if replay_supported(config) else "interp"


#: What the reference sample must cover: every value each of these
#: takes over the run's cells is drawn at least once.  A defect
#: confined to one table, one policy on one lane, or one cache
#: geometry therefore meets a re-simulated cell on every run.
STRATA = (
    ("operation", lambda op_id, cell: op_id),
    ("lane/policy", lambda op_id, cell: (lane_of(cell[1]),
                                         cell[1].policy.name)),
    ("geometry", lambda op_id, cell: (cell[1].geometry.size,
                                      cell[1].geometry.line_size,
                                      cell[1].geometry.associativity)),
)


def reference_sample(pairs, budget_s, rng):
    """Seed-drawn cells, every stratum covered, then more within budget.

    Yields (operation, cell, result).  The cells are visited in a
    seed-shuffled order; a cell is drawn when it covers a stratum value
    no drawn cell covers yet.  After that, the remaining cells follow
    while the check has used less than ``budget_s`` seconds.
    """
    from repro.sim.resultstore import cell_fingerprint

    started = time.perf_counter()
    unique = {}
    for op_id, cell, result in pairs:
        if cell[1] is None:
            continue
        unique.setdefault(cell_fingerprint(*cell), (op_id, cell, result))
    keys = sorted(unique)
    rng.shuffle(keys)
    covered = set()
    rest = []
    for key in keys:
        op_id, cell, _result = unique[key]
        values = {(name, value(op_id, cell)) for name, value in STRATA}
        if values <= covered:
            rest.append(key)
            continue
        covered |= values
        yield unique[key]
    for key in rest:
        if time.perf_counter() - started >= budget_s:
            return
        yield unique[key]


def check_reference(pairs, budget_s, rng):
    """Re-simulate a sample of cells on the reference engine, uncached."""
    from repro import api

    failures = []
    checked = 0
    for op_id, cell, result in reference_sample(pairs, budget_s, rng):
        workload, config, latency, scale = cell
        checked += 1
        fresh = api.simulate(workload, config=config, load_latency=latency,
                             scale=scale, cached=False, engine="reference")
        if (result_key(fresh) != result_key(result)
                or dataclasses.asdict(fresh.miss)
                != dataclasses.asdict(result.miss)):
            failures.append(
                f"reference mismatch in {op_id}: {workload.name} "
                f"{config.policy.name} lat={latency}: "
                f"{result_key(result)} != {result_key(fresh)}")
    return checked, failures


def check_frontiers(inputs, extras, count, rng):
    """Screened brackets hold and sampled frontiers match exact runs.

    Every cell the screened pass simulated must lie inside its bracket.
    A seed-drawn sample of scenarios is re-run at ``fidelity="exact"``:
    the Pareto frontier must be identical and every exact result must
    lie inside its bracket.  Returns (checks attempted, failures).
    """
    from repro.analysis.screen import run_band

    bits = [b for _d, _p, b in inputs["catalogue"]]
    failures = []
    checked = 0

    def inside(label, entry, result):
        nonlocal checked
        bounds = entry.bounds
        if bounds is None:
            return
        checked += 1
        if not bounds.lower_cycles <= result.cycles <= bounds.upper_cycles:
            failures.append(
                f"{label} {entry.cell[1].policy.name}: exact "
                f"{result.cycles} outside [{bounds.lower_cycles}, "
                f"{bounds.upper_cycles}]")

    labels = sorted(extras)
    for label in labels:
        for entry in extras[label]:
            if entry.result is not None:
                inside(label, entry, entry.result)
    sample = rng.sample(labels, min(count, len(labels)))
    for label in sample:
        auto_entries = extras[label]
        cells = [entry.cell for entry in auto_entries]
        exact_entries, _ = run_band(cells, bits, fidelity="exact")
        if frontier_of(inputs, exact_entries) != frontier_of(inputs,
                                                             auto_entries):
            failures.append(f"frontier differs at fidelity=exact: {label}")
        for auto, exact in zip(auto_entries, exact_entries):
            inside(label, auto, exact.result)
    return checked + len(sample), failures


def meta():
    import numpy

    from repro.analysis.screen import resolve_fidelity
    from repro.sim import engines, parallel
    from repro.sim.simulator import ENGINE_VERSION

    return {
        "engine_version": ENGINE_VERSION,
        "engine": engines.resolve_engine().name,
        "backend": parallel.resolve_backend().name,
        "fidelity_sweep": resolve_fidelity(None, default="exact").name,
        "fidelity_frontier": "auto",
        "numpy": numpy.__version__,
    }


# -- modes ---------------------------------------------------------------------


def mode_pass(spec):
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(spec["span_dir"])
        tracer.install()
        print("E2E-WORK-START", file=sys.stderr, flush=True)
    records, extras = run_ops(spec, tracer)
    finish(tracer)
    out = {"ops": records}
    if "fig13" in extras:
        out["fig13_log2_err"] = fig13_log2_err(extras["fig13"])
    if tracer is not None:
        out["spans"] = tracer.spans
    return out


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def mode_setup(spec):
    from repro.cpu import ckernel

    started = cpu_seconds()
    compiler = ckernel.find_compiler()
    built = 0
    if compiler is not None:
        for family in spec["families"]:
            ckernel.ensure_kernel(ckernel.KernelFamily(**family))
            built += 1
    return {"setup_s": cpu_seconds() - started, "built": built,
            "compiler": compiler}


def guarded(check, *args):
    """A check's (attempted, failures); an exception is one failure."""
    try:
        return check(*args)
    except Exception:
        return 1, [traceback.format_exc(limit=4)]


def mode_verify(spec):
    from repro.api import run_experiment
    from repro.experiments.base import ExperimentOptions

    rng = random.Random(spec["check_seed"])
    pairs, on_start = record_cells()
    records, extras = run_ops(spec, on_start=on_start)
    checks = []
    count, failures = guarded(check_reference, pairs,
                              spec["reference_budget_s"], rng)
    checks.append({"check": "reference", "attempted": count,
                   "failures": failures})
    if spec["workload"] == "design":
        frontiers = {op_id: extra for op_id, extra in extras.items()
                     if op_id.startswith("frontier:")}
        count, failures = guarded(check_frontiers, spec["inputs"]["frontier"],
                                  frontiers, spec["exact_scenarios"], rng)
        checks.append({"check": "exact_frontier", "attempted": count,
                       "failures": failures})
    fig13 = extras.get("fig13")
    if fig13 is None:
        fig13 = run_experiment("fig13", options=ExperimentOptions(
            scale=spec["inputs"]["frontier"]["scale"], workers=1,
            cache=True))
    finish()
    return {"ops": records, "checks": checks,
            "fig13_log2_err": fig13_log2_err(fig13), "meta": meta()}


MODES = {"pass": mode_pass, "setup": mode_setup, "verify": mode_verify}

#: The public modules a user's script for each workload starts from.
ENTRY_MODULES = {
    "reproduce": ("repro.api", "repro.experiments.base"),
    "design": ("repro.api", "repro.analysis.screen",
               "repro.analysis.designspace", "repro.sim.config",
               "repro.cache.geometry"),
}


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    for module in ENTRY_MODULES[spec["workload"]]:
        importlib.import_module(module)
    out = MODES[spec["mode"]](spec)
    with open(spec["out"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
