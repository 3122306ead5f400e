"""Benchmark the execution engine and the memoized sweep pipeline.

Three measurements, mirroring the acceptance targets of
``docs/performance.md`` and ``docs/caching.md``:

* **serial throughput** -- simulated instructions per second for the
  optimized engine vs the reference loops, on hit-dominated workloads
  (where the fast path matters) and a miss-heavy one (where it must
  not hurt);
* **sweep wall-clock** -- a benchmarks x policies MCPI sweep through
  the cache-affine grouped pool vs the old one-task-per-cell pool
  running the reference engine;
* **sweep-cache wall-clock** -- a multi-figure cell suite executed
  cold (empty result store: every distinct cell simulated once) and
  warm (same store: a pure cache read), with bit-equality asserted
  between the two passes.

A fourth measurement covers **policy-sibling fusion** -- a cold
benchmarks x policies sweep with the fused stream-pass + replay engine
vs per-cell execution (``fusion=False``), results asserted
bit-identical; CI enforces a floor via ``--assert-speedup`` and the
payload lands in ``BENCH_fusion.json``.

A fifth covers the observability layer: **telemetry overhead** -- the
same serial workload suite timed with telemetry enabled and disabled,
results asserted bit-identical, and the relative cost reported (CI
enforces ``--assert-overhead 2``: spans and counters ride the per-cell
layer, never the per-instruction loops, so the cost must stay under
2%).

Engine results go to ``BENCH_engine.json``; the cold/warm comparison
goes to ``BENCH_sweepcache.json``.  Both payloads embed the process's
final telemetry snapshot under ``"telemetry"``, so a benchmark archive
carries its own cells-simulated/store-hit provenance.  All engine
timings use best-of-N over warmed compile/trace caches, so they
measure the engines, not numpy expansion.

Usage::

    python tools/perfbench.py [--scale 1.0] [--repeats 3] [--out FILE]
    python tools/perfbench.py --smoke        # tiny, for CI
    python tools/perfbench.py --smoke --assert-overhead 2

Smoke runs are CI wiring checks, not measurements: unless an output
path is given explicitly, ``--smoke`` writes its payloads under the
git-ignored ``bench-smoke/`` directory so they can never clobber the
committed full-run ``BENCH_*.json`` records.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import tempfile
import time
from dataclasses import replace

from repro import telemetry
from repro.analysis import format_table
from repro.compiler.ir import KernelBuilder
from repro.core.policies import (
    baseline_policies,
    blocking_cache,
    mc,
    no_restrict,
    table13_policies,
)
from repro.sim.config import baseline_config
from repro.sim.parallel import _ungrouped_submit, dispatch
from repro.sim.planner import run_plan
from repro.sim.simulator import clear_caches
from repro.sim.resultstore import ResultStore
from repro.sim.simulator import simulate
from repro.workloads.patterns import Strided
from repro.workloads.spec92 import get_benchmark
from repro.workloads.workload import Workload


def make_hitloop(iterations: int = 200_000) -> Workload:
    """A fully cache-resident read-modify-write kernel.

    Loads and stores walk the same 4 KB region of the 8 KB cache, so
    after one lap every access -- stores included (the baseline is
    write-around, so stores only hit blocks loads installed) -- is a
    hit.  This is the engine's best case and the headline number.
    """
    builder = KernelBuilder("hitloop")
    s_in = builder.declare_stream()
    s_out = builder.declare_stream()
    x = builder.load(s_in)
    y = builder.fop(x)
    builder.store(s_out, y)
    return Workload(
        name="hitloop",
        kernel=builder.build(),
        patterns={
            s_in: Strided(0, 8, 4096),
            s_out: Strided(0, 8, 4096),
        },
        iterations=iterations,
        max_unroll=4,
    )


SMOKE_DIR = "bench-smoke"


def redirect_smoke_outputs(args, parser) -> None:
    """Point default output paths into the git-ignored smoke directory.

    The repository's committed ``BENCH_*.json`` files are full-run
    records; a ``--smoke`` pass must not overwrite them.  Paths the
    user set explicitly are left alone.
    """
    os.makedirs(SMOKE_DIR, exist_ok=True)
    for attr in ("out", "sweepcache_out", "fusion_out",
                 "native_out", "cnative_out", "screen_out"):
        default = parser.get_default(attr)
        if getattr(args, attr) == default:
            setattr(args, attr, os.path.join(SMOKE_DIR, default))


def best_of(repeats: int, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_serial(workloads, scale: float, repeats: int):
    """Instructions/second per engine for each workload."""
    rows = []
    for workload in workloads:
        fast = simulate(workload, load_latency=10, scale=scale,
                        fast_path=True)
        slow = simulate(workload, load_latency=10, scale=scale,
                        fast_path=False)
        if fast != slow:
            raise AssertionError(
                f"engine divergence on {workload.name}"
            )
        t_fast, _ = best_of(repeats, lambda: simulate(
            workload, load_latency=10, scale=scale, fast_path=True))
        t_ref, _ = best_of(repeats, lambda: simulate(
            workload, load_latency=10, scale=scale, fast_path=False))
        instr = fast.instructions
        rows.append({
            "workload": workload.name,
            "instructions": instr,
            "fast_ips": instr / t_fast,
            "ref_ips": instr / t_ref,
            "speedup": t_ref / t_fast,
        })
    return rows


def bench_sweep(workloads, scale: float, repeats: int, workers: int):
    """Wall-clock for a policy sweep: grouped+fast vs ungrouped+ref.

    Runs the same fixed workload set as the serial benchmark (plus two
    more SPEC models) across the policy spectrum, comparing the new
    dispatch (cache-affine groups, optimized engine) against the
    pre-PR path (one task per cell, reference engine).
    """
    policies = (blocking_cache(), mc(1), mc(2), no_restrict())
    base = baseline_config()
    cells = [
        (workload, base.with_policy(policy), 10, scale)
        for workload in workloads
        for policy in policies
    ]

    t_grouped, grouped = best_of(
        repeats, lambda: dispatch(cells, workers=workers)
    )

    def ungrouped_reference():
        saved = os.environ.get("REPRO_ENGINE")
        os.environ["REPRO_ENGINE"] = "reference"
        try:
            return _ungrouped_submit(cells, workers=workers)
        finally:
            if saved is None:
                del os.environ["REPRO_ENGINE"]
            else:
                os.environ["REPRO_ENGINE"] = saved

    t_ungrouped, ungrouped = best_of(repeats, ungrouped_reference)
    if grouped != ungrouped:
        raise AssertionError("parallel sweep diverged from reference")
    return {
        "cells": len(cells),
        "workers": workers,
        "grouped_fast_seconds": t_grouped,
        "ungrouped_ref_seconds": t_ungrouped,
        "speedup": t_ungrouped / t_grouped,
    }


def figure_suite_cells(scale: float):
    """Three figure-shaped sweeps with realistic cross-figure overlap.

    A slice of the fig5-style curves, the fig13 table, and the fig18
    penalty sweep, as one flat cell list: the table's latency-10 row
    and the curves share traces, and the unrestricted/blocking
    baselines recur everywhere -- the overlap the planner's dedup and
    the result store exist to exploit.
    """
    base = baseline_config()
    curves = []
    for bench in ("doduc", "xlisp"):
        workload = get_benchmark(bench)
        for policy in baseline_policies():
            for latency in (1, 3, 10):
                curves.append((workload, base.with_policy(policy),
                               latency, scale))
    table = []
    for bench in ("doduc", "xlisp", "eqntott", "ora"):
        workload = get_benchmark(bench)
        for policy in table13_policies():
            table.append((workload, base.with_policy(policy), 10, scale))
    penalty = []
    workload = get_benchmark("doduc")
    for policy in (blocking_cache(), no_restrict()):
        for pen in (8, 16, 32):
            penalty.append((workload,
                            replace(base, policy=policy, miss_penalty=pen),
                            10, scale))
    return curves + table + penalty


def bench_sweepcache(scale: float, workers: int, repeats: int):
    """Cold vs warm wall-clock for a multi-figure sweep.

    Cold: empty store, every distinct cell simulated once.  Warm: the
    same plan against the now-populated store -- zero simulations.
    Both passes must be bit-identical to each other and to a direct
    ``simulate`` call (spot-checked on one cell).
    """
    cells = figure_suite_cells(scale)
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        store = ResultStore(tmp)

        t0 = time.perf_counter()
        cold_results, cold_report = run_plan(cells, workers=workers,
                                             store=store)
        t_cold = time.perf_counter() - t0

        t_warm = float("inf")
        warm_results, warm_report = None, None
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            warm_results, warm_report = run_plan(cells, workers=workers,
                                                 store=store)
            t_warm = min(t_warm, time.perf_counter() - t0)

        if warm_results != cold_results:
            raise AssertionError("warm sweep diverged from cold sweep")
        if warm_report.simulated != 0:
            raise AssertionError(
                f"warm sweep re-simulated {warm_report.simulated} cells"
            )
        spot_workload, spot_config, spot_latency, spot_scale = cells[0]
        direct = simulate(spot_workload, spot_config,
                          load_latency=spot_latency, scale=spot_scale)
        if direct != warm_results[0]:
            raise AssertionError("cached result diverged from simulate()")

    return {
        "cells": len(cells),
        "unique_cells": cold_report.unique,
        "deduplicated": cold_report.deduplicated,
        "workers": workers,
        "cold_seconds": t_cold,
        "warm_seconds": t_warm,
        "speedup": t_cold / t_warm,
        "warm_simulations": warm_report.simulated,
        "bit_identical": True,
    }


def bench_fusion(scale: float, repeats: int, smoke: bool):
    """Cold multi-policy sweep: policy-sibling fusion vs per-cell runs.

    The fusion target workload: every baseline policy over every
    benchmark at one latency -- the Figure 13 shape, where each
    (workload, latency, scale, line size) group is shared by seven
    policy siblings.  Fused, the group's trace is expanded and its
    event stream built once, blocking siblings collapse to the
    functional closed form, and each non-blocking sibling runs only
    its compiled replay kernel; unfused (``fusion=False``, the PR 4
    baseline), every sibling re-executes the interpreter.  Caches are
    cleared before every pass so both sides start cold, and the two
    result lists are asserted bit-identical.

    As with the telemetry benchmark, the run length is floored at half
    the calibrated scale even in smoke mode: fusion amortizes per-group
    fixed costs (expansion, stream build, kernel compilation) over the
    replayed instructions, so microsecond cells measure only the fixed
    costs it exists to amortize.
    """
    from repro.workloads.spec92 import BENCHMARK_ORDER

    scale = max(scale, 0.5)
    names = (("eqntott", "espresso", "doduc", "ora", "tomcatv", "xlisp")
             if smoke else tuple(BENCHMARK_ORDER))
    policies = baseline_policies()
    base = baseline_config()
    cells = [
        (get_benchmark(name), base.with_policy(policy), 10, scale)
        for name in names
        for policy in policies
    ]

    def run(fusion: bool):
        clear_caches()
        return [
            simulate(workload, config, load_latency=latency, scale=s,
                     fusion=fusion)
            for workload, config, latency, s in cells
        ]

    t_fused, fused = best_of(repeats, lambda: run(True))
    t_unfused, unfused = best_of(repeats, lambda: run(False))
    if fused != unfused:
        raise AssertionError("fused sweep diverged from unfused execution")
    clear_caches()
    return {
        "benchmarks": len(names),
        "policies": len(policies),
        "cells": len(cells),
        "fused_seconds": t_fused,
        "unfused_seconds": t_unfused,
        "speedup": t_unfused / t_fused,
        "bit_identical": True,
    }


def bench_native(scale: float, repeats: int, smoke: bool):
    """Replay phase of a cold multi-policy sweep: native lane vs scalar.

    The native tier vectorizes exactly one thing -- quiescent all-hit
    execution runs -- so it is measured on its envelope: the
    hit-dominated suite (``hitloop`` plus the cache-resident integer
    models at the 64 KB corner, where after the cold start nearly
    every execution hits).  Streaming FP models miss in essentially
    every execution at every cache size, so no exact execution-level
    batching can help them; two of them are measured and reported as
    the honest "outside the envelope" number (``streaming_speedup``,
    ~1.0x, not gated).  See docs/performance.md, "Native replay
    tier".

    Per workload the group's trace and event stream are built once
    (the shared stream pass the fused tier already amortizes); the
    timed quantity is the per-policy replay sweep -- every
    non-blocking baseline policy through the scalar kernel vs through
    the native lane -- with both lanes' results asserted
    bit-identical.
    """
    from repro.cache.geometry import CacheGeometry
    from repro.cpu.replay import run_replay
    from repro.cpu.replay_native import native_supported, run_native
    from repro.sim import stream as stream_mod
    from repro.sim.config import MachineConfig
    from repro.sim.simulator import expand_workload

    scale = max(scale, 0.5)
    big = CacheGeometry(size=64 * 1024, line_size=32, associativity=1)
    base = baseline_config()
    # hitloop keeps its calibrated length even in smoke mode: the
    # vector lane's gain grows with run length, so a microsecond
    # hitloop would measure chunk-scan ramp-up, not the lane.  It is
    # synthetic and cheap (~70 ms per lane sweep), so the gate stays
    # meaningful at smoke scale.
    suite = [
        ("hitloop", make_hitloop(200_000), base.geometry, True),
        ("xlisp@64KB", get_benchmark("xlisp"), big, True),
        ("compress@64KB", get_benchmark("compress"), big, True),
        ("tomcatv", get_benchmark("tomcatv"), base.geometry, False),
        ("doduc", get_benchmark("doduc"), base.geometry, False),
    ]
    policies = [p for p in baseline_policies() if not p.blocking]

    clear_caches()
    rows = []
    totals = {True: [0.0, 0.0], False: [0.0, 0.0]}
    for label, workload, geometry, gated in suite:
        _, trace = expand_workload(workload, 10, scale=scale)
        stream = stream_mod.event_stream(workload, 10, scale,
                                         geometry.line_size)
        configs = [MachineConfig(geometry=geometry, policy=p)
                   for p in policies]
        assert all(native_supported(c) for c in configs)
        for config in configs:
            if run_native(stream, trace, config) != \
                    run_replay(stream, trace, config):
                raise AssertionError(
                    f"native lane diverged on {label}/{config.policy.name}"
                )

        def sweep_replay(run, configs=configs, stream=stream, trace=trace):
            for config in configs:
                run(stream, trace, config)

        t_py, _ = best_of(repeats, lambda: sweep_replay(run_replay))
        t_nat, _ = best_of(repeats, lambda: sweep_replay(run_native))
        rows.append({
            "cell": label,
            "gated": gated,
            "python_seconds": t_py,
            "native_seconds": t_nat,
            "speedup": t_py / t_nat,
        })
        totals[gated][0] += t_py
        totals[gated][1] += t_nat
    clear_caches()
    return {
        "suite": "hit-dominated (gated) + streaming (informational)",
        "policies": len(policies),
        "cells": len(suite) * len(policies),
        "rows": rows,
        "python_seconds": totals[True][0],
        "native_seconds": totals[True][1],
        "speedup": totals[True][0] / totals[True][1],
        "streaming_speedup": totals[False][0] / totals[False][1],
        "bit_identical": True,
    }


def bench_cnative(scale: float, repeats: int, smoke: bool):
    """Replay phase on the cells the vector lane declines: C vs scalar.

    The compiled-C tier exists for exactly the replayable cells the
    numpy lane cannot take -- set-associative geometries and the
    streaming models the stream-shape heuristic steers off the vector
    scan -- so it is measured on that envelope: two streaming FP
    models at the direct-mapped baseline corner and two
    set-associative corners.  Per workload the group's trace and
    event stream are built once; kernels are compiled (or loaded from
    the disk cache) during the bit-identity check, so the timed
    sweeps measure kernel execution, never compilation.

    Requires a working C compiler: a missing-toolchain environment
    would silently measure the scalar fallback against itself, so the
    bench refuses to run instead.
    """
    from repro.cache.geometry import FULLY_ASSOCIATIVE, CacheGeometry
    from repro.cpu import ckernel
    from repro.cpu.replay import run_replay
    from repro.cpu.replay_cnative import cnative_supported, run_cnative
    from repro.sim import stream as stream_mod
    from repro.sim.config import MachineConfig
    from repro.sim.simulator import expand_workload

    if not ckernel.kernels_available():
        raise SystemExit(
            "bench_cnative needs a C compiler (none found; set REPRO_CC)"
        )
    scale = max(scale, 0.5)
    base = baseline_config()
    assoc4 = CacheGeometry(size=8 * 1024, line_size=32, associativity=4)
    big2 = CacheGeometry(size=64 * 1024, line_size=32, associativity=2)
    full = CacheGeometry(size=8 * 1024, line_size=32,
                         associativity=FULLY_ASSOCIATIVE)
    suite = [
        ("tomcatv", get_benchmark("tomcatv"), base.geometry, "streaming"),
        ("doduc", get_benchmark("doduc"), base.geometry, "streaming"),
        ("eqntott@4way", get_benchmark("eqntott"), assoc4, "associative"),
        ("xlisp@64KB/2way", get_benchmark("xlisp"), big2, "associative"),
        ("compress@full", get_benchmark("compress"), full, "associative"),
    ]
    if smoke:
        suite = suite[:1] + suite[2:3]
    policies = [p for p in baseline_policies() if not p.blocking]

    clear_caches()
    rows = []
    total_py = total_c = 0.0
    for label, workload, geometry, kind in suite:
        _, trace = expand_workload(workload, 10, scale=scale)
        stream = stream_mod.event_stream(workload, 10, scale,
                                         geometry.line_size)
        configs = [MachineConfig(geometry=geometry, policy=p)
                   for p in policies]
        assert all(cnative_supported(c) for c in configs)
        # Compiles/loads every kernel the sweep needs, so the timed
        # passes below never pay a build.
        for config in configs:
            c_out = run_cnative(stream, trace, config)
            if c_out is None or c_out != run_replay(stream, trace, config):
                raise AssertionError(
                    f"C kernel diverged on {label}/{config.policy.name}"
                )

        def sweep_replay(run, configs=configs, stream=stream, trace=trace):
            for config in configs:
                run(stream, trace, config)

        t_py, _ = best_of(repeats, lambda: sweep_replay(run_replay))
        t_c, _ = best_of(repeats, lambda: sweep_replay(run_cnative))
        rows.append({
            "cell": label,
            "kind": kind,
            "python_seconds": t_py,
            "cnative_seconds": t_c,
            "speedup": t_py / t_c,
        })
        total_py += t_py
        total_c += t_c
    built = [k for k in ckernel.loaded_kernels() if k.built]
    compile_seconds = sum(k.compile_seconds for k in built)
    clear_caches()
    return {
        "suite": "vector-lane-declined cells (streaming + associative)",
        "policies": len(policies),
        "cells": len(suite) * len(policies),
        "compiler": ckernel.find_compiler(),
        "kernels_built": len(built),
        "compile_seconds": compile_seconds,
        "rows": rows,
        "python_seconds": total_py,
        "cnative_seconds": total_c,
        "speedup": total_py / total_c,
        "bit_identical": True,
    }


def bench_telemetry(workloads, scale: float, repeats: int):
    """Per-cell telemetry cost against realistic cell lengths.

    The instrumentation sits at cell granularity -- one span and a
    handful of counter increments per ``simulate`` call, independent of
    the cell's length -- so its overhead is a fixed per-cell cost
    diluted by however long the cell runs.  Wall-clocking the whole
    suite on vs off cannot resolve that cost on a shared machine: the
    delta is far below the run-to-run noise of multi-millisecond
    windows.  This measures the two factors separately, each where it
    is actually measurable:

    * the **fixed cost**, on a microscopic cell timed in CPU time over
      thousands of calls per sample with the garbage collector paused
      (its pauses dwarf the delta), where the per-call difference is
      orders of magnitude larger relative to the work;
    * the **realistic cell length**, as the telemetry-off suite's mean
      per-cell wall time, floored at half the calibrated scale even in
      smoke mode -- the budget is about cells of realistic length.

    ``overhead_percent`` is their ratio.  Bit-identity of results with
    telemetry on vs off is still asserted on the realistic suite.
    """
    repeats = max(repeats, 16)
    scale = max(scale, 0.5)

    def run_suite():
        return [simulate(workload, load_latency=10, scale=scale)
                for workload in workloads]

    micro = make_hitloop(200)
    micro_reps = 2000

    def micro_sample(enabled: bool) -> float:
        telemetry.set_enabled(enabled)
        t0 = time.process_time()
        for _ in range(micro_reps):
            simulate(micro, load_latency=10, scale=scale)
        return (time.process_time() - t0) / micro_reps

    gc_was_enabled = gc.isenabled()
    try:
        telemetry.set_enabled(True)
        results_on = run_suite()  # also warms compile/trace caches
        telemetry.set_enabled(False)
        results_off = run_suite()
        if results_on != results_off:
            raise AssertionError("telemetry changed simulation results")

        # factor 1: fixed per-cell cost.  Median of adjacent on/off
        # pair deltas, not a difference of independent minima: paired
        # samples run milliseconds apart and see the same machine
        # state, while each side's global minimum can come from a
        # different contention regime and skew the difference.
        micro_sample(True)  # warm the micro cell's caches
        gc.disable()
        deltas = []
        for _ in range(repeats):
            on = micro_sample(True)
            off = micro_sample(False)
            deltas.append(on - off)
        fixed_seconds = max(0.0, statistics.median(deltas))

        # factor 2: realistic cell length (telemetry off)
        gc.enable()
        telemetry.set_enabled(False)
        suite_seconds = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            run_suite()
            suite_seconds = min(suite_seconds, time.perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
        telemetry.set_enabled(None)

    cell_seconds = suite_seconds / len(workloads)
    return {
        "fixed_us_per_cell": fixed_seconds * 1e6,
        "cell_ms": cell_seconds * 1e3,
        "overhead_percent": fixed_seconds / cell_seconds * 100.0,
        "bit_identical": True,
    }


def run_native_only(args) -> None:
    """The ``perfbench bench_native`` entry: native-lane gate only."""
    native = bench_native(args.scale, args.repeats, args.smoke)
    print(f"native replay lane (replay phase, best of {args.repeats}, "
          f"{native['policies']} policies/cell):\n")
    print(format_table(
        ["cell", "gated", "python ms", "native ms", "speedup"],
        [[r["cell"], "yes" if r["gated"] else "no",
          round(1e3 * r["python_seconds"], 1),
          round(1e3 * r["native_seconds"], 1),
          round(r["speedup"], 2)] for r in native["rows"]],
    ))
    print(f"\n  hit-dominated suite   : {native['speedup']:.2f}x")
    print(f"  streaming (not gated) : {native['streaming_speedup']:.2f}x")
    payload = {
        "scale": args.scale,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "native": native,
        "telemetry": telemetry.snapshot(),
    }
    with open(args.native_out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"\nwrote {args.native_out}")
    if args.assert_speedup is not None:
        if native["speedup"] < args.assert_speedup:
            raise SystemExit(
                f"native replay speedup {native['speedup']:.2f}x is below "
                f"the {args.assert_speedup:.2f}x floor"
            )
        print(f"native replay speedup meets the "
              f"{args.assert_speedup:.2f}x floor")


def run_cnative_only(args) -> None:
    """The ``perfbench bench_cnative`` entry: C-kernel gate only."""
    cnative = bench_cnative(args.scale, args.repeats, args.smoke)
    print(f"compiled-C replay kernels (replay phase, best of "
          f"{args.repeats}, {cnative['policies']} policies/cell):\n")
    print(format_table(
        ["cell", "kind", "python ms", "C ms", "speedup"],
        [[r["cell"], r["kind"],
          round(1e3 * r["python_seconds"], 1),
          round(1e3 * r["cnative_seconds"], 1),
          round(r["speedup"], 2)] for r in cnative["rows"]],
    ))
    print(f"\n  declined-cell suite : {cnative['speedup']:.2f}x")
    print(f"  compiler            : {cnative['compiler']}")
    print(f"  kernels built       : {cnative['kernels_built']} "
          f"({cnative['compile_seconds']:.3f}s, one-time, disk-cached)")
    payload = {
        "scale": args.scale,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "cnative": cnative,
        "telemetry": telemetry.snapshot(),
    }
    with open(args.cnative_out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"\nwrote {args.cnative_out}")
    if args.assert_speedup is not None:
        if cnative["speedup"] < args.assert_speedup:
            raise SystemExit(
                f"C replay speedup {cnative['speedup']:.2f}x is below "
                f"the {args.assert_speedup:.2f}x floor"
            )
        print(f"C replay speedup meets the "
              f"{args.assert_speedup:.2f}x floor")


def screen_design_catalogue(line_size: int = 32,
                            cache_size: int = 8 * 1024):
    """The studied design catalogue widened with its size ladders.

    ~27 priced designs per scenario; fs entries get a synthetic
    eight-entry price (the per-set limit has no single hardware cost,
    and any monotone pricing exercises the pruning loop the same way).
    """
    from repro.analysis.designspace import design_catalogue
    from repro.core.cost import (
        explicit_mshr_bits,
        hybrid_mshr_bits,
        inverted_mshr_cost,
    )
    from repro.core.policies import fc, fs, inverted, mc, with_layout

    catalogue = list(design_catalogue(line_size=line_size,
                                      cache_size=cache_size))
    for n in (3, 6, 8, 12, 16):
        catalogue.append((
            f"{n} single-field MSHRs", mc(n),
            n * explicit_mshr_bits(line_size, 1),
        ))
    for n in (3, 6, 8):
        catalogue.append((
            f"{n} four-field explicit MSHRs", fc(n),
            n * explicit_mshr_bits(line_size, 4),
        ))
    for n in (1, 2, 4):
        catalogue.append((
            f"fs={n} per-set limit", fs(n),
            8 * explicit_mshr_bits(line_size, 4),
        ))
    for n in (16, 35):
        catalogue.append((
            f"inverted MSHR ({n} dest)", inverted(n),
            inverted_mshr_cost(n, line_size).total_bits,
        ))
    catalogue.append((
        "16 hybrid 4x2 MSHRs", with_layout(4, 2),
        16 * hybrid_mshr_bits(line_size, 4, 2),
    ))
    catalogue.append((
        "lockup cache + write-allocate", blocking_cache(write_allocate=True),
        0,
    ))
    return catalogue


def bench_screen(scale: float, repeats: int, smoke: bool):
    """Screened (auto-fidelity) vs exhaustive design-space sweep.

    Builds a ~1000-cell synthetic design space (workloads x cache
    sizes x latencies, ~27 priced designs each), resolves every
    scenario's Pareto frontier twice -- through the analytical
    screening tier and exhaustively -- and asserts the frontiers are
    identical.  Runs are serial and store-cold (fresh temp store,
    cleared in-memory caches) so the wall-clock comparison measures
    the tiers, not the memoization.  The prune rate counts cells
    resolved without their own exact simulation (closed-form screens
    plus proof-dominated prunes).
    """
    from repro.analysis.designspace import DesignPoint, pareto_frontier
    from repro.analysis.screen import run_band
    from repro.cache.geometry import CacheGeometry
    from repro.sim.config import MachineConfig

    if smoke:
        workload_names = ("eqntott", "compress")
        cache_kbs = (8, 64)
        latencies = (10,)
    else:
        workload_names = ("eqntott", "compress", "espresso", "su2cor",
                          "tomcatv", "doduc")
        cache_kbs = (8, 64, 256)
        latencies = (3, 10, 20)
    catalogue = screen_design_catalogue()
    bits = [b for _, _, b in catalogue]
    scenarios = []
    for name in workload_names:
        workload = get_benchmark(name)
        for kb in cache_kbs:
            geometry = CacheGeometry(size=kb * 1024, line_size=32,
                                     associativity=1)
            for latency in latencies:
                cells = [
                    (workload,
                     MachineConfig(geometry=geometry, policy=policy,
                                   miss_penalty=16, issue_width=1),
                     latency, scale)
                    for _, policy, _ in catalogue
                ]
                scenarios.append((f"{name}/{kb}KB/lat{latency}", cells))

    def run_all(fidelity: str):
        outcome = []
        with tempfile.TemporaryDirectory(
                prefix="repro-bench-screen-") as tmp:
            store = ResultStore(tmp)
            clear_caches()
            for label, cells in scenarios:
                entries, report = run_band(cells, bits, fidelity=fidelity,
                                           store=store)
                outcome.append((label, entries, report))
        return outcome

    t_screen, screened = best_of(repeats, lambda: run_all("auto"))
    t_exact, exhaustive = best_of(repeats, lambda: run_all("exact"))

    def frontier_of(entries):
        points = []
        for entry, (description, policy, storage_bits) in zip(entries,
                                                              catalogue):
            if entry.result is not None:
                mcpi = entry.result.mcpi
            else:
                mcpi = entry.bounds.mcpi_high
            points.append(DesignPoint(description=description,
                                      policy=policy,
                                      storage_bits=storage_bits,
                                      mcpi=mcpi))
        return [(p.description, p.storage_bits, p.mcpi)
                for p in pareto_frontier(points)]

    rows = []
    total_cells = total_simulated = total_pruned = 0
    identical = True
    for (label, entries_s, report_s), (_, entries_e, _) in zip(
            screened, exhaustive):
        frontier_s = frontier_of(entries_s)
        frontier_e = frontier_of(entries_e)
        match = frontier_s == frontier_e
        identical = identical and match
        total_cells += report_s.cells
        total_simulated += report_s.simulated
        total_pruned += report_s.pruned
        rows.append({
            "scenario": label,
            "cells": report_s.cells,
            "closed_form": report_s.exact_screened,
            "pruned": report_s.pruned,
            "simulated": report_s.simulated,
            "waves": report_s.waves,
            "frontier": len(frontier_e),
            "frontier_identical": match,
        })
    if not identical:
        bad = [r["scenario"] for r in rows if not r["frontier_identical"]]
        raise AssertionError(
            f"screened frontier diverged from exhaustive in: {bad}"
        )
    prune_rate = 1.0 - total_simulated / total_cells if total_cells else 0.0
    return {
        "scenarios": len(scenarios),
        "designs_per_scenario": len(catalogue),
        "cells": total_cells,
        "simulated": total_simulated,
        "pruned": total_pruned,
        "prune_rate": prune_rate,
        "frontier_identical": True,
        "screen_seconds": t_screen,
        "exact_seconds": t_exact,
        "speedup": t_exact / t_screen if t_screen else float("inf"),
        "rows": rows,
    }


def run_screen_only(args) -> None:
    """The ``perfbench bench_screen`` entry: screening-tier gate."""
    screen = bench_screen(args.scale, args.repeats, args.smoke)
    print(f"analytical screening tier ({screen['cells']} cells across "
          f"{screen['scenarios']} design-space scenarios, "
          f"{screen['designs_per_scenario']} designs each, "
          f"best of {args.repeats}):\n")
    print(format_table(
        ["scenario", "cells", "closed-form", "pruned", "simulated",
         "waves", "frontier"],
        [[r["scenario"], r["cells"], r["closed_form"], r["pruned"],
          r["simulated"], r["waves"], r["frontier"]]
         for r in screen["rows"]],
    ))
    print(f"\n  exhaustive (exact)   : {screen['exact_seconds']:.3f} s")
    print(f"  screened (auto)      : {screen['screen_seconds']:.3f} s")
    print(f"  speedup              : {screen['speedup']:.2f}x")
    print(f"  prune rate           : {100 * screen['prune_rate']:.1f}% "
          f"({screen['cells'] - screen['simulated']} of "
          f"{screen['cells']} cells never individually simulated)")
    print("  frontiers            : identical to exhaustive "
          "in every scenario")
    payload = {
        "scale": args.scale,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "screen": screen,
        "telemetry": telemetry.snapshot(),
    }
    with open(args.screen_out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"\nwrote {args.screen_out}")
    if args.assert_prune is not None:
        if 100 * screen["prune_rate"] < args.assert_prune:
            raise SystemExit(
                f"screen prune rate {100 * screen['prune_rate']:.1f}% is "
                f"below the {args.assert_prune:.1f}% floor"
            )
        print(f"screen prune rate meets the "
              f"{args.assert_prune:.1f}% floor")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench", nargs="?", default="all",
                        choices=("all", "bench_native", "bench_cnative",
                                 "bench_screen"),
                        help="which suite to run: 'all' (default, the five "
                             "historical measurements), 'bench_native' "
                             "(the native replay-lane gate only), "
                             "'bench_cnative' (the compiled-C kernel gate "
                             "only), or 'bench_screen' (analytical "
                             "screening tier vs exhaustive design-space "
                             "sweep); --assert-speedup applies to the "
                             "selected suite, --assert-overhead to "
                             "telemetry under 'all', --assert-prune to "
                             "'bench_screen'")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="run-length multiplier for the benchmarks")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing repeats")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool size for the sweep benchmark")
    parser.add_argument("--out", default="BENCH_engine.json")
    parser.add_argument("--sweepcache-out", default="BENCH_sweepcache.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny everything (CI wiring check, not a "
                             "meaningful measurement)")
    parser.add_argument("--assert-overhead", type=float, default=None,
                        metavar="PCT",
                        help="fail if telemetry overhead exceeds PCT percent")
    parser.add_argument("--fusion-out", default="BENCH_fusion.json")
    parser.add_argument("--native-out", default="BENCH_native.json")
    parser.add_argument("--cnative-out", default="BENCH_cnative.json")
    parser.add_argument("--screen-out", default="BENCH_screen.json")
    parser.add_argument("--assert-prune", type=float, default=None,
                        metavar="PCT",
                        help="bench_screen: fail if the screened sweep "
                             "prunes fewer than PCT percent of cells")
    parser.add_argument("--assert-speedup", type=float, default=None,
                        metavar="X",
                        help="fail if the gated sweep speedup falls below X "
                             "(the fused sweep under 'all', the native "
                             "replay lane under 'bench_native')")
    args = parser.parse_args()

    if args.smoke:
        redirect_smoke_outputs(args, parser)

    if args.bench == "bench_native":
        if args.smoke:
            args.repeats = max(args.repeats, 2)
        run_native_only(args)
        return

    if args.bench == "bench_cnative":
        if args.smoke:
            args.repeats = max(args.repeats, 2)
        run_cnative_only(args)
        return

    if args.bench == "bench_screen":
        if args.smoke:
            args.scale = min(args.scale, 0.05)
            args.repeats = 1
        run_screen_only(args)
        return

    if args.smoke:
        args.scale = min(args.scale, 0.05)
        args.repeats = 1
        workers = args.workers or 2
        hit_iterations = 20_000
    else:
        workers = args.workers
        hit_iterations = 200_000

    workloads = [
        make_hitloop(hit_iterations),
        get_benchmark("eqntott"),
        get_benchmark("espresso"),
        get_benchmark("ora"),
    ]
    serial = bench_serial(workloads, args.scale, args.repeats)
    sweep_workloads = workloads + [
        get_benchmark("tomcatv"), get_benchmark("xlisp"),
    ]
    sweep = bench_sweep(sweep_workloads, args.scale, args.repeats,
                        workers or 2)

    print("serial engine throughput (best of "
          f"{args.repeats}, scale {args.scale}):\n")
    print(format_table(
        ["workload", "instructions", "fast M/s", "ref M/s", "speedup"],
        [[r["workload"], r["instructions"],
          round(r["fast_ips"] / 1e6, 2), round(r["ref_ips"] / 1e6, 2),
          round(r["speedup"], 2)] for r in serial],
    ))
    print(f"\nparallel sweep, {sweep['cells']} cells, "
          f"{sweep['workers']} workers:")
    print(f"  grouped + fast engine : {sweep['grouped_fast_seconds']:.3f} s")
    print(f"  ungrouped + reference : {sweep['ungrouped_ref_seconds']:.3f} s")
    print(f"  speedup               : {sweep['speedup']:.2f}x")

    sweepcache = bench_sweepcache(args.scale, workers or 2, args.repeats)
    print(f"\nmemoized sweep, {sweepcache['cells']} cells "
          f"({sweepcache['unique_cells']} unique, "
          f"{sweepcache['deduplicated']} deduplicated), "
          f"{sweepcache['workers']} workers:")
    print(f"  cold (empty store)    : {sweepcache['cold_seconds']:.3f} s")
    print(f"  warm (pure cache read): {sweepcache['warm_seconds']:.3f} s")
    print(f"  speedup               : {sweepcache['speedup']:.1f}x")

    fusion = bench_fusion(args.scale, args.repeats, args.smoke)
    print(f"\ncold multi-policy sweep ({fusion['benchmarks']} benchmarks x "
          f"{fusion['policies']} policies, serial):")
    print(f"  fused (stream + replay)       : "
          f"{fusion['fused_seconds']:.3f} s")
    print(f"  unfused (per-cell execution)  : "
          f"{fusion['unfused_seconds']:.3f} s")
    print(f"  speedup                       : {fusion['speedup']:.2f}x")

    overhead = bench_telemetry(workloads, args.scale, args.repeats)
    print(f"\ntelemetry overhead (fixed per-cell cost vs realistic "
          f"cells, best of {max(args.repeats, 16)}):")
    print(f"  fixed cost per cell   : "
          f"{overhead['fixed_us_per_cell']:.1f} us")
    print(f"  realistic cell length : {overhead['cell_ms']:.3f} ms")
    print(f"  overhead              : {overhead['overhead_percent']:+.2f}%")

    snapshot = telemetry.snapshot()
    payload = {
        "scale": args.scale,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "serial": serial,
        "sweep": sweep,
        "telemetry_overhead": overhead,
        "telemetry": snapshot,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"\nwrote {args.out}")

    cache_payload = {
        "scale": args.scale,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "sweepcache": sweepcache,
        "telemetry": snapshot,
    }
    with open(args.sweepcache_out, "w") as fh:
        json.dump(cache_payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.sweepcache_out}")

    fusion_payload = {
        "scale": args.scale,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "fusion": fusion,
        "telemetry": snapshot,
    }
    with open(args.fusion_out, "w") as fh:
        json.dump(fusion_payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.fusion_out}")

    if args.assert_speedup is not None:
        if fusion["speedup"] < args.assert_speedup:
            raise SystemExit(
                f"fused sweep speedup {fusion['speedup']:.2f}x is below "
                f"the {args.assert_speedup:.2f}x floor"
            )
        print(f"fused sweep speedup meets the "
              f"{args.assert_speedup:.2f}x floor")

    if args.assert_overhead is not None:
        if overhead["overhead_percent"] > args.assert_overhead:
            raise SystemExit(
                f"telemetry overhead {overhead['overhead_percent']:.2f}% "
                f"exceeds the {args.assert_overhead:.2f}% budget"
            )
        print(f"telemetry overhead within the "
              f"{args.assert_overhead:.2f}% budget")


if __name__ == "__main__":
    main()
