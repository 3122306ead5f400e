"""Top-level simulation driver: compile, expand, execute, account.

``simulate(workload, config, load_latency)`` is the package's central
entry point.  It runs the compiler pipeline (cached per workload and
latency, since the paper sweeps many hardware configurations over each
schedule), expands the address streams, executes the trace on the
selected processor model, and returns a
:class:`repro.sim.stats.SimulationResult`.

Caching: compiled bodies and expanded traces are memoized in bounded
LRU caches keyed on the *content* of the kernel (workload name plus
:meth:`repro.compiler.ir.Kernel.fingerprint`), never on ``id()`` --
object ids are reused after garbage collection and would silently
alias entries during long sweeps.  The bounds keep week-long sweeps
from growing memory without limit; sizes were chosen so a full
paper-scale sweep (18 benchmarks x 6 latencies) still fits.

Engine selection goes through the registry in
:mod:`repro.sim.engines`: five tiers (reference / fastpath / fused /
native / cnative), selectable per call (``engine=``), per process
(``REPRO_ENGINE``), or implicitly (``auto`` = fastest applicable per
cell).  All tiers produce bit-identical results.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional, Tuple

from repro import telemetry
from repro.compiler.pipeline import CompiledBody, compile_kernel
from repro.errors import ConfigurationError
from repro.cpu.dual_issue import run_dual_issue
from repro.cpu.pipeline import PerfectCacheHandler, run_single_issue
from repro.cpu.reference import (
    run_dual_issue_reference,
    run_single_issue_reference,
)
from repro.sim import engines as engines_mod
from repro.sim.config import MachineConfig, baseline_config
from repro.sim.lru import LRUCache
from repro.sim.stats import SimulationResult
from repro.sim.trace import ExpandedTrace, expand
from repro.workloads.workload import Workload

#: Version tag for the engine's *observable* semantics.  The on-disk
#: result store (:mod:`repro.sim.resultstore`) folds this into every
#: cell fingerprint, so bump it whenever a change alters any simulated
#: number (timing model, accounting, trace expansion) and every stale
#: cached result silently becomes a miss.  Pure speedups that keep
#: results bit-identical must NOT bump it.
ENGINE_VERSION = "engine-2"


#: Backwards-compatible name; the implementation moved to
#: :mod:`repro.sim.lru` so the event-stream caches can share it.
_LRUCache = LRUCache

#: Compiled bodies are small; traces hold the full address buffers, so
#: their cache is kept tighter.
_COMPILE_CACHE = _LRUCache(512)
_TRACE_CACHE = _LRUCache(64)


def clear_caches() -> None:
    """Drop cached schedules, traces, and event streams (tests use this)."""
    from repro.sim.bounds import clear_bounds_caches
    from repro.sim.stream import clear_stream_caches

    _COMPILE_CACHE.clear()
    _TRACE_CACHE.clear()
    clear_stream_caches()
    clear_bounds_caches()


#: Cached metric objects for the per-cell emission sites below; a cell
#: emits over a dozen metrics, and the per-name registry lookups they
#: would otherwise pay are most of the telemetry overhead budget that
#: ``tools/perfbench.py --assert-overhead`` enforces.
_METRICS = telemetry.MetricHandles(lambda m: SimpleNamespace(
    compile_hits=m.counter("sim.compile_cache.hits"),
    compile_misses=m.counter("sim.compile_cache.misses"),
    trace_hits=m.counter("sim.trace_cache.hits"),
    trace_misses=m.counter("sim.trace_cache.misses"),
    cells=m.counter("sim.cells"),
    instructions=m.counter("sim.instructions"),
    cycles=m.counter("sim.cycles"),
    truedep=m.counter("sim.stall.truedep_cycles"),
    structural=m.counter("sim.stall.structural_cycles"),
    blocking=m.counter("sim.stall.blocking_cycles"),
    write_allocate=m.counter("sim.stall.write_allocate_cycles"),
    write_buffer=m.counter("sim.stall.write_buffer_cycles"),
    closed_form=m.counter("fusion.closed_form"),
    replays=m.counter("fusion.replays"),
    native_replays=m.counter("engine.native.replays"),
    cnative_replays=m.counter("engine.cnative.replays"),
    bypasses=m.counter("fusion.bypasses"),
    cache_compiled=m.gauge("engine.cache.compiled"),
    cache_traces=m.gauge("engine.cache.traces"),
    cache_streams=m.gauge("engine.cache.streams"),
    cache_summaries=m.gauge("engine.cache.summaries"),
    gauge_sizes=[None],
))


def _update_cache_gauges() -> None:
    """Publish every in-memory LRU cache's size as a telemetry gauge.

    Skips the gauge writes when nothing changed since the previous
    cell -- the steady state of a warm sweep -- because this runs once
    per cell inside the telemetry overhead budget.  The last-published
    sizes live inside the handle bundle, so a registry reset (which
    rebuilds the bundle) republishes on the next cell.
    """
    from repro.sim.stream import cache_sizes

    streams, summaries = cache_sizes()
    sizes = (len(_COMPILE_CACHE), len(_TRACE_CACHE), streams, summaries)
    m = _METRICS.get()
    if m.gauge_sizes[0] == sizes:
        return
    m.gauge_sizes[0] = sizes
    m.cache_compiled.set(sizes[0])
    m.cache_traces.set(sizes[1])
    m.cache_streams.set(sizes[2])
    m.cache_summaries.set(sizes[3])


def _kernel_identity(workload: Workload) -> Tuple:
    """Stable cache-key component for a workload's kernel."""
    return (workload.name, workload.kernel.fingerprint())


def fast_path_default() -> bool:
    """Whether the resolved engine uses the optimized interpreter.

    Resolution goes through :func:`repro.sim.engines.resolve_engine`
    (``REPRO_ENGINE``).
    """
    return engines_mod.resolve_engine().fast_path


def fusion_default() -> bool:
    """Whether the resolved engine lets eligible cells run fused.

    Resolution goes through :func:`repro.sim.engines.resolve_engine`
    (``REPRO_ENGINE``).  Results are bit-identical either way.
    """
    return engines_mod.resolve_engine().fusion


def compile_workload(
    workload: Workload, load_latency: int, unroll_override: int = 0
) -> CompiledBody:
    """Compile (with caching) a workload's kernel for ``load_latency``."""
    key = (_kernel_identity(workload), load_latency, workload.max_unroll,
           unroll_override, workload.software_pipeline)
    body = _COMPILE_CACHE.get(key)
    if body is None:
        if telemetry.enabled():
            _METRICS.get().compile_misses.inc()
        body = compile_kernel(
            workload.kernel,
            load_latency,
            max_unroll=workload.max_unroll,
            unroll_override=unroll_override,
            software_pipeline=workload.software_pipeline,
        )
        _COMPILE_CACHE.put(key, body)
    elif telemetry.enabled():
        _METRICS.get().compile_hits.inc()
    return body


def _trace_key(
    workload: Workload,
    load_latency: int,
    scale: float,
    unroll_override: int = 0,
) -> Tuple:
    """The trace cache key: everything expansion depends on."""
    return (
        _kernel_identity(workload),
        load_latency,
        workload.max_unroll,
        unroll_override,
        workload.software_pipeline,
        workload.iterations,
        workload.seed,
        scale,
    )


def expand_workload(
    workload: Workload,
    load_latency: int,
    scale: float = 1.0,
    unroll_override: int = 0,
) -> Tuple[CompiledBody, ExpandedTrace]:
    """Compile and expand (with caching) a workload."""
    compiled = compile_workload(workload, load_latency, unroll_override)
    key = _trace_key(workload, load_latency, scale, unroll_override)
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        if telemetry.enabled():
            _METRICS.get().trace_misses.inc()
        trace = expand(workload, compiled, scale=scale)
        _TRACE_CACHE.put(key, trace)
    elif telemetry.enabled():
        _METRICS.get().trace_hits.inc()
    return compiled, trace


def simulate(
    workload: Workload,
    config: Optional[MachineConfig] = None,
    load_latency: int = 10,
    scale: float = 1.0,
    unroll_override: int = 0,
    warmup: float = 0.0,
    fast_path: Optional[bool] = None,
    fusion: Optional[bool] = None,
    engine: Optional[str] = None,
) -> SimulationResult:
    """Run ``workload`` on ``config`` with the given scheduled latency.

    ``scale`` shrinks or grows the run length (1.0 = the workload's
    default iteration count); the compiler sweep parameters follow the
    paper's Section 3.3 definitions.  ``warmup`` (a fraction of the
    run, 0..1) discards the cold-start prefix from every reported
    statistic -- single-issue only.

    ``engine`` names an execution tier from the registry
    (:mod:`repro.sim.engines`); ``None`` resolves through
    ``REPRO_ENGINE`` / the legacy variables / the ``auto`` default.
    Every tier is bit-identical; cells a tier cannot execute fall back
    to the next one transparently.  ``fast_path`` / ``fusion`` remain
    as per-axis overrides on top of the resolved engine (True/False
    force the axis, None inherits it).

    When telemetry is enabled each call contributes one ``simulate``
    span plus the per-cell counters catalogued in
    ``docs/observability.md``; the result itself is bit-identical
    either way (the instrumentation only reads the outcome).
    """
    if config is None:
        config = baseline_config()
    resolved = engines_mod.resolve_engine(engine)
    if fast_path is None:
        fast_path = resolved.fast_path
    if fusion is None:
        fusion = resolved.fusion
    native = resolved.native and fast_path and fusion
    cnative = resolved.cnative and fast_path and fusion
    if not telemetry.enabled():
        return _simulate_impl(workload, config, load_latency, scale,
                              unroll_override, warmup, fast_path, fusion,
                              native, cnative)
    engines_mod.count_selection(resolved)
    policy_name = "perfect" if config.perfect_cache else config.policy.name
    with telemetry.span(
        "simulate", workload=workload.name, policy=policy_name,
        load_latency=load_latency, scale=scale,
    ):
        result = _simulate_impl(workload, config, load_latency, scale,
                                unroll_override, warmup, fast_path, fusion,
                                native, cnative)
    miss = result.miss
    m = _METRICS.get()
    m.cells.inc()
    m.instructions.inc(result.instructions)
    m.cycles.inc(result.cycles)
    m.truedep.inc(result.truedep_stall_cycles)
    m.structural.inc(miss.structural_stall_cycles)
    m.blocking.inc(miss.blocking_stall_cycles)
    m.write_allocate.inc(miss.write_allocate_stall_cycles)
    m.write_buffer.inc(miss.write_buffer_stall_cycles)
    _update_cache_gauges()
    return result


def _try_fused(
    workload: Workload,
    config: MachineConfig,
    load_latency: int,
    scale: float,
    unroll_override: int,
    trace: ExpandedTrace,
    native: bool = False,
    cnative: bool = False,
):
    """Attempt the fused (stream-replay) execution of one cell.

    Returns ``(stats, cycles, instructions, truedep)`` or ``None``
    when the cell must fall back to full execution (no memory ops in
    the body, a finite write buffer, or a stream the builders decline).
    Blocking policies with the ideal write buffer collapse further, to
    the functional summary's closed form; non-blocking policies run a
    compiled replay kernel, picked lane by lane: the numpy-vectorized
    native lane when ``native`` is set, the cell is in its envelope
    (:func:`repro.cpu.replay_native.native_supported`), and the
    stream-shape heuristic does not flag it as streaming; the
    compiled-C kernel when ``cnative`` is set and a kernel can be
    built (:mod:`repro.cpu.replay_cnative`); the scalar kernel
    otherwise.
    """
    from repro.cpu.replay import run_blocking_summary, run_replay
    from repro.cpu.replay_cnative import run_cnative
    from repro.cpu.replay_native import (
        fallback_cause,
        native_supported,
        run_native,
        streaming_decline,
    )
    from repro.sim import stream as stream_mod

    if config.policy.blocking:
        if config.write_buffer_depth is not None:
            return None
        summary = stream_mod.functional_summary(
            workload, load_latency, scale, config.geometry,
            config.policy.write_allocate_blocking, unroll_override,
        )
        if summary is None:
            return None
        handler = config.make_handler()
        out = run_blocking_summary(summary, handler)
        if out is None:  # pragma: no cover - guards re-checked above
            return None
        cycles, instructions, truedep = out
        stats = handler.stats
        if telemetry.enabled():
            _METRICS.get().closed_form.inc()
    else:
        stream = stream_mod.event_stream(
            workload, load_latency, scale, config.geometry.line_size,
            unroll_override,
        )
        if stream is None:
            return None
        out = None
        native_hit = False
        cnative_hit = False
        if native:
            if not native_supported(config):
                engines_mod.count_native_fallback(fallback_cause(config))
            elif streaming_decline(stream, workload, load_latency, scale,
                                   config, unroll_override):
                engines_mod.count_native_fallback("streaming")
            else:
                out = run_native(stream, trace, config)
                native_hit = out is not None
        if out is None and cnative:
            out = run_cnative(stream, trace, config)
            cnative_hit = out is not None
        if out is None:
            out = run_replay(stream, trace, config)
        if out is None:
            return None
        stats, cycles, instructions, truedep = out
        if telemetry.enabled():
            # ``fusion.replays`` keeps counting every replayed cell
            # regardless of lane; ``engine.native.replays`` and
            # ``engine.cnative.replays`` are the vectorized and
            # compiled-C subsets.
            _METRICS.get().replays.inc()
            if native_hit:
                _METRICS.get().native_replays.inc()
            if cnative_hit:
                _METRICS.get().cnative_replays.inc()
    return stats, cycles, instructions, truedep


def _simulate_impl(
    workload: Workload,
    config: MachineConfig,
    load_latency: int,
    scale: float,
    unroll_override: int,
    warmup: float,
    fast_path: bool,
    fusion: bool = False,
    native: bool = False,
    cnative: bool = False,
) -> SimulationResult:
    compiled, trace = expand_workload(
        workload, load_latency, scale=scale, unroll_override=unroll_override
    )

    if not 0.0 <= warmup < 1.0:
        raise ConfigurationError(f"warmup must lie in [0, 1): {warmup}")

    if fusion:
        # Fusion covers exactly the cells whose execution the replay
        # kernel models: single-issue, real cache, whole-run stats,
        # optimized engine.  Everything else takes the usual path.
        fused = None
        if (fast_path and config.issue_width == 1
                and not config.perfect_cache and warmup == 0.0):
            fused = _try_fused(workload, config, load_latency, scale,
                               unroll_override, trace, native, cnative)
        if fused is not None:
            stats, cycles, instructions, truedep = fused
            result = SimulationResult(
                workload=workload.name,
                policy=config.policy.name,
                load_latency=load_latency,
                instructions=instructions,
                cycles=cycles,
                truedep_stall_cycles=truedep,
                miss=stats,
                issue_width=config.issue_width,
                unroll_factor=compiled.unroll_factor,
                spill_count=compiled.spill_count,
            )
            result.verify_accounting()
            return result
        if telemetry.enabled():
            _METRICS.get().bypasses.inc()

    if config.perfect_cache:
        handler = PerfectCacheHandler()
    else:
        handler = config.make_handler()

    if config.issue_width == 1:
        warmup_executions = int(trace.executions * warmup)
        if fast_path:
            cycles, instructions, truedep = run_single_issue(
                trace, handler, warmup_executions=warmup_executions
            )
        else:
            cycles, instructions, truedep = run_single_issue_reference(
                trace, handler, warmup_executions=warmup_executions
            )
    else:
        if warmup:
            raise ConfigurationError(
                "warmup discard is implemented for the single-issue model"
            )
        if fast_path:
            cycles, instructions, truedep = run_dual_issue(trace, handler)
        else:
            cycles, instructions, truedep = run_dual_issue_reference(
                trace, handler
            )

    policy_name = "perfect" if config.perfect_cache else config.policy.name
    result = SimulationResult(
        workload=workload.name,
        policy=policy_name,
        load_latency=load_latency,
        instructions=instructions,
        cycles=cycles,
        truedep_stall_cycles=truedep,
        miss=handler.stats,
        issue_width=config.issue_width,
        unroll_factor=compiled.unroll_factor,
        spill_count=compiled.spill_count,
    )
    if config.issue_width == 1 and not config.perfect_cache:
        result.verify_accounting()
    return result
