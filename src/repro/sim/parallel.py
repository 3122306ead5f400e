"""Sweep dispatch: one in-host seam and its backends.

The paper burned 370 CPU-days on its 3700 simulations; this
reproduction's sweeps are lighter but still embarrassingly parallel:
every (workload, policy, latency, penalty) cell is an independent
deterministic simulation.  This module owns *how* a flat cell list
gets executed.  :func:`dispatch` is the single entry point; it
resolves a :class:`DispatchBackend` through one path (argument >
``REPRO_BACKEND`` > ``auto``, mirroring the engine registry in
:mod:`repro.sim.engines`) and hands the cells to it:

``inline``
    Serial in-process execution -- no pool, no serialization; what
    ``workers=1`` has always meant.
``pool``
    The cache-affine process pool described below: grouped dispatch
    on persistent workers.
``auto``
    ``inline`` for serial/single-cell calls, ``pool`` otherwise.

The ``pool`` backend fans a sweep's cells across a process pool and
reassembles the same structures the serial harness produces.

Cells are dispatched *cache-affinely*: cells sharing a
(workload, load latency, scale) triple need the same compiled schedule,
expanded trace and event streams, so they are grouped and shipped to
the pool as units; each worker expands its group's trace and streams
once and every member hits those local caches.

The pool is *persistent*: one lazily created, process-wide
``ProcessPoolExecutor`` is reused across every dispatch -- all sweeps
and all experiment drivers -- so worker compile/trace caches stay warm
between dispatches.  The pool is capped at the number of dispatchable
groups, shuts itself down after :data:`POOL_IDLE_SECONDS` of disuse,
is never reused across a fork, and can be retired explicitly via
:func:`repro.api.shutdown_pool`.

Every piece of a cell description (workloads, policies, configs) is a
plain picklable dataclass, and each worker process builds its own
compile/trace caches, so results are bit-identical to serial runs --
the tests assert exact equality.  A cell that raises inside a worker
surfaces as :class:`~repro.errors.CellExecutionError` naming the
(workload, policy, latency, scale) cell, not as an anonymous pool
traceback.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.errors import CellExecutionError, ConfigurationError
from repro.sim import engines
from repro.sim.config import MachineConfig
from repro.sim.resultstore import workload_key
from repro.sim.stats import SimulationResult
from repro.workloads.workload import Workload

#: One sweep cell: everything a worker needs.
Cell = Tuple[Workload, MachineConfig, int, float]

#: One pool task: a workload/latency/scale triple plus the configs to
#: run against it, each tagged with its position in the caller's cell
#: list.
_Group = Tuple[Workload, int, float, List[Tuple[int, MachineConfig]]]


def _cell_description(
    workload: Workload, config: MachineConfig, load_latency: int, scale: float
) -> str:
    policy = "perfect" if config.perfect_cache else config.policy.name
    return (f"workload={workload.name!r} policy={policy!r} "
            f"load_latency={load_latency} scale={scale}")


def _run_cell(cell: Cell) -> SimulationResult:
    """Worker entry point: simulate one cell."""
    from repro.sim.simulator import simulate

    workload, config, load_latency, scale = cell
    return simulate(workload, config, load_latency=load_latency, scale=scale)


def _run_group(group: _Group):
    """Worker entry point: simulate one cache-affine group of cells.

    The first ``simulate`` call compiles and expands the group's trace
    (or finds it cached from a previous dispatch on this persistent
    worker); the remaining cells hit the worker-local caches because
    workload, latency, and scale are constant within a group.

    Returns ``(pairs, telemetry_delta, started_at)``: the indexed
    results, the worker's metric activity for exactly this group (a
    before/after snapshot diff, so a parallel sweep's merged metrics
    equal the sum of serial runs), and the wall-clock instant the group
    started executing (the parent derives queue wait from it).
    """
    from repro.sim.simulator import simulate

    workload, load_latency, scale, members = group
    telemetry_on = telemetry.enabled()
    before = telemetry.snapshot() if telemetry_on else None
    started_at = time.time()
    busy_start = time.perf_counter()
    pairs = []
    for index, config in members:
        try:
            result = simulate(workload, config, load_latency=load_latency,
                              scale=scale)
        except Exception as exc:
            raise CellExecutionError(
                f"sweep cell failed "
                f"({_cell_description(workload, config, load_latency, scale)})"
                f": {exc!r}"
            ) from exc
        pairs.append((index, result))
    delta = None
    if telemetry_on:
        busy = time.perf_counter() - busy_start
        m = telemetry.metrics()
        m.counter("pool.groups").inc()
        m.counter("pool.worker_busy_seconds").inc(busy)
        m.histogram("pool.group_cells",
                    bounds=telemetry.SIZE_BUCKETS).observe(len(members))
        m.histogram("pool.group_seconds").observe(busy)
        delta = telemetry.snapshot_diff(before, telemetry.snapshot())
    return pairs, delta, started_at


def default_workers() -> int:
    """The pool size: ``REPRO_WORKERS`` if set, else half the CPUs.

    The environment override lets batch scripts and CI pin the worker
    count without plumbing a flag through every entry point.
    """
    override = os.environ.get("REPRO_WORKERS")
    if override is not None:
        try:
            workers = int(override)
        except ValueError:
            raise ConfigurationError(
                f"REPRO_WORKERS must be an integer: {override!r}"
            ) from None
        if workers < 1:
            raise ConfigurationError(
                f"REPRO_WORKERS must be >= 1: {workers}"
            )
        return workers
    return max(1, (os.cpu_count() or 2) // 2)


# -- the persistent pool -------------------------------------------------------


#: How long the persistent pool may sit unused before self-retiring.
POOL_IDLE_SECONDS = 120.0


class _PoolState:
    """The process-wide pool plus its bookkeeping, guarded by one lock."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.pool: Optional[ProcessPoolExecutor] = None
        self.workers = 0
        self.pid: Optional[int] = None
        self.leases = 0
        self.last_used = 0.0
        self.idle_timer: Optional[threading.Timer] = None
        self.created = 0
        self.reused = 0
        self.shutdowns = 0


_STATE = _PoolState()


def _lease_pool(workers: int) -> Tuple[ProcessPoolExecutor, bool]:
    """A pool with at least ``workers`` workers; ``(pool, caller_owns)``.

    The process-wide pool is handed out (created or resized if the
    live one is too small, discarded if it belongs to a pre-fork
    parent) unless another dispatch holds it and it is too small, in
    which case the caller gets a private pool.  Either way the caller
    must pass it to :func:`_return_pool`.
    """
    state = _STATE
    with state.lock:
        if state.pid is not None and state.pid != os.getpid():
            # Forked child: the inherited executor's plumbing belongs
            # to the parent.  Abandon it without touching its queues.
            state.pool = None
            state.pid = None
            state.workers = 0
            state.leases = 0
            state.idle_timer = None
        pool = state.pool
        broken = pool is not None and getattr(pool, "_broken", False)
        if pool is not None and state.workers < workers and state.leases > 0:
            # Another dispatch is mid-flight on the shared pool; give
            # this caller a private, right-sized pool instead of
            # yanking the shared one out from under its sibling.
            return ProcessPoolExecutor(max_workers=workers), True
        if pool is None or broken or state.workers < workers:
            if pool is not None:
                pool.shutdown(wait=not broken, cancel_futures=True)
                state.shutdowns += 1
            pool = ProcessPoolExecutor(max_workers=workers)
            state.pool = pool
            state.workers = workers
            state.pid = os.getpid()
            state.created += 1
            if telemetry.enabled():
                telemetry.counter("pool.created").inc()
        else:
            state.reused += 1
            if telemetry.enabled():
                telemetry.counter("pool.reused").inc()
        state.leases += 1
        state.last_used = time.monotonic()
        if state.idle_timer is not None:
            state.idle_timer.cancel()
            state.idle_timer = None
        return pool, False


def _return_pool(pool: ProcessPoolExecutor, owned: bool,
                 broken: bool = False) -> None:
    """End a lease: private pools die, the shared one arms its idle timer."""
    if owned:
        pool.shutdown(wait=True, cancel_futures=True)
        return
    state = _STATE
    with state.lock:
        if state.pool is not pool:
            return
        state.leases = max(0, state.leases - 1)
        state.last_used = time.monotonic()
        if broken:
            state.pool = None
            state.workers = 0
            state.leases = 0
            state.shutdowns += 1
            pool.shutdown(wait=False, cancel_futures=True)
            return
        if state.leases == 0:
            _arm_idle_timer_locked(state)


def _arm_idle_timer_locked(state: _PoolState) -> None:
    timer = threading.Timer(POOL_IDLE_SECONDS, _idle_shutdown)
    timer.daemon = True
    state.idle_timer = timer
    timer.start()


def _idle_shutdown() -> None:
    state = _STATE
    with state.lock:
        if (state.pool is None or state.leases > 0
                or state.pid != os.getpid()):
            return
        if time.monotonic() - state.last_used < POOL_IDLE_SECONDS * 0.5:
            _arm_idle_timer_locked(state)
            return
        pool = state.pool
        state.pool = None
        state.workers = 0
        state.idle_timer = None
        state.shutdowns += 1
    pool.shutdown(wait=True, cancel_futures=True)
    if telemetry.enabled():
        telemetry.counter("pool.idle_shutdowns").inc()


def _shutdown_process_pool() -> bool:
    """Retire the persistent process pool now; True if one was running."""
    state = _STATE
    with state.lock:
        if state.idle_timer is not None:
            state.idle_timer.cancel()
            state.idle_timer = None
        pool = state.pool
        if pool is None or state.pid != os.getpid():
            state.pool = None
            state.workers = 0
            state.leases = 0
            return False
        state.pool = None
        state.workers = 0
        state.leases = 0
        state.shutdowns += 1
    pool.shutdown(wait=True, cancel_futures=True)
    return True


def _process_pool_stats() -> Dict[str, object]:
    """Lifetime process-pool bookkeeping for this process (advisory)."""
    state = _STATE
    with state.lock:
        return {
            "active": state.pool is not None and state.pid == os.getpid(),
            "workers": state.workers,
            "created": state.created,
            "reused": state.reused,
            "shutdowns": state.shutdowns,
        }


def _atexit_shutdown() -> None:
    state = _STATE
    if state.pid == os.getpid():
        _shutdown_process_pool()


atexit.register(_atexit_shutdown)


# -- dispatch ------------------------------------------------------------------


def _stream_affinity(config: MachineConfig) -> Tuple:
    """Sort key clustering policy siblings of one event stream.

    Within a (workload, latency, scale) bucket, cells that share a
    line size replay over the same event stream, and cells that also
    share the full geometry and store policy share a functional
    summary.  Ordering members this way before chunking keeps stream
    siblings in the same pool group (and adjacent in serial runs), so
    the small stream/summary LRU caches stay hot across them.

    The engine-capability tier (:func:`repro.sim.engines.cell_engine_tier`)
    leads the key so a group also stays on one code path: native-lane
    cells compile vectorized kernels and stacked column matrices that
    fused-only siblings never touch, and interleaving the two would
    thrash both kernel caches.
    """
    geometry = config.geometry
    return (
        engines.cell_engine_tier(config),
        config.perfect_cache,
        geometry.line_size,
        geometry.size,
        geometry.associativity,
        config.policy.blocking,
        config.policy.write_allocate_blocking,
    )


def _group_cells(cells: Sequence[Cell], max_group: int) -> List[_Group]:
    """Bucket cells by (workload content, latency, scale), keeping tags.

    Workload identity is by *content* (:func:`workload_key`), not by
    object: equal-but-distinct ``Workload`` instances -- e.g. the
    ``replace(workload, seed=...)`` copies seed replication builds --
    land in the same bucket and share one compile and trace expansion.
    Members are ordered stream-affinely (:func:`_stream_affinity`)
    before chunking, and groups are capped at ``max_group`` members so
    one giant bucket cannot serialize the whole pool behind a single
    worker.
    """
    buckets: Dict[Tuple, List[Tuple[int, MachineConfig]]] = {}
    keys: Dict[Tuple, Tuple[Workload, int, float]] = {}
    for index, (workload, config, load_latency, scale) in enumerate(cells):
        key = (workload_key(workload), load_latency, scale)
        buckets.setdefault(key, []).append((index, config))
        keys.setdefault(key, (workload, load_latency, scale))
    groups: List[_Group] = []
    for key, members in buckets.items():
        workload, load_latency, scale = keys[key]
        members.sort(key=lambda item: _stream_affinity(item[1]) + (item[0],))
        for start in range(0, len(members), max_group):
            groups.append(
                (workload, load_latency, scale,
                 members[start:start + max_group])
            )
    return groups


def _prebuild_kernels(cells: Sequence[Cell]) -> None:
    """Compile every C kernel family the sweep will need, up front.

    Workers inherit the on-disk kernel cache, so building in the
    parent turns each worker's first cnative cell into a plain
    ``dlopen`` of the cached ``.so`` instead of a racing compile.
    Quietly does nothing when the resolved engine has no C tier or no
    compiler exists -- the per-cell fallback handles those paths.
    """
    from repro.cpu import ckernel
    from repro.cpu.replay import replay_supported
    from repro.sim import engines as engines_mod

    if not engines_mod.resolve_engine().cnative:
        return
    if not ckernel.kernels_available():
        return
    families = {
        ckernel.family_of(config)
        for _workload, config, _latency, _scale in cells
        if not config.policy.blocking and replay_supported(config)
    }
    for family in families:
        try:
            ckernel.ensure_kernel(family)
        except ckernel.KernelBuildError:
            return


def _pool_submit(
    cells: Sequence[Cell], workers: Optional[int] = None
) -> List[SimulationResult]:
    """Run arbitrary sweep cells across a process pool, in order.

    With ``workers=1`` (or a single cell) everything runs in-process,
    which keeps tests and small sweeps free of pool overhead.  The
    pool never exceeds the number of dispatchable groups.
    """
    if workers is None:
        workers = default_workers()
    if workers <= 1 or len(cells) <= 1:
        return [_run_cell(cell) for cell in cells]
    # Cap group size so every worker gets a few tasks to balance, but
    # never below a handful of cells or the affinity win evaporates.
    max_group = max(4, -(-len(cells) // (workers * 4)))
    groups = _group_cells(cells, max_group)
    # A pool larger than the group count would spawn workers that can
    # never receive a task; with one group the pool cannot help at all.
    workers = min(workers, len(groups))
    if workers <= 1:
        return [_run_cell(cell) for cell in cells]

    _prebuild_kernels(cells)
    results: List[Optional[SimulationResult]] = [None] * len(cells)
    telemetry_on = telemetry.enabled()
    busy_total = 0.0
    dispatch_start = time.perf_counter()
    pool, owned = _lease_pool(workers)
    broken = False
    try:
        submitted_at = {}
        futures = []
        for group in groups:
            future = pool.submit(_run_group, group)
            submitted_at[future] = time.time()
            futures.append(future)
        try:
            for future in as_completed(futures):
                pairs, delta, started_at = future.result()
                for index, result in pairs:
                    results[index] = result
                if telemetry_on and delta is not None:
                    telemetry.merge(delta)
                    busy_total += delta.get("counters", {}).get(
                        "pool.worker_busy_seconds", 0.0)
                    telemetry.histogram("pool.queue_wait_seconds").observe(
                        max(0.0, started_at - submitted_at[future]))
        except BaseException as exc:
            broken = isinstance(exc, BrokenProcessPool)
            for future in futures:
                future.cancel()
            raise
    finally:
        _return_pool(pool, owned, broken=broken)
    if telemetry_on:
        elapsed = time.perf_counter() - dispatch_start
        m = telemetry.metrics()
        m.counter("pool.dispatches").inc()
        m.gauge("pool.workers").set(workers)
        if elapsed > 0:
            m.gauge("pool.last_utilization").set(
                busy_total / (workers * elapsed))
    return results  # type: ignore[return-value]


def _ungrouped_submit(
    cells: Sequence[Cell], workers: Optional[int] = None
) -> List[SimulationResult]:
    """Pre-grouping dispatch: one fresh-pool task per cell.

    Kept as the comparison baseline for ``tools/perfbench.py``; sweeps
    should use :func:`dispatch`.
    """
    if workers is None:
        workers = default_workers()
    if workers <= 1 or len(cells) <= 1:
        return [_run_cell(cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_cell, cells))


# -- the backend API -----------------------------------------------------------


class DispatchBackend:
    """Protocol every dispatch backend implements.

    A backend turns a shard of cells into ordered results; everything
    else (dedup, memoization, reassembly) lives in the planner.  All
    backends are bit-identical by construction -- they run the same
    ``simulate`` -- so selection is purely an execution-topology
    decision, exactly like engine tiers.
    """

    name: str = "?"
    description: str = ""

    def submit(
        self, cells: Sequence[Cell], workers: Optional[int] = None
    ) -> List[SimulationResult]:
        """Execute ``cells`` and return results in the caller's order."""
        raise NotImplementedError

    def stats(self) -> Dict[str, object]:
        """Advisory lifetime state of this backend in this process."""
        return {}

    def shutdown(self) -> bool:
        """Release held resources; True if any were actually live."""
        return False


class InlineBackend(DispatchBackend):
    """Serial in-process execution: no pool, no serialization."""

    name = "inline"
    description = "serial in-process execution (no pool)"

    def __init__(self) -> None:
        self._dispatches = 0
        self._cells = 0

    def submit(self, cells, workers=None):
        self._dispatches += 1
        self._cells += len(cells)
        return [_run_cell(cell) for cell in cells]

    def stats(self) -> Dict[str, object]:
        return {"dispatches": self._dispatches, "cells": self._cells}


class PoolBackend(DispatchBackend):
    """The cache-affine grouped process pool (module docstring)."""

    name = "pool"
    description = "cache-affine grouped process pool (persistent workers)"

    def __init__(self) -> None:
        self._dispatches = 0
        self._cells = 0

    def submit(self, cells, workers=None):
        self._dispatches += 1
        self._cells += len(cells)
        return _pool_submit(cells, workers=workers)

    def stats(self) -> Dict[str, object]:
        stats: Dict[str, object] = {
            "dispatches": self._dispatches, "cells": self._cells,
        }
        stats.update(_process_pool_stats())
        return stats

    def shutdown(self) -> bool:
        return _shutdown_process_pool()


class AutoBackend(DispatchBackend):
    """``inline`` for serial or single-cell calls, ``pool`` otherwise.

    The default resolution when neither an argument nor
    ``REPRO_BACKEND`` pins one.
    """

    name = "auto"
    description = "inline when workers<=1 or one cell, else pool"

    def _delegate(self, cells, workers) -> DispatchBackend:
        if workers is None:
            workers = default_workers()
        if workers <= 1 or len(cells) <= 1:
            return get_backend("inline")
        return get_backend("pool")

    def submit(self, cells, workers=None):
        return self._delegate(cells, workers).submit(cells, workers=workers)

    def stats(self) -> Dict[str, object]:
        return {"delegates": ("inline", "pool")}


#: Registry order, as listed by ``python -m repro backends``.
BACKEND_ORDER: Tuple[str, ...] = ("inline", "pool")

AUTO_BACKEND = "auto"

_BACKENDS: Dict[str, DispatchBackend] = {
    backend.name: backend for backend in (InlineBackend(), PoolBackend())
}
_AUTO = AutoBackend()


def backend_names() -> Tuple[str, ...]:
    """Valid ``REPRO_BACKEND`` / ``backend=`` values, ``auto`` included."""
    return BACKEND_ORDER + (AUTO_BACKEND,)


def get_backend(name: str) -> DispatchBackend:
    """Look up one backend by name (``auto`` resolves lazily per call)."""
    label = name.strip().lower()
    if label == AUTO_BACKEND:
        return _AUTO
    backend = _BACKENDS.get(label)
    if backend is None:
        raise ConfigurationError(
            f"unknown dispatch backend '{name}'; valid backends: "
            f"{', '.join(backend_names())}"
        )
    return backend


def resolve_backend(name: Optional[str] = None) -> DispatchBackend:
    """The single selection path: argument, ``REPRO_BACKEND``, ``auto``."""
    if name is not None:
        return get_backend(name)
    env = os.environ.get("REPRO_BACKEND")
    if env is not None:
        return get_backend(env)
    return _AUTO


def dispatch(
    cells: Sequence[Cell],
    *,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> List[SimulationResult]:
    """Execute sweep cells through the resolved dispatch backend.

    The one entry point every sweep path funnels through.  ``backend``
    names a backend from :func:`backend_names`; ``None`` resolves via
    ``REPRO_BACKEND`` and defaults to ``auto``.  Results are
    bit-identical across backends -- only topology and speed change.
    """
    resolved = resolve_backend(backend)
    cells = list(cells)
    if telemetry.enabled():
        m = telemetry.metrics()
        m.counter("dispatch.calls").inc()
        m.counter("dispatch.cells").inc(len(cells))
        m.counter(f"dispatch.backend.{resolved.name}").inc()
    return resolved.submit(cells, workers=workers)


# -- per-backend lifecycle -----------------------------------------------------


def shutdown_pool() -> bool:
    """Release every backend's held resources; True if any were live.

    Today only the persistent process pool holds any.  Safe to call at
    any time -- a later sweep transparently reacquires whatever it
    needs.
    """
    any_live = False
    for backend in list(_BACKENDS.values()):
        any_live = backend.shutdown() or any_live
    return any_live


def pool_stats(backend: Optional[str] = None) -> Dict[str, object]:
    """Per-backend dispatch state for this process (advisory).

    ``backend`` (a resolved name; the active selection when ``None``)
    picks what ``"backend"`` reports; ``"backends"`` always carries
    every registered backend's own stats, so callers see the truth
    even when the inline backend -- not the process pool -- is doing
    the work.  The historical process-pool keys (``active``,
    ``workers``, ``created``, ``reused``, ``shutdowns``) stay at top
    level for compatibility and always describe the process pool.
    """
    resolved = resolve_backend(backend)
    stats: Dict[str, object] = {
        "backend": resolved.name,
        "backends": {
            name: instance.stats()
            for name, instance in sorted(_BACKENDS.items())
        },
    }
    stats.update(_process_pool_stats())
    return stats
