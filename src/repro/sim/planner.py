"""The unified sweep planner: dedup, memoize, then dispatch.

Every sweep in the repository -- the curve figures, the Figure 13
table, the penalty sweeps, the CLI's benchmark x policy grid -- lowers
to one flat list of cells ``(workload, config, load_latency, scale)``.
This module is the single execution funnel for such lists:

1. **fingerprint** every cell with
   :func:`repro.sim.resultstore.cell_fingerprint`;
2. **deduplicate** identical cells (the unrestricted baseline appears
   in nearly every figure, so a multi-figure run collapses
   substantially) -- each distinct cell is simulated at most once per
   planner call;
3. **partition** the unique cells into store hits and misses against
   the content-addressed :class:`~repro.sim.resultstore.ResultStore`;
4. **dispatch** only the misses through
   :func:`repro.sim.parallel.dispatch` -- the resolved backend
   (inline or the cache-affine process pool) executes them; the pool
   backend reuses the process-wide persistent pool, so consecutive
   planner runs keep worker caches warm -- persist their results,
   and
5. **reassemble** the full result list in the caller's cell order.

A re-run of an already-simulated sweep is therefore a pure cache read,
and a first run simulates each distinct cell exactly once no matter
how many figures share it.  Results are bit-identical to calling
:func:`repro.sim.simulator.simulate` per cell -- the tests assert
exact equality across serial, parallel, and cached executions.

The analytical screening tier (:mod:`repro.analysis.screen`) sits in
front of this funnel as a *multi-fidelity* stage: it brackets every
cell from the stream pass alone and feeds only the cells that still
matter -- unboundable fallbacks and frontier-band survivors -- into
:func:`execute_cells`, so a screened design-space sweep pays the
planner for tens of cells instead of thousands while the results that
do land here are memoized and dispatched exactly as before.  Only
genuinely simulated results enter the store; interval estimates never
do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.sim.config import MachineConfig, baseline_config
from repro.sim.parallel import Cell, _stream_affinity, dispatch
from repro.sim.resultstore import ResultStore, cell_fingerprint, workload_key
from repro.sim.stats import SimulationResult
from repro.workloads.workload import Workload


@dataclass(frozen=True)
class PlanReport:
    """What one planner execution did."""

    #: Cells requested by the caller.
    cells: int
    #: Distinct cells after dedup.
    unique: int
    #: Unique cells served from the result store.
    store_hits: int
    #: Unique cells actually simulated (and then persisted).
    simulated: int

    @property
    def deduplicated(self) -> int:
        """Requested cells that were duplicates of another cell."""
        return self.cells - self.unique

    @property
    def hit_rate(self) -> float:
        """Fraction of unique cells served from the store."""
        if not self.unique:
            return 0.0
        return self.store_hits / self.unique

    def describe(self) -> str:
        return (
            f"{self.cells} cells -> {self.unique} unique "
            f"({self.deduplicated} deduplicated), "
            f"{self.store_hits} cached, {self.simulated} simulated"
        )


#: The report of the most recent :func:`run_plan` in this process; the
#: CLI prints it after a sweep.  Purely advisory.
last_report: Optional[PlanReport] = None


def run_plan(
    cells: Sequence[Cell],
    workers: Optional[int] = 1,
    store: Optional[ResultStore] = None,
    backend: Optional[str] = None,
) -> Tuple[List[SimulationResult], PlanReport]:
    """Execute a cell list through dedup + store + dispatch; keep order.

    ``workers=1`` (the default) runs misses in-process, which keeps the
    serial sweep entry points bit-identical and pool-free;
    ``workers=None`` selects :func:`repro.sim.parallel.default_workers`.
    ``backend`` names a dispatch backend
    (:func:`repro.sim.parallel.backend_names`); ``None`` resolves via
    ``REPRO_BACKEND`` then ``auto``.  ``store=None`` selects the
    environment's store (:meth:`ResultStore.from_env`); pass an
    explicit store to isolate (benchmarks, tests).
    """
    global last_report
    if store is None:
        store = ResultStore.from_env()

    with telemetry.span("plan", cells=len(cells)) as span_args:
        results, report = _run_plan_impl(cells, workers, store, backend)
        span_args.update(unique=report.unique,
                         store_hits=report.store_hits,
                         simulated=report.simulated)
    if telemetry.enabled():
        m = telemetry.metrics()
        m.counter("plan.runs").inc()
        m.counter("plan.cells").inc(report.cells)
        m.counter("plan.unique").inc(report.unique)
        m.counter("plan.deduplicated").inc(report.deduplicated)
        m.counter("plan.store_hits").inc(report.store_hits)
        m.counter("plan.simulated").inc(report.simulated)
        m.histogram("plan.cells_per_run",
                    bounds=telemetry.SIZE_BUCKETS).observe(report.cells)
    last_report = report
    return results, report


def _dispatch_key(cell: Cell) -> Tuple:
    """Stream-key ordering for dispatch: group, then stream siblings."""
    workload, config, load_latency, scale = cell
    return (
        workload_key(workload), load_latency, scale,
    ) + _stream_affinity(config)


def _run_plan_impl(
    cells: Sequence[Cell],
    workers: Optional[int],
    store: ResultStore,
    backend: Optional[str] = None,
) -> Tuple[List[SimulationResult], PlanReport]:
    fingerprints = [
        cell_fingerprint(workload, config, load_latency, scale)
        for workload, config, load_latency, scale in cells
    ]
    unique_order: List[str] = []
    unique_cells: Dict[str, Cell] = {}
    for fingerprint, cell in zip(fingerprints, cells):
        if fingerprint not in unique_cells:
            unique_cells[fingerprint] = cell
            unique_order.append(fingerprint)

    resolved: Dict[str, SimulationResult] = {}
    missing: List[str] = []
    for fingerprint in unique_order:
        cached = store.load(fingerprint)
        if cached is None:
            missing.append(fingerprint)
        else:
            resolved[fingerprint] = cached

    if missing:
        # Dispatch in stream-key order: cells sharing a (workload,
        # latency, scale, line size) replay over one event stream, so
        # adjacency keeps the stream/summary caches hot -- in-process
        # for serial runs, per pool group for parallel ones (the
        # grouper re-sorts within its buckets either way).  Results
        # are reassembled by fingerprint, so order is free to change.
        missing.sort(key=lambda fingerprint: _dispatch_key(
            unique_cells[fingerprint]))
        simulated = dispatch(
            [unique_cells[fingerprint] for fingerprint in missing],
            backend=backend,
            workers=workers,
        )
        for fingerprint, result in zip(missing, simulated):
            store.store(fingerprint, result)
            resolved[fingerprint] = result

    store.add_counters(
        hits=len(unique_order) - len(missing),
        misses=len(missing),
        stores=len(missing),
    )
    report = PlanReport(
        cells=len(cells),
        unique=len(unique_order),
        store_hits=len(unique_order) - len(missing),
        simulated=len(missing),
    )
    return [resolved[fingerprint] for fingerprint in fingerprints], report


def execute_cells(
    cells: Sequence[Cell],
    workers: Optional[int] = 1,
    store: Optional[ResultStore] = None,
    backend: Optional[str] = None,
) -> List[SimulationResult]:
    """:func:`run_plan` returning just the results (sweep harness API)."""
    results, _ = run_plan(cells, workers=workers, store=store,
                          backend=backend)
    return results


def cached_simulate(
    workload: Workload,
    config: Optional[MachineConfig] = None,
    load_latency: int = 10,
    scale: float = 1.0,
    store: Optional[ResultStore] = None,
    engine: Optional[str] = None,
) -> SimulationResult:
    """A drop-in memoized :func:`repro.sim.simulator.simulate`.

    For experiment drivers that run one configuration at a time (the
    histogram, layout-grid, and scaling studies): same signature for
    the common arguments, same bit-identical result, backed by the
    store.  ``engine`` picks the execution tier on a store miss; since
    every tier is bit-identical the fingerprint (and thus the cached
    entry) is engine-independent.
    """
    from repro.sim.simulator import simulate

    if config is None:
        config = baseline_config()
    if store is None:
        store = ResultStore.from_env()
    fingerprint = cell_fingerprint(workload, config, load_latency, scale)
    result = store.load(fingerprint)
    if result is not None:
        store.add_counters(hits=1)
        return result
    result = simulate(workload, config, load_latency=load_latency, scale=scale,
                      engine=engine)
    store.store(fingerprint, result)
    store.add_counters(misses=1, stores=1)
    return result
