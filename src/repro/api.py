"""The stable public API of the ``repro`` package.

This module is the **single supported entry point** for programmatic
use.  Internal modules (``repro.sim``, ``repro.experiments``, ...)
keep working, but their layout may shift between releases; everything
re-exported or defined here is covered by the compatibility promise in
``docs/api.md``.  Import it as::

    from repro import api

    result = api.simulate("tomcatv", policy="mc=1")
    table = api.sweep(["doduc", "xlisp"], policies=["mc=1", "no restrict"])
    report = api.run_experiment("fig5", scale=0.1)

Four groups of names:

* **simulation** -- :func:`simulate` (memoized, accepts benchmark
  names or :class:`~repro.workloads.workload.Workload` objects and
  policy labels or :class:`~repro.core.policies.MSHRPolicy` objects),
  :func:`sweep`, the :class:`MachineConfig` /
  :class:`SimulationResult` types, :func:`baseline_config`,
  :func:`get_benchmark`, :func:`benchmark_names`, and
  :func:`parse_policy`;
* **experiments** -- :func:`run_experiment`, :func:`list_experiments`,
  :class:`ExperimentOptions`, :class:`ExperimentResult`;
* **dispatch lifecycle** -- :func:`backend_names`,
  :func:`shutdown_pool`, and :func:`pool_stats` for the dispatch
  backends (inline / pool; see the "Pool lifecycle" section of
  ``docs/performance.md``);
* **telemetry** -- :func:`telemetry_enabled`, :func:`metrics_snapshot`,
  :func:`telemetry_summary`, :func:`flush_telemetry`, and the
  :func:`span` context manager (see ``docs/observability.md``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.core.policies import MSHRPolicy
from repro.errors import ReproError
from repro.experiments.base import (
    Experiment,
    ExperimentOptions,
    ExperimentResult,
)
from repro.sim.config import MachineConfig, baseline_config
from repro.sim.stats import SimulationResult
from repro.sim.sweep import TableSweep
from repro.workloads.spec92 import benchmark_names, get_benchmark
from repro.workloads.workload import Workload
from repro import telemetry as _telemetry
from repro.telemetry import span

__all__ = [
    # simulation
    "simulate",
    "sweep",
    "MachineConfig",
    "SimulationResult",
    "MSHRPolicy",
    "Workload",
    "baseline_config",
    "get_benchmark",
    "benchmark_names",
    "parse_policy",
    "engine_names",
    "backend_names",
    "fidelity_names",
    # experiments
    "run_experiment",
    "list_experiments",
    "Experiment",
    "ExperimentOptions",
    "ExperimentResult",
    # dispatch lifecycle
    "shutdown_pool",
    "pool_stats",
    # telemetry
    "span",
    "telemetry_enabled",
    "metrics_snapshot",
    "telemetry_summary",
    "flush_telemetry",
    # errors
    "ReproError",
]

#: What callers may pass wherever a workload is expected.
WorkloadLike = Union[str, Workload]
#: What callers may pass wherever a policy is expected.
PolicyLike = Union[str, MSHRPolicy]


def _resolve_workload(workload: WorkloadLike) -> Workload:
    if isinstance(workload, str):
        return get_benchmark(workload)
    return workload


def parse_policy(policy: PolicyLike) -> MSHRPolicy:
    """Resolve a paper-style policy label (``"mc=1"``, ``"no
    restrict"``, ``"layout 2x2"``, ...) or pass a policy through."""
    if isinstance(policy, MSHRPolicy):
        return policy
    from repro.cli import parse_policy as _parse

    return _parse(policy)


def engine_names() -> Sequence[str]:
    """Valid ``engine=`` / ``REPRO_ENGINE`` values, ``auto`` included.

    The tiers (reference / fastpath / fused / native / cnative) are
    catalogued
    in ``docs/timing_model.md``; ``python -m repro engines`` prints
    the registry with the current resolution.
    """
    from repro.sim.engines import engine_names as _names

    return _names()


def backend_names() -> Sequence[str]:
    """Valid ``backend=`` / ``REPRO_BACKEND`` values, ``auto`` included.

    Dispatch backends (inline / pool) pick *where* sweep cells
    execute, exactly as engine tiers pick *how*; every backend is
    bit-identical.  ``python -m repro backends`` prints the registry
    with the current resolution.
    """
    from repro.sim.parallel import backend_names as _names

    return _names()


def fidelity_names() -> Sequence[str]:
    """Valid ``fidelity=`` / ``REPRO_FIDELITY`` values, cheapest first.

    The ladder (``screen`` / ``auto`` / ``exact``) picks *how
    precisely* sweep cells are evaluated: analytical interval bounds,
    screening plus exact simulation of the cells that matter, or
    exhaustive simulation.  ``python -m repro screen`` prints the
    ladder with the current resolution; see the "Analytical screening
    tier" section of ``docs/performance.md``.
    """
    from repro.analysis.screen import fidelity_names as _names

    return _names()


def simulate(
    workload: WorkloadLike,
    policy: Optional[PolicyLike] = None,
    config: Optional[MachineConfig] = None,
    load_latency: int = 10,
    scale: float = 1.0,
    cached: bool = True,
    engine: Optional[str] = None,
) -> SimulationResult:
    """Simulate one benchmark on one machine; memoized by default.

    ``workload`` is a benchmark name or a custom
    :class:`~repro.workloads.workload.Workload`.  Either give a full
    ``config`` or just a ``policy`` (label or object) applied to the
    paper's baseline machine.  ``cached=True`` serves repeated cells
    from the on-disk result store (bit-identical to a fresh run);
    ``cached=False`` always simulates.  ``engine`` names an execution
    tier from :func:`engine_names` (default: resolve via
    ``REPRO_ENGINE`` / ``auto``); every tier returns bit-identical
    results, so it is purely a speed knob and cached entries are
    engine-independent.
    """
    resolved = _resolve_workload(workload)
    if config is None:
        config = baseline_config()
    if policy is not None:
        config = config.with_policy(parse_policy(policy))
    if cached:
        from repro.sim.planner import cached_simulate

        return cached_simulate(resolved, config, load_latency=load_latency,
                               scale=scale, engine=engine)
    from repro.sim.simulator import simulate as _simulate

    return _simulate(resolved, config, load_latency=load_latency,
                     scale=scale, engine=engine)


def sweep(
    benchmarks: Optional[Sequence[WorkloadLike]] = None,
    policies: Optional[Sequence[PolicyLike]] = None,
    load_latency: int = 10,
    scale: float = 1.0,
    workers: Optional[int] = 1,
    base: Optional[MachineConfig] = None,
    backend: Optional[str] = None,
    fidelity: Optional[str] = None,
):
    """A benchmarks x policies MCPI table through the unified planner.

    Defaults to all 18 benchmark models and the paper's baseline
    policy spectrum.  Cells are deduplicated, served from the result
    store where possible, and the misses dispatched across
    ``workers`` processes on the selected ``backend``
    (:func:`backend_names`; default: resolve via ``REPRO_BACKEND`` /
    ``auto``); results are bit-identical to serial ``simulate`` calls
    whichever backend runs them.

    ``fidelity`` picks the evaluation tier (:func:`fidelity_names`;
    default: resolve via ``REPRO_FIDELITY`` / ``exact``).  ``exact``
    returns a :class:`~repro.sim.sweep.TableSweep` as always.
    ``screen`` returns a
    :class:`~repro.analysis.screen.ScreenedTable` of analytical
    ``[lower, upper]`` MCPI brackets with **no replay at all** (bar
    cause-tagged fallback cells); ``auto`` returns the same table
    fully resolved -- closed-form cells analytically, the rest
    simulated -- so its ``mcpi()`` agrees with ``exact`` everywhere.
    """
    from repro.analysis.screen import resolve_fidelity, run_screen_table
    from repro.core.policies import baseline_policies
    from repro.sim.sweep import run_table

    if benchmarks is None:
        workloads = [get_benchmark(name) for name in benchmark_names()]
    else:
        workloads = [_resolve_workload(b) for b in benchmarks]
    if policies is None:
        resolved_policies = list(baseline_policies())
    else:
        resolved_policies = [parse_policy(p) for p in policies]
    fid = resolve_fidelity(fidelity, default="exact")
    if fid.name != "exact":
        return run_screen_table(workloads, resolved_policies,
                                load_latency=load_latency, base=base,
                                scale=scale, workers=workers,
                                backend=backend, fidelity=fid.name)
    return run_table(workloads, resolved_policies,
                     load_latency=load_latency, base=base, scale=scale,
                     workers=workers, backend=backend)


def run_experiment(
    experiment_id: str,
    options: Optional[ExperimentOptions] = None,
    **kwargs,
) -> ExperimentResult:
    """Regenerate one paper figure/table by id (``"fig5"``, ...).

    Keyword options are validated against
    :class:`ExperimentOptions`; unknown names raise
    :class:`~repro.errors.ExperimentError` with a did-you-mean hint.
    """
    from repro.experiments import get_experiment

    return get_experiment(experiment_id).run(options=options, **kwargs)


def list_experiments() -> List[Experiment]:
    """Every registered experiment, sorted as the paper orders them."""
    from repro.experiments import all_experiments

    return all_experiments()


# -- pool lifecycle ------------------------------------------------------------


def shutdown_pool() -> bool:
    """Release every dispatch backend's resources; True if any were live.

    Covers the persistent process pool (``workers > 1`` sweeps share
    one lazily created, process-wide pool so worker compile/trace
    caches stay warm across consecutive sweeps) and any other
    registered backend holding state.  The pool also retires itself
    after two minutes of disuse and at interpreter exit; long-lived
    processes should call this when a burst of sweeps finishes
    instead of keeping idle workers around.
    A later sweep transparently reacquires whatever it needs.
    """
    from repro.sim.parallel import shutdown_pool as _shutdown

    return _shutdown()


def pool_stats(backend: Optional[str] = None) -> Dict:
    """Advisory per-backend dispatch state for this process.

    ``"backend"`` is the resolved selection (``backend`` argument,
    else ``REPRO_BACKEND``, else ``auto``) and ``"backends"`` maps
    every registered backend to its own stats -- so the answer is
    honest even when the inline backend, not the process pool, is
    doing the work.  The historical process-pool keys
    (``active``, ``workers``, ``created``, ``reused``,
    ``shutdowns``) remain at top level and always describe the
    process pool.
    """
    from repro.sim.parallel import pool_stats as _stats

    return _stats(backend)


# -- telemetry accessors -------------------------------------------------------


def telemetry_enabled() -> bool:
    """Whether the telemetry subsystem records anything right now."""
    return _telemetry.enabled()


def metrics_snapshot() -> Dict:
    """A JSON-compatible copy of this process's metrics registry."""
    return _telemetry.snapshot()


def telemetry_summary() -> str:
    """The rendered cross-run summary (``telemetry summary`` output)."""
    from repro.telemetry import state

    return state.render_summary(state.read_state())


def flush_telemetry() -> bool:
    """Persist this process's metrics into the telemetry state file."""
    return _telemetry.flush()
