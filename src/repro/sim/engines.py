"""The execution-engine registry: one resolution path for every tier.

Five engines can execute a sweep cell, ordered slowest to fastest:

``reference``
    The plain interpreter loops in :mod:`repro.cpu.reference`.  No
    fast path, no fusion; the ground truth every other tier is tested
    against.
``fastpath``
    The optimized two-tier engine (hit fast path + flattened
    interpreter, :mod:`repro.cpu.pipeline`), one full trace execution
    per cell.
``fused``
    Policy-sibling fusion: one stream pass per (workload, latency,
    scale, line size) group plus a compiled per-policy replay kernel
    (:mod:`repro.sim.stream`, :mod:`repro.cpu.replay`); blocking
    policies collapse to the functional closed form.
``native``
    The fused engine with the numpy-vectorized replay lane
    (:mod:`repro.cpu.replay_native`): quiescent all-hit execution runs
    are detected and batch-accounted in chunked vector form instead of
    Python bytecode.  Cells outside the native envelope (set-
    associative geometries, finite write buffers, dual issue) fall
    back to the next tier transparently.
``cnative``
    The native engine plus generated-C replay kernels
    (:mod:`repro.cpu.ckernel`, :mod:`repro.cpu.replay_cnative`):
    compiled once per policy family and dlopen'd from the kernel
    cache, they execute the *full* irregular recurrence, taking
    exactly the replayable cells the vector lane declines
    (set-associative geometries, store-gated and streaming models).
    Without a C compiler (``REPRO_CC`` override included) every cell
    degrades to the ``native`` machinery, cause-tagged under
    ``engine.cnative.fallback.*``.

All five produce **bit-identical** :class:`~repro.sim.stats.SimulationResult`
objects -- the engine-matrix CI step and
``tests/sim/test_fusion_equivalence.py`` assert it -- so selection is
purely a performance decision and ``ENGINE_VERSION`` never depends on
it.

Selection resolves through exactly one path:

1. an explicit ``engine=`` argument (``simulate``, ``api.simulate``,
   ``ExperimentOptions.engine``, ``--engine``);
2. the ``REPRO_ENGINE`` environment variable (an engine name or
   ``auto``);
3. the default, ``auto``: the fastest tier, falling back per cell.

Each tier *includes* its fallbacks: pinning ``native`` still runs
ineligible cells on the fused/fastpath machinery (counted under
``engine.native.fallbacks``), while pinning ``fused`` guarantees the
native lane never runs.  ``python -m repro engines`` prints the
registry and the current resolution.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import telemetry
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Engine:
    """One execution tier: a named capability quadruple."""

    name: str
    description: str
    #: Use the optimized two-tier interpreter instead of the
    #: reference loops.
    fast_path: bool
    #: Let eligible cells run as stream replays / closed forms.
    fusion: bool
    #: Let eligible replays use the numpy-vectorized lane.
    native: bool
    #: Let eligible replays use the compiled-C kernels.
    cnative: bool


REFERENCE = Engine(
    "reference",
    "unoptimized interpreter loops (ground truth)",
    fast_path=False, fusion=False, native=False, cnative=False,
)
FASTPATH = Engine(
    "fastpath",
    "two-tier engine: hit fast path + flattened interpreter",
    fast_path=True, fusion=False, native=False, cnative=False,
)
FUSED = Engine(
    "fused",
    "policy-sibling fusion: shared stream pass + compiled replay kernels",
    fast_path=True, fusion=True, native=False, cnative=False,
)
NATIVE = Engine(
    "native",
    "fused engine + numpy-vectorized replay lane (chunked batch scan)",
    fast_path=True, fusion=True, native=True, cnative=False,
)
CNATIVE = Engine(
    "cnative",
    "native engine + generated-C replay kernels for the cells the "
    "vector lane declines",
    fast_path=True, fusion=True, native=True, cnative=True,
)

#: Registry order, slowest tier first.
ENGINE_ORDER: Tuple[str, ...] = (
    "reference", "fastpath", "fused", "native", "cnative",
)

ENGINES: Dict[str, Engine] = {
    engine.name: engine
    for engine in (REFERENCE, FASTPATH, FUSED, NATIVE, CNATIVE)
}

#: ``auto`` = the fastest tier; per-cell fallback makes it safe.
AUTO_NAME = "auto"
DEFAULT_ENGINE = CNATIVE


def engine_names() -> Tuple[str, ...]:
    """Valid ``REPRO_ENGINE`` / ``engine=`` values, ``auto`` included."""
    return ENGINE_ORDER + (AUTO_NAME,)


def get_engine(name: str) -> Engine:
    """Look up one engine by name (``auto`` resolves to the fastest)."""
    label = name.strip().lower()
    if label == AUTO_NAME:
        return DEFAULT_ENGINE
    engine = ENGINES.get(label)
    if engine is None:
        raise ConfigurationError(
            f"unknown engine '{name}'; valid engines: "
            f"{', '.join(engine_names())}"
        )
    return engine


def resolve_engine(name: Optional[str] = None) -> Engine:
    """The single selection path: argument, env, default.

    ``name=None`` consults ``REPRO_ENGINE``; when that is unset
    ``auto`` -- the fastest tier with per-cell fallback -- is selected.
    """
    if name is not None:
        return get_engine(name)
    env = os.environ.get("REPRO_ENGINE")
    if env is not None:
        return get_engine(env)
    return DEFAULT_ENGINE


# -- per-cell capability -------------------------------------------------------


def cell_engine_tier(config) -> int:
    """The tier index where this cell's execution actually lands.

    Used by the dispatch layer (:func:`repro.sim.parallel._stream_affinity`)
    to keep cells of equal engine capability adjacent, so a pool group
    stays on one code path and its kernel/stream caches serve every
    member.  Indexes into :data:`ENGINE_ORDER`.  Vector-lane cells
    report ``native`` (the numpy scan outranks the C kernel on its own
    envelope); replayable cells outside that envelope report
    ``cnative`` when a compiler is available and ``fused`` otherwise.
    """
    from repro.cpu.ckernel import kernels_available
    from repro.cpu.replay import replay_supported
    from repro.cpu.replay_native import native_supported

    if native_supported(config):
        return ENGINE_ORDER.index("native")
    if replay_supported(config) and kernels_available():
        return ENGINE_ORDER.index("cnative")
    if config.policy.blocking or replay_supported(config):
        return ENGINE_ORDER.index("fused")
    return ENGINE_ORDER.index("fastpath")


#: Cached counter objects: ``count_selection`` runs once per
#: telemetry-enabled ``simulate`` call, inside the overhead budget that
#: ``tools/perfbench.py --assert-overhead`` enforces.
_SELECTION_METRICS = telemetry.MetricHandles(lambda m: {
    name: m.counter(f"engine.selected.{name}") for name in ENGINE_ORDER
})

_FALLBACK_METRICS = telemetry.MetricHandles(lambda m: {
    "total": m.counter("engine.native.fallbacks"),
    "associative": m.counter("engine.native.fallback.associative"),
    "policy": m.counter("engine.native.fallback.policy"),
    "streaming": m.counter("engine.native.fallback.streaming"),
})

_CNATIVE_FALLBACK_METRICS = telemetry.MetricHandles(lambda m: {
    "total": m.counter("engine.cnative.fallbacks"),
    "policy": m.counter("engine.cnative.fallback.policy"),
    "nocc": m.counter("engine.cnative.fallback.nocc"),
    "build": m.counter("engine.cnative.fallback.build"),
})


def count_selection(engine: Engine) -> None:
    """Record one cell's resolved engine (``engine.selected.*``)."""
    if telemetry.enabled():
        _SELECTION_METRICS.get()[engine.name].inc()


def count_native_fallback(cause: str) -> None:
    """Record one native-lane fallback with its cause tag.

    ``engine.native.fallbacks`` is the total;
    ``engine.native.fallback.<cause>`` splits it by reason
    (``associative`` for set-associative geometries, ``policy`` for
    machines the replay tier itself cannot model, ``streaming`` for
    miss-dense cells the stream-shape heuristic steers off the
    vector scan).
    """
    if telemetry.enabled():
        counters = _FALLBACK_METRICS.get()
        counters["total"].inc()
        counters[cause].inc()


def count_cnative_fallback(cause: str) -> None:
    """Record one C-tier fallback with its cause tag.

    ``engine.cnative.fallbacks`` is the total;
    ``engine.cnative.fallback.<cause>`` splits it by reason
    (``policy`` for machines outside the replay contract, ``nocc``
    when no C compiler is available, ``build`` when compilation or
    loading failed).
    """
    if telemetry.enabled():
        counters = _CNATIVE_FALLBACK_METRICS.get()
        counters["total"].inc()
        counters[cause].inc()
