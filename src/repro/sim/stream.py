"""Memory-event streams: the policy-independent half of an execution.

Every cell in a policy sweep re-runs the same compiled trace; only the
miss handler differs.  This module factors the policy-*independent*
work out of that loop once per (workload, load latency, scale, line
size) group:

* **line addresses** -- each memory op's per-execution addresses with
  the line-offset bits pre-stripped, stored as ``array('q')`` buffers,
  so a replay probes residency without shifting;
* **dependency terms** -- a static max-plus summary of every
  true-data-dependency stall the interpreter could take between
  memory ops.  Between two memory ops the interpreter's stall checks
  compose as ``issue = max(cycle + pregap, max_i(ready_i + delta_i))``
  where each ``delta_i`` is a compile-time constant and each
  ``ready_i`` is the ready time of a *load slot* (only load
  destinations ever publish future ready times).  A two-pass
  reaching-definitions walk over the flattened program extracts, per
  memory op, exactly which load slots can bind and with what delta --
  see ``docs/performance.md`` for the exactness argument;
* **functional classification** -- the hit/miss outcome of every
  reference under an immediate-install cache, which equals the
  *blocking* policy's machine exactly (a non-blocking cache's tag
  state diverges through in-flight fills, so siblings replay their
  own tag store instead).

The replay kernel (:mod:`repro.cpu.replay`) then advances each
policy's :class:`~repro.core.handler.MissHandler` over the stream
without touching the interpreter, and the blocking policies collapse
to a closed form over the functional aggregates.  Results are
bit-identical to the reference loops; ``tests/sim/test_fusion_equivalence.py``
asserts it per policy family.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.cache.geometry import CacheGeometry
from repro.cache.tags import make_tag_store
from repro.sim.lru import LRUCache
from repro.sim.trace import P_LOAD, P_SCALAR, P_SKIP, P_STORE, ExpandedTrace
from repro.workloads.workload import Workload


@dataclass(frozen=True)
class SlotSpec:
    """Static description of one memory op in the body.

    ``terms`` is the op's readiness summary: the op issues at
    ``max(cycle + pregap, max over (lr, delta) of ready[lr] + delta)``
    where ``ready`` is the per-load-slot rolling ready-time array the
    replay kernel maintains.
    """

    #: ``P_LOAD`` or ``P_STORE``.
    kind: int
    #: Index into ``trace.body`` / ``trace.addresses`` (the issuing
    #: instruction's position in the body).
    body_index: int
    #: Dense load-slot index (-1 for stores).
    lr_index: int
    #: Clock advances since the previous memory op (or the head of the
    #: body for the first slot).
    pregap: int
    #: ``(lr_index, delta)`` readiness terms, deduplicated per slot.
    terms: Tuple[Tuple[int, int], ...]


@dataclass
class EventStream:
    """One group's memory-event stream (everything but the policy)."""

    workload_name: str
    line_size: int
    body_len: int
    executions: int
    #: Loads / stores per body execution.
    n_loads: int
    n_stores: int
    slots: Tuple[SlotSpec, ...]
    #: Clock advances after the last memory op to the end of the body.
    tail_gap: int
    #: Readiness terms of the post-body stall sites (same shape as
    #: :attr:`SlotSpec.terms`).
    tail_terms: Tuple[Tuple[int, int], ...]
    #: Parallel to ``slots``: per-execution *line* addresses.
    lines: List[Sequence[int]]
    #: Compiled replay kernels, built lazily by
    #: :mod:`repro.cpu.replay` and cached here with the stream, keyed
    #: by ``(geometry, policy, effective_penalty)``.
    _replay_fns: Dict[object, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def instructions(self) -> int:
        return self.body_len * self.executions

    @property
    def references(self) -> int:
        """Memory references in the whole run."""
        return len(self.slots) * self.executions


@dataclass(frozen=True)
class FunctionalSummary:
    """Aggregate hit/miss outcome of a run on an immediate-install cache.

    Exact for the blocking (``mc=0`` family) policies, whose machine
    *is* the immediate-install machine; see the module docstring for
    why non-blocking siblings cannot reuse it.
    """

    geometry: CacheGeometry
    write_allocate: bool
    instructions: int
    load_hits: int
    load_misses: int
    store_hits: int
    store_misses: int
    evictions: int
    #: Reference indices (execution-major order) that missed, as an
    #: ``array('q')``; diagnostics and tests use it, the closed form
    #: needs only the aggregates.
    miss_refs: array


# -- structure extraction ------------------------------------------------------


def _extract_structure(program: Sequence[tuple]) -> Optional[tuple]:
    """Walk the flattened program and summarize its dependency structure.

    Returns ``(slot_kinds, lr_indices, pregaps, terms, tail_gap,
    tail_terms, n_loads, n_stores)`` or ``None`` when the body has no
    memory ops.

    The walk runs the body **twice**: registers reaching the second
    pass carry their steady-state writers (the last writer in the
    body), so the second pass's records are exact for every execution.
    For the first execution a recorded term can name a load slot that
    has not yet run -- its rolling ready time is still 0, which can
    never bind, exactly as the interpreter's zero-initialized
    scoreboard never stalls there.  Each pass flushes its trailing
    sites into the tail record, mirroring the per-execution tail block
    the replay kernel emits.
    """
    mem_kinds: List[int] = []
    lr_indices: List[int] = []
    n_loads = 0
    for op in program:
        if op[0] == P_LOAD:
            mem_kinds.append(P_LOAD)
            lr_indices.append(n_loads)
            n_loads += 1
        elif op[0] == P_STORE:
            mem_kinds.append(P_STORE)
            lr_indices.append(-1)
    n_slots = len(mem_kinds)
    if not n_slots:
        return None
    n_stores = n_slots - n_loads

    #: register -> lr index of the load whose ready time it holds.
    writer: Dict[int, int] = {}
    #: (lr_index, advances-before-site) stall sites since the last
    #: memory op.
    pending: List[Tuple[int, int]] = []
    adv = 0
    pregaps = [0] * n_slots
    terms: List[Tuple[Tuple[int, int], ...]] = [()] * n_slots
    tail_gap = 0
    tail_terms: Tuple[Tuple[int, int], ...] = ()

    def _flush(gap: int) -> Tuple[Tuple[int, int], ...]:
        best: Dict[int, int] = {}
        for lr, at in pending:
            delta = gap - at
            if best.get(lr, -1) < delta:
                best[lr] = delta
        pending.clear()
        return tuple(sorted(best.items()))

    for _ in range(2):
        slot = 0
        for op in program:
            kind = op[0]
            if kind == P_SKIP:
                adv += op[1]
            elif kind == P_SCALAR:
                dst, srcs = op[1], op[2]
                for s in srcs:
                    w = writer.get(s)
                    if w is not None:
                        pending.append((w, adv))
                if dst >= 0:
                    w = writer.get(dst)
                    if w is not None:  # scoreboard WAW site
                        pending.append((w, adv))
                    # The scalar overwrite publishes ``cycle + 1``,
                    # which no later reader can stall on.
                    writer.pop(dst, None)
                adv += 1
            else:
                srcs = op[2] if kind == P_LOAD else op[1]
                for s in srcs:
                    w = writer.get(s)
                    if w is not None:
                        pending.append((w, adv))
                if kind == P_LOAD:
                    w = writer.get(op[1])
                    if w is not None:  # WAW on a pending fill
                        pending.append((w, adv))
                pregaps[slot] = adv
                terms[slot] = _flush(adv)
                if kind == P_LOAD:
                    writer[op[1]] = lr_indices[slot]
                adv = 0
                slot += 1
        tail_gap = adv
        tail_terms = _flush(adv)
        adv = 0

    return (mem_kinds, lr_indices, pregaps, terms, tail_gap, tail_terms,
            n_loads, n_stores)


def _mem_body_indices(trace: ExpandedTrace) -> List[int]:
    """Body indices of the memory ops, in body (== program) order."""
    return [j for j, buf in enumerate(trace.addresses) if buf is not None]


def _line_array(buf: Sequence[int], offset_bits: int) -> array:
    """Shift a byte-address buffer down to line addresses, as array('q')."""
    raw = np.frombuffer(buf, dtype=np.int64)
    shifted = raw >> offset_bits if offset_bits else raw
    out = array("q")
    out.frombytes(memoryview(np.ascontiguousarray(shifted)).cast("B"))
    return out


def build_stream(trace: ExpandedTrace, line_size: int) -> Optional[EventStream]:
    """Build the event stream for one expanded trace.

    Returns ``None`` for a body with no memory ops.
    """
    structure = _extract_structure(trace.program())
    if structure is None:
        return None
    (mem_kinds, lr_indices, pregaps, terms, tail_gap, tail_terms,
     n_loads, n_stores) = structure
    body_indices = _mem_body_indices(trace)
    offset_bits = line_size.bit_length() - 1
    lines = [
        _line_array(trace.addresses[j], offset_bits) for j in body_indices
    ]
    slots = tuple(
        SlotSpec(
            kind=mem_kinds[k],
            body_index=body_indices[k],
            lr_index=lr_indices[k],
            pregap=pregaps[k],
            terms=terms[k],
        )
        for k in range(len(mem_kinds))
    )
    if telemetry.enabled():
        telemetry.counter("fusion.streams_built").inc()
    return EventStream(
        workload_name=trace.workload_name,
        line_size=line_size,
        body_len=len(trace.body),
        executions=trace.executions,
        n_loads=n_loads,
        n_stores=n_stores,
        slots=slots,
        tail_gap=tail_gap,
        tail_terms=tail_terms,
        lines=list(lines),
    )


# -- functional classification -------------------------------------------------


def _flat_blocks(stream: EventStream) -> Tuple[np.ndarray, np.ndarray]:
    """(blocks, is_load) flattened in reference order (execution-major)."""
    n_slots = len(stream.slots)
    grid = np.empty((stream.executions, n_slots), dtype=np.int64)
    for k, buf in enumerate(stream.lines):
        grid[:, k] = np.frombuffer(buf, dtype=np.int64)
    kinds = np.array(
        [slot.kind == P_LOAD for slot in stream.slots], dtype=bool
    )
    is_load = np.broadcast_to(
        kinds, (stream.executions, n_slots)
    ).reshape(-1)
    return grid.reshape(-1), np.ascontiguousarray(is_load)


def _dm_functional(
    blocks: np.ndarray, is_load: np.ndarray, num_sets: int
) -> Dict[bool, Tuple[np.ndarray, int]]:
    """Vectorized classification for a direct-mapped cache.

    Returns ``{write_allocate: (hit_mask, evictions)}`` for both store
    policies in one pass (they share the sorted order).  The tricks:

    * under write-miss allocate every reference leaves its own block
      resident, so a reference hits iff the *previous reference* to
      its set touched the same block;
    * under write-around only load misses install, and a load install
      always leaves the load's block resident, so residency equals
      "the block of the last load to the set" and stores never change
      tag state at all.  A reference hits iff the last *load* before
      it in its set touched the same block.
    """
    n = blocks.size
    sets = blocks & (num_sets - 1)
    order = np.lexsort((np.arange(n), sets))
    s_sorted = sets[order]
    b_sorted = blocks[order]
    l_sorted = is_load[order]

    same_set = np.empty(n, dtype=bool)
    same_set[0] = False
    same_set[1:] = s_sorted[1:] == s_sorted[:-1]

    # write-miss allocate: compare with the immediately preceding
    # reference in the set.
    hit_wma_sorted = np.empty(n, dtype=bool)
    hit_wma_sorted[0] = False
    hit_wma_sorted[1:] = same_set[1:] & (b_sorted[1:] == b_sorted[:-1])
    hit_wma = np.empty(n, dtype=bool)
    hit_wma[order] = hit_wma_sorted

    # write-around: compare with the last preceding *load* in the set.
    # Groups are contiguous and set-sorted, so a keyed running maximum
    # of "position of the last load" resets itself at set boundaries.
    idx = np.arange(n)
    load_pos = np.where(l_sorted, idx, -1)
    keyed = np.maximum.accumulate(s_sorted * (n + 1) + load_pos + 1)
    last_load_incl = keyed - s_sorted * (n + 1) - 1
    prev_load = np.empty(n, dtype=np.int64)
    prev_load[0] = -1
    prev_load[1:] = np.where(same_set[1:], last_load_incl[:-1], -1)
    hit_wa_sorted = (prev_load >= 0) & (
        b_sorted[np.maximum(prev_load, 0)] == b_sorted
    )
    hit_wa = np.empty(n, dtype=bool)
    hit_wa[order] = hit_wa_sorted

    # Evictions: the first install into a set evicts nothing; every
    # later install evicts (its block differs from the resident one,
    # else it would have hit).
    misses_wma = n - int(np.count_nonzero(hit_wma))
    evict_wma = misses_wma - int(np.unique(sets).size)
    load_misses_wa = int(np.count_nonzero(is_load & ~hit_wa))
    load_sets = np.unique(sets[is_load]).size if is_load.any() else 0
    evict_wa = load_misses_wa - int(load_sets)
    return {True: (hit_wma, evict_wma), False: (hit_wa, evict_wa)}


def _lru_functional(
    blocks: np.ndarray,
    is_load: np.ndarray,
    geometry: CacheGeometry,
    write_allocate: bool,
) -> Tuple[np.ndarray, int]:
    """Sequential classification for set-associative (LRU) geometries."""
    tags = make_tag_store(geometry)
    access = tags.access
    install = tags.install
    hits = np.empty(blocks.size, dtype=bool)
    evictions = 0
    for i, (block, load) in enumerate(zip(blocks.tolist(),
                                          is_load.tolist())):
        if access(block):
            hits[i] = True
            continue
        hits[i] = False
        if load or write_allocate:
            if install(block) is not None:
                evictions += 1
    return hits, evictions


def _summarize(
    stream: EventStream,
    geometry: CacheGeometry,
    write_allocate: bool,
    hits: np.ndarray,
    is_load: np.ndarray,
    evictions: int,
) -> FunctionalSummary:
    miss_refs = array("q")
    missed = np.nonzero(~hits)[0].astype(np.int64)
    miss_refs.frombytes(memoryview(np.ascontiguousarray(missed)).cast("B"))
    return FunctionalSummary(
        geometry=geometry,
        write_allocate=write_allocate,
        instructions=stream.instructions,
        load_hits=int(np.count_nonzero(hits & is_load)),
        load_misses=int(np.count_nonzero(~hits & is_load)),
        store_hits=int(np.count_nonzero(hits & ~is_load)),
        store_misses=int(np.count_nonzero(~hits & ~is_load)),
        evictions=evictions,
        miss_refs=miss_refs,
    )


def classify_stream(
    stream: EventStream, geometry: CacheGeometry, write_allocate: bool
) -> FunctionalSummary:
    """Classify every reference on an immediate-install ``geometry``."""
    if geometry.line_size != stream.line_size:
        raise ValueError(
            f"stream was built for {stream.line_size}B lines, "
            f"geometry has {geometry.line_size}B"
        )
    blocks, is_load = _flat_blocks(stream)
    if geometry.is_direct_mapped:
        hit_masks = _dm_functional(blocks, is_load, geometry.num_sets)
        hits, evictions = hit_masks[write_allocate]
    else:
        hits, evictions = _lru_functional(
            blocks, is_load, geometry, write_allocate
        )
    return _summarize(stream, geometry, write_allocate, hits, is_load,
                      evictions)


# -- process-level caches ------------------------------------------------------

#: Streams hold line buffers comparable in size to the trace cache's
#: address buffers, so the bound stays tight; summaries are a few
#: scalars plus the miss-index array.
_STREAM_CACHE = LRUCache(16)
_SUMMARY_CACHE = LRUCache(64)


def clear_stream_caches() -> None:
    """Drop cached event streams and functional summaries."""
    _STREAM_CACHE.clear()
    _SUMMARY_CACHE.clear()


def cache_sizes() -> Tuple[int, int]:
    """(streams, summaries) currently cached, for the telemetry gauges."""
    return len(_STREAM_CACHE), len(_SUMMARY_CACHE)


def _stream_key(
    workload: Workload,
    load_latency: int,
    scale: float,
    line_size: int,
    unroll_override: int,
) -> Tuple:
    from repro.sim.simulator import _trace_key

    return (_trace_key(workload, load_latency, scale, unroll_override),
            line_size)


def event_stream(
    workload: Workload,
    load_latency: int,
    scale: float = 1.0,
    line_size: int = 32,
    unroll_override: int = 0,
) -> Optional[EventStream]:
    """The group's event stream, built once and cached (or ``None``)."""
    from repro.sim.simulator import expand_workload

    key = _stream_key(workload, load_latency, scale, line_size,
                      unroll_override)
    stream = _STREAM_CACHE.get(key)
    if stream is None:
        if telemetry.enabled():
            telemetry.counter("sim.stream_cache.misses").inc()
        _, trace = expand_workload(workload, load_latency, scale=scale,
                                   unroll_override=unroll_override)
        stream = build_stream(trace, line_size)
        if stream is None:
            return None
        _STREAM_CACHE.put(key, stream)
    elif telemetry.enabled():
        telemetry.counter("sim.stream_cache.hits").inc()
    return stream


def functional_summary(
    workload: Workload,
    load_latency: int,
    scale: float,
    geometry: CacheGeometry,
    write_allocate: bool,
    unroll_override: int = 0,
) -> Optional[FunctionalSummary]:
    """Cached functional classification for one (group, geometry) pair.

    Direct-mapped geometries compute both store policies in one sorted
    pass, so asking for ``mc=0`` right after ``mc=0+wma`` is a cache
    hit.
    """
    base_key = _stream_key(workload, load_latency, scale,
                           geometry.line_size, unroll_override)
    key = (base_key, geometry, write_allocate)
    summary = _SUMMARY_CACHE.get(key)
    if summary is not None:
        return summary
    stream = event_stream(workload, load_latency, scale,
                          geometry.line_size, unroll_override)
    if stream is None:
        return None
    if geometry.is_direct_mapped:
        blocks, is_load = _flat_blocks(stream)
        for wa, (hits, evictions) in _dm_functional(
                blocks, is_load, geometry.num_sets).items():
            _SUMMARY_CACHE.put(
                (base_key, geometry, wa),
                _summarize(stream, geometry, wa, hits, is_load, evictions),
            )
        return _SUMMARY_CACHE.get(key)
    summary = classify_stream(stream, geometry, write_allocate)
    _SUMMARY_CACHE.put(key, summary)
    return summary
