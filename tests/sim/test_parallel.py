"""Tests for the multiprocess sweep runner."""

import pickle
from dataclasses import dataclass, replace

import pytest

from repro.cache.geometry import CacheGeometry
from repro.compiler.ir import KernelBuilder
from repro.core.policies import (
    blocking_cache,
    fc,
    fs,
    in_cache,
    inverted,
    mc,
    no_restrict,
    with_layout,
)
from repro.errors import CellExecutionError, ConfigurationError
from repro.sim.config import baseline_config
from repro.sim.parallel import (
    _group_cells,
    default_workers,
    dispatch,
    pool_stats,
    shutdown_pool,
)
from repro.sim.resultstore import cell_fingerprint
from repro.sim.simulator import simulate
from repro.sim.sweep import run_table
from repro.workloads.spec92 import get_benchmark
from repro.workloads.workload import Workload

#: One representative per policy family (the paper's spectrum).
POLICY_FAMILIES = [
    blocking_cache(),
    blocking_cache(write_allocate=True),
    mc(1),
    mc(4),
    fc(2),
    fs(2),
    no_restrict(),
    inverted(70),
    in_cache(),
    with_layout(2, 2),
    with_layout(4, 1),
]

GEOMETRIES = [
    CacheGeometry(size=4 * 1024, line_size=16, associativity=1),
    CacheGeometry(size=16 * 1024, line_size=32, associativity=1),
    CacheGeometry(size=16 * 1024, line_size=32, associativity=2),
    CacheGeometry(size=64 * 1024, line_size=64, associativity=4),
]


def policy_id(policy):
    return policy.name


def geometry_id(geometry):
    return (f"{geometry.size // 1024}k-{geometry.line_size}b-"
            f"{geometry.associativity}way")


@dataclass(frozen=True)
class PoisonPattern:
    """An address pattern whose generation always fails."""

    def generate(self, n, rng):
        raise RuntimeError("poisoned address stream")


def make_poison_workload() -> Workload:
    builder = KernelBuilder("poison")
    stream = builder.declare_stream()
    builder.load(stream)
    return Workload(
        name="poison",
        kernel=builder.build(),
        patterns={stream: PoisonPattern()},
        iterations=64,
    )


class TestDispatch:
    def test_single_worker_runs_inline(self):
        cells = [
            (get_benchmark("ora"), baseline_config(mc(1)), 10, 0.05),
        ]
        results = dispatch(cells, workers=1)
        assert len(results) == 1
        assert results[0].workload == "ora"

    def test_order_preserved(self):
        cells = [
            (get_benchmark(name), baseline_config(mc(1)), 10, 0.05)
            for name in ("ora", "eqntott", "xlisp")
        ]
        results = dispatch(cells, workers=1)
        assert [r.workload for r in results] == ["ora", "eqntott", "xlisp"]

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestWorkerEnvValidation:
    def test_repro_workers_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_repro_workers_non_integer_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ConfigurationError, match="must be an integer"):
            default_workers()

    def test_repro_workers_below_one_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ConfigurationError, match=">= 1"):
            default_workers()

class TestPersistentPool:
    def _cells(self, scale=0.05):
        return [
            (get_benchmark(name), baseline_config(policy), 10, scale)
            for name in ("ora", "eqntott")
            for policy in (mc(1), no_restrict())
        ]

    def test_pool_reused_across_consecutive_sweeps(self, monkeypatch):
        # The idle period is a constant; a stale REPRO_POOL_IDLE value
        # must not fail the lease's return after the sweep has run.
        monkeypatch.setenv("REPRO_POOL_IDLE", "soon")
        shutdown_pool()
        cells = self._cells()
        try:
            serial = dispatch(cells, workers=1)
            assert dispatch(cells, workers=2) == serial
            created_after_first = pool_stats()["created"]
            assert dispatch(cells, workers=2) == serial
            stats = pool_stats()
            assert stats["active"]
            assert stats["created"] == created_after_first  # no new pool
            assert stats["reused"] >= 1
        finally:
            assert shutdown_pool() is True
        assert shutdown_pool() is False  # idempotent once retired
        assert not pool_stats()["active"]

    def test_pool_capped_at_group_count(self):
        shutdown_pool()
        try:
            # Two (workload, latency, scale) groups; asking for eight
            # workers must not spawn more than two.
            dispatch(self._cells(), workers=8)
            assert pool_stats()["workers"] == 2
        finally:
            shutdown_pool()

    def test_single_group_runs_inline_without_pool(self):
        shutdown_pool()
        cells = [
            (get_benchmark("ora"), baseline_config(policy), 10, 0.05)
            for policy in (mc(1), mc(2), no_restrict())
        ]
        results = dispatch(cells, workers=4)
        assert not pool_stats()["active"]  # one group -> no pool at all
        assert [r.policy for r in results] == ["mc=1", "mc=2", "no restrict"]

class TestGrouping:
    def test_equal_but_distinct_workloads_share_a_group(self):
        """Content-keyed grouping: replace() copies bucket together."""
        workload = get_benchmark("ora")
        twin = replace(workload, description="same content, new object")
        config = baseline_config(mc(1))
        groups = _group_cells(
            [(workload, config, 10, 0.05), (twin, config, 10, 0.05)],
            max_group=8,
        )
        assert len(groups) == 1
        assert len(groups[0][3]) == 2

    def test_different_seeds_grouped_apart(self):
        workload = get_benchmark("ora")
        other = replace(workload, seed=workload.seed + 1)
        config = baseline_config(mc(1))
        groups = _group_cells(
            [(workload, config, 10, 0.05), (other, config, 10, 0.05)],
            max_group=8,
        )
        assert len(groups) == 2


class TestParallelMatchesSerial:
    def test_table_identical_across_pool(self):
        """Bit-identical results whether run serially or in a pool."""
        workloads = [get_benchmark("eqntott"), get_benchmark("ora")]
        policies = [blocking_cache(), mc(1), no_restrict()]

        serial = run_table(workloads, policies, load_latency=10, scale=0.1)
        parallel = run_table(workloads, policies, load_latency=10,
                             scale=0.1, workers=2)
        assert parallel.policy_names == serial.policy_names
        for bench in ("eqntott", "ora"):
            for policy in ("mc=0", "mc=1", "no restrict"):
                a = serial.rows[bench][policy]
                b = parallel.rows[bench][policy]
                assert a.cycles == b.cycles
                assert a.instructions == b.instructions
                assert a.miss.primary_misses == b.miss.primary_misses
                assert a.miss.miss_inflight_hist == b.miss.miss_inflight_hist

    def test_ratio_queries_work_on_parallel_tables(self):
        workloads = [get_benchmark("ora")]
        policies = [blocking_cache(), no_restrict()]
        table = run_table(workloads, policies, load_latency=10,
                          scale=0.05, workers=2)
        assert table.ratio("ora", "mc=0", "no restrict") == pytest.approx(1.0)


class TestPoolTransport:
    """Pool workers receive cells and return results by pickle.

    A cell that crosses the process boundary must be the same cell --
    same result-store fingerprint, same simulation inputs -- or a
    pooled sweep would silently key or simulate something else.
    """

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=geometry_id)
    @pytest.mark.parametrize("policy", POLICY_FAMILIES, ids=policy_id)
    def test_cell_pickle_preserves_fingerprint(self, policy, geometry):
        config = replace(baseline_config(policy), geometry=geometry)
        cell = (get_benchmark("compress"), config, 10, 0.5)
        decoded = pickle.loads(pickle.dumps(cell))
        assert cell_fingerprint(*decoded) == cell_fingerprint(*cell)
        assert decoded[0] == cell[0]
        assert decoded[1] == cell[1]
        assert decoded[2:] == cell[2:]

    @pytest.mark.parametrize("policy", POLICY_FAMILIES, ids=policy_id)
    def test_result_pickle_round_trip(self, policy):
        result = simulate(get_benchmark("ora"), baseline_config(policy),
                          load_latency=10, scale=0.05)
        assert pickle.loads(pickle.dumps(result)) == result


class TestPoolMatchesInline:
    """Every policy family is bit-identical through the process pool."""

    @pytest.mark.parametrize("policy", POLICY_FAMILIES, ids=policy_id)
    def test_policy_family_bit_identical(self, policy):
        cells = [
            (get_benchmark(name), replace(baseline_config(policy),
                                          geometry=geometry), latency, 0.05)
            for name in ("ora", "eqntott")
            for latency in (3, 10)
            for geometry in GEOMETRIES[1:3]
        ]
        serial = dispatch(cells, backend="inline")
        try:
            assert dispatch(cells, backend="pool", workers=2) == serial
        finally:
            shutdown_pool()

    def test_duplicate_cells_preserve_positions(self):
        cells = [
            (get_benchmark(name), baseline_config(policy), 10, 0.05)
            for name in ("ora", "eqntott")
            for policy in (mc(1), no_restrict())
        ]
        cells = cells + cells[:3]
        serial = dispatch(cells, backend="inline")
        try:
            pooled = dispatch(cells, backend="pool", workers=2)
        finally:
            shutdown_pool()
        assert pooled == serial
        assert pooled[4:] == pooled[:3]

    def test_empty_plan(self):
        assert dispatch([], backend="pool", workers=2) == []
        assert dispatch([], backend="inline") == []

    def test_worker_failure_names_the_cell_and_pool_survives(self):
        good = get_benchmark("ora")
        cells = [
            (good, baseline_config(mc(1)), 10, 0.05),
            (good, baseline_config(no_restrict()), 10, 0.05),
            (make_poison_workload(), baseline_config(mc(2)), 10, 1.0),
            (make_poison_workload(), baseline_config(mc(4)), 10, 1.0),
        ]
        try:
            with pytest.raises(CellExecutionError) as err:
                dispatch(cells, backend="pool", workers=2)
            message = str(err.value)
            assert "workload='poison'" in message
            assert "load_latency=10" in message
            assert "poisoned address stream" in message
            # The persistent pool survives a failed cell.
            healthy = [
                (get_benchmark(name), baseline_config(mc(1)), 10, 0.05)
                for name in ("ora", "eqntott")
            ]
            assert dispatch(healthy, backend="pool", workers=2) == \
                dispatch(healthy, backend="inline")
        finally:
            shutdown_pool()
