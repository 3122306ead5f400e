"""Policy-sibling fusion's timing contract: bit-identical results.

The fused engine (one stream pass per group + a compiled replay
kernel or functional closed form per policy sibling,
``docs/performance.md``) must produce *exactly* the
:class:`~repro.sim.stats.SimulationResult` per-cell execution
produces -- cycles, stall accounting, and the complete ``MissStats``
including histograms -- across every baseline policy, both issue
widths, and the paper's cache-geometry corners.  ``SimulationResult``
is a frozen dataclass, so ``==`` compares every field.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cache.geometry import CacheGeometry
from repro.core.policies import baseline_policies, mc, no_restrict
from repro.cpu import ckernel
from repro.sim import stream as stream_mod
from repro.sim.config import baseline_config
from repro.sim.simulator import clear_caches, fusion_default, simulate
from repro.workloads.spec92 import get_benchmark

#: The two geometry corners the sweep figures pivot on.
GEOMETRIES = [
    ("8KB/16B", CacheGeometry(size=8192, line_size=16, associativity=1)),
    ("64KB/32B", CacheGeometry(size=65536, line_size=32, associativity=1)),
]

POLICIES = [(policy.name, policy) for policy in baseline_policies()]


def run_fused_and_unfused(workload, config, latency=10, scale=0.1):
    fused = simulate(workload, config, load_latency=latency, scale=scale,
                     fusion=True)
    unfused = simulate(workload, config, load_latency=latency, scale=scale,
                       fusion=False)
    return fused, unfused


class TestPolicySiblingEquivalence:
    @pytest.mark.parametrize("label,policy", POLICIES,
                             ids=[label for label, _ in POLICIES])
    @pytest.mark.parametrize("geo_label,geometry", GEOMETRIES,
                             ids=[label for label, _ in GEOMETRIES])
    @pytest.mark.parametrize("issue_width", [1, 2])
    def test_fused_matches_unfused(self, label, policy, geo_label,
                                   geometry, issue_width):
        workload = get_benchmark("eqntott")
        config = replace(
            baseline_config().with_policy(policy),
            geometry=geometry, issue_width=issue_width,
        )
        fused, unfused = run_fused_and_unfused(workload, config)
        assert fused == unfused

    @pytest.mark.parametrize("label,policy", POLICIES,
                             ids=[label for label, _ in POLICIES])
    def test_fused_matches_reference_engine(self, label, policy):
        # The strongest cross-check: fused vs the unoptimized
        # cpu/reference.py loops, which share no code with the stream
        # pass or the replay kernels.
        workload = get_benchmark("ora")
        config = baseline_config().with_policy(policy)
        fused = simulate(workload, config, load_latency=10, scale=0.1,
                         fusion=True)
        reference = simulate(workload, config, load_latency=10, scale=0.1,
                             fast_path=False, fusion=False)
        assert fused == reference

    def test_env_opt_out(self, monkeypatch):
        # REPRO_ENGINE=fastpath turns fusion off; results stay identical
        # because fusion never changes numbers, only how they're made.
        monkeypatch.setenv("REPRO_ENGINE", "fastpath")
        assert not fusion_default()
        workload = get_benchmark("compress")
        config = baseline_config().with_policy(no_restrict())
        off = simulate(workload, config, load_latency=10, scale=0.1)
        monkeypatch.setenv("REPRO_ENGINE", "auto")
        assert fusion_default()
        on = simulate(workload, config, load_latency=10, scale=0.1)
        assert on == off

    def test_replay_kernel_is_cached_per_sibling(self):
        # Two siblings over one stream compile two kernels; re-running
        # either sibling reuses its kernel (and the shared stream).
        workload = get_benchmark("eqntott")
        clear_caches()
        for policy in (mc(1), no_restrict(), mc(1)):
            config = baseline_config().with_policy(policy)
            simulate(workload, config, load_latency=10, scale=0.1,
                     fusion=True)
        stream = stream_mod.event_stream(workload, 10, 0.1, 32)
        assert len(stream._replay_fns) == 2

    def test_clear_caches_drops_streams(self):
        workload = get_benchmark("compress")
        simulate(workload, baseline_config(), load_latency=10, scale=0.1,
                 fusion=True)
        assert stream_mod.cache_sizes()[0] > 0
        clear_caches()
        assert stream_mod.cache_sizes() == (0, 0)


class TestNativeLaneEquivalence:
    """The native (numpy) replay lane under the same contract.

    Same matrix as the fused suite: every baseline policy at both
    geometry corners, pinned to ``engine="native"`` and compared
    bit-identically against the fused tier.  Blocking policies and
    other out-of-envelope cells exercise the transparent fallback --
    the equality must hold regardless of which lane actually ran.
    """

    @pytest.mark.parametrize("label,policy", POLICIES,
                             ids=[label for label, _ in POLICIES])
    @pytest.mark.parametrize("geo_label,geometry", GEOMETRIES,
                             ids=[label for label, _ in GEOMETRIES])
    def test_native_matches_fused(self, label, policy, geo_label, geometry):
        workload = get_benchmark("eqntott")
        config = replace(
            baseline_config().with_policy(policy), geometry=geometry,
        )
        native = simulate(workload, config, load_latency=10, scale=0.1,
                          engine="native")
        fused = simulate(workload, config, load_latency=10, scale=0.1,
                         engine="fused")
        assert native == fused

    @pytest.mark.parametrize("label,policy", POLICIES,
                             ids=[label for label, _ in POLICIES])
    def test_native_matches_reference_engine(self, label, policy):
        # Strongest cross-check for the vector lane: against the
        # unoptimized cpu/reference.py loops, which share no code with
        # the stream pass, the replay kernels, or numpy.
        workload = get_benchmark("ora")
        config = baseline_config().with_policy(policy)
        native = simulate(workload, config, load_latency=10, scale=0.1,
                          engine="native")
        reference = simulate(workload, config, load_latency=10, scale=0.1,
                             engine="reference")
        assert native == reference

    def test_native_store_counters_on_store_heavy_model(self):
        # compress is the store-heaviest model; the native lane counts
        # store hit/miss splits vectorized over batched spans, so its
        # MissStats (store counters included) must still match exactly.
        workload = get_benchmark("compress")
        big = CacheGeometry(size=65536, line_size=32, associativity=1)
        config = replace(baseline_config().with_policy(no_restrict()),
                         geometry=big)
        native = simulate(workload, config, load_latency=10, scale=0.2,
                          engine="native")
        fused = simulate(workload, config, load_latency=10, scale=0.2,
                         engine="fused")
        assert native == fused

    def test_associative_geometry_falls_back_bit_identically(self):
        # An LRU probe reorders the recency stack, so the native lane
        # declines set-associative cells; pinning engine="native" must
        # still return the exact fused/reference numbers via fallback.
        workload = get_benchmark("eqntott")
        assoc = CacheGeometry(size=8192, line_size=32, associativity=4)
        config = replace(baseline_config().with_policy(mc(1)),
                         geometry=assoc)
        native = simulate(workload, config, load_latency=10, scale=0.1,
                          engine="native")
        reference = simulate(workload, config, load_latency=10, scale=0.1,
                             engine="reference")
        assert native == reference

    def test_native_kernels_cached_per_tier(self):
        # The native kernel caches under a tier-distinct key: pinning
        # fused after native must not alias the vectorized kernel.
        workload = get_benchmark("eqntott")
        clear_caches()
        config = baseline_config().with_policy(mc(1))
        simulate(workload, config, load_latency=10, scale=0.1,
                 engine="native")
        simulate(workload, config, load_latency=10, scale=0.1,
                 engine="fused")
        stream = stream_mod.event_stream(workload, 10, 0.1, 32)
        tiers = {key[0] if isinstance(key[0], str) else "scalar"
                 for key in stream._replay_fns}
        assert tiers == {"native", "scalar"}
        clear_caches()


#: The cnative matrix adds the corners the C tier exists for: the
#: set-associative geometries the vector lane declines.
CNATIVE_GEOMETRIES = GEOMETRIES + [
    ("8KB/4way", CacheGeometry(size=8192, line_size=32, associativity=4)),
    ("64KB/2way", CacheGeometry(size=65536, line_size=32, associativity=2)),
    ("8KB/full", CacheGeometry(size=8192, line_size=32, associativity=0)),
]

needs_cc = pytest.mark.skipif(
    not ckernel.kernels_available(), reason="no C compiler available",
)


class TestCnativeEquivalence:
    """The compiled-C replay kernels under the same contract.

    The full matrix -- every baseline policy at every geometry corner
    including the associative ones the C tier was built for, both
    issue widths -- pinned to ``engine="cnative"`` and compared
    bit-identically against the reference interpreter.  Out-of-
    envelope cells (blocking policies, dual issue) exercise the
    transparent fallback; the equality must hold regardless of which
    lane actually ran.
    """

    @needs_cc
    @pytest.mark.parametrize("label,policy", POLICIES,
                             ids=[label for label, _ in POLICIES])
    @pytest.mark.parametrize("geo_label,geometry", CNATIVE_GEOMETRIES,
                             ids=[label for label, _ in CNATIVE_GEOMETRIES])
    def test_cnative_matches_fused(self, label, policy, geo_label, geometry):
        workload = get_benchmark("eqntott")
        config = replace(
            baseline_config().with_policy(policy), geometry=geometry,
        )
        cnative = simulate(workload, config, load_latency=10, scale=0.1,
                           engine="cnative")
        fused = simulate(workload, config, load_latency=10, scale=0.1,
                         engine="fused")
        assert cnative == fused

    @needs_cc
    @pytest.mark.parametrize("label,policy", POLICIES,
                             ids=[label for label, _ in POLICIES])
    @pytest.mark.parametrize("issue_width", [1, 2])
    def test_cnative_matches_reference_engine(self, label, policy,
                                              issue_width):
        # Strongest cross-check for the C tier: against the
        # unoptimized cpu/reference.py loops, which share no code with
        # the stream pass, the replay kernels, or the generated C.
        workload = get_benchmark("ora")
        config = replace(baseline_config().with_policy(policy),
                         issue_width=issue_width)
        cnative = simulate(workload, config, load_latency=10, scale=0.1,
                           engine="cnative")
        reference = simulate(workload, config, load_latency=10, scale=0.1,
                             engine="reference")
        assert cnative == reference

    @needs_cc
    def test_cnative_store_counters_on_store_heavy_model(self):
        # compress at a fully-associative corner: LRU stack churn plus
        # the store-heaviest model, all inside the C kernel.
        workload = get_benchmark("compress")
        full = CacheGeometry(size=8192, line_size=32, associativity=0)
        config = replace(baseline_config().with_policy(no_restrict()),
                         geometry=full)
        cnative = simulate(workload, config, load_latency=10, scale=0.2,
                           engine="cnative")
        fused = simulate(workload, config, load_latency=10, scale=0.2,
                         engine="fused")
        assert cnative == fused

    @needs_cc
    def test_cnative_kernels_cached_per_tier(self):
        # An associative cell pinned to cnative caches its callable
        # under the tier-distinct key, never aliasing the scalar one.
        workload = get_benchmark("eqntott")
        assoc = CacheGeometry(size=8192, line_size=32, associativity=4)
        clear_caches()
        config = replace(baseline_config().with_policy(mc(1)),
                         geometry=assoc)
        simulate(workload, config, load_latency=10, scale=0.1,
                 engine="cnative")
        simulate(workload, config, load_latency=10, scale=0.1,
                 engine="fused")
        stream = stream_mod.event_stream(workload, 10, 0.1, 32)
        tiers = {key[0] if isinstance(key[0], str) else "scalar"
                 for key in stream._replay_fns}
        assert tiers == {"cnative", "scalar"}
        clear_caches()
