"""The execution-engine registry: resolution, fallback.

The registry (:mod:`repro.sim.engines`) is the single selection path
for the five execution tiers; these tests pin the resolution order
(argument > ``REPRO_ENGINE`` > default), the per-cell capability
classification the dispatcher sorts by, and the telemetry counters
the native lane's fallbacks feed.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import pytest

from repro import telemetry
from repro.cache.geometry import CacheGeometry
from repro.core.policies import blocking_cache, mc, no_restrict
from repro.errors import ConfigurationError, ExperimentError
from repro.sim import engines
from repro.sim.config import baseline_config
from repro.sim.simulator import (
    clear_caches,
    fast_path_default,
    fusion_default,
    simulate,
)
from repro.workloads.spec92 import get_benchmark


@pytest.fixture(autouse=True)
def clean_engine_env(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)


class TestRegistry:
    def test_order_and_capabilities_are_monotone(self):
        # Each tier strictly adds a capability over the previous one.
        caps = [
            (e.fast_path, e.fusion, e.native, e.cnative)
            for e in (engines.ENGINES[name] for name in engines.ENGINE_ORDER)
        ]
        assert caps == sorted(caps)
        assert caps[0] == (False, False, False, False)
        assert caps[-1] == (True, True, True, True)

    def test_get_engine_resolves_names_and_auto(self):
        assert engines.get_engine("fused") is engines.FUSED
        assert engines.get_engine("  Native ") is engines.NATIVE
        assert engines.get_engine("auto") is engines.DEFAULT_ENGINE

    def test_unknown_engine_raises_with_vocabulary(self):
        with pytest.raises(ConfigurationError, match="valid engines"):
            engines.get_engine("turbo")

    def test_engine_names_covers_registry_plus_auto(self):
        assert engines.engine_names() == engines.ENGINE_ORDER + ("auto",)


class TestResolution:
    def test_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert engines.resolve_engine("native") is engines.NATIVE

    def test_environment_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "fused")
        assert engines.resolve_engine() is engines.FUSED

    def test_default_is_the_fastest_tier(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert engines.resolve_engine() is engines.DEFAULT_ENGINE

    def test_retired_env_opt_outs_are_ignored(self, monkeypatch):
        # REPRO_FASTPATH / REPRO_FUSION were replaced by REPRO_ENGINE.
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        monkeypatch.setenv("REPRO_FUSION", "0")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert engines.resolve_engine() is engines.DEFAULT_ENGINE

    def test_simulator_defaults_follow_the_registry(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert not fast_path_default()
        assert not fusion_default()
        monkeypatch.setenv("REPRO_ENGINE", "fused")
        assert fast_path_default()
        assert fusion_default()


class TestCellCapability:
    def test_direct_mapped_nonblocking_is_native(self):
        config = baseline_config(mc(1))
        assert engines.cell_engine_tier(config) == \
            engines.ENGINE_ORDER.index("native")

    def test_associative_cell_lands_on_cnative(self, monkeypatch):
        # Outside the vector lane's envelope but inside the replay
        # contract: the C tier takes it when a compiler exists.
        from repro.cpu import ckernel

        config = replace(
            baseline_config(mc(1)),
            geometry=CacheGeometry(size=8192, line_size=32, associativity=4),
        )
        if ckernel.kernels_available():
            assert engines.cell_engine_tier(config) == \
                engines.ENGINE_ORDER.index("cnative")

    def test_associative_cell_caps_at_fused_without_compiler(
            self, monkeypatch):
        from repro.cpu import ckernel

        monkeypatch.setenv("REPRO_CC", "no-such-compiler-xyz")
        ckernel.reset_probe()
        config = replace(
            baseline_config(mc(1)),
            geometry=CacheGeometry(size=8192, line_size=32, associativity=4),
        )
        try:
            assert engines.cell_engine_tier(config) == \
                engines.ENGINE_ORDER.index("fused")
        finally:
            ckernel.reset_probe()

    def test_blocking_cell_caps_at_fused(self):
        # Blocking policies collapse to the closed form, a fused-tier
        # capability; the native lane adds nothing there.
        config = baseline_config(blocking_cache())
        assert engines.cell_engine_tier(config) == \
            engines.ENGINE_ORDER.index("fused")

    def test_finite_write_buffer_caps_at_fastpath(self):
        config = replace(baseline_config(mc(1)), write_buffer_depth=4)
        assert engines.cell_engine_tier(config) == \
            engines.ENGINE_ORDER.index("fastpath")


class TestEngineTelemetry:
    def _counter(self, name):
        return telemetry.counter(name).value

    def test_selection_counters(self):
        workload = get_benchmark("ora")
        config = baseline_config(mc(1))
        try:
            telemetry.set_enabled(True)
            before = self._counter("engine.selected.fused")
            simulate(workload, config, load_latency=10, scale=0.05,
                     engine="fused")
            assert self._counter("engine.selected.fused") == before + 1
        finally:
            telemetry.set_enabled(None)

    def test_native_fallback_counters_carry_the_cause(self):
        workload = get_benchmark("ora")
        assoc = replace(
            baseline_config(mc(1)),
            geometry=CacheGeometry(size=8192, line_size=32, associativity=4),
        )
        try:
            telemetry.set_enabled(True)
            total = self._counter("engine.native.fallbacks")
            cause = self._counter("engine.native.fallback.associative")
            simulate(workload, assoc, load_latency=10, scale=0.05,
                     engine="native")
            assert self._counter("engine.native.fallbacks") == total + 1
            assert self._counter(
                "engine.native.fallback.associative") == cause + 1
        finally:
            telemetry.set_enabled(None)

    def test_native_replays_counted(self):
        workload = get_benchmark("ora")
        config = baseline_config(mc(1))
        try:
            telemetry.set_enabled(True)
            clear_caches()
            before = self._counter("engine.native.replays")
            simulate(workload, config, load_latency=10, scale=0.05,
                     engine="native")
            assert self._counter("engine.native.replays") == before + 1
        finally:
            telemetry.set_enabled(None)
            clear_caches()


class TestPinning:
    def test_pinning_fused_never_compiles_native_kernels(self):
        from repro.sim import stream as stream_mod

        workload = get_benchmark("eqntott")
        config = baseline_config(no_restrict())
        clear_caches()
        simulate(workload, config, load_latency=10, scale=0.1,
                 engine="fused")
        stream = stream_mod.event_stream(workload, 10, 0.1, 32)
        assert all(key[0] != "native" for key in stream._replay_fns)
        clear_caches()

    def test_pinning_reference_matches_native(self):
        workload = get_benchmark("compress")
        config = baseline_config(no_restrict())
        ref = simulate(workload, config, load_latency=10, scale=0.05,
                       engine="reference")
        nat = simulate(workload, config, load_latency=10, scale=0.05,
                       engine="native")
        assert ref == nat

    def test_experiment_options_validate_engine(self):
        from repro.experiments.base import ExperimentOptions

        options = ExperimentOptions.from_kwargs(engine="fused")
        assert options.engine == "fused"
        with pytest.raises(ExperimentError, match="valid engines"):
            ExperimentOptions.from_kwargs(engine="warp")

    def test_api_simulate_accepts_engine(self):
        from repro import api

        nat = api.simulate("ora", policy="mc=1", scale=0.05, cached=False,
                           engine="native")
        ref = api.simulate("ora", policy="mc=1", scale=0.05, cached=False,
                           engine="reference")
        assert nat == ref
        assert "native" in api.engine_names()
