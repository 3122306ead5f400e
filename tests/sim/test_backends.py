"""The dispatch-backend registry: resolution, equality, lifecycle.

Backends pick *where* cells execute; every backend must be
bit-identical and the selection must flow through one resolution path
(argument > ``REPRO_BACKEND`` > ``auto``), mirroring the engine
registry these tests' siblings in ``test_engines.py`` pin down.
"""

from __future__ import annotations

import pytest

from repro.core.policies import mc, no_restrict
from repro.errors import ConfigurationError
from repro.sim.config import baseline_config
from repro.sim.parallel import (
    AUTO_BACKEND,
    BACKEND_ORDER,
    DispatchBackend,
    backend_names,
    dispatch,
    get_backend,
    pool_stats,
    resolve_backend,
    shutdown_pool,
)
from repro.workloads.spec92 import get_benchmark


def small_cells():
    workload = get_benchmark("ora")
    return [
        (workload, baseline_config(policy), 10, 0.05)
        for policy in (mc(1), mc(2), no_restrict())
    ]


class TestRegistry:
    def test_order_and_names(self):
        assert BACKEND_ORDER == ("inline", "pool")
        assert backend_names() == BACKEND_ORDER + (AUTO_BACKEND,)

    def test_every_backend_resolvable(self):
        for name in backend_names():
            backend = get_backend(name)
            assert isinstance(backend, DispatchBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown dispatch"):
            get_backend("carrier-pigeon")
        # The socket fabric is gone; the error lists what remains.
        with pytest.raises(ConfigurationError,
                           match="valid backends: inline, pool, auto$"):
            get_backend("socket")


class TestResolution:
    @pytest.mark.parametrize("name", backend_names())
    def test_argument_selects_backend(self, name, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(name).name == name

    @pytest.mark.parametrize("name", backend_names())
    def test_env_selects_backend(self, name, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", name)
        assert resolve_backend().name == name

    @pytest.mark.parametrize("name", backend_names())
    def test_names_ignore_case_and_whitespace(self, name):
        assert get_backend(f"  {name.upper()} ").name == name

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "pool")
        assert resolve_backend("inline").name == "inline"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "inline")
        assert resolve_backend().name == "inline"

    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend().name == "auto"

    def test_bad_env_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(ConfigurationError):
            resolve_backend()
        monkeypatch.setenv("REPRO_BACKEND", "socket")
        with pytest.raises(ConfigurationError,
                           match="valid backends: inline, pool, auto$"):
            resolve_backend()


class TestDispatch:
    def test_inline_matches_auto_serial(self):
        cells = small_cells()
        assert dispatch(cells, backend="inline") == \
            dispatch(cells, workers=1)

    def test_pool_backend_matches_inline(self):
        cells = small_cells()
        serial = dispatch(cells, backend="inline")
        try:
            parallel_results = dispatch(cells, backend="pool", workers=2)
        finally:
            shutdown_pool()
        assert parallel_results == serial

    def test_env_selection_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "inline")
        cells = small_cells()
        before = get_backend("inline").stats()["dispatches"]
        dispatch(cells, workers=4)  # env pins inline despite workers
        assert get_backend("inline").stats()["dispatches"] == before + 1

    def test_empty_cell_list(self):
        assert dispatch([], backend="inline") == []


class TestPoolStats:
    def test_reports_per_backend_state(self):
        stats = pool_stats()
        assert stats["backend"] == "auto"
        assert set(stats["backends"]) >= {"inline", "pool"}
        # Legacy process-pool keys stay at top level.
        for key in ("active", "workers", "created", "reused", "shutdowns"):
            assert key in stats

    def test_backend_argument_resolves(self):
        assert pool_stats("inline")["backend"] == "inline"

    def test_inline_activity_visible(self):
        before = pool_stats()["backends"]["inline"]["cells"]
        dispatch(small_cells(), backend="inline")
        after = pool_stats()["backends"]["inline"]["cells"]
        assert after == before + 3

    def test_shutdown_covers_all_backends(self):
        # No live resources -> False; never raises.
        shutdown_pool()
        assert shutdown_pool() is False


class TestOptionsPlumbing:
    def test_experiment_options_validate_backend(self):
        from repro.errors import ExperimentError
        from repro.experiments.base import ExperimentOptions

        ExperimentOptions.from_kwargs(backend="inline")
        with pytest.raises(ExperimentError, match="unknown dispatch"):
            ExperimentOptions.from_kwargs(backend="bogus")

    def test_api_surface(self):
        from repro import api

        assert api.backend_names() == backend_names()
        assert "backends" in api.pool_stats()

    def test_sweep_accepts_backend(self):
        from repro import api

        table = api.sweep(["ora"], policies=["mc=1"], scale=0.05,
                          backend="inline")
        assert table.mcpi("ora", "mc=1") >= 0.0
