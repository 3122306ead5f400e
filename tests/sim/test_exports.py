"""Export-surface smoke tests: ``__all__`` must match reality.

The sim package's ``__all__`` drifted from its actual exports once;
these tests pin every advertised name to an importable object, for the
top-level package, the stable facade, the sim package, and the
telemetry package.
"""

from __future__ import annotations

import pytest

import repro
import repro.api
import repro.sim
import repro.telemetry

#: Aliases the sim package used to re-export; the dispatch seam is
#: ``repro.sim.parallel.dispatch`` and the stable one ``repro.api``.
_REMOVED_SIM_NAMES = ["run_cells", "run_table_parallel"]


@pytest.mark.parametrize("module", [repro, repro.api, repro.sim,
                                    repro.telemetry])
def test_every_advertised_name_resolves(module):
    for name in module.__all__:
        assert getattr(module, name) is not None, (
            f"{module.__name__}.__all__ advertises {name!r} "
            f"but the attribute is missing"
        )


def test_star_import_surface_has_no_duplicates():
    for module in (repro, repro.api, repro.sim, repro.telemetry):
        assert len(module.__all__) == len(set(module.__all__)), module


@pytest.mark.parametrize("name", _REMOVED_SIM_NAMES)
def test_removed_aliases_are_gone(name):
    assert name not in repro.sim.__all__
    with pytest.raises(AttributeError):
        getattr(repro.sim, name)


def test_unknown_sim_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        repro.sim.bogus


def test_fresh_import_emits_no_deprecation_warnings():
    """Importing the package tree itself must stay warning-clean."""
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c",
         "import repro, repro.api, repro.sim, repro.experiments, repro.cli"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
