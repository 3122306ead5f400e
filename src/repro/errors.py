"""Exception hierarchy for the repro package.

All exceptions raised deliberately by this package derive from
:class:`ReproError`, so callers can catch package-level failures with a
single ``except`` clause while letting genuine programming errors
propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A simulation, cache, or MSHR configuration is invalid.

    Examples: a cache whose size is not a power of two, a negative miss
    penalty, or an MSHR policy with zero destination fields.
    """


class CompilationError(ReproError):
    """The kernel compiler could not produce a legal schedule.

    Examples: a dependence cycle within a single iteration, or register
    pressure that cannot be satisfied even with spilling.
    """


class WorkloadError(ReproError):
    """A workload or address-stream definition is malformed.

    Examples: an unknown benchmark name, or a stream referenced by a
    kernel op that was never declared.
    """


class SimulationError(ReproError):
    """The simulator reached an inconsistent internal state.

    This indicates a bug in the timing model rather than bad user input;
    it is raised by internal consistency checks (e.g. a fill completing
    for a block that was never fetched).
    """


class ExperimentError(ReproError):
    """An experiment id is unknown or its parameters are invalid."""


class CellExecutionError(ReproError):
    """One sweep cell failed inside the process pool.

    The message names the (workload, policy, load latency, scale) cell
    that died plus the original error, because a pool worker's bare
    traceback otherwise gives no hint which of a few hundred dispatched
    cells was responsible.  Kept to a single string argument so it
    pickles cleanly across the process boundary.
    """
