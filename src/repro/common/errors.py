"""Exception hierarchy for the WEC reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigError(ReproError):
    """A configuration object is internally inconsistent.

    Raised by the ``validate()`` methods on the configuration dataclasses
    in :mod:`repro.common.config` — e.g. a cache whose size is not a
    multiple of ``block_size * assoc``, or a machine whose total issue
    bandwidth does not match the experiment's constraint.
    """


class SimulationError(ReproError):
    """The simulator reached an inconsistent state at run time."""


class WorkloadError(ReproError):
    """A workload/benchmark model was mis-specified or is unknown."""


class SweepError(SimulationError):
    """One or more cells of a sweep grid failed to execute.

    Raised by :func:`repro.sim.executor.run_cells` (and therefore by
    :func:`repro.sim.sweep.run_grid`) after the whole grid has been
    attempted.  The message names every failing ``(benchmark, label)``
    cell; ``failures`` holds the structured
    :class:`~repro.sim.executor.CellFailure` records and ``outcome`` the
    partial :class:`~repro.sim.executor.SweepOutcome` with every cell
    that *did* complete.
    """

    def __init__(self, message: str, failures=None, outcome=None) -> None:
        super().__init__(message)
        self.failures = list(failures) if failures is not None else []
        self.outcome = outcome


class AnalysisError(ReproError):
    """Result post-processing failed (mismatched runs, empty input, ...)."""


class LintError(ReproError):
    """A ``repro lint`` invocation was unusable (usage error, exit 2).

    Raised by :mod:`repro.lint` for problems with the *invocation* rather
    than the linted code: an unknown rule id, a missing path, a source
    file that does not parse, or a malformed baseline file (including a
    baselined entry without a justification reason).  Findings in the
    linted code are never exceptions — they are returned as data and
    reported with exit code 1.
    """
