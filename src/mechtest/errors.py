"""Exception hierarchy shared by all modules.

Every error carries an ``exit_code`` so the CLI can map failures onto its
documented exit statuses: 2 for input problems, 3 for identification
failures (including an empty identified set), 4 for solver breakdowns.
"""


class MechtestError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class StructuralError(MechtestError):
    """Malformed inputs: shape mismatches, bad columns, invalid config."""

    exit_code = 2


class EstimationError(StructuralError):
    """Data insufficient to estimate a required quantity (e.g. empty arm)."""


class DomainError(StructuralError):
    """A mathematical precondition fails (non-PSD matrix, denominator <= 0)."""


class UnsupportedCaseError(StructuralError):
    """Operation invoked outside the case it is defined for."""


class IdentificationError(MechtestError):
    """The identified set is empty or the identifying assumptions fail.

    ``min_dbar`` carries the smallest defier budget that would restore
    feasibility when that diagnosis is available.
    """

    exit_code = 3

    def __init__(self, message, min_dbar=None):
        super().__init__(message)
        self.min_dbar = min_dbar


class WeakInstrumentError(IdentificationError):
    """First stage of the instrument is zero or too close to it."""


class OverlapError(IdentificationError):
    """Propensity scores leave the required overlap interval."""

    def __init__(self, message, rows=None):
        super().__init__(message)
        self.rows = rows if rows is not None else []


class IncoherenceError(IdentificationError):
    """A measurement-error correction produced an invalid distribution."""


class SolverFailureError(MechtestError):
    """Numerical failure inside an optimizer; never a silent wrong answer."""

    exit_code = 4
