"""Exception hierarchy shared by all modules, and the CLI's exit codes.

The CLI maps these onto process exit codes: usage problems exit 2,
exact-mode theorem violations exit 1, numerical and resource failures
(``NumericalFailure``, ``ResourceLimitError``, ``NotRieszError``, and
Python's ``OverflowError`` when a float result leaves the double range)
exit 3. Any other exception is a programming bug and exits 4 with its
traceback.
"""

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4


class UsageError(ValueError):
    """Invalid argument, configuration value, or precondition violation."""


class DimensionError(UsageError):
    """Matrix or vector dimensions do not match the operation."""


class NotRieszError(ValueError):
    """A Gram matrix required to be nonsingular is numerically singular."""


class ResourceLimitError(RuntimeError):
    """An enumeration exceeded its configured element cap."""


class NumericalFailure(RuntimeError):
    """A numerical routine failed to converge, or a value left the double range."""


class DegenerateProbeError(NumericalFailure):
    """Every probe direction is numerically degenerate."""


class OracleInconsistencyError(NumericalFailure):
    """Two independent computations of the same quantity disagree (implementation bug)."""


class TheoremViolationError(RuntimeError):
    """An exactly verifiable assertion failed in exact mode (implementation bug)."""
