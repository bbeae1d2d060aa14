"""Exception hierarchy shared by all modules.

InputError maps to CLI exit code 1, NumericalError to exit code 2.
"""


class InputError(ValueError):
    """Malformed or out-of-domain input (bad grid, duplicate points, t <= 0, ...)."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (solver breakdown, a status certificate that
    does not check, NaN/inf encountered where a finite value is required)."""
