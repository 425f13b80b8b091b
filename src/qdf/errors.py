"""Exception hierarchy shared across the package.

Every error the library raises deliberately derives from QdfError so callers
can distinguish our failures from genuine bugs.  Each class carries the CLI
exit code it maps to: 3 for bad data or configuration, 4 for numeric or
conditioning failures.  ``integer`` is the one rule for integer arguments.
"""

import numpy as np


class QdfError(Exception):
    """Base class for all library errors."""

    exit_code = 3


class InvalidDimensionError(QdfError, ValueError):
    """Array shapes or horizons do not line up."""


class EmptyInputError(QdfError, ValueError):
    """An operation received an empty batch or window set."""


class ConditioningError(QdfError, ArithmeticError):
    """A weighting matrix is singular or too ill-conditioned to use."""

    exit_code = 4


class NumericError(QdfError, ArithmeticError):
    """Non-finite values where finite ones are required."""

    exit_code = 4


class InvalidConfigError(QdfError, ValueError):
    """A configuration value is out of range or unknown."""


class InvalidSplitError(QdfError, ValueError):
    """A data split is empty, overlapping, or otherwise unusable."""


class InsufficientDataError(QdfError, ValueError):
    """Not enough rows to extract a single window."""


class UnstableSpecError(QdfError, ValueError):
    """An autoregressive spec has roots on or inside the unit circle."""


class CsvParseError(QdfError, ValueError):
    """A CSV cell could not be parsed; carries row/column context."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class UndefinedCorrelationError(QdfError, ArithmeticError):
    """Residual variance too small for a meaningful correlation."""

    exit_code = 4


def integer(name: str, value) -> int:
    """``value`` as an int; InvalidConfigError for a bool or a non-integer such as 2.0."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)
