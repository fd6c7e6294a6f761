"""Exception hierarchy shared by all analysis stages.

Each error class carries the process exit code used by the command-line
driver, so stage wrappers can map failures to machine-readable categories.
"""

import math


class QlbError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class InvalidInputError(QlbError, ValueError):
    """Non-finite, out-of-range, or otherwise malformed numeric input."""

    exit_code = 2


class ConfigurationError(QlbError):
    """Bad configuration file or unusable option value."""

    exit_code = 2


class DatasetError(QlbError):
    """Dataset is empty, too small, or does not cover the required range."""

    exit_code = 3


class StageNotConfigured(DatasetError):
    """A stage's input is absent from the config; a report skips the stage."""


def dataset_float(cell, path, line: int, column) -> float:
    """Parse one dataset cell as a finite float.

    A missing (None or blank), non-numeric or non-finite cell raises a
    DatasetError that names the file, line and column.
    """
    try:
        value = float(cell)
    except (TypeError, ValueError):
        missing = cell is None or not cell.strip()
        problem = "missing value" if missing else f"non-numeric value {cell!r}"
    else:
        if math.isfinite(value):
            return value
        problem = f"non-finite value {cell!r}"
    raise DatasetError(f"{path}, line {line}, column {column}: {problem}")


class ConvergenceError(QlbError):
    """Iterative procedure failed to converge within its iteration cap."""

    exit_code = 4

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateSystemError(QlbError, ValueError):
    """The algebraic system cannot be solved (zero denominator or pivot)."""

    exit_code = 2


class CalibrationError(QlbError):
    """Reference peak for energy calibration could not be located."""

    exit_code = 3


class InconsistentInputsWarning(UserWarning):
    """A subtraction produced a negative central value.

    Not fatal: uncertainties can legitimately straddle zero, so the value
    is returned with this warning instead of raising.
    """
