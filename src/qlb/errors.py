"""Exception hierarchy shared by all analysis stages, and the dataset reader.

Each error class carries the process exit code used by the command-line
driver, so stage wrappers can map failures to machine-readable categories.
``read_csv`` reads every dataset file (Q grid, SPR points, kinetics, XPS
spectrum): a missing header column, a bad cell or a rejected row is a
DatasetError (exit 3) that names the file.
"""

import csv
import io
import math
from pathlib import Path


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


class ConvergenceError(QlbError):
    """Iterative procedure failed to converge within its iteration cap."""

    exit_code = 4

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateSystemError(QlbError, ValueError):
    """The algebraic system cannot be solved (zero denominator or pivot)."""

    exit_code = 2


class CalibrationError(DatasetError):
    """Reference peak for energy calibration could not be located."""


class InconsistentInputsWarning(UserWarning):
    """A subtraction produced a negative central value.

    Not fatal: uncertainties can legitimately straddle zero, so the value
    is returned with this warning instead of raising.
    """


def _records(reader, path):
    """The rows of a csv.reader; a row it cannot split (an over-long field,
    say) is a DatasetError naming file and line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DatasetError(f"{path}, line {reader.line_num}: {exc}") from None


def read_csv(path, columns: tuple[str, ...], make, text: tuple[str, ...] = ()) -> list:
    """``make(*cells)`` for each data row of a headed CSV, in file order.

    The header names each of ``columns``, in any order; ``make`` gets their
    cells in that order, each a finite float unless its column is in ``text``.
    Rows whose cells of ``columns`` are all blank are skipped.  A file that
    is not UTF-8 text (a leading BOM is dropped), a missing or repeated column,
    a bad cell (file, line and column) or a row that ``make`` rejects or cannot
    convert (InvalidInputError, ArithmeticError) raises DatasetError.
    """
    def number(cell: str) -> float:
        try:
            value = float(cell)
        except ValueError:
            raise ValueError(f"non-numeric value {cell!r}" if cell.strip()
                             else "missing value") from None
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {cell!r}")
        return value

    try:  # a BOM before the header is not part of its first name
        content = Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object[:exc.start].count(b"\n") + 1
        raise DatasetError(f"{path}, line {line}: not UTF-8 text ({exc.reason})") from None
    reader = csv.reader(io.StringIO(content, newline=""))
    records = _records(reader, path)
    names = next(records, [])
    header = {name: i for i, name in enumerate(names)}
    missing = sorted(set(columns) - set(header))
    if missing:
        raise DatasetError(f"{path}: missing column(s) {missing}")
    repeated = sorted(c for c in columns if names.count(c) > 1)
    if repeated:
        raise DatasetError(f"{path}: repeated column(s) {repeated}")
    spec = [(header[c], str if c in text else number) for c in columns]
    rows = []
    for row in records:
        try:
            values = [parse(row[i]) for i, parse in spec]
        except (IndexError, ValueError):  # a short, blank or bad row: find which
            cells = [row[i] if i < len(row) else "" for i, _ in spec]
            if not any(cell.strip() for cell in cells):
                continue
            values = []
            for column, cell, (_, parse) in zip(columns, cells, spec):
                try:
                    values.append(parse(cell))
                except ValueError as exc:
                    raise DatasetError(f"{path}, line {reader.line_num}, "
                                       f"column {column!r}: {exc}") from None
        try:
            rows.append(make(*values))
        except (InvalidInputError, ArithmeticError) as exc:
            raise DatasetError(f"{path}, line {reader.line_num}: {exc}") from exc
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    return rows
