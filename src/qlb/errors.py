"""Exception hierarchy shared by all analysis stages, and the dataset reader.

Each error class carries the process exit code used by the command-line
driver, so stage wrappers can map failures to machine-readable categories.
``read_csv`` reads every dataset file (Q grid, SPR points, kinetics, XPS
spectrum): a missing header column, a bad cell or a rejected row is a
DatasetError (exit 3) that names the file.
"""

import csv
import io
import itertools
import math
from operator import itemgetter
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


def read_csv(path, columns: tuple[str, ...], make, text: tuple[str, ...] = ()) -> list:
    """``make(*cells)`` for each data row of a headed CSV, in file order.

    The header names each of ``columns``, in any order; ``make`` gets their
    cells in that order, each a finite float unless its column is in ``text``.
    Rows whose cells of ``columns`` are all blank are skipped.  A file that
    is not UTF-8 text (a leading BOM is dropped), a missing or repeated column,
    a row the CSV reader cannot split (an over-long field, say), a bad cell
    (file, line and column) or a row that ``make`` rejects or cannot convert
    (InvalidInputError, ArithmeticError) raises DatasetError.  The cells are
    converted a column at a time, and a row checked finite by its sum; a row that
    fails that, or where a cell does not convert (found by halving the rows), is
    taken cell by cell for its message.
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

    def converted(rows: list) -> list:
        """Per row, its cells of ``columns`` converted, or None to take it cell by cell."""
        try:
            cells = [list(map(itemgetter(i), rows)) for i, _ in spec]
            cells = [col if parse is str else list(map(float, col))
                     for col, (_, parse) in zip(cells, spec)]
        except (IndexError, ValueError):  # a short, blank or bad row: halve to find it
            half = len(rows) // 2
            return converted(rows[:half]) + converted(rows[half:]) if half else [None]
        numeric = [col for col, (_, parse) in zip(cells, spec) if parse is not str]
        # a sum is finite if every term is; one that overflows only costs the slow path
        finite = (map(math.isfinite, map(sum, zip(*numeric))) if numeric
                  else itertools.repeat(True))
        return [values if ok else None for values, ok in zip(zip(*cells), finite)]

    def line(i: int) -> int:
        """The line on which data row ``i`` ends (a quoted field may span lines)."""
        again = csv.reader(io.StringIO(content, newline=""))
        for _ in itertools.islice(again, i + 2):  # the header, then rows 0 to i
            pass
        return again.line_num

    try:  # a BOM before the header is not part of its first name
        content = Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        at = exc.object[:exc.start].count(b"\n") + 1
        raise DatasetError(f"{path}, line {at}: not UTF-8 text ({exc.reason})") from None
    reader = csv.reader(io.StringIO(content, newline=""))
    try:
        names = next(reader, [])
    except csv.Error as exc:
        raise DatasetError(f"{path}, line {reader.line_num}: {exc}") from None
    header = {name: i for i, name in enumerate(names)}
    missing = sorted(set(columns) - set(header))
    if missing:
        raise DatasetError(f"{path}: missing column(s) {missing}")
    repeated = sorted(c for c in columns if names.count(c) > 1)
    if repeated:
        raise DatasetError(f"{path}: repeated column(s) {repeated}")
    spec = [(header[c], str if c in text else number) for c in columns]
    rows, unsplit = [], None
    try:
        rows.extend(reader)  # keeps the rows before a failure
    except csv.Error as exc:  # raised after the rows before it
        unsplit = DatasetError(f"{path}, line {reader.line_num}: {exc}")
    out = []
    for i, (row, values) in enumerate(zip(rows, converted(rows))):
        if values is None:
            cells = [row[j] if j < len(row) else "" for j, _ in spec]
            if not any(cell.strip() for cell in cells):
                continue
            values = []
            for column, cell, (_, parse) in zip(columns, cells, spec):
                try:
                    values.append(parse(cell))
                except ValueError as exc:
                    raise DatasetError(f"{path}, line {line(i)}, "
                                       f"column {column!r}: {exc}") from None
        try:
            out.append(make(*values))
        except (InvalidInputError, ArithmeticError) as exc:
            raise DatasetError(f"{path}, line {line(i)}: {exc}") from exc
    if unsplit is not None:
        raise unsplit from None
    if not out:
        raise DatasetError(f"{path}: no data rows")
    return out
