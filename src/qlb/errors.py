"""Exception hierarchy shared by all analysis stages, and the dataset reader.

Each error class carries the process exit code used by the command-line
driver, so stage wrappers can map failures to machine-readable categories.
``read_csv`` reads every dataset file (Q grid, SPR points, kinetics, XPS spectrum)
as whole columns into one call of the dataset's ``make``, whose row rules ``check_rows``
applies to all rows at once: a missing header column, a bad cell or a rejected row is a
DatasetError (exit 3) that names the file, and the line of a rejected row.
"""

import csv
import io
import math
from operator import itemgetter
from pathlib import Path

import numpy as np


class QlbError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class InvalidInputError(QlbError, ValueError):
    """Non-finite, out-of-range, or otherwise malformed numeric input (of data row ``row``)."""

    exit_code = 2

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


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


def float_columns(record, names: tuple[str, ...]) -> list:
    """The fields ``names`` of the frozen dataclass ``record`` as float arrays, each set
    back on it; an InvalidInputError unless they are 1-d and of one length."""
    arrays = [np.asarray(getattr(record, name), dtype=float) for name in names]
    if arrays[0].ndim != 1 or any(a.shape != arrays[0].shape for a in arrays):
        raise InvalidInputError(f"{', '.join(names)} must be equal-length 1-d arrays")
    for name, array in zip(names, arrays):
        object.__setattr__(record, name, array)
    return arrays


def check_rows(*rules) -> None:
    """Raise InvalidInputError with ``row`` i for the first row i that breaks one of
    ``rules``, (ok, message) pairs of a boolean array over the rows, False where a row
    breaks the rule, and a function of i giving the text (that of i's first broken rule)."""
    broken = np.flatnonzero(~np.logical_and.reduce([ok for ok, _ in rules]))
    if broken.size:
        i = int(broken[0])
        raise InvalidInputError(next(message(i) for ok, message in rules if not ok[i]), row=i)


def read_csv(path, columns: tuple[str, ...], make, text: tuple[str, ...] = ()):
    """``make(*cells)``, called once with the data rows of a headed CSV as columns: those
    of ``columns`` (named by the header in any order), each in file order, a float array or,
    for a column in ``text``, a list of strings; rows blank in all of them are dropped.

    A file that is not UTF-8 (a leading BOM is dropped), a missing or repeated column, a row
    the CSV reader cannot split or a cell that is not a finite number (file, line, column)
    raises DatasetError, as does an error of ``make``: an InvalidInputError with ``row`` i
    names the line on which row i ends, any other InvalidInputError or DatasetError the
    file.  Where a row cannot be split or a cell converted, ``make`` first gets the rows
    before it, and only a row it rejects is raised: the error named is the first in file
    order.
    """
    def number(cell: str, column: str, line: int) -> float:
        try:
            if math.isfinite(value := float(cell)):
                return value
            problem = f"non-finite value {cell!r}"
        except ValueError:
            problem = f"non-numeric value {cell!r}" if cell.strip() else "missing value"
        raise DatasetError(f"{path}, line {line}, column {column!r}: {problem}")

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
    spec, numeric = [header[c] for c in columns], [c not in text for c in columns]
    rows, lines, failure = [], [], None
    try:
        for row in reader:
            rows.append(row)
            lines.append(reader.line_num)  # where the row ends: a field may span lines
    except csv.Error as exc:  # raised after the rows before it are made
        failure = DatasetError(f"{path}, line {reader.line_num}: {exc}")
    try:  # a column at a time, where every row is full and every cell a finite number
        cells = [list(map(itemgetter(j), rows)) for j in spec]
        cells = [np.array(list(map(float, col))) if is_number else col
                 for col, is_number in zip(cells, numeric)]
        if not all(np.isfinite(col).all() for col, is_number in zip(cells, numeric) if is_number):
            raise ValueError
    except (IndexError, ValueError):  # a short, blank or bad row: row by row
        kept = []  # (line, cells) of the rows before the first bad cell, blank ones dropped
        try:
            for row, line in zip(rows, lines):
                values = [row[j] if j < len(row) else "" for j in spec]
                if any(cell.strip() for cell in values):
                    kept.append((line, [number(cell, c, line) if is_number else cell
                                        for c, cell, is_number in zip(columns, values, numeric)]))
        except DatasetError as exc:  # a bad cell comes before a row that cannot be split
            failure = exc
        lines = [line for line, _ in kept]
        cells = [np.array(col) if is_number else list(col)
                 for col, is_number in zip(zip(*(values for _, values in kept)), numeric)]
    if not (lines or failure):
        raise DatasetError(f"{path}: no data rows")
    try:
        out = make(*cells) if lines else None
    except (InvalidInputError, DatasetError) as exc:
        if getattr(exc, "row", None) is not None:
            raise DatasetError(f"{path}, line {lines[exc.row]}: {exc}") from exc
        failure = failure or DatasetError(f"{path}: {exc}")
    if failure:
        raise failure from None
    return out
