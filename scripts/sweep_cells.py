"""Compare two qlb source trees on every single-cell change of the bundled CSVs.

    python scripts/sweep_cells.py PARENT CHANGE

Cases: every data cell of the four bundled CSVs (PARENT's ``src/qlb/data``) set to each
value of ``PALETTE`` in ``tests/test_csv_errors.py``, plus every swap of two adjacent
data rows.  Each tree runs ``qlb report`` on each case in one child process
(``ab.run_cases``).  Prints the cases whose exit code, stderr or report differ, at most
5 leaves each, and each tree's exit-code histogram (``ab.compare``).  Exits 1 on any
difference.
"""

import csv
import io
import sys
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

AB = module_from_spec(spec_from_file_location("ab", Path(__file__).with_name("ab.py")))
AB.__spec__.loader.exec_module(AB)  # the A/B machinery, loaded off sys.path
NAMES = ("tls_points.csv", "spr_points.csv", "xps_al2p.csv", "kinetics_native_oxide.csv")
CHILD = AB.child_command("sweep_cells")


def cases(data: Path):
    """(name, file name, rows with the header first) of every case on the CSVs in ``data``."""
    palette = AB.load(AB.HERE.parent / "tests" / "test_csv_errors.py").PALETTE
    for name in NAMES:
        header, *rows = csv.reader(io.StringIO((data / name).read_text(), newline=""))
        for i, row in enumerate(rows):
            for j, column in enumerate(header):
                for value in palette:
                    changed = row[:j] + [value] + row[j + 1:]
                    yield (f"{name} row {i} {column}={value}", name,
                           [header, *rows[:i], changed, *rows[i + 1:]])
        for i in range(len(rows) - 1):
            yield (f"{name} rows {i}, {i + 1} swapped", name,
                   [header, *rows[:i], rows[i + 1], rows[i], *rows[i + 2:]])


def child(data: str, out: str) -> None:
    """``ab.run_cases`` on every case, the CSV it changes written out."""
    def text(rows):
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        return buffer.getvalue()
    AB.run_cases(data, out, ((case, name, text(rows)) for case, name, rows in cases(Path(data))))


def main(parent: str, change: str) -> int:
    trees = (Path(parent).resolve(), Path(change).resolve())
    with AB.children(CHILD, trees, trees[0] / "src" / "qlb" / "data") as outs:
        return AB.compare(trees, outs)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]) if len(sys.argv) == 3 else __doc__)
