"""Golden errors of the dataset readers: one cell of a bundled CSV set to each value of
a palette, in the first two, a middle and the last data row, in every column, plus one
swap of adjacent rows per file (for the ascending rules).  Each case reads its file
through its stage's reader and records the error's class and message, the temporary
directory left out, or None where the file reads.

Regenerate the golden after a deliberate change with ``python tests/test_csv_errors.py``.
"""

import csv
import io
import json
from pathlib import Path

from qlb import pipeline, xps
from qlb.errors import QlbError

DATA = pipeline.paper_defaults_path().parent
GOLDEN = Path(__file__).with_name("csv_errors_golden.json")
READERS = {"tls_points.csv": pipeline.read_q_grid,
           "spr_points.csv": pipeline.read_spr_points,
           "kinetics_native_oxide.csv": pipeline.read_kinetics,
           "xps_al2p.csv": xps.load_spectrum}
PALETTE = ("0", "-1", "1e300", "1e-300", "1e-320", "nan", "abc", "")


def cases():
    """(name, file name, rows with the header first) of every case."""
    for name in READERS:
        header, *rows = csv.reader(io.StringIO((DATA / name).read_text(), newline=""))
        n = len(rows)
        for i in (0, 1, n // 2, n - 1):
            for j, column in enumerate(header):
                for value in PALETTE:
                    changed = [list(row) for row in rows]
                    changed[i][j] = value
                    yield f"{name} row {i} {column}={value}", name, [header, *changed]
        swapped = list(rows)
        swapped[n // 2], swapped[n // 2 + 1] = rows[n // 2 + 1], rows[n // 2]
        yield f"{name} rows {n // 2}, {n // 2 + 1} swapped", name, [header, *swapped]


def outcomes(directory: Path) -> dict:
    out = {}
    for case, name, rows in cases():
        path = directory / name
        with path.open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        try:
            READERS[name](path)
            out[case] = None
        except QlbError as exc:
            out[case] = [type(exc).__name__, str(exc).replace(f"{directory}/", "")]
    return out


def test_reader_errors_match_the_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = outcomes(tmp_path)
    assert list(got) == list(golden)
    assert {case: got[case] for case in got if got[case] != golden[case]} == {}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        found = outcomes(Path(tmp))
    text = ",\n".join(f"{json.dumps(case)}: {json.dumps(got)}" for case, got in found.items())
    GOLDEN.write_text("{\n" + text + "\n}\n")
    print(f"wrote {GOLDEN} ({len(text) + 5} bytes)")
