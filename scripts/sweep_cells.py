"""Compare two qlb source trees on every single-cell change of the bundled CSVs.

    python scripts/sweep_cells.py PARENT CHANGE

Cases: every data cell of the four bundled CSVs (PARENT's ``src/qlb/data``) set to each
value of ``PALETTE`` in ``tests/test_csv_errors.py``, plus every swap of two adjacent
data rows.  One child process per tree, with that tree's ``src`` on its path, runs
``qlb.cli.main([... "report"])`` in-process on the bundled config for each case and
records the exit code, stderr (temporary directory masked) and report.json less
``provenance.timestamp``; an exception that escapes ``main`` is exit 1.  Prints each
tree's exit-code histogram and the cases that differ, with their differing leaves as
``compare_reports.leaf_diffs`` ranks them (at most 5 per case).  Exits 1 on any
difference.
"""

import contextlib
import csv
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAMES = ("tls_points.csv", "spr_points.csv", "xps_al2p.csv", "kinetics_native_oxide.csv")
CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import sweep_cells; " \
        "sweep_cells.child(*sys.argv[2:])"


def load(path: Path):
    """The module at ``path``, imported without touching ``sys.path`` or ``sys.modules``."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cases(data: Path):
    """(name, file name, rows with the header first) of every case on the CSVs in ``data``."""
    palette = load(HERE.parent / "tests" / "test_csv_errors.py").PALETTE
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
    """Run every case through ``qlb.cli.main`` in this process, one JSON line each to
    ``out``: case, exit code, stderr and report (None where none is written)."""
    from qlb import cli

    warnings.simplefilter("always")  # every case prints its own warnings
    with tempfile.TemporaryDirectory() as tmp, open(out, "w") as sink:
        work = Path(tmp) / "data"
        shutil.copytree(data, work)
        argv = ["--config", str(work / "paper_defaults.yaml"), "--out", f"{tmp}/out", "report"]
        report = Path(tmp) / "out" / "report.json"
        for case, name, rows in cases(Path(data)):
            with (work / name).open("w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows)
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = cli.main(argv)
                except Exception as exc:  # a process would print a traceback and exit 1
                    code = 1
                    print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
            run = {"case": case, "exit": code, "stderr": stderr.getvalue(), "report": None}
            if report.is_file():
                run["report"] = json.loads(report.read_text())
                run["report"]["provenance"].pop("timestamp")
                report.unlink()
            sink.write(json.dumps(run).replace(tmp, "<tmp>") + "\n")
            shutil.copy(Path(data) / name, work / name)


def main(parent: str, change: str) -> int:
    compare = load(HERE / "compare_reports.py")
    trees = (Path(parent).resolve(), Path(change).resolve())
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / f"tree{k}.jsonl" for k in range(2)]
        children = [subprocess.Popen(
            [sys.executable, "-c", CHILD, str(HERE), str(trees[0] / "src" / "qlb" / "data"),
             str(out)],
            env={**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"})
            for tree, out in zip(trees, outs)]
        if any([c.wait() for c in children]):
            sys.exit("a child process failed")
        histograms, differing = (Counter(), Counter()), 0
        with outs[0].open() as a, outs[1].open() as b:
            for runs in zip(map(json.loads, a), map(json.loads, b)):
                for histogram, run in zip(histograms, runs):
                    histogram[run["exit"]] += 1
                diffs = compare.leaf_diffs(*runs)
                differing += bool(diffs)
                before, after = (compare.leaves(run) if diffs else {} for run in runs)
                for path, rel in list(diffs.items())[:5]:
                    print(f"{runs[0]['case']}: {path}: {rel:.3g}: "
                          f"{before.get(path, '<missing>')!r} -> "
                          f"{after.get(path, '<missing>')!r}")
    for tree, histogram in zip(trees, histograms):
        print(f"{tree}: {sum(histogram.values())} cases, exit codes "
              + ", ".join(f"{code}: {n}" for code, n in sorted(histogram.items())))
    print(f"{differing} cases differ")
    return int(differing > 0)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
