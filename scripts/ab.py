"""The machinery of the scripts that run one qlb source tree against another: each
tree's child process and its JSON-lines output (``children``), the in-process runner of
a sweep's cases (``run_cases``), and the printers of the leaves where two trees' runs
differ (``show``, ``compare``).  The scripts load it by file path, off ``sys.path``.
"""

import contextlib
import importlib.util
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIG = "paper_defaults.yaml"
MISSING = "<missing>"


def load(path: Path):
    """The module at ``path``, imported without touching ``sys.path`` or ``sys.modules``."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def env(tree: Path) -> dict:
    """The environment of a child process that imports ``tree``'s qlb."""
    return {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def child_command(script: str) -> str:
    """``python -c`` code that imports ``script`` from the directory ``sys.argv[1]`` and
    calls its ``child(*sys.argv[2:])``."""
    return (f"import sys; sys.path.insert(0, sys.argv[1]); import {script}; "
            f"{script}.child(*sys.argv[2:])")


@contextlib.contextmanager
def children(command: str, trees, *args):
    """Run a script's ``child(*args, out)`` (``command``, as ``child_command`` writes it)
    in one child process per tree, all at once, and yield the files ``out`` they wrote,
    in tree order (deleted on exit)."""
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / f"tree{k}.jsonl" for k in range(len(trees))]
        procs = [subprocess.Popen([sys.executable, "-c", command, str(HERE),
                                   *map(str, args), str(out)], env=env(tree))
                 for tree, out in zip(trees, outs)]
        if any([proc.wait() for proc in procs]):
            sys.exit("a child process failed")
        yield outs


def run_cases(data: str, out: str, cases) -> None:
    """Per case (name, file name, text), write ``text`` to that file of a copy of
    ``data``, run ``qlb.cli.main`` on the copy's bundled config in this process (an
    escaping exception is exit 1), restore the file, and write to ``out`` a JSON line:
    case, exit code, stderr, report.json less ``provenance.timestamp`` (or None), with
    the temporary directory masked as ``<tmp>``."""
    from qlb import cli

    warnings.simplefilter("always")  # every case prints its own warnings
    with tempfile.TemporaryDirectory() as tmp, open(out, "w") as sink:
        work = Path(tmp) / "data"
        shutil.copytree(data, work)
        argv = ["--config", str(work / CONFIG), "--out", f"{tmp}/out", "report"]
        report = Path(tmp) / "out" / "report.json"
        for case, name, text in cases:
            (work / name).write_text(text)
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


def leaves(node, path="") -> dict:
    """{path: leaf} of nested dicts and lists."""
    if not isinstance(node, (dict, list)):
        return {path: node}
    if isinstance(node, dict):
        items = ((f"{path}.{key}" if path else str(key), sub) for key, sub in node.items())
    else:
        items = ((f"{path}[{i}]", sub) for i, sub in enumerate(node))
    return {leaf: value for at, sub in items for leaf, value in leaves(sub, at).items()}


def leaf_diffs(a, b) -> dict:
    """{path: relative difference} of the leaves where ``a`` and ``b`` differ;
    inf where a leaf is missing on one side or is not a number."""
    la, lb = leaves(a), leaves(b)
    diffs = {}
    for path in la.keys() | lb.keys():
        x, y = la.get(path, MISSING), lb.get(path, MISSING)
        if repr(x) != repr(y):
            try:
                diffs[path] = abs(float(x) - float(y)) / max(abs(float(x)), abs(float(y)))
            except (TypeError, ValueError, ZeroDivisionError):
                diffs[path] = math.inf
    return dict(sorted(diffs.items(), key=lambda kv: (-kv[1], kv[0])))


def show(case: str, a, b, most: int) -> bool:
    """Print the leaves where ``a`` and ``b`` differ, largest relative difference first
    (at most ``most``), each with both values; returns whether any differ."""
    diffs = leaf_diffs(a, b)
    before, after = (leaves(run) if diffs else {} for run in (a, b))
    for path, rel in list(diffs.items())[:most]:
        print(f"{case}: {path}: {rel:.3g}: {before.get(path, MISSING)!r} -> "
              f"{after.get(path, MISSING)!r}")
    if len(diffs) > most:
        print(f"{case}: and {len(diffs) - most} more leaves")
    return bool(diffs)


def compare(trees, outs, listed=None, label="") -> int:
    """Print, case by case of the JSON-lines files ``outs`` (one per tree), at most 5
    differing leaves; then each tree's exit-code histogram and the last stderr line of
    each run that ``listed`` picks (``label`` names them); 1 where any case differs."""
    histograms, picked, differing = [Counter() for _ in trees], [[] for _ in trees], 0
    with contextlib.ExitStack() as stack:
        lines = [map(json.loads, stack.enter_context(open(out))) for out in outs]
        for runs in zip(*lines):
            differing += show(runs[0]["case"], *runs, 5)
            for histogram, chosen, run in zip(histograms, picked, runs):
                histogram[run["exit"]] += 1
                if listed and listed(run):
                    chosen.append(f"  {run['case']}: "
                                  + (run["stderr"].strip().splitlines() or [""])[-1])
    for tree, histogram, chosen in zip(trees, histograms, picked):
        print(f"{tree}: {sum(histogram.values())} cases, exit codes "
              + ", ".join(f"{code}: {n}" for code, n in sorted(histogram.items()))
              + (f"; {len(chosen)} {label}" if listed else ""))
        print("".join(f"{line}\n" for line in chosen), end="")
    print(f"{differing} cases differ")
    return int(differing > 0)
