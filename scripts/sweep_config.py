"""Compare two qlb source trees on every single-node change of the bundled config.

    python scripts/sweep_config.py PARENT CHANGE

Cases, on PARENT's bundled config (``src/qlb/data/paper_defaults.yaml``): every numeric
leaf set to each of ``NUMBERS``, and every node (leaf, list or mapping) dropped and set
to each value of ``PALETTE``.  One child process per tree, with that tree's ``src`` on
its path, runs ``qlb.cli.main([... "report"])`` in-process on each case's config, written
beside a copy of the bundled data, and records the exit code and stderr (temporary
directory masked); an exception that escapes ``main`` is exit 1.  Prints each tree's
exit-code histogram and its exit-2 cases whose error names no config key (any error but
a ConfigurationError, which names one), then the cases whose exit code or stderr differs
between the trees.  Exits 1 when an exit code differs.
"""

import contextlib
import copy
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
from functools import reduce
from operator import getitem
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
CONFIG = "paper_defaults.yaml"
NUMBERS = (0, -1, 1e-300, 1e300)
PALETTE = (None, "x", [], {}, True, math.nan, math.inf)
DROP = "<drop>"
KEYED = "error [ConfigurationError]: "
CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import sweep_config; " \
        "sweep_config.child(*sys.argv[2:])"


def node_paths(node, prefix=()):
    """Every key path of a YAML tree, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from node_paths(child, prefix + (key,))


def dotted(path) -> str:
    """The config key of ``path``, as qlb's errors name it."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


def cases(config: Path):
    """(name, key path, config tree) of every case on the YAML config at ``config``."""
    bundled = yaml.safe_load(config.read_text())
    for path in node_paths(bundled):
        node = reduce(getitem, path, bundled)
        number = isinstance(node, (int, float)) and not isinstance(node, bool)
        for value in (NUMBERS if number else ()) + (DROP, *PALETTE):
            tree = copy.deepcopy(bundled)
            parent = reduce(getitem, path[:-1], tree)
            if value is DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
            yield (f"{dotted(path)}={DROP if value is DROP else json.dumps(value)}", path,
                   tree)


def child(data: str, out: str) -> None:
    """Run every case through ``qlb.cli.main`` in this process, one JSON line each to
    ``out``: case, exit code and stderr."""
    from qlb import cli

    warnings.simplefilter("always")  # every case prints its own warnings
    with tempfile.TemporaryDirectory() as tmp, open(out, "w") as sink:
        work = Path(tmp) / "data"
        shutil.copytree(data, work)
        argv = ["--config", str(work / CONFIG), "--out", f"{tmp}/out", "report"]
        for case, _, tree in cases(Path(data) / CONFIG):
            (work / CONFIG).write_text(yaml.safe_dump(tree))
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = cli.main(argv)
                except Exception as exc:  # a process would print a traceback and exit 1
                    code = 1
                    print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
            run = {"case": case, "exit": code, "stderr": stderr.getvalue()}
            sink.write(json.dumps(run).replace(tmp, "<tmp>") + "\n")


def last_line(stderr: str) -> str:
    return (stderr.strip().splitlines() or [""])[-1]


def main(parent: str, change: str) -> int:
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
        runs = [list(map(json.loads, out.read_text().splitlines())) for out in outs]
    for tree, tree_runs in zip(trees, runs):
        histogram = Counter(run["exit"] for run in tree_runs)
        unkeyed = [run for run in tree_runs if run["exit"] == 2 and KEYED not in run["stderr"]]
        print(f"{tree}: {len(tree_runs)} cases, exit codes "
              + ", ".join(f"{code}: {n}" for code, n in sorted(histogram.items()))
              + f"; {len(unkeyed)} exit-2 cases name no key")
        for run in unkeyed:
            print(f"  {run['case']}: {last_line(run['stderr'])}")
    differing = exits = 0
    for before, after in zip(*runs):
        if (before["exit"], before["stderr"]) != (after["exit"], after["stderr"]):
            differing += 1
            exits += before["exit"] != after["exit"]
            print(f"{before['case']}: exit {before['exit']} -> {after['exit']}: "
                  f"{last_line(before['stderr'])!r} -> {last_line(after['stderr'])!r}")
    print(f"{differing} cases differ, {exits} in exit code")
    return int(exits > 0)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
