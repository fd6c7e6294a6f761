"""Compare the reports of two qlb source trees.

    python scripts/compare_reports.py PARENT CHANGE

Runs ``python -m qlb.cli --format plot-csv report`` with each tree's ``src`` on
the bundled config (PARENT's) and 8 seeded ``benchmarks/gen.write_dataset``
configs.  Per config, prints "identical" or the leaves of exit code, stderr,
report.json (less ``provenance.timestamp``) and plot CSVs that differ, largest
relative difference first (at most 10).  Exits 1 on any difference.
"""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

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
        x, y = la.get(path, "<missing>"), lb.get(path, "<missing>")
        if repr(x) != repr(y):
            try:
                diffs[path] = abs(float(x) - float(y)) / max(abs(float(x)), abs(float(y)))
            except (TypeError, ValueError, ZeroDivisionError):
                diffs[path] = math.inf
    return dict(sorted(diffs.items(), key=lambda kv: (-kv[1], kv[0])))


def run(tree: Path, config: Path, out: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = ["--config", config, "--out", out, "--format", "plot-csv", "report"]
    proc = subprocess.run([sys.executable, "-m", "qlb.cli", *map(str, argv)], env=env,
                          cwd=config.parent, capture_output=True, text=True)
    tables = {p.name: list(csv.reader(p.read_text().splitlines()))
              for p in out.glob("*.csv")}
    result = {"exit": proc.returncode, "stderr": proc.stderr, "tables": tables}
    if (out / "report.json").is_file():
        result["report"] = json.loads((out / "report.json").read_text())
        result["report"]["provenance"].pop("timestamp")
    return result


def main(parent: str, change: str) -> int:
    sys.dont_write_bytecode = True  # gen is imported read-only
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
    import gen
    trees = (Path(parent).resolve(), Path(change).resolve())
    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copytree(trees[0] / "src" / "qlb" / "data", tmp / "bundled")
        configs = {"bundled": tmp / "bundled" / "paper_defaults.yaml"}
        rng = np.random.default_rng(2026)
        for i in range(8):
            gen.write_dataset(rng, tmp / f"gen{i}", 4 + i % 2, 9 + 2 * i,
                              (0.02, 0.05, 0.1)[i % 3], qp_row=i % 3 == 0)
            configs[f"gen{i}"] = tmp / f"gen{i}" / "config.yaml"
        for name, config in configs.items():
            diffs = leaf_diffs(*(run(tree, config, tmp / f"out{k}" / name)
                                 for k, tree in enumerate(trees)))
            differs |= bool(diffs)
            shown = [f"{name}: {path}: {rel:.3g}" for path, rel in list(diffs.items())[:10]]
            if len(diffs) > 10:
                shown.append(f"{name}: and {len(diffs) - 10} more leaves")
            print("\n".join(shown) or f"{name}: identical")
    return int(differs)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
