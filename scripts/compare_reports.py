"""Compare the reports of two qlb source trees.

    python scripts/compare_reports.py PARENT CHANGE

Runs ``python -m qlb.cli --format plot-csv report`` with each tree's ``src`` on
the bundled config (PARENT's) and 8 seeded ``benchmarks/gen.write_dataset``
configs.  Per config, prints "identical" or the leaves of exit code, stderr,
report.json (less ``provenance.timestamp``) and plot CSVs that differ, largest
relative difference first, with both values (at most 10, ``ab.show``).  Exits 1 on
any difference.
"""

import csv
import json
import shutil
import subprocess
import sys
import tempfile
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np

AB = module_from_spec(spec_from_file_location("ab", Path(__file__).with_name("ab.py")))
AB.__spec__.loader.exec_module(AB)  # the A/B machinery, loaded off sys.path
leaves, leaf_diffs = AB.leaves, AB.leaf_diffs


def run(tree: Path, config: Path, out: Path) -> dict:
    argv = ["--config", config, "--out", out, "--format", "plot-csv", "report"]
    proc = subprocess.run([sys.executable, "-m", "qlb.cli", *map(str, argv)], env=AB.env(tree),
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
    gen = AB.load(AB.HERE.parent / "benchmarks" / "gen.py")
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
            runs = [run(tree, config, tmp / f"out{k}" / name) for k, tree in enumerate(trees)]
            if AB.show(name, *runs, 10):
                differs = True
            else:
                print(f"{name}: identical")
    return int(differs)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]) if len(sys.argv) == 3 else __doc__)
