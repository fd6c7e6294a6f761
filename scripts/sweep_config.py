"""Compare two qlb source trees on every single-node change of the bundled config.

    python scripts/sweep_config.py PARENT CHANGE

Cases, on PARENT's bundled config (``src/qlb/data/paper_defaults.yaml``): every numeric
leaf set to each of ``NUMBERS``, and every node (leaf, list or mapping) dropped and set
to each value of ``PALETTE``.  Each tree runs ``qlb report`` on each case's config,
beside a copy of the bundled data, in one child process (``ab.run_cases``).  Prints the
cases whose exit code, stderr or report differ, at most 5 leaves each, and each tree's
exit-code histogram and exit-2 cases whose error names no config key (any error but a
ConfigurationError, which names one).  Exits 1 on any difference.
"""

import copy
import json
import math
import sys
from functools import reduce
from importlib.util import module_from_spec, spec_from_file_location
from operator import getitem
from pathlib import Path

import yaml

AB = module_from_spec(spec_from_file_location("ab", Path(__file__).with_name("ab.py")))
AB.__spec__.loader.exec_module(AB)  # the A/B machinery, loaded off sys.path
NUMBERS = (0, -1, 1e-300, 1e300)
PALETTE = (None, "x", [], {}, True, math.nan, math.inf)
DROP = "<drop>"
KEYED = "error [ConfigurationError]: "
CHILD = AB.child_command("sweep_config")


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
    """``ab.run_cases`` on every case, its config written out."""
    AB.run_cases(data, out, ((case, AB.CONFIG, yaml.safe_dump(tree))
                             for case, _, tree in cases(Path(data) / AB.CONFIG)))


def compare(trees, outs) -> int:
    """``ab.compare``, listing each tree's exit-2 cases whose error names no key."""
    return AB.compare(trees, outs, lambda run: run["exit"] == 2 and KEYED not in run["stderr"],
                      "exit-2 cases name no key")


def main(parent: str, change: str) -> int:
    trees = (Path(parent).resolve(), Path(change).resolve())
    with AB.children(CHILD, trees, trees[0] / "src" / "qlb" / "data") as outs:
        return compare(trees, outs)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]) if len(sys.argv) == 3 else __doc__)
