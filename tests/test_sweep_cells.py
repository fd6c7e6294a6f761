import importlib.util
import sys
from pathlib import Path

import pytest

from qlb import pipeline

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "sweep_cells.py"


@pytest.fixture(scope="module")
def sweep_cells():
    path_before = list(sys.path)
    spec = importlib.util.spec_from_file_location("sweep_cells", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert sys.path == path_before  # importing runs nothing
    return module


def test_every_cell_and_adjacent_swap_is_a_case(sweep_cells):
    names = [case for case, _, _ in sweep_cells.cases(pipeline.paper_defaults_path().parent)]
    # 954 cells x 8 palette values, and 378 swaps: (65, 24, 281, 12) data rows of
    # (4, 4, 2, 3) columns in the TLS, SPR, XPS and kinetics files
    assert len(names) == len(set(names)) == 954 * 8 + 378


def test_a_case_changes_one_cell_or_swaps_two_rows(sweep_cells):
    data = pipeline.paper_defaults_path().parent
    bundled = {name: (data / name).read_text().splitlines() for name in sweep_cells.NAMES}
    for case, name, rows in sweep_cells.cases(data):
        lines = [",".join(row) for row in rows]
        changed = [i for i, (a, b) in enumerate(zip(lines, bundled[name])) if a != b]
        assert len(lines) == len(bundled[name])
        assert len(changed) <= 2 and (len(changed) < 2 or "swapped" in case), case
