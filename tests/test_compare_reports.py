import importlib.util
import math
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"


@pytest.fixture(scope="module")
def compare_reports():
    path_before = list(sys.path)
    spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert sys.path == path_before  # importing runs nothing
    return module


def test_identical_trees_have_no_leaf_diffs(compare_reports):
    run = {"exit": 0, "stderr": "", "report": {"stages": {"a": [1.5, "x", None]}},
           "tables": {"t.csv": [["k", "v"], ["a", "0.25"]]}}
    assert compare_reports.leaf_diffs(run, run) == {}


def test_leaf_diffs_rank_by_relative_difference(compare_reports):
    a = {"exit": 0, "report": {"x": 2.0, "y": [1.0, 1e-9], "s": "a", "n": None},
         "tables": {"t.csv": [["k", "1.00"]]}}
    b = {"exit": 3, "report": {"x": 2.0, "y": [1.1, 1e-9 * (1 + 1e-12)], "s": "b"},
         "tables": {"t.csv": [["k", "1.0"]]}, "extra": 0}
    diffs = compare_reports.leaf_diffs(a, b)
    assert list(diffs) == ["extra", "report.n", "report.s", "exit", "report.y[0]",
                           "report.y[1]", "tables.t.csv[0][1]"]
    assert diffs["exit"] == 1.0 and diffs["report.y[0]"] == pytest.approx(0.1 / 1.1)
    assert diffs["report.y[1]"] == pytest.approx(1e-12, rel=1e-3)
    assert all(math.isinf(diffs[k]) for k in ("extra", "report.n", "report.s"))
    assert diffs["tables.t.csv[0][1]"] == 0.0  # same number, other spelling
