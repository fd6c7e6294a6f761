import importlib.util
import json
import sys
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
import yaml

from qlb import pipeline

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "sweep_config.py"


@pytest.fixture(scope="module")
def sweep_config():
    path_before = list(sys.path)
    spec = importlib.util.spec_from_file_location("sweep_config", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert sys.path == path_before  # importing runs nothing
    return module


def test_every_node_and_numeric_leaf_is_a_case(sweep_config):
    names = [case for case, _, _ in sweep_config.cases(pipeline.paper_defaults_path())]
    # 142 nodes, each dropped and set to 7 palette values, and 75 numeric leaves x 4 numbers
    assert len(names) == len(set(names)) == 142 * 8 + 75 * 4


def test_a_case_changes_one_node(sweep_config):
    bundled = yaml.safe_load(pipeline.paper_defaults_path().read_text())
    for case, path, tree in sweep_config.cases(pipeline.paper_defaults_path()):
        assert case.startswith(sweep_config.dotted(path) + "="), case
        parent, original = reduce(getitem, path[:-1], tree), reduce(getitem, path, bundled)
        if isinstance(parent, list) and len(parent) < len(reduce(getitem, path[:-1], bundled)):
            parent.insert(path[-1], original)  # a dropped list item
        else:
            parent[path[-1]] = original
        assert tree == bundled, case


def test_child_records_exit_code_and_stderr(sweep_config, monkeypatch, tmp_path):
    every = sweep_config.cases
    wanted = {"tls.f0_hz=0", "kinetics=<drop>", "qubit.junction.eps_r=NaN"}
    monkeypatch.setattr(sweep_config, "cases",
                        lambda config: (c for c in every(config) if c[0] in wanted))
    sweep_config.child(str(pipeline.paper_defaults_path().parent), str(tmp_path / "out"))
    runs = {run["case"]: run
            for run in map(json.loads, (tmp_path / "out").read_text().splitlines())}
    assert {case: run["exit"] for case, run in runs.items()} == {
        "tls.f0_hz=0": 2, "kinetics=<drop>": 0, "qubit.junction.eps_r=NaN": 2}
    for case, key in (("tls.f0_hz=0", "tls.f0_hz"),
                      ("qubit.junction.eps_r=NaN", "qubit.junction.eps_r")):
        assert runs[case]["stderr"].startswith(f"{sweep_config.KEYED}{key}: "), case


def test_compare_prints_a_changed_report_leaf_and_exits_1(sweep_config, tmp_path, capsys):
    kept = {"case": "tls.f0_hz=1e300", "exit": 0, "stderr": "",
            "report": {"stages": {"budget": {"tan_alox": {"value": 0.01}}}}}
    changed = {**kept, "report": {"stages": {"budget": {"tan_alox": {"value": 0.02}}}}}
    unkeyed = {"case": "participation.t0=1e300", "exit": 2, "report": None,
               "stderr": "error [DegenerateSystemError]: propagated variance is not finite\n"}
    files = [tmp_path / "parent.jsonl", tmp_path / "change.jsonl"]
    for path, first in zip(files, (kept, changed)):
        path.write_text("".join(json.dumps(run) + "\n" for run in (first, unkeyed)))
    trees = ("parent", "change")
    assert sweep_config.compare(trees, files) == 1
    listed = ["exit codes 0: 1, 2: 1; 1 exit-2 cases name no key",
              "  participation.t0=1e300: error [DegenerateSystemError]: propagated variance "
              "is not finite"]
    assert capsys.readouterr().out.splitlines() == [
        "tls.f0_hz=1e300: report.stages.budget.tan_alox.value: 0.5: 0.01 -> 0.02",
        f"parent: 2 cases, {listed[0]}", listed[1], f"change: 2 cases, {listed[0]}", listed[1],
        "1 cases differ"]
    assert sweep_config.compare(trees, files[:1] * 2) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0 cases differ"
