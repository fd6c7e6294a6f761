import importlib.util
import json
import sys
from pathlib import Path

import pytest

from qlb import cli, pipeline

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    path_before = list(sys.path)
    spec = importlib.util.spec_from_file_location("ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert sys.path == path_before  # importing runs nothing
    return module


def runs(path: Path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_an_exception_escaping_main_is_exit_1_with_the_temp_path_masked(ab, monkeypatch,
                                                                          tmp_path):
    def main(argv):
        raise RuntimeError(f"cannot use {argv[1]}")

    monkeypatch.setattr(cli, "main", main)
    data = pipeline.paper_defaults_path().parent
    ab.run_cases(str(data), str(tmp_path / "out"),
                 [("bundled", ab.CONFIG, (data / ab.CONFIG).read_text())])
    assert runs(tmp_path / "out") == [{
        "case": "bundled", "exit": 1, "report": None,
        "stderr": "uncaught RuntimeError: cannot use <tmp>/data/paper_defaults.yaml\n"}]


def test_each_case_runs_on_the_bundled_copy_with_only_its_own_file_changed(ab, tmp_path):
    data = pipeline.paper_defaults_path().parent
    ab.run_cases(str(data), str(tmp_path / "out"), [
        ("no tls rows", "tls_points.csv", "n_bar,temperature_K,q_int,sigma\n"),
        ("spr as bundled", "spr_points.csv", (data / "spr_points.csv").read_text())])
    no_rows, bundled = runs(tmp_path / "out")
    assert (no_rows["exit"], no_rows["report"]) == (3, None)
    assert "<tmp>/data/tls_points.csv" in no_rows["stderr"]
    assert (bundled["exit"], bundled["stderr"]) == (0, "")  # the TLS file is restored
    assert "timestamp" not in bundled["report"]["provenance"]
    assert set(bundled["report"]["stages"]) == {stage.replace("-", "_")
                                                for stage in pipeline.STAGES}


def test_show_prints_at_most_the_largest_differences_with_both_values(ab, capsys):
    a = {"exit": 0, "report": {f"x{i}": 1.0 for i in range(7)}}
    b = {"exit": 2, "report": {f"x{i}": 1.0 + i / 10 for i in range(7)}}
    assert ab.show("case", a, b, 3) is True
    assert capsys.readouterr().out.splitlines() == [
        "case: exit: 1: 0 -> 2", "case: report.x6: 0.375: 1.0 -> 1.6",
        "case: report.x5: 0.333: 1.0 -> 1.5", "case: and 4 more leaves"]
    assert ab.show("case", a, a, 3) is False
    assert capsys.readouterr().out == ""
