import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qlb import pipeline

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ring_floor.py"


@pytest.fixture(scope="module")
def ring_floor():
    path_before = list(sys.path)
    spec = importlib.util.spec_from_file_location("ring_floor", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert sys.path == path_before  # importing runs nothing
    return module


def test_floor_is_the_mean_over_chips_of_their_fastest_pass(ring_floor):
    passes = [[{"operation": 3.0, "emit": 1.0}, {"operation": 5.0, "emit": 2.0}],
              [{"operation": 2.0, "emit": 4.0}, {"operation": 6.0, "emit": 1.0}]]
    assert ring_floor.floor(passes) == {"operation": 3.5, "emit": 1.0}
    solves = [[["qlb.tls", 7, 7], ["qlb.xps", 14, 14]],
              [["qlb.tls", 9, 8], ["qlb.xps", 12, 12]]]
    assert ring_floor.evaluations(solves) == {"qlb.tls": (8.0, 7.5), "qlb.xps": (13.0, 13.0)}


def test_child_times_every_part_and_counts_both_fits(ring_floor, tmp_path):
    ring, result = tmp_path / "ring.json", tmp_path / "result.json"
    ring.write_text(json.dumps([{"config": str(pipeline.paper_defaults_path()),
                                 "out": str(tmp_path / "out")}]))
    subprocess.run([sys.executable, "-c", ring_floor.CHILD, str(SCRIPT.parent), str(ring),
                    str(result)],
                   env={**os.environ, "PYTHONPATH": str(SCRIPT.parents[1] / "src"),
                        "PYTHONDONTWRITEBYTECODE": "1"}, check=True)
    passes, solves = json.loads(result.read_text()).values()
    assert len(passes) == ring_floor.PASSES and all(len(chips) == 1 for chips in passes)
    assert list(passes[0][0]) == (["operation", "load_config"]
                                  + [f"stage.{stage}" for stage in pipeline.STAGES] + ["emit"])
    assert [module for module, _, _ in solves[0]] == ["qlb.tls", "qlb.xps"]
    assert all(nfev >= njev >= 1 for _, nfev, njev in solves[0])
