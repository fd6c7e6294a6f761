import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "make_bundled_data.py"
BUNDLED = ROOT / "src" / "qlb" / "data"
MAKERS = {"make_tls_points": "tls_points.csv", "make_spr_points": "spr_points.csv",
          "make_kinetics": "kinetics_native_oxide.csv", "make_xps_spectrum": "xps_al2p.csv"}


@pytest.fixture(scope="module")
def make_bundled_data():
    spec = importlib.util.spec_from_file_location("make_bundled_data", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("maker", sorted(MAKERS))
def test_bundled_dataset_regenerates_byte_for_byte(make_bundled_data, tmp_path,
                                                   monkeypatch, maker):
    monkeypatch.setattr(make_bundled_data, "DATA", tmp_path)
    getattr(make_bundled_data, maker)()
    name = MAKERS[maker]
    assert (tmp_path / name).read_bytes() == (BUNDLED / name).read_bytes()
