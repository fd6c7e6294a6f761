import copy
import gc
import json
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from qlb import cli, pipeline, qubit, tls, xps
from qlb.errors import ConfigurationError, DatasetError, InvalidInputError, read_csv
from qlb.pipeline import (
    STAGES,
    emit,
    load_config,
    load_report,
    paper_defaults_path,
    read_spr_points,
    run_report,
    run_stage,
)
from qlb.uncert import UValue

DATA_DIR = paper_defaults_path().parent


def bundled_tree():
    """The bundled config as a YAML tree, with absolute data paths."""
    raw = yaml.safe_load(paper_defaults_path().read_text())
    for label in raw["treatments"]:
        pf = raw["treatments"][label].get("points_file")
        if pf:
            raw["treatments"][label]["points_file"] = str(DATA_DIR / pf)
    raw["tls"]["points_file"] = str(DATA_DIR / raw["tls"]["points_file"])
    raw["xps"]["spectrum_file"] = str(DATA_DIR / raw["xps"]["spectrum_file"])
    raw["kinetics"]["points_file"] = str(DATA_DIR / raw["kinetics"]["points_file"])
    return raw


def write_config(tmp_path, mutate=None):
    """Copy the bundled config with absolute data paths, optionally mutated."""
    raw = bundled_tree()
    if mutate:
        mutate(raw)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def set_spr_files(raw, path):
    for treatment in raw["treatments"].values():
        if treatment.get("points_file"):
            treatment["points_file"] = path


class TestConfigLoading:
    def test_bundled_defaults_load(self):
        cfg = load_config(paper_defaults_path())
        assert cfg.participation["r_ma"].value == pytest.approx(0.105)
        assert set(cfg.treatments) == {"hf", "hf_90_days", "untreated"}
        assert "participation.r_ma" in cfg.derived_flags
        assert len(cfg.config_sha256) == 64

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, lambda raw: raw.update(surprise=1))
        with pytest.raises(ConfigurationError, match="surprise"):
            load_config(path)

    def test_unknown_nested_key(self, tmp_path):
        path = write_config(
            tmp_path, lambda raw: raw["participation"].update(bogus=2)
        )
        with pytest.raises(ConfigurationError, match="bogus"):
            load_config(path)

    def test_missing_section(self, tmp_path):
        path = write_config(tmp_path, lambda raw: raw.pop("qubit"))
        with pytest.raises(ConfigurationError, match="qubit"):
            load_config(path)

    def test_missing_data_file(self, tmp_path):
        path = write_config(
            tmp_path,
            lambda raw: raw["tls"].update(points_file="/nonexistent.csv"),
        )
        with pytest.raises(ConfigurationError, match="not found"):
            load_config(path)

    def test_bad_number(self, tmp_path):
        path = write_config(
            tmp_path, lambda raw: raw["qubit"].update(c_shunt_fF="wide")
        )
        with pytest.raises(ConfigurationError):
            load_config(path)

    def test_nonexistent_config(self):
        with pytest.raises(ConfigurationError):
            load_config("/no/such/config.yaml")


    def test_every_default_is_recorded(self, tmp_path):
        def drop_optional_keys(raw):
            del raw["participation"]["t0"]
            del raw["tls"]["rescale_n_bar"]
            del raw["treatments"]["hf"]["t_hc"]
            del raw["treatments"]["hf"]["t_ox"]["sigma"]
            del raw["xps"]["components"][0]["doublet"]
            raw["xps"]["background_window_ev"] = None

        cfg = load_config(write_config(tmp_path, drop_optional_keys))
        assert sorted(cfg.defaults_used) == [
            "participation.t0",
            "tls.rescale_n_bar",
            "treatments.hf.t_hc",
            "treatments.hf.t_ox.sigma",
            "xps.background_window_ev",
            "xps.components[0].doublet",
        ]
        assert cfg.participation["t0"] == 3.0
        assert cfg.xps["background_window_ev"] == (70.0, 80.0)
        assert cfg.xps["components"][0]["doublet"] is False

    def test_bundled_config_uses_no_default(self):
        assert load_config(paper_defaults_path()).defaults_used == []

    def test_libyaml_parity(self):
        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML built without libyaml")
        text = paper_defaults_path().read_bytes()
        assert (yaml.load(text, Loader=yaml.CSafeLoader)
                == yaml.load(text, Loader=yaml.SafeLoader))


def test_read_spr_points_converts_q_to_inv_q(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text(
        "treatment,p_ms,q_tls0,sigma_q\nhf,1e-4,2e6,1e5\n"
    )
    pts = read_spr_points(path)["hf"]
    assert pts.inv_q[0] == pytest.approx(5e-7)
    assert pts.sigma[0] == pytest.approx(1e5 / 4e12)


@pytest.mark.parametrize("p_ms_line, q_line, named", [
    (3, 6, "line 3: p_ms must be > 0, got 0.0"),
    (6, 3, "line 3: q_tls0 0.0 +- 100000.0 must be > 0"),
    (4, 4, "line 4: q_tls0 0.0 +- 100000.0 must be > 0"),  # one row: the Q rule
])
def test_read_spr_points_names_the_first_bad_row(tmp_path, p_ms_line, q_line, named):
    rows = [["hf", "1e-4", "2e6", "1e5"] for _ in range(6)]  # lines 2 to 7
    rows[p_ms_line - 2][1] = rows[q_line - 2][2] = "0"
    path = tmp_path / "points.csv"
    path.write_text("treatment,p_ms,q_tls0,sigma_q\n" + "".join(
        ",".join(row) + "\n" for row in rows))
    with pytest.raises(DatasetError, match=re.escape(f"points.csv, {named}")):
        read_spr_points(path)


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    return load_config(write_config(tmp_path_factory.mktemp("cfg")))


@pytest.fixture(scope="module")
def report(config):
    return run_report(config)


class TestStages:
    def test_unknown_stage(self, config):
        with pytest.raises(ConfigurationError):
            run_stage("mystery", config)

    @pytest.mark.parametrize("stage", STAGES)
    def test_each_stage_produces_a_fragment(self, config, stage):
        frag = run_stage(stage, config)
        assert frag["stages"], f"{stage} produced no output"

    def test_report_runs_all_stages(self, config):
        report = run_report(config)
        assert report["schema_version"] == 1
        assert report["skipped"] == []
        assert set(report["stages"]) == {
            "tls_fit", "spr_fit", "budget", "qubit", "xps_fit", "kinetics"
        }
        prov = report["provenance"]
        assert prov["config_sha256"] == config.config_sha256
        assert "participation.r_ma" in prov["derived_ratio_flags"]

    def test_single_photon_ladder_warns_on_negative_remainder(self, tmp_path):
        path = write_config(tmp_path, lambda raw: raw["treatments"]["hf"].update(
            tan_delta_n1={"value": 0.5e-4, "sigma": 0.1e-4}))
        frag = run_stage("budget", load_config(path))
        assert frag["stages"]["budget"]["single_photon"]["tan_ms_sa"]["value"] < 0
        assert frag["warnings"] == [
            "budget[n=1]: MS+SA remainder has a negative central value"]

    def test_negative_oxide_tangent_warns_at_either_photon_number(self, tmp_path):
        def below_hf(raw):
            raw["treatments"]["hf_90_days"].update(tan_delta={"value": -1e-3},
                                                   tan_delta_n1={"value": 1e-4})
        frag = run_stage("budget", load_config(write_config(tmp_path, below_hf)))
        budget = frag["stages"]["budget"]
        assert budget["tan_alox"]["value"] < 0
        assert budget["single_photon"]["tan_alox"]["value"] < 0
        assert [w for w in frag["warnings"] if "oxide" in w] == [
            "budget: oxide tangent has a negative central value",
            "budget[n=1]: oxide tangent has a negative central value"]

    def test_tls_fit_at_a_bound_warns(self, tmp_path):
        # a q_other of 1e11 against a Q_TLS0 of 1.2e6 is unresolved at 1 % noise:
        # on this draw the fit runs to the 1e14 bound of q_other
        truth = tls.TlsParams(UValue(1.2e6), D=2.0e4, beta1=1.0, beta2=0.8, q_other=1e11)
        rng = np.random.default_rng(1)
        rows = ["n_bar,temperature_K,q_int,sigma"]
        for T in (0.010, 0.025, 0.050, 0.090):
            for n in np.geomspace(0.1, 1e5, 12):
                inv_q = 1.0 / tls.q_tls(n, T, truth) + 1.0 / truth.q_other
                q = float(1.0 / (inv_q * (1.0 + rng.normal(0.0, 0.01))))
                rows.append(f"{float(n)!r},{T!r},{q!r},{0.01 * q!r}")
        points = tmp_path / "tls_points.csv"
        points.write_text("\n".join(rows) + "\n")
        path = write_config(tmp_path, lambda raw: raw["tls"].update(points_file=str(points)))
        frag = run_stage("tls-fit", load_config(path))
        assert frag["stages"]["tls_fit"]["q_other"] == pytest.approx(1e14, rel=1e-9)
        assert frag["warnings"] == ["tls-fit: constraint(s) active at bounds: ['q_other']"]

    def test_xps_fit_at_a_bound_warns(self, tmp_path):
        # Al_int's window 74.5 +- 0.1 eV excludes its 74.1 eV truth: the centre ends at 74.4
        path = write_config(tmp_path, lambda raw: raw["xps"]["components"][1].update(
            center_ev=74.5, center_window_ev=0.1))
        report = run_report(load_config(path))
        assert report["warnings"] == ["xps-fit: constraint(s) active at bounds: "
                                      "['Al_int.center']"]

    def test_purely_linear_kinetics_warns(self, tmp_path):
        points = tmp_path / "kinetics.csv"
        points.write_text("time_hours,thickness_nm,sigma_nm\n" + "".join(
            f"{t},{0.05 * t!r},0.01\n" for t in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)))
        path = write_config(tmp_path, lambda raw: raw["kinetics"].update(
            points_file=str(points)))
        report = run_report(load_config(path))
        assert report["stages"]["kinetics"]["degenerate_log"] is True
        assert report["warnings"] == ["kinetics: purely linear data, log segment degenerate"]

    def test_qubit_barrier_solve_reuses_the_single_photon_loss(self, config, monkeypatch):
        # one joint propagation of 1/Q per regime; the barrier solve makes no second one
        calls = {name: [] for name in ("predict_regime", "predict_inv_q", "predict_q",
                                       "surface_fractions")}
        for name, record in calls.items():
            monkeypatch.setattr(qubit, name, lambda *args, _f=getattr(qubit, name),
                                _record=record: _record.append(args) or _f(*args))
        run_stage("qubit", config)
        assert {name: len(record) for name, record in calls.items()} == {
            "predict_regime": 2, "predict_inv_q": 0, "predict_q": 0, "surface_fractions": 0}

    def test_unconfigured_stages_skipped(self, tmp_path):
        path = write_config(tmp_path, lambda raw: raw.pop("kinetics"))
        report = run_report(load_config(path))
        assert "kinetics" in [s["stage"] for s in report["skipped"]]
        assert "kinetics" not in report["stages"]


class TestEmission:
    def test_json_round_trip(self, report, tmp_path):
        (path,) = emit(report, tmp_path, fmt="json")
        assert path.name == "report.json"
        assert load_report(path) == json.loads(json.dumps(report))

    EVERY_LEAF = {
        "floats": [0.1, -0.0, 1e300, 5e-324, math.nan, math.inf, -math.inf,
                   np.float64(2.5)],
        "ints": [0, -7, 10 ** 30], "words": [True, False, None],
        "strings": ["", "plain", "quote \" backslash \\ newline \n tab \t nul \x00",
                    "\u00e9 \u2603 \U0001d11e"],
        "empty": {"dict": {}, "list": [], "tuple": ()}, "tuple": (1, "a", (2.0,)),
        "nested": [[[]], [{"b": 1, "a": [{}]}]], "\u00e9 key": 1, "": 0.5,
    }

    @pytest.mark.parametrize("tree", ["report", EVERY_LEAF, {"a": [1.0, {2}]}, 2.5],
                             ids=["bundled", "every-leaf", "non-json-leaf", "scalar"])
    def test_json_bytes_are_those_of_json_dumps(self, tree, report, tmp_path):
        tree = report if tree == "report" else tree
        try:
            expected = (json.dumps(tree, indent=2, sort_keys=True) + "\n").encode()
        except TypeError as exc:  # a leaf json cannot write: its error, and no file
            with pytest.raises(TypeError, match=f"^{re.escape(str(exc))}$"):
                emit(tree, tmp_path, fmt="json")
            assert not (tmp_path / "report.json").exists()
            return
        (path,) = emit(tree, tmp_path, fmt="json")
        assert path.read_bytes() == expected

    def test_plot_csv_tables(self, report, tmp_path):
        written = emit(report, tmp_path, fmt="plot-csv")
        names = {p.name for p in written}
        assert names == {"spr_fit.csv", "kinetics_fit.csv", "budget.csv"}
        spr = (tmp_path / "spr_fit.csv").read_text().splitlines()
        assert spr[0] == "treatment,kind,p_ms,inv_q,sigma,fit"
        kinds = {line.split(",")[1] for line in spr[1:]}
        assert kinds == {"point", "line"}

    def test_unknown_format(self, report, tmp_path):
        with pytest.raises(ConfigurationError):
            emit(report, tmp_path, fmt="pdf")


class TestCli:
    def test_report_success(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                       "report"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["skipped"] == []
        assert (tmp_path / "out" / "report.json").is_file()

    def test_run_freezes_the_heap_once_then_returns_mains_code(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
        assert cli.run() == 3
        assert calls == ["freeze", "main"]

    def test_main_freezes_nothing(self, tmp_path, capsys):
        frozen = gc.get_freeze_count()
        assert cli.main(["--out", str(tmp_path / "out"), "report"]) == 0
        assert gc.get_freeze_count() == frozen

    def test_single_stage(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                       "budget"])
        assert rc == 0
        report = load_report(tmp_path / "out" / "report.json")
        assert list(report["stages"]) == ["budget"]

    @pytest.mark.parametrize("order", ["after", "before", "split"])
    def test_flags_before_or_after_the_subcommand(self, tmp_path, capsys, order):
        cfg = write_config(tmp_path)
        flags = ["--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "7",
                 "--format", "plot-csv"]
        argv = {"after": ["spr-fit"] + flags,
                "before": flags + ["spr-fit"],
                "split": flags[:4] + ["spr-fit"] + flags[4:]}[order]
        assert cli.main(argv) == 0
        report = load_report(tmp_path / "out" / "report.json")
        assert list(report["stages"]) == ["spr_fit"]
        assert report["provenance"]["seed"] == 7
        assert report["provenance"]["config_sha256"] == load_config(cfg).config_sha256
        assert (tmp_path / "out" / "spr_fit.csv").is_file()

    @pytest.mark.parametrize("argv", [[], ["--seed", "7"], ["bogus"], ["report", "budget"]])
    def test_missing_or_unknown_command_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "usage: qlb" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("surprise: 1\n")
        rc = cli.main(["--config", str(bad), "--out", str(tmp_path / "out"),
                       "report"])
        assert rc == 2

    def test_malformed_yaml_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("participation: [1, 2\n")
        rc = cli.main(["--config", str(bad), "--out", str(tmp_path / "out"),
                       "report"])
        assert rc == 2
        assert "cannot parse" in capsys.readouterr().err

    # stage -> (bundled data file, config setter) for every CSV reader
    CSV_READERS = {
        "tls-fit": ("tls_points.csv",
                    lambda raw, f: raw["tls"].update(points_file=f)),
        "spr-fit": ("spr_points.csv", set_spr_files),
        "xps-fit": ("xps_al2p.csv",
                    lambda raw, f: raw["xps"].update(spectrum_file=f)),
        "kinetics": ("kinetics_native_oxide.csv",
                     lambda raw, f: raw["kinetics"].update(points_file=f)),
    }
    # rewrite of the last cell of data line 3
    CSV_DEFECTS = {
        "non-numeric": lambda cells: cells[:-1] + ["abc"],
        "short-row": lambda cells: cells[:-1],
        "non-finite": lambda cells: cells[:-1] + ["nan"],
    }

    @pytest.mark.parametrize("defect", sorted(CSV_DEFECTS))
    @pytest.mark.parametrize("stage", sorted(CSV_READERS))
    def test_malformed_csv_is_dataset_error(self, tmp_path, capsys, stage, defect):
        name, set_file = self.CSV_READERS[stage]
        lines = (DATA_DIR / name).read_text().splitlines()
        lines[2] = ",".join(self.CSV_DEFECTS[defect](lines[2].split(",")))
        bad = tmp_path / name
        bad.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, lambda raw: set_file(raw, str(bad)))
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), stage])
        assert rc == 3
        assert f"{bad}, line 3" in capsys.readouterr().err

    # a parsable cell that the row's domain object rejects: (stage, column, value)
    CSV_ROW_REJECTS = {
        "tls-temperature": ("tls-fit", 1, "-1"),
        "spr-zero-q": ("spr-fit", 2, "0"),
        "spr-zero-sigma": ("spr-fit", 3, "0"),
        "spr-p-ms-overflow": ("spr-fit", 1, "1e300"),
        "xps-negative-counts": ("xps-fit", 1, "-1"),
        "kinetics-time-not-ascending": ("kinetics", 0, "1"),
        "kinetics-sigma-zero": ("kinetics", 2, "0"),
        "kinetics-sigma-weight-overflow": ("kinetics", 2, "1e-320"),
        "kinetics-thickness-overflow": ("kinetics", 1, "1e300"),
        "tls-sigma-zero": ("tls-fit", 3, "0"),
        "tls-q-underflow": ("tls-fit", 2, "1e-320"),
        "tls-sigma-weight-overflow": ("tls-fit", 3, "1e-300"),
    }

    @pytest.mark.parametrize("case", sorted(CSV_ROW_REJECTS))
    def test_rejected_csv_row_is_dataset_error(self, tmp_path, capsys, case):
        stage, column, value = self.CSV_ROW_REJECTS[case]
        name, set_file = self.CSV_READERS[stage]
        lines = (DATA_DIR / name).read_text().splitlines()
        cells = lines[2].split(",")
        cells[column] = value
        lines[2] = ",".join(cells)
        bad = tmp_path / name
        bad.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, lambda raw: set_file(raw, str(bad)))
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "report"])
        assert rc == 3
        assert f"{bad}, line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", sorted(CSV_READERS))
    def test_missing_header_column_exits_3(self, tmp_path, capsys, stage):
        name, set_file = self.CSV_READERS[stage]
        lines = (DATA_DIR / name).read_text().splitlines()
        header = lines[0].split(",")
        lines[0] = ",".join(header[:-1] + ["renamed"])
        bad = tmp_path / name
        bad.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, lambda raw: set_file(raw, str(bad)))
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), stage])
        assert rc == 3
        assert f"{bad}: missing column(s) [{header[-1]!r}]" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", sorted(CSV_READERS))
    def test_header_only_csv_exits_3(self, tmp_path, capsys, stage):
        name, set_file = self.CSV_READERS[stage]
        bad = tmp_path / name
        bad.write_text((DATA_DIR / name).read_text().splitlines()[0] + "\n")
        cfg = write_config(tmp_path, lambda raw: set_file(raw, str(bad)))
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), stage])
        assert rc == 3
        assert f"{bad}: no data rows" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", sorted(CSV_READERS))
    def test_header_field_over_the_csv_limit_exits_3(self, tmp_path, capsys, stage):
        name, set_file = self.CSV_READERS[stage]
        lines = (DATA_DIR / name).read_text().splitlines()
        lines[0] += "," + "x" * 131073  # one past the csv module's default field limit
        bad = tmp_path / name
        bad.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, lambda raw: set_file(raw, str(bad)))
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), stage])
        assert rc == 3
        assert (f"{bad}, line 1: field larger than field limit (131072)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("stage", sorted(CSV_READERS))
    def test_repeated_header_column_exits_3(self, tmp_path, capsys, stage):
        name, set_file = self.CSV_READERS[stage]
        lines = (DATA_DIR / name).read_text().splitlines()
        first = lines[0].split(",")[0]
        lines = [line + "," + line.split(",")[0] for line in lines]
        bad = tmp_path / name
        bad.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, lambda raw: set_file(raw, str(bad)))
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), stage])
        assert rc == 3
        assert f"{bad}: repeated column(s) [{first!r}]" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", sorted(CSV_READERS))
    def test_non_utf8_csv_exits_3(self, tmp_path, capsys, stage):
        name, set_file = self.CSV_READERS[stage]
        lines = (DATA_DIR / name).read_bytes().splitlines()
        lines[2] += b"\xe9"  # a Latin-1 e-acute ends line 3
        bad = tmp_path / name
        bad.write_bytes(b"\n".join(lines) + b"\n")
        cfg = write_config(tmp_path, lambda raw: set_file(raw, str(bad)))
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), stage])
        assert rc == 3
        assert f"{bad}, line 3: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", sorted(CSV_READERS))
    def test_utf8_bom_csv_reads_like_the_plain_file(self, tmp_path, stage):
        name, set_file = self.CSV_READERS[stage]
        bom = tmp_path / name
        bom.write_bytes(b"\xef\xbb\xbf" + (DATA_DIR / name).read_bytes())
        plain = run_stage(stage, load_config(write_config(tmp_path)))
        cfg = write_config(tmp_path, lambda raw: set_file(raw, str(bom)))
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), stage])
        assert rc == 0
        assert run_stage(stage, load_config(cfg)) == plain

    def test_directory_as_data_file_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, lambda raw: raw["kinetics"].update(
            points_file=str(tmp_path)))
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "report"])
        assert rc == 2
        assert (f"kinetics.points_file: {tmp_path} is a directory, not a file"
                in capsys.readouterr().err)

    def test_output_path_that_is_a_file_exits_5(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("a regular file")
        assert cli.main(["--out", str(out), "report"]) == 5
        assert capsys.readouterr().err.startswith(
            f"error [io]: cannot create output directory {out}: ")

    def test_directory_as_config_exits_2(self, tmp_path, capsys):
        rc = cli.main(["--config", str(tmp_path), "--out", str(tmp_path / "out"),
                       "report"])
        assert rc == 2
        assert (f"config: {tmp_path} is a directory, not a file"
                in capsys.readouterr().err)

    def test_spr_points_file_read_once(self, tmp_path, monkeypatch):
        # the bundled config points every treatment at one spr_points.csv
        reads = []
        monkeypatch.setattr(pipeline, "read_spr_points",
                            lambda path: reads.append(path) or read_spr_points(path))
        frag = run_stage("spr-fit", load_config(write_config(tmp_path)))
        assert sorted(frag["stages"]["spr_fit"]) == ["hf", "hf_90_days", "untreated"]
        assert reads == [DATA_DIR / "spr_points.csv"]

    def test_xps_without_metal_peak_exits_3(self, tmp_path, capsys):
        # the metal area fits to ~0, below its own sigma: not resolved, so no thickness
        name, set_file = self.CSV_READERS["xps-fit"]
        lines = (DATA_DIR / name).read_text().splitlines()
        lines[1:] = [f"{e},60" if 70 <= float(e) <= 74 else f"{e},{c}"
                     for e, c in (line.split(",") for line in lines[1:])]
        bad = tmp_path / name
        bad.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, lambda raw: (set_file(raw, str(bad)),
                                                  raw["xps"].update(calibration=None)))
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "xps-fit"])
        assert rc == 3
        assert f"{bad}: " in capsys.readouterr().err

    def test_spr_large_p_ms_fits_with_finite_intercept(self, tmp_path, capsys):
        # p_ms 1e140 passes the row checks; the intercept fit must stay finite
        name, set_file = self.CSV_READERS["spr-fit"]
        lines = (DATA_DIR / name).read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = "1e140"
        lines[2] = ",".join(cells)
        bad = tmp_path / name
        bad.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, lambda raw: set_file(raw, str(bad)))
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "spr-fit"])
        assert rc == 0
        fit = load_report(tmp_path / "out" / "report.json")["stages"]["spr_fit"][cells[0]]
        for part in ("slope", "intercept"):
            assert math.isfinite(fit["intercept_diagnostic"][part]["value"])
            assert math.isfinite(fit["intercept_diagnostic"][part]["sigma"])

    def test_spr_treatment_without_rows_exits_3(self, tmp_path, capsys):
        # a treatment must find its own label in its points file
        spr = str(DATA_DIR / "spr_points.csv")
        cfg = write_config(tmp_path, lambda raw: raw["treatments"].update(
            hf_30_days={"tan_delta": 2.0e-3, "points_file": spr}))
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "spr-fit"])
        assert rc == 3
        assert f"{spr}: no rows for treatment 'hf_30_days'" in capsys.readouterr().err

    # a dataset that leaves a weighted fit degenerate: (stage, rewrite of the data lines)
    DEGENERATE_DATASETS = {
        "spr-one-p-ms": ("spr-fit", lambda lines: [
            re.sub(r"^hf,[^,]*,", "hf,0.0002,", line) for line in lines]),
        "kinetics-last-sigma-1e-150": ("kinetics", lambda lines: lines[:-1] + [
            ",".join(lines[-1].split(",")[:2] + ["1e-150"])]),
        "kinetics-last-sigma-1e-300": ("kinetics", lambda lines: lines[:-1] + [
            ",".join(lines[-1].split(",")[:2] + ["1e-300"])]),
        # the fit's covariance overflows: every sigma 1e300, or every p_ms 1e-300 or 1e-320
        "kinetics-every-sigma-1e300": ("kinetics", lambda lines: lines[:1] + [
            ",".join(line.split(",")[:2] + ["1e300"]) for line in lines[1:]]),
        "spr-every-p-ms-1e-300": ("spr-fit", lambda lines: lines[:1] + [
            re.sub(r"^([^,]*),[^,]*,", r"\g<1>,1e-300,", line) for line in lines[1:]]),
        "spr-every-p-ms-1e-320": ("spr-fit", lambda lines: lines[:1] + [
            re.sub(r"^([^,]*),[^,]*,", r"\g<1>,1e-320,", line) for line in lines[1:]]),
        # 1/T overflows, so the TLS model is not finite at the fit's start
        "tls-one-temperature-1e-320": ("tls-fit", lambda lines: lines[:2] + [
            re.sub(r"^([^,]*),[^,]*,", r"\g<1>,1e-320,", lines[2])] + lines[3:]),
        "tls-every-temperature-1e-320": ("tls-fit", lambda lines: lines[:1] + [
            re.sub(r"^([^,]*),[^,]*,", r"\g<1>,1e-320,", line) for line in lines[1:]]),
        # at one temperature D and beta1 enter only as D T^beta1: collinear columns
        "tls-one-temperature": ("tls-fit", lambda lines: [
            line for line in lines if ",temperature_K," in line or ",0.010," in line]),
        # the covariance overflows in physical units: every sigma 1e150 x its q_int
        "tls-every-sigma-1e150-q-int": ("tls-fit", lambda lines: lines[:1] + [
            re.sub(r",([^,]*),[^,]*$", lambda m: f",{m[1]},{1e150 * float(m[1])!r}", line)
            for line in lines[1:]]),
        # the covariance overflows when rescaled by the reduced chi2: one count of 1e300
        "xps-one-count-1e300": ("xps-fit", lambda lines: lines[:53] + [
            lines[53].split(",")[0] + ",1e300"] + lines[54:]),
    }

    @pytest.mark.parametrize("case", sorted(DEGENERATE_DATASETS))
    def test_degenerate_dataset_exits_3(self, tmp_path, capsys, case):
        stage, rewrite = self.DEGENERATE_DATASETS[case]
        name, set_file = self.CSV_READERS[stage]
        bad = tmp_path / name
        bad.write_text("\n".join(rewrite((DATA_DIR / name).read_text().splitlines())) + "\n")
        cfg = write_config(tmp_path, lambda raw: set_file(raw, str(bad)))
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), stage])
        err = capsys.readouterr().err
        assert rc == 3
        assert str(bad) in err
        assert "Warning" not in err

    def test_xps_zero_count_exits_4(self, tmp_path, capsys):
        # the fit never meets its 1e-14 tolerances on a spectrum with a zero count
        # and stops at least_squares' default cap of 100 evaluations per parameter
        name, set_file = self.CSV_READERS["xps-fit"]
        text = (DATA_DIR / name).read_text()
        assert text.count("\n74.25,") == 1
        bad = tmp_path / name
        bad.write_text(re.sub(r"\n74\.25,[^\n]*", "\n74.25,0", text))
        cfg = write_config(tmp_path, lambda raw: set_file(raw, str(bad)))
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "xps-fit"])
        assert rc == 4
        assert "component fit did not converge" in capsys.readouterr().err

    def test_xps_count_1e300_in_the_shirley_anchor_exits_4_without_warnings(self, tmp_path,
                                                                            capsys):
        # the background's high-energy anchor overflows the Shirley step: it never converges
        name, set_file = self.CSV_READERS["xps-fit"]
        text = (DATA_DIR / name).read_text()
        assert text.count("\n79.90,") == 1
        bad = tmp_path / name
        bad.write_text(re.sub(r"\n79\.90,[^\n]*", "\n79.90,1e300", text))
        cfg = write_config(tmp_path, lambda raw: set_file(raw, str(bad)))
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "xps-fit"])
        err = capsys.readouterr().err
        assert rc == 4
        assert f"{bad}: Shirley background did not converge" in err
        assert "Warning" not in err

    def test_tls_q_int_above_fit_range_exits_3(self, tmp_path, capsys):
        name, set_file = self.CSV_READERS["tls-fit"]
        lines = (DATA_DIR / name).read_text().splitlines()
        cells = lines[2].split(",")
        cells[2] = "1e13"
        lines[2] = ",".join(cells)
        bad = tmp_path / name
        bad.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, lambda raw: set_file(raw, str(bad)))
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "tls-fit"])
        assert rc == 3
        assert "q_int 1e+13" in capsys.readouterr().err

    def test_tls_one_temperature_1e_300_exits_4_without_warnings(self, tmp_path, capsys):
        # the model is finite at the start but not along the solver's path; a numpy
        # warning would fail this test under the suite's filterwarnings = error
        name, set_file = self.CSV_READERS["tls-fit"]
        lines = (DATA_DIR / name).read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = "1e-300"
        lines[2] = ",".join(cells)
        bad = tmp_path / name
        bad.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, lambda raw: set_file(raw, str(bad)))
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "tls-fit"])
        assert rc == 4
        assert "TLS fit failed" in capsys.readouterr().err

    def test_tls_one_subnormal_n_bar_exits_0_without_warnings(self, tmp_path, capsys):
        # the two-decade span check takes no ratio, which 1e-320 would overflow
        name, set_file = self.CSV_READERS["tls-fit"]
        lines = (DATA_DIR / name).read_text().splitlines()
        lines[2] = ",".join(["1e-320"] + lines[2].split(",")[1:])
        bad = tmp_path / name
        bad.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, lambda raw: set_file(raw, str(bad)))
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "tls-fit"])
        assert rc == 0
        assert "Warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("treatment,key,name", [
        ("hf", "t_ox", "t_hf"),
        ("hf_90_days", "t_ox", "t_hf90"),
        ("untreated", "t_ox", "t_untreated_ox"),
        ("untreated", "t_hc", "t_hc"),
    ])
    def test_negative_thickness_exits_2(self, tmp_path, capsys, treatment, key, name):
        cfg = write_config(tmp_path, lambda raw: raw["treatments"][treatment].update(
            {key: {"value": -1.0, "sigma": 0.05}}))
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "budget"])
        assert rc == 2
        assert f"{name} must be >= 0" in capsys.readouterr().err

    def test_report_fails_on_bad_csv_named_like_a_config_key(self, tmp_path, capsys):
        # the error text names the file; only an absent input skips a stage
        lines = (DATA_DIR / "kinetics_native_oxide.csv").read_text().splitlines()
        lines[2] = "24,abc,0.07"
        bad = tmp_path / "my_points_file.csv"
        bad.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, lambda raw: raw["kinetics"].update(points_file=str(bad)))
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "report"])
        assert rc == 3
        assert f"{bad}, line 3" in capsys.readouterr().err

    def test_unconfigured_single_stage_is_dataset_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, lambda raw: raw.pop("kinetics"))
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                       "kinetics"])
        assert rc == 3
        assert ("error [StageNotConfigured]: kinetics.points_file is not configured"
                in capsys.readouterr().err)

    # an input the config leaves out: (mutation, stage it skips, reason)
    ABSENT_INPUTS = {
        "no-qubit-tangents": (lambda raw: raw["qubit"].pop("tangents"), "qubit",
                              "qubit.tangents is not configured"),
        "hf-treatment-only": (
            lambda raw: raw.update(treatments={"hf": raw["treatments"]["hf"]}),
            "budget", "treatments.hf_90_days.tan_delta is not configured"),
    }

    @pytest.mark.parametrize("case", sorted(ABSENT_INPUTS))
    def test_report_skips_stage_without_its_input(self, tmp_path, capsys, case):
        mutate, stage, reason = self.ABSENT_INPUTS[case]
        cfg = write_config(tmp_path, mutate)
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "report"])
        assert rc == 0
        report = load_report(tmp_path / "out" / "report.json")
        assert report["skipped"] == [{"stage": stage, "reason": reason}]
        assert set(report["stages"]) == {s.replace("-", "_") for s in STAGES if s != stage}

    def test_qubit_stage_without_tangents_is_not_configured(self, tmp_path, capsys):
        mutate, stage, reason = self.ABSENT_INPUTS["no-qubit-tangents"]
        cfg = write_config(tmp_path, mutate)
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), stage])
        assert rc == 3
        assert f"error [StageNotConfigured]: {reason}" in capsys.readouterr().err

    # an error raised inside a fit, or by the size rule of its dataset's record, names
    # the dataset: (stage, rewrite of the data lines, xps background window or None,
    # error class, message, exit code)
    FIT_ERRORS = {
        "tls-four-rows": ("tls-fit", lambda lines: lines[:5], None, "DatasetError",
                          "need >= 5 points below 0.12 K", 3),
        "kinetics-five-rows": ("kinetics", lambda lines: lines[:6], None, "DatasetError",
                               "need >= 6 (time, thickness) points", 3),
        # blank rows are not points: five data rows among blank lines are still five
        "kinetics-five-rows-and-blank-lines": ("kinetics", lambda lines: lines[:4] + [
            "", ","] + lines[4:6] + [",,", ""], None, "DatasetError",
            "need >= 6 (time, thickness) points", 3),
        "xps-window-15-samples": ("xps-fit", lambda lines: lines, [76.0, 76.7],
                                  "DatasetError", "need >= 16 samples, got 15", 3),
        "tls-one-temperature-1e-300": ("tls-fit", lambda lines: lines[:2] + [
            re.sub(r"^([^,]*),[^,]*,", r"\g<1>,1e-300,", lines[2])] + lines[3:], None,
            "ConvergenceError", "TLS fit failed: ", 4),
        "xps-shirley-diverges": ("xps-fit", lambda lines: lines, [78.0, 78.6],
                                 "ConvergenceError", "Shirley background did not converge",
                                 4),
    }

    @pytest.mark.parametrize("case", sorted(FIT_ERRORS))
    def test_fit_error_names_the_dataset(self, tmp_path, capsys, case):
        stage, rewrite, window, kind, message, code = self.FIT_ERRORS[case]
        name, set_file = self.CSV_READERS[stage]
        data = tmp_path / name
        lines = rewrite((DATA_DIR / name).read_text().splitlines())
        data.write_text("\n".join(lines) + "\n")

        def mutate(raw):
            set_file(raw, str(data))
            if window is not None:
                raw["xps"]["background_window_ev"] = window

        cfg = write_config(tmp_path, mutate)
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "report"])
        assert rc == code
        assert f"error [{kind}]: {data}: {message}" in capsys.readouterr().err

    def test_short_spectrum_names_the_file(self, tmp_path, capsys):
        # the spectrum's own size rule, met as its file is read, names the file too
        name, set_file = self.CSV_READERS["xps-fit"]
        data = tmp_path / name
        data.write_text("\n".join((DATA_DIR / name).read_text().splitlines()[:11]) + "\n")
        cfg = write_config(tmp_path, lambda raw: set_file(raw, str(data)))
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "xps-fit"])
        assert rc == 3
        assert (f"error [DatasetError]: {data}: need >= 16 samples, got 10"
                in capsys.readouterr().err)

    def test_env_var_config(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)
        monkeypatch.setenv("QLB_CONFIG", str(cfg))
        rc = cli.main(["--out", str(tmp_path / "out"), "budget"])
        assert rc == 0

    def test_plot_csv_format_keeps_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["--config", str(cfg), "--out", str(out),
                       "--format", "plot-csv", "report"])
        assert rc == 0
        assert (out / "report.json").is_file()
        assert (out / "budget.csv").is_file()


def test_read_csv_counts_blank_lines_in_line_numbers(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("a,b\n1,2\n\n3,abc\n")
    with pytest.raises(DatasetError, match=r"points.csv, line 4, column 'b': non-numeric"):
        read_csv(path, ("a", "b"), lambda a, b: (a, b))


def test_read_csv_over_long_field_is_dataset_error(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("a,b\n1,2\n3," + "4" * 200_000 + "\n")
    with pytest.raises(DatasetError, match=r"points.csv, line 3: field larger than"):
        read_csv(path, ("a", "b"), lambda a, b: (a, b))


@pytest.mark.parametrize("cell, error", [
    ("abc", r"line 402, column 'b': non-numeric value 'abc'"),
    ("-1", r"line 402: b must be >= 0"),
])
def test_read_csv_names_the_line_of_a_late_row(tmp_path, cell, error):
    # late in the file, and after a field that spans two lines
    rows = [f"{i},{i}" for i in range(500)]
    rows[3], rows[399] = '"3\n",3', f"399,{cell}"
    path = tmp_path / "points.csv"
    path.write_text("a,b\n" + "\n".join(rows) + "\n")

    def make(a, b):
        rejected = np.flatnonzero(b < 0)
        if rejected.size:
            raise InvalidInputError("b must be >= 0", row=int(rejected[0]))
        return a, b
    with pytest.raises(DatasetError, match=error):
        read_csv(path, ("a", "b"), make)


def test_read_csv_reads_every_row_around_blank_ones(tmp_path):
    # blank rows are dropped, and every other row is read, in order
    rows = [f"{i},{i}" for i in range(500)]
    rows[100], rows[301], rows[499] = "", ",", ""
    path = tmp_path / "points.csv"
    path.write_text("a,b\n" + "\n".join(rows) + "\n")
    expected = [(float(i), float(i)) for i in range(499) if i not in (100, 301)]
    assert read_csv(path, ("a", "b"), lambda a, b: list(zip(a, b))) == expected


def test_read_csv_row_whose_sum_overflows_is_read(tmp_path):
    # each cell is finite, though the row's sum overflows
    path = tmp_path / "points.csv"
    path.write_text("t,a,b\nx,1,2\ny,1e308,1e308\n")
    rows = read_csv(path, ("b", "t", "a"), lambda b, t, a: list(zip(b, t, a)), text=("t",))
    assert rows == [(2.0, "x", 1.0), (1e308, "y", 1e308)]


def test_read_csv_rejected_row_before_an_unsplit_one(tmp_path):
    # rows are made in file order: the first failure is named, as it comes
    path = tmp_path / "points.csv"
    path.write_text("a,b\n1,2\n-3,4\n5," + "4" * 200_000 + "\n")

    def make(a, b):
        rejected = np.flatnonzero(a < 0)
        if rejected.size:
            raise InvalidInputError("a must be >= 0", row=int(rejected[0]))
        return a, b
    with pytest.raises(DatasetError, match=r"points.csv, line 3: a must be >= 0"):
        read_csv(path, ("a", "b"), make)
    with pytest.raises(DatasetError, match=r"points.csv, line 4: field larger than"):
        read_csv(path, ("a", "b"), lambda a, b: (a, b))


def numeric_leaves(node, prefix=""):
    """Every int or float leaf of a report, by its dotted path."""
    if isinstance(node, dict):
        for key, sub in node.items():
            yield from numeric_leaves(sub, f"{prefix}.{key}")
    elif isinstance(node, list):
        for i, sub in enumerate(node):
            yield from numeric_leaves(sub, f"{prefix}[{i}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield prefix, node


def comparable_leaves(report):
    for entry in report["stages"]["spr_fit"].values():
        entry["points"].sort(key=lambda p: p["p_ms"])  # they follow file order
    return dict(numeric_leaves(report))


@pytest.mark.parametrize("seed", range(5))
def test_report_does_not_depend_on_row_order(tmp_path, seed):
    rng = random.Random(seed)
    files = {}
    for name in ("tls_points.csv", "spr_points.csv"):
        header, *rows = (DATA_DIR / name).read_text().splitlines()
        rng.shuffle(rows)
        files[name] = tmp_path / name
        files[name].write_text("\n".join([header, *rows]) + "\n")

    def shuffled(raw):
        raw["tls"]["points_file"] = str(files["tls_points.csv"])
        set_spr_files(raw, str(files["spr_points.csv"]))

    base = comparable_leaves(run_report(load_config(write_config(tmp_path))))
    moved = comparable_leaves(run_report(load_config(write_config(tmp_path, shuffled))))
    assert moved.keys() == base.keys()
    for path, value in base.items():
        assert moved[path] == pytest.approx(value, rel=1e-6), path


class TestPinnedFit:
    """Fitted values of the bundled paper-defaults report, pinned at 1e-6."""

    @pytest.fixture(scope="class")
    def stages(self):
        cfg = load_config(paper_defaults_path())
        return run_report(cfg, stages=("tls-fit", "xps-fit"))["stages"]

    def test_tls_fit(self, stages):
        tls = stages["tls_fit"]
        assert tls["q_tls0"]["value"] == pytest.approx(1206152.393, rel=1e-6)
        assert tls["D"] == pytest.approx(22335.307, rel=1e-6)
        assert tls["beta1"] == pytest.approx(1.0253797, rel=1e-6)
        assert tls["beta2"] == pytest.approx(0.8045878, rel=1e-6)
        assert tls["q_other"] == pytest.approx(5808250.39, rel=1e-6)

    def test_solver_work(self, monkeypatch):
        """TLS is one variable-projection solve, XPS starts at the optimum of its linear
        parameters: total nfev.  Each point costs one call of the model, which returns its
        Jacobian too; TLS adds one at the solution."""
        nfev = {tls: 0, xps: 0}
        for module in nfev:
            def counted(*args, _solve=module.least_squares, _module=module, **kwargs):
                res = _solve(*args, **kwargs)
                nfev[_module] += res.nfev
                return res
            monkeypatch.setattr(module, "least_squares", counted)
        calls = {tls: 0, xps: 0}
        for module, name in ((tls, "_model_inv_q_jac"), (xps, "_peak_model")):
            def evaluated(*args, _f=getattr(module, name), _module=module, **kwargs):
                calls[_module] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(module, name, evaluated)
        run_report(load_config(paper_defaults_path()), stages=("tls-fit", "xps-fit"))
        assert nfev[tls] <= 11
        assert nfev[xps] <= 13
        assert calls[tls] <= 12
        assert calls[xps] <= 14

    def test_xps_fit(self, stages):
        xps = stages["xps_fit"]
        assert xps["areas"]["Al0"] == pytest.approx(643.58012, rel=1e-6)
        assert xps["areas"]["Al3+"] == pytest.approx(495.59219, rel=1e-6)
        assert xps["areas"]["Al_int"] == pytest.approx(226.70439, rel=1e-6)
        assert xps["oxide_thickness_nm"]["value"] == pytest.approx(2.7471258, rel=1e-6)


def set_node(raw, path, value):
    for key in path[:-1]:
        raw = raw[key]
    raw[path[-1]] = value


# defect -> (node path, malformed value); stderr must name the dotted key
CONFIG_DEFECTS = {
    "scalar-section": (("participation",), 5, "participation"),
    "list-section": (("qubit",), [1, 2], "qubit"),
    "null-section": (("treatments",), None, "treatments"),
    "scalar-treatment": (("treatments", "hf"), 1.9, "treatments.hf"),
    "scalar-regime": (("qubit", "tangents", "single-photon"), "x",
                      "qubit.tangents.single-photon"),
    "short-window": (("xps", "background_window_ev"), [70.0],
                     "xps.background_window_ev"),
    "string-window": (("xps", "background_window_ev"), "70-80",
                      "xps.background_window_ev"),
    "calibration-without-energy": (("xps", "calibration"), {"reference_label": "Al0"},
                                   "xps.calibration.reference_energy_ev"),
    "string-doublet": (("xps", "components", 0, "doublet"), "no",
                       "xps.components[0].doublet"),
    "string-metal-labels": (("xps", "metal_labels"), "Al0", "xps.metal_labels"),
    "nan-number": (("tls", "f0_hz"), math.nan, "tls.f0_hz"),
    "inf-number": (("treatments", "hf", "tan_delta", "value"), math.inf,
                   "treatments.hf.tan_delta.value"),
    "bool-number": (("qubit", "c_shunt_fF"), True, "qubit.c_shunt_fF"),
    "negative-sigma": (("qubit", "q_measured", "sigma"), -1.0, "qubit.q_measured.sigma"),
    "int-points-file": (("kinetics", "points_file"), 3, "kinetics.points_file"),
    "missing-key": (("strohmeier",), {"lambda_m_nm": 2.6}, "strohmeier.lambda_ox_nm"),
    "unknown-oxide-label": (("xps", "oxide_labels"), ["Al_int", "x"], "xps.oxide_labels"),
    "unknown-metal-label": (("xps", "metal_labels"), ["Al0_1/2"], "xps.metal_labels"),
    "empty-oxide-labels": (("xps", "oxide_labels"), [], "xps.oxide_labels"),
    "empty-metal-labels": (("xps", "metal_labels"), [], "xps.metal_labels"),
}


@pytest.mark.parametrize("defect", sorted(CONFIG_DEFECTS))
def test_malformed_config_exits_2_naming_the_key(tmp_path, capsys, defect):
    path, value, key = CONFIG_DEFECTS[defect]
    cfg = write_config(tmp_path, lambda raw: set_node(raw, path, value))
    rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "report"])
    assert rc == 2
    assert key in capsys.readouterr().err


def append_component(raw, label, center_ev, fwhm_ev):
    raw["xps"]["components"].append(
        {"label": label, "shape": "gaussian", "center_ev": center_ev, "fwhm_ev": fwhm_ev})


# defect -> (mutation, key): a value that the object built from a config section
# rejects, or a broken XPS label rule; the error must start with the section's key
CONFIG_RANGE_DEFECTS = {
    "negative-r-ma": (lambda raw: set_node(raw, ("participation", "r_ma"), -1),
                      "participation"),
    "zero-junction-width": (lambda raw: set_node(raw, ("qubit", "junction", "width_nm"), 0),
                            "qubit.junction"),
    "negative-p-capacitor": (lambda raw: set_node(raw, ("qubit", "p_capacitor"), -0.1),
                             "qubit"),
    "zero-c-shunt": (lambda raw: set_node(raw, ("qubit", "c_shunt_fF"), 0), "qubit"),
    "negative-tangent": (lambda raw: set_node(
        raw, ("qubit", "tangents", "single-photon", "tan_capacitor"), -1),
        "qubit.tangents.single-photon"),
    "theta-95": (lambda raw: set_node(raw, ("strohmeier", "theta_deg"), 95), "strohmeier"),
    "zero-fwhm": (lambda raw: set_node(raw, ("xps", "components", 0, "fwhm_ev"), 0),
                  "xps.components[0]"),
    "unknown-shape": (lambda raw: set_node(raw, ("xps", "components", 0, "shape"), "foo"),
                      "xps.components[0]"),
    "zero-center-window": (lambda raw: set_node(
        raw, ("xps", "components", 0, "center_window_ev"), 0), "xps.components[0]"),
    "center-outside-fit-window": (lambda raw: set_node(
        raw, ("xps", "components", 0, "center_ev"), 90), "xps.components[0]"),
    **{f"background-window-{lo}-{hi}": (
        lambda raw, window=[lo, hi]: set_node(raw, ("xps", "background_window_ev"), window),
        "xps.background_window_ev") for lo, hi in ((60, 80), (80, 70))},
    "second-al3-template": (lambda raw: append_component(raw, "Al3+", 76.0, 1.7),
                            "xps.components"),
    "template-named-like-a-partner": (lambda raw: append_component(raw, "Al0_1/2", 77.0, 1.0),
                                      "xps.components"),
    "metal-label-as-oxide": (lambda raw: set_node(raw, ("xps", "oxide_labels"),
                                                  ["Al0", "Al_int", "Al3+"]),
                             "xps.oxide_labels"),
    "repeated-oxide-label": (lambda raw: set_node(raw, ("xps", "oxide_labels"),
                                                  ["Al_int", "Al_int", "Al3+"]),
                             "xps.oxide_labels"),
    "repeated-metal-label": (lambda raw: set_node(raw, ("xps", "metal_labels"), ["Al0", "Al0"]),
                             "xps.metal_labels"),
    **{f"rescale-temperature-{value}": (
        lambda raw, value=value: set_node(raw, ("tls", "rescale_temperature_k"), value),
        "tls.rescale_temperature_k") for value in (1e300, 0, -1, 0.5)},
    "negative-rescale-n-bar": (lambda raw: set_node(raw, ("tls", "rescale_n_bar"), -1),
                               "tls.rescale_n_bar"),
    "negative-q-measured": (lambda raw: set_node(raw, ("qubit", "q_measured", "value"), -5),
                            "qubit.q_measured"),
    "q-measured-above-the-surfaces-limit": (lambda raw: set_node(
        raw, ("qubit", "q_measured", "value"), 1e9), "qubit.q_measured"),
    "zero-untreated-t-hc": (lambda raw: set_node(
        raw, ("treatments", "untreated", "t_hc", "value"), 0), "treatments.untreated.t_hc"),
    "untreated-t-hc-left-out": (lambda raw: raw["treatments"]["untreated"].pop("t_hc"),
                                "treatments.untreated.t_hc"),
    **{f"untreated-tan-delta-{value}": (lambda raw, value=value: set_node(
        raw, ("treatments", "untreated", "tan_delta", "value"), value),
        "treatments.untreated.tan_delta") for value in (0, -1e-3)},
    **{f"negative-{label}-{field}": (lambda raw, at=("treatments", label, field, "value"):
                                     set_node(raw, at, -1), f"treatments.{label}.{field}")
       for label, field in (("hf", "t_ox"), ("hf_90_days", "t_ox"), ("untreated", "t_ox"),
                            ("untreated", "t_hc"))},
    # regrowth: the 90-day oxide not thicker than the fresh one names the 90-day key
    **{f"no-regrowth-{label}-t-ox-{value}": (lambda raw, at=("treatments", label, "t_ox",
                                                             "value"), value=value:
                                             set_node(raw, at, value),
                                             "treatments.hf_90_days.t_ox")
       for label, value in (("hf_90_days", 0), ("hf_90_days", 1e-300), ("hf", 1e300))},
    # c +- 1e-300 rounds to c: the centre's bounds are not ordered
    **{f"center-window-1e-300-{i}": (lambda raw, i=i: set_node(
        raw, ("xps", "components", i, "center_window_ev"), 1e-300), f"xps.components[{i}]")
       for i in range(3)},
    **{f"tls-f0-{value}": (lambda raw, value=value: set_node(raw, ("tls", "f0_hz"), value),
                           "tls.f0_hz") for value in (0, -1)},
    # the qubit's propagations overflow
    **{f"qubit-{name}-1e300": (lambda raw, name=name: set_node(raw, ("qubit", name), 1e300),
                               "qubit") for name in ("p_capacitor", "p_ms_leads", "p_ma_leads")},
    **{f"junction-{at[0]}-{value}": (lambda raw, at=at, value=value: set_node(
        raw, ("qubit", "junction", *at), value), "qubit.junction")
       for at, value in ((("eps_r",), 1e300), (("width_nm", "value"), 1e300),
                         (("length_nm", "value"), 1e300),
                         (("barrier_thickness_nm", "value"), 1e-300))},
    "regime-without-loss": (lambda raw: raw["qubit"]["tangents"]["linear-absorption"].update(
        tan_capacitor=0, tan_alox_leads=0, tan_ms_leads=0), "qubit"),
}


@pytest.mark.parametrize("defect", sorted(CONFIG_RANGE_DEFECTS))
def test_rejected_config_value_names_its_key(tmp_path, capsys, defect):
    mutate, key = CONFIG_RANGE_DEFECTS[defect]
    cfg = write_config(tmp_path, mutate)
    rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "report"])
    assert rc == 2
    assert f"error [ConfigurationError]: {key}: " in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("defect, message", [
    ("negative-p-capacitor", "participations must be positive"),
    ("zero-c-shunt", "c_shunt must be positive")])
def test_rejected_qubit_value_names_the_rule(tmp_path, capsys, defect, message):
    cfg = write_config(tmp_path, CONFIG_RANGE_DEFECTS[defect][0])
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "report"]) == 2
    assert f"error [ConfigurationError]: qubit: {message}" in capsys.readouterr().err


def test_section_table_names_only_the_arguments_it_holds():
    with pytest.raises(ConfigurationError, match=r"^tls\.f0_hz: bad f0$"):
        with pipeline._section({"f0": "tls.f0_hz"}):
            raise InvalidInputError("bad f0", arg="f0")
    for arg in ("points", None):  # another argument's error, or one naming none, passes
        with pytest.raises(InvalidInputError, match="^bad input$"):
            with pipeline._section({"f0": "tls.f0_hz"}):
                raise InvalidInputError("bad input", arg=arg)


def test_missing_regrowth_names_both_thicknesses(tmp_path, capsys):
    cfg = write_config(tmp_path, CONFIG_RANGE_DEFECTS["no-regrowth-hf_90_days-t-ox-0"][0])
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "budget"]) == 2
    assert ("error [ConfigurationError]: treatments.hf_90_days.t_ox: regrown oxide must be "
            "thicker than fresh oxide: t_hf90 0.0 nm, t_hf 1.9 nm\n") in capsys.readouterr().err


def test_background_window_with_too_few_samples_names_the_spectrum(tmp_path, capsys):
    cfg = write_config(tmp_path, lambda raw: set_node(
        raw, ("xps", "background_window_ev"), [72.0, 72.2]))
    rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "xps-fit"])
    assert rc == 3
    assert (f"{DATA_DIR / 'xps_al2p.csv'}: too few samples in the background window"
            in capsys.readouterr().err)


def test_single_stage_checks_only_the_sections_it_reads(tmp_path, capsys):
    cfg = write_config(tmp_path, CONFIG_RANGE_DEFECTS["theta-95"][0])
    argv = ["--config", str(cfg), "--out", str(tmp_path / "out")]
    assert cli.main(argv + ["kinetics"]) == 0
    capsys.readouterr()
    assert cli.main(argv + ["report"]) == 2
    assert "error [ConfigurationError]: strohmeier: " in capsys.readouterr().err


def test_calibration_error_names_the_spectrum(tmp_path, capsys):
    cfg = write_config(tmp_path, lambda raw: set_node(
        raw, ("xps", "calibration", "reference_energy_ev"), 10.0))
    rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "xps-fit"])
    assert rc == 3
    assert (f"error [CalibrationError]: {DATA_DIR / 'xps_al2p.csv'}: Al0: window"
            in capsys.readouterr().err)


def node_paths(node, prefix=()):
    """Every key path of a YAML tree, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from node_paths(child, prefix + (key,))


BUNDLED_PATHS = list(node_paths(bundled_tree()))
PALETTE = [None, 0, -1, "x", [], {}, True, math.nan, math.inf, 1e300]
DROP = "<drop>"


@settings(max_examples=30)
@given(st.lists(st.tuples(st.sampled_from(BUNDLED_PATHS), st.sampled_from(PALETTE + [DROP])),
                min_size=1, max_size=3))
def test_mutated_config_never_raises(tmp_path_factory, mutations):
    raw = bundled_tree()
    for path, value in mutations:
        parent = raw
        try:
            for key in path[:-1]:
                parent = parent[key]
            if value is DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or replaced this node
    work = tmp_path_factory.getbasetemp() / "fuzz"
    work.mkdir(exist_ok=True)
    (work / "config.yaml").write_text(yaml.safe_dump(raw))
    rc = cli.main(["--config", str(work / "config.yaml"), "--out", str(work / "out"),
                   "report"])
    assert rc in {0, 2, 3, 4, 5}


# bundled CSV name -> config setter, for every CSV reader
CSV_SETTERS = dict(TestCli.CSV_READERS.values())
# one data cell of a bundled CSV: (file name, line index, column index)
CSV_CELLS = [(name, line, column)
             for name in sorted(CSV_SETTERS)
             for line, text in enumerate((DATA_DIR / name).read_text().splitlines())
             if line > 0
             for column, cell in enumerate(text.split(","))
             if cell not in {"hf", "hf_90_days", "untreated"}]
CELL_PALETTE = ["0", "-0", "-1", "1e300", "-1e300", "1e-300", "1e-320", "nan", "abc", ""]


@settings(max_examples=30)
@given(st.lists(st.tuples(st.sampled_from(CSV_CELLS), st.sampled_from(CELL_PALETTE)),
                min_size=1, max_size=3))
def test_mutated_csv_never_raises(tmp_path_factory, mutations):
    work = tmp_path_factory.getbasetemp() / "csv-fuzz"
    work.mkdir(exist_ok=True)
    raw = bundled_tree()
    files = {}
    for (name, line, column), value in mutations:
        lines = files.setdefault(name, (DATA_DIR / name).read_text().splitlines())
        cells = lines[line].split(",")
        cells[column] = value
        lines[line] = ",".join(cells)
    for name, lines in files.items():
        (work / name).write_text("\n".join(lines) + "\n")
        CSV_SETTERS[name](raw, str(work / name))
    (work / "config.yaml").write_text(yaml.safe_dump(raw))
    rc = cli.main(["--config", str(work / "config.yaml"), "--out", str(work / "out"),
                   "report"])
    assert rc in {0, 2, 3, 4}


# every numeric column of a bundled CSV: (file name, column index)
CSV_COLUMNS = sorted({(name, column) for name, _, column in CSV_CELLS})


@pytest.mark.parametrize("value", ["0", "-1", "1e300", "-1e300", "1e-300", "1e-320"])
@pytest.mark.parametrize("name, column", CSV_COLUMNS)
def test_whole_column_extreme_never_raises(tmp_path, name, column, value):
    # one numeric column set to one extreme on every data row of its file
    lines = (DATA_DIR / name).read_text().splitlines()
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        cells[column] = value
        lines[i] = ",".join(cells)
    bad = tmp_path / name
    bad.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path, lambda raw: CSV_SETTERS[name](raw, str(bad)))
    rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "report"])
    assert rc in {0, 2, 3, 4}
