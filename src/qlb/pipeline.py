"""Configuration loading, stage orchestration, and report emission.

A single YAML config drives every stage.  Its schema is declared once, in
``SCHEMA``, and ``load_config`` checks a config against it: unknown keys
are rejected, numbers must be finite, every referenced file must exist,
and any field that falls back to a shipped default is recorded in report
provenance.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import reprlib
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from . import budget as budget_mod
from . import qubit as qubit_mod
from . import spr as spr_mod
from . import tls as tls_mod
from . import xps as xps_mod
from .constants import CONSTANTS_TABLE
from .errors import (
    ConfigurationError,
    DatasetError,
    DegenerateSystemError,
    InvalidInputError,
    StageNotConfigured,
    read_csv,
)
from .uncert import UValue

__all__ = [
    "AnalysisConfig",
    "load_config",
    "paper_defaults_path",
    "run_stage",
    "run_report",
    "emit",
    "load_report",
    "STAGES",
]

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# config


@dataclass
class AnalysisConfig:
    participation: budget_mod.ParticipationConfig
    qubit: qubit_mod.QubitGeometry
    qubit_tangents: dict  # regime -> TangentSet
    q_measured: UValue
    strohmeier: xps_mod.StrohmeierConstants
    # the validated sections below keep the YAML key names of SCHEMA
    tls: dict
    treatments: dict  # label -> dict with tan_delta / t_ox / t_hc / points_file
    xps: dict | None = None  # "components" holds PeakComponents
    kinetics: dict | None = None
    defaults_used: list = field(default_factory=list)
    derived_flags: list = field(default_factory=list)
    config_sha256: str = ""


def paper_defaults_path() -> Path:
    """Path of the bundled paper-defaults configuration."""
    return Path(resources.files("qlb") / "data" / "paper_defaults.yaml")


# Leaf kinds of the schema, each named by what its node must be
NUMBER, UVALUE, STRING, BOOL, FILE, PAIR = (
    "a finite number", "a finite number or a {value, sigma} mapping", "a string",
    "true or false", "a path to an existing file", "a pair of finite numbers")

# an optional key: an absent or null node takes the default
Opt = namedtuple("Opt", "spec default", defaults=[None])

_UVALUE_NODE = {"value": NUMBER, "sigma": Opt(NUMBER, 0.0), "derived": Opt(BOOL)}
_TANGENTS = {"tan_capacitor": UVALUE, "tan_alox_leads": UVALUE, "tan_ms_leads": UVALUE}
_COMPONENT = {"label": STRING, "shape": STRING, "center_ev": NUMBER, "fwhm_ev": NUMBER,
              "doublet": Opt(BOOL, False), "center_window_ev": Opt(NUMBER, 0.2)}

# The config schema: a mapping names its keys, [spec] is a list of spec and
# {str: spec} a mapping with arbitrary string keys (the treatment labels).
SCHEMA = {
    "participation": {"r_ma": UVALUE, "r_sa": UVALUE, "t0": Opt(NUMBER, 3.0)},
    "qubit": {"p_capacitor": NUMBER, "p_ms_leads": NUMBER, "p_ma_leads": NUMBER,
              "c_shunt_fF": NUMBER, "q_measured": UVALUE,
              "junction": {"width_nm": UVALUE, "length_nm": UVALUE,
                           "barrier_thickness_nm": UVALUE, "eps_r": Opt(NUMBER, 9.0)},
              "tangents": Opt({"linear-absorption": Opt(_TANGENTS),
                               "single-photon": Opt(_TANGENTS)}, {})},
    "strohmeier": {"lambda_m_nm": NUMBER, "lambda_ox_nm": NUMBER, "n_m": NUMBER,
                   "n_ox": NUMBER, "theta_deg": Opt(NUMBER, 90.0)},
    "tls": {"f0_hz": NUMBER, "points_file": Opt(FILE),
            "qp_cutoff_temperature_k": Opt(NUMBER, tls_mod.DEFAULT_QP_CUTOFF_K),
            "rescale_n_bar": Opt(NUMBER, 1.0),
            "rescale_temperature_k": Opt(NUMBER, 0.010)},
    "treatments": {str: {"tan_delta": Opt(UVALUE), "tan_delta_n1": Opt(UVALUE),
                         "t_ox": Opt(UVALUE, 0.0), "t_hc": Opt(UVALUE, 0.0),
                         "points_file": Opt(FILE)}},
    "xps": Opt({"spectrum_file": Opt(FILE), "components": Opt([_COMPONENT], []),
                "calibration": Opt({"reference_label": STRING,
                                    "reference_energy_ev": NUMBER}),
                "background_window_ev": Opt(PAIR, [70.0, 80.0]),
                "metal_labels": Opt([STRING], []), "oxide_labels": Opt([STRING], [])}),
    "kinetics": Opt({"points_file": Opt(FILE)}),
}


def _number(node, where: str) -> float:
    # float() also takes a string, as PyYAML reads a dot-less exponent (5e9) as one
    try:
        value = float(node)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if isinstance(node, bool) or not math.isfinite(value):
        raise _bad(where, NUMBER, node)
    return value


def _bad(where: str, expected: str, node) -> ConfigurationError:
    return ConfigurationError(f"{where or 'config'}: expected {expected}, "
                              f"got {reprlib.repr(node)}")


def _validate(tree, base: Path) -> tuple[dict, list, list]:
    """Check a parsed config against SCHEMA; return the validated tree and
    the dotted paths of the defaults it filled and of ``derived: true`` nodes.
    """
    defaults_used, derived = [], []

    def check(spec, node, where):
        if isinstance(spec, list):
            if not isinstance(node, list):
                raise _bad(where, "a list", node)
            return [check(spec[0], item, f"{where}[{i}]") for i, item in enumerate(node)]
        if isinstance(spec, dict):
            if not isinstance(node, dict):
                raise _bad(where, "a mapping", node)
            if str in spec:  # any string key; others are reported as unknown
                spec = {key: spec[str] for key in node if isinstance(key, str)}
            unknown = set(node) - set(spec)
            if unknown:
                raise ConfigurationError(
                    f"unknown key(s) in {where or 'config'}: {sorted(map(str, unknown))}")
            out = {}
            for key, sub in spec.items():
                at = f"{where}.{key}" if where else key
                value = node.get(key)
                if isinstance(sub, Opt):
                    if value is None:
                        if sub.default is None:
                            out[key] = None
                            continue
                        defaults_used.append(at)
                        value = sub.default
                    sub = sub.spec
                elif key not in node:
                    raise ConfigurationError(f"missing required key: {at}")
                out[key] = check(sub, value, at)
            return out
        if spec == UVALUE:
            if not isinstance(node, dict):
                return UValue(_number(node, where))
            node = check(_UVALUE_NODE, node, where)
            if node["derived"]:
                derived.append(where)
            if node["sigma"] < 0:
                raise _bad(f"{where}.sigma", "a number >= 0", node["sigma"])
            return UValue(node["value"], node["sigma"])
        if spec == NUMBER:
            return _number(node, where)
        if spec == PAIR:
            if not isinstance(node, list) or len(node) != 2:
                raise _bad(where, PAIR, node)
            return tuple(_number(x, f"{where}[{i}]") for i, x in enumerate(node))
        if not isinstance(node, bool if spec == BOOL else str):
            raise _bad(where, spec, node)
        if spec == FILE:
            node = _existing_file(base / node, where)  # an absolute path replaces base
        return node

    return check(SCHEMA, tree, ""), defaults_used, derived


def _existing_file(path: Path, where: str) -> Path:
    if path.is_dir():
        raise ConfigurationError(f"{where}: {path} is a directory, not a file")
    if not path.is_file():
        raise ConfigurationError(f"{where}: file not found: {path}")
    return path


def load_config(path) -> AnalysisConfig:
    """Parse and validate an analysis config file against SCHEMA."""
    path = _existing_file(Path(path), "config")
    raw_bytes = path.read_bytes()
    try:
        # libyaml's C parser when PyYAML was built with it; same safe constructor
        raw = yaml.load(raw_bytes, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from exc
    tree, defaults_used, derived_flags = _validate(raw, path.parent)

    qb, st, xps = tree["qubit"], tree["strohmeier"], tree["xps"]
    jj = qb["junction"]
    if xps is not None:
        xps["components"] = [xps_mod.PeakComponent(
            label=cn["label"], shape=cn["shape"], center=cn["center_ev"],
            fwhm=cn["fwhm_ev"], doublet=cn["doublet"],
            center_window=cn["center_window_ev"],
        ) for cn in xps["components"]]
    return AnalysisConfig(
        participation=budget_mod.ParticipationConfig(**tree["participation"]),
        qubit=qubit_mod.QubitGeometry(
            p_capacitor=qb["p_capacitor"], p_ms_leads=qb["p_ms_leads"],
            p_ma_leads=qb["p_ma_leads"], c_shunt=qb["c_shunt_fF"],
            junction=qubit_mod.JunctionDims(
                width=jj["width_nm"], length=jj["length_nm"],
                barrier_thickness=jj["barrier_thickness_nm"], eps_r=jj["eps_r"],
            ),
        ),
        qubit_tangents={regime: qubit_mod.TangentSet(**node, regime=regime)
                        for regime, node in qb["tangents"].items() if node is not None},
        q_measured=qb["q_measured"],
        strohmeier=xps_mod.StrohmeierConstants(
            lambda_m=st["lambda_m_nm"], lambda_ox=st["lambda_ox_nm"],
            n_m=st["n_m"], n_ox=st["n_ox"], theta=st["theta_deg"],
        ),
        tls=tree["tls"],
        treatments=tree["treatments"],
        xps=xps,
        kinetics=tree["kinetics"],
        defaults_used=defaults_used,
        derived_flags=derived_flags,
        config_sha256=hashlib.sha256(raw_bytes).hexdigest(),
    )


# ---------------------------------------------------------------------------
# CSV ingestion


def read_q_grid(path: Path) -> list[tls_mod.QPoint]:
    return read_csv(path, ("n_bar", "temperature_K", "q_int", "sigma"),
                    lambda n, t, q, sigma: tls_mod.QPoint(n, t, UValue(q, sigma)))


def _spr_point(label: str, p_ms: float, q: float, sigma_q: float):
    # convert Q +- sigma to 1/Q +- sigma/(Q^2)
    return label, spr_mod.SprPoint(p_ms, UValue(1.0 / q, sigma_q / q ** 2))


def read_spr_points(path: Path) -> dict[str, list[spr_mod.SprPoint]]:
    grouped: dict[str, list[spr_mod.SprPoint]] = {}
    for label, point in read_csv(path, ("treatment", "p_ms", "q_tls0", "sigma_q"),
                                 _spr_point, text=("treatment",)):
        grouped.setdefault(label, []).append(point)
    return grouped


def read_kinetics(path: Path) -> tuple[list[float], list[UValue]]:
    times: list[float] = []

    def point(time, thickness, sigma):
        if not (sigma > 0 and math.isfinite(1.0 / sigma)):
            raise InvalidInputError("sigma_nm must be > 0 with a finite weight 1/sigma, "
                                    f"got {sigma}")
        ratio = thickness / sigma
        if not math.isfinite(ratio * ratio):  # a term of the fit's chi2
            raise InvalidInputError(f"thickness_nm {thickness} over sigma_nm "
                                    f"{sigma} overflows the weighted fit")
        value = UValue(thickness, sigma)
        if time <= (times[-1] if times else 0.0):
            raise InvalidInputError("time_hours must be > 0 and strictly ascending, "
                                    f"got {time}")
        times.append(time)
        return value

    return times, read_csv(path, ("time_hours", "thickness_nm", "sigma_nm"), point)


# ---------------------------------------------------------------------------
# stages


def _uv(v: UValue) -> dict:
    return {"value": v.value, "sigma": v.sigma}


@contextmanager
def _fitting(path: Path):
    """A fit that the dataset at ``path`` makes degenerate is a dataset error."""
    try:
        yield
    except DegenerateSystemError as exc:
        raise DatasetError(f"{path}: {exc}") from exc


def _stage_tls_fit(config: AnalysisConfig, warnings_out: list) -> dict:
    if config.tls["points_file"] is None:
        raise StageNotConfigured("tls.points_file is not configured")
    points = read_q_grid(config.tls["points_file"])
    cutoff = config.tls["qp_cutoff_temperature_k"]
    with _fitting(config.tls["points_file"]):  # a temperature that leaves the model inf
        params, _cov = tls_mod.fit_tls(points, f0=config.tls["f0_hz"],
                                       qp_cutoff_temperature=cutoff)
    n1 = tls_mod.rescale_q_tls0(params, config.tls["rescale_n_bar"],
                                config.tls["rescale_temperature_k"])
    return {
        "q_tls0": _uv(params.q_tls0),
        "D": params.D,
        "beta1": params.beta1,
        "beta2": params.beta2,
        "q_other": params.q_other,
        "f0_hz": params.f0,
        "n_points_used": sum(
            1 for p in points if p.temperature < cutoff
        ),
        "q_tls_rescaled": {
            "n_bar": config.tls["rescale_n_bar"],
            "temperature_K": config.tls["rescale_temperature_k"],
            "q": _uv(n1),
        },
    }


def _stage_spr_fit(config: AnalysisConfig, warnings_out: list) -> dict:
    results = {}
    grouped = {}  # points_file -> its points by treatment; each file is read once
    for label, tr in sorted(config.treatments.items()):
        if tr["points_file"] is None:
            continue
        if tr["points_file"] not in grouped:
            grouped[tr["points_file"]] = read_spr_points(tr["points_file"])
        pts = grouped[tr["points_file"]].get(label)
        if pts is None:
            raise DatasetError(f"{tr['points_file']}: no rows for treatment {label!r}")
        with _fitting(tr["points_file"]):
            tangent = spr_mod.fit_through_origin(pts)
        entry = {
            "tan_delta": _uv(tangent),
            "n_points": len(pts),
            "points": [
                {"p_ms": p.p_ms, "inv_q": p.inv_q.value, "sigma": p.inv_q.sigma,
                 "fit": tangent.value * p.p_ms}
                for p in pts
            ],
        }
        if len(pts) >= 2:
            with _fitting(tr["points_file"]):
                slope, intercept = spr_mod.fit_with_intercept(pts)
            entry["intercept_diagnostic"] = {
                "slope": _uv(slope), "intercept": _uv(intercept),
            }
            if abs(intercept.value) > 3 * intercept.sigma:
                warnings_out.append(
                    f"spr-fit[{label}]: intercept inconsistent with zero "
                    f"({intercept:.3g})"
                )
        results[label] = entry
    if not results:
        raise StageNotConfigured("no treatment has a points_file configured")
    return results


def _require_treatment(config: AnalysisConfig, label: str, key: str) -> UValue:
    tr = config.treatments.get(label)
    if tr is None or tr.get(key) is None:
        raise DatasetError(f"budget stage needs treatments.{label}.{key}")
    return tr[key]


def _stage_budget(config: AnalysisConfig, warnings_out: list) -> dict:
    cfg = config.participation
    tan_hf = _require_treatment(config, "hf", "tan_delta")
    tan_hf90 = _require_treatment(config, "hf_90_days", "tan_delta")
    tan_untreated = _require_treatment(config, "untreated", "tan_delta")
    t_hf = _require_treatment(config, "hf", "t_ox")
    t_hf90 = _require_treatment(config, "hf_90_days", "t_ox")
    t_untr = _require_treatment(config, "untreated", "t_ox")
    t_hc = _require_treatment(config, "untreated", "t_hc")

    result = budget_mod.solve_budget(
        tan_hf, tan_hf90, tan_untreated, t_hf, t_hf90, t_untr, t_hc, cfg
    )
    warnings_out.extend(f"budget: {w}" for w in result.warnings)
    entry = {
        "tan_alox": _uv(result.tan_alox),
        "tan_ms_sa": _uv(result.tan_ms_sa),
        "tan_hc": _uv(result.tan_hc),
        "fractions_pct": {k: _uv(v) for k, v in result.fractions.items()},
        "renormalization": result.renormalization,
        "note": (
            "ms_sa is the participation-scaled MS plus SA remainder; "
            "prose naming it 'MS and MA' follows the source's algebra, not its text"
        ),
    }

    hf_n1 = config.treatments.get("hf", {}).get("tan_delta_n1")
    hf90_n1 = config.treatments.get("hf_90_days", {}).get("tan_delta_n1")
    if hf_n1 is not None and hf90_n1 is not None:
        alox_n1, ms_sa_n1 = budget_mod.solve_hf_pair(hf_n1, hf90_n1, t_hf, t_hf90, cfg)
        if ms_sa_n1.value < 0:
            warnings_out.append(f"budget[n=1]: {budget_mod.MS_SA_NEGATIVE}")
        entry["single_photon"] = {
            "tan_alox": _uv(alox_n1),
            "tan_ms_sa": _uv(ms_sa_n1),
        }
    return entry


def _stage_qubit(config: AnalysisConfig, warnings_out: list) -> dict:
    geom = config.qubit
    if not config.qubit_tangents:
        raise DatasetError("qubit stage needs qubit.tangents")
    entry = {"regimes": {}}
    for regime, tangents in sorted(config.qubit_tangents.items()):
        inv_q = qubit_mod.predict_inv_q(geom, tangents)
        q = qubit_mod.predict_q(geom, tangents)
        cap_pct, leads_pct = qubit_mod.surface_fractions(geom, tangents)
        entry["regimes"][regime] = {
            "inv_q": _uv(inv_q),
            "q": _uv(q),
            "capacitor_pct": _uv(cap_pct),
            "junction_leads_pct": _uv(leads_pct),
        }
    c_jj = qubit_mod.junction_capacitance(geom.junction)
    energy_frac = qubit_mod.junction_energy_fraction(c_jj, geom.c_shunt)
    entry["junction"] = {
        "c_jj_fF": _uv(c_jj),
        "energy_fraction_pct": _uv(energy_frac.scaled(100.0)),
    }
    sp = config.qubit_tangents.get("single-photon")
    if sp is not None:
        inv_q_surf = qubit_mod.predict_inv_q(geom, sp)
        solve = qubit_mod.solve_barrier_tangent(config.q_measured, inv_q_surf,
                                                c_jj, geom.c_shunt)
        budget3 = qubit_mod.three_way_budget(geom, sp, config.q_measured, c_jj)
        entry["barrier"] = {
            "tan_barrier": _uv(solve.tan_barrier),
            "scaled_contribution": _uv(solve.scaled_contribution),
            "limiting_q": _uv(solve.limiting_q),
            "budget_pct": {k: _uv(v) for k, v in budget3.items()},
        }
    return entry


def _stage_xps_fit(config: AnalysisConfig, warnings_out: list) -> dict:
    if config.xps is None or config.xps["spectrum_file"] is None:
        raise StageNotConfigured("xps.spectrum_file is not configured")
    known = sorted(c.label for c in config.xps["components"])
    for key in ("metal_labels", "oxide_labels"):
        unknown = [label for label in config.xps[key] if label not in known]
        if unknown or not config.xps[key]:
            raise ConfigurationError(f"xps.{key}: {unknown or 'no label'} must name "
                                     f"components of xps.components {known}")
    spec = xps_mod.load_spectrum(config.xps["spectrum_file"])
    cal = config.xps["calibration"]
    if cal is not None:
        spec = xps_mod.calibrate_energy(spec, cal["reference_label"],
                                        cal["reference_energy_ev"])
    lo, hi = config.xps["background_window_ev"]
    bg = xps_mod.shirley_background(spec, lo, hi)
    sel = (spec.binding_energy >= lo) & (spec.binding_energy <= hi)
    windowed = xps_mod.XpsSpectrum(
        spec.binding_energy[sel], spec.intensity[sel], metadata=dict(spec.metadata)
    )
    result = xps_mod.fit_components(windowed, bg, config.xps["components"])
    if result.boundary_active:
        warnings_out.append(
            f"xps-fit: constraint(s) active at bounds: {list(result.boundary_active)}"
        )
    (i_ox, i_m), area_cov = xps_mod.summed_areas(result, config.xps["oxide_labels"],
                                                 config.xps["metal_labels"])
    with _fitting(config.xps["spectrum_file"]):  # a metal area fitted to 0
        thickness = xps_mod.strohmeier_thickness(i_ox, i_m, config.strohmeier, area_cov)
    return {
        "energy_shift_eV": spec.metadata.get("energy_shift_eV", 0.0),
        "areas": {c.label: c.area for c in result.components},
        "oxide_thickness_nm": _uv(thickness),
        "strohmeier_constants": {
            "lambda_m_nm": config.strohmeier.lambda_m,
            "lambda_ox_nm": config.strohmeier.lambda_ox,
            "n_m": config.strohmeier.n_m,
            "n_ox": config.strohmeier.n_ox,
            "theta_deg": config.strohmeier.theta,
        },
        "normalization": "integrated area over the fit window",
    }


def _stage_kinetics(config: AnalysisConfig, warnings_out: list) -> dict:
    if config.kinetics is None or config.kinetics["points_file"] is None:
        raise StageNotConfigured("kinetics.points_file is not configured")
    times, thick = read_kinetics(config.kinetics["points_file"])
    with _fitting(config.kinetics["points_file"]):
        fit = xps_mod.fit_kinetics(times, thick)
    if fit.degenerate_log:
        warnings_out.append("kinetics: purely linear data, log segment degenerate")
    return {
        "k_lin_nm_per_hour": fit.k_lin,
        "t_break_hours": fit.t_break,
        "log_a": fit.log_a,
        "log_b": fit.log_b,
        "d_sat_nm": fit.d_sat,
        "degenerate_log": fit.degenerate_log,
        "points": [
            {"time_hours": t, "thickness_nm": d.value, "sigma_nm": d.sigma}
            for t, d in zip(times, thick)
        ],
    }


_STAGE_FUNCS = {
    "tls-fit": _stage_tls_fit,
    "spr-fit": _stage_spr_fit,
    "budget": _stage_budget,
    "qubit": _stage_qubit,
    "xps-fit": _stage_xps_fit,
    "kinetics": _stage_kinetics,
}
STAGES = tuple(_STAGE_FUNCS)


def run_stage(stage: str, config: AnalysisConfig) -> dict:
    """Execute one stage, returning a report fragment {stages, warnings}."""
    if stage not in _STAGE_FUNCS:
        raise ConfigurationError(f"unknown stage {stage!r}; choose from {STAGES}")
    warns: list[str] = []
    entry = _STAGE_FUNCS[stage](config, warns)
    return {"stages": {stage.replace("-", "_"): entry}, "warnings": warns}


def run_report(config: AnalysisConfig, stages=STAGES, seed: int = 0) -> dict:
    """Run the requested stages and assemble the full report.

    Stages whose inputs are not configured are skipped and listed.
    """
    report = {
        "schema_version": SCHEMA_VERSION,
        "provenance": {
            "software_version": __version__,
            "config_sha256": config.config_sha256,
            "defaults_used": sorted(config.defaults_used),
            "derived_ratio_flags": sorted(config.derived_flags),
            "constants": CONSTANTS_TABLE,
            "seed": seed,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
        "stages": {},
        "warnings": [],
        "skipped": [],
    }
    for stage in stages:
        try:
            frag = run_stage(stage, config)
        except StageNotConfigured as exc:
            report["skipped"].append({"stage": stage, "reason": str(exc)})
            continue
        report["stages"].update(frag["stages"])
        report["warnings"].extend(frag["warnings"])
    return report


# ---------------------------------------------------------------------------
# emission


def emit(report: dict, out_dir, fmt: str = "json") -> list[Path]:
    """Write the report as schema-versioned JSON or per-figure CSV tables."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IOError(f"cannot create output directory {out_dir}: {exc}") from exc
    written = []
    if fmt == "json":
        path = out_dir / "report.json"
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        written.append(path)
    elif fmt == "plot-csv":
        written.extend(_emit_plot_csv(report, out_dir))
    else:
        raise ConfigurationError(f"unknown format {fmt!r}")
    return written


def load_report(path) -> dict:
    """Round-trip loader for emitted JSON reports."""
    return json.loads(Path(path).read_text())


def _emit_plot_csv(report: dict, out_dir: Path) -> list[Path]:
    written = []
    spr = report["stages"].get("spr_fit")
    if spr:
        path = out_dir / "spr_fit.csv"
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["treatment", "kind", "p_ms", "inv_q", "sigma", "fit"])
            for label, entry in sorted(spr.items()):
                for p in entry["points"]:
                    w.writerow([label, "point", p["p_ms"], p["inv_q"],
                                p["sigma"], p["fit"]])
                slope = entry["tan_delta"]["value"]
                p_grid = np.linspace(
                    0.0, 1.1 * max(p["p_ms"] for p in entry["points"]), 25
                )
                for x in p_grid:
                    w.writerow([label, "line", f"{x:.8g}", "", "",
                                f"{slope * x:.8g}"])
        written.append(path)
    kin = report["stages"].get("kinetics")
    if kin:
        path = out_dir / "kinetics_fit.csv"
        fit = xps_mod.KineticsFit(
            k_lin=kin["k_lin_nm_per_hour"], t_break=kin["t_break_hours"],
            log_a=kin["log_a"], log_b=kin["log_b"], d_sat=kin["d_sat_nm"],
            degenerate_log=kin["degenerate_log"],
        )
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["kind", "time_hours", "thickness_nm", "sigma_nm"])
            for p in kin["points"]:
                w.writerow(["point", p["time_hours"], p["thickness_nm"],
                            p["sigma_nm"]])
            tmax = max(p["time_hours"] for p in kin["points"])
            ts = np.geomspace(min(p["time_hours"] for p in kin["points"]), tmax, 100)
            for ti, di in zip(ts, fit.thickness(ts)):
                w.writerow(["line", f"{ti:.6g}", f"{di:.6g}", ""])
        written.append(path)
    budget_frag = report["stages"].get("budget")
    if budget_frag:
        path = out_dir / "budget.csv"
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["channel", "fraction_pct", "sigma_pct"])
            for k, v in sorted(budget_frag["fractions_pct"].items()):
                w.writerow([k, v["value"], v["sigma"]])
        written.append(path)
    return written
