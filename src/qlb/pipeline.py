"""Configuration loading, stage orchestration, and report emission.

A single YAML config drives every stage.  The loader is strict: unknown
keys are rejected, every referenced file must exist, and any field that
falls back to a shipped default is recorded in report provenance.
"""

from __future__ import annotations

import csv
import hashlib
import json
import warnings
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
    InconsistentInputsWarning,
    dataset_float,
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
STAGES = ("tls-fit", "spr-fit", "budget", "qubit", "xps-fit", "kinetics")


# ---------------------------------------------------------------------------
# config


@dataclass
class AnalysisConfig:
    participation: budget_mod.ParticipationConfig
    qubit: qubit_mod.QubitGeometry
    qubit_tangents: dict  # regime -> TangentSet
    q_measured: UValue
    strohmeier: xps_mod.StrohmeierConstants
    tls: dict
    treatments: dict  # label -> dict with tan_delta / t_ox / t_hc / points
    xps: dict | None = None
    kinetics_file: Path | None = None
    base_dir: Path = field(default_factory=Path)
    defaults_used: list = field(default_factory=list)
    derived_flags: list = field(default_factory=list)
    config_sha256: str = ""


def paper_defaults_path() -> Path:
    """Path of the bundled paper-defaults configuration."""
    return Path(resources.files("qlb") / "data" / "paper_defaults.yaml")


def _reject_unknown(section: dict, allowed: set, where: str):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigurationError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _uvalue(node, where: str, defaults_used=None, default=None) -> UValue:
    if node is None:
        if default is None:
            raise ConfigurationError(f"missing value for {where}")
        if defaults_used is not None:
            defaults_used.append(where)
        return default
    if isinstance(node, dict):
        _reject_unknown(node, {"value", "sigma", "derived"}, where)
        try:
            return UValue(float(node["value"]), float(node.get("sigma", 0.0)))
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigurationError(f"bad value for {where}: {exc}") from exc
    try:
        return UValue(float(node))
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"bad value for {where}: {exc}") from exc


def _float(node, where: str) -> float:
    try:
        return float(node)
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"bad number for {where}: {exc}") from exc


def _resolve_file(base: Path, name, where: str) -> Path | None:
    if name is None:
        return None
    p = Path(name)
    if not p.is_absolute():
        p = base / p
    if not p.is_file():
        raise ConfigurationError(f"{where}: file not found: {p}")
    return p


def load_config(path) -> AnalysisConfig:
    """Parse and validate an analysis config file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    raw_bytes = path.read_bytes()
    try:
        # libyaml's C parser when PyYAML was built with it; same safe constructor
        raw = yaml.load(raw_bytes, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: top level must be a mapping")
    base = path.parent
    defaults_used: list[str] = []
    derived_flags: list[str] = []

    _reject_unknown(
        raw,
        {"participation", "qubit", "strohmeier", "tls", "treatments", "xps", "kinetics"},
        "config",
    )
    for key in ("participation", "qubit", "strohmeier", "tls", "treatments"):
        if key not in raw:
            raise ConfigurationError(f"missing required section: {key}")

    # participation
    part = raw["participation"]
    _reject_unknown(part, {"r_ma", "r_sa", "t0"}, "participation")
    for ratio in ("r_ma", "r_sa"):
        node = part.get(ratio)
        if isinstance(node, dict) and node.get("derived"):
            derived_flags.append(f"participation.{ratio}")
    t0 = _float(part.get("t0", 3.0), "participation.t0")
    if t0 <= 0:
        raise ConfigurationError("participation.t0 must be positive")
    try:
        participation = budget_mod.ParticipationConfig(
            r_ma=_uvalue(part.get("r_ma"), "participation.r_ma"),
            r_sa=_uvalue(part.get("r_sa"), "participation.r_sa"),
            t0=t0,
        )
    except Exception as exc:
        raise ConfigurationError(f"participation: {exc}") from exc

    # qubit geometry + tangents
    qb = raw["qubit"]
    _reject_unknown(
        qb,
        {"p_capacitor", "p_ms_leads", "p_ma_leads", "c_shunt_fF", "junction",
         "q_measured", "tangents"},
        "qubit",
    )
    jj = qb.get("junction", {})
    _reject_unknown(jj, {"width_nm", "length_nm", "barrier_thickness_nm", "eps_r"},
                    "qubit.junction")
    try:
        junction = qubit_mod.JunctionDims(
            width=_uvalue(jj.get("width_nm"), "qubit.junction.width_nm"),
            length=_uvalue(jj.get("length_nm"), "qubit.junction.length_nm"),
            barrier_thickness=_uvalue(
                jj.get("barrier_thickness_nm"), "qubit.junction.barrier_thickness_nm"
            ),
            eps_r=_float(jj.get("eps_r", 9.0), "qubit.junction.eps_r"),
        )
        if "eps_r" not in jj:
            defaults_used.append("qubit.junction.eps_r")
        geometry = qubit_mod.QubitGeometry(
            p_capacitor=_float(qb.get("p_capacitor"), "qubit.p_capacitor"),
            p_ms_leads=_float(qb.get("p_ms_leads"), "qubit.p_ms_leads"),
            p_ma_leads=_float(qb.get("p_ma_leads"), "qubit.p_ma_leads"),
            c_shunt=_float(qb.get("c_shunt_fF"), "qubit.c_shunt_fF"),
            junction=junction,
        )
    except ConfigurationError:
        raise
    except Exception as exc:
        raise ConfigurationError(f"qubit: {exc}") from exc
    q_measured = _uvalue(qb.get("q_measured"), "qubit.q_measured")
    tangent_sets = {}
    for regime, node in (qb.get("tangents") or {}).items():
        if regime not in ("linear-absorption", "single-photon"):
            raise ConfigurationError(f"unknown regime qubit.tangents.{regime}")
        _reject_unknown(node, {"tan_capacitor", "tan_alox_leads", "tan_ms_leads"},
                        f"qubit.tangents.{regime}")
        tangent_sets[regime] = qubit_mod.TangentSet(
            tan_capacitor=_uvalue(node.get("tan_capacitor"),
                                  f"qubit.tangents.{regime}.tan_capacitor"),
            tan_alox_leads=_uvalue(node.get("tan_alox_leads"),
                                   f"qubit.tangents.{regime}.tan_alox_leads"),
            tan_ms_leads=_uvalue(node.get("tan_ms_leads"),
                                 f"qubit.tangents.{regime}.tan_ms_leads"),
            regime=regime,
        )

    # strohmeier
    st = raw["strohmeier"]
    _reject_unknown(st, {"lambda_m_nm", "lambda_ox_nm", "n_m", "n_ox", "theta_deg"},
                    "strohmeier")
    strohmeier = xps_mod.StrohmeierConstants(
        lambda_m=_float(st.get("lambda_m_nm"), "strohmeier.lambda_m_nm"),
        lambda_ox=_float(st.get("lambda_ox_nm"), "strohmeier.lambda_ox_nm"),
        n_m=_float(st.get("n_m"), "strohmeier.n_m"),
        n_ox=_float(st.get("n_ox"), "strohmeier.n_ox"),
        theta=_float(st.get("theta_deg", 90.0), "strohmeier.theta_deg"),
    )
    if "theta_deg" not in st:
        defaults_used.append("strohmeier.theta_deg")

    # tls
    tl = raw["tls"]
    _reject_unknown(tl, {"f0_hz", "qp_cutoff_temperature_k", "points_file",
                         "rescale_n_bar", "rescale_temperature_k"}, "tls")
    tls_cfg = {
        "f0": _float(tl.get("f0_hz"), "tls.f0_hz"),
        "qp_cutoff": _float(tl.get("qp_cutoff_temperature_k",
                                   tls_mod.DEFAULT_QP_CUTOFF_K),
                            "tls.qp_cutoff_temperature_k"),
        "points_file": _resolve_file(base, tl.get("points_file"), "tls.points_file"),
        "rescale_n_bar": _float(tl.get("rescale_n_bar", 1.0), "tls.rescale_n_bar"),
        "rescale_temperature": _float(tl.get("rescale_temperature_k", 0.010),
                                      "tls.rescale_temperature_k"),
    }
    if "qp_cutoff_temperature_k" not in tl:
        defaults_used.append("tls.qp_cutoff_temperature_k")

    # treatments
    treatments = {}
    for label, node in raw["treatments"].items():
        _reject_unknown(node, {"tan_delta", "tan_delta_n1", "t_ox", "t_hc",
                               "points_file"}, f"treatments.{label}")
        treatments[label] = {
            "tan_delta": (_uvalue(node["tan_delta"], f"treatments.{label}.tan_delta")
                          if "tan_delta" in node else None),
            "tan_delta_n1": (_uvalue(node["tan_delta_n1"],
                                     f"treatments.{label}.tan_delta_n1")
                             if "tan_delta_n1" in node else None),
            "t_ox": _uvalue(node.get("t_ox"), f"treatments.{label}.t_ox",
                            defaults_used, UValue(0.0)),
            "t_hc": _uvalue(node.get("t_hc"), f"treatments.{label}.t_hc",
                            defaults_used, UValue(0.0)),
            "points_file": _resolve_file(base, node.get("points_file"),
                                         f"treatments.{label}.points_file"),
        }

    # xps (optional stage inputs)
    xps_cfg = None
    if raw.get("xps") is not None:
        xn = raw["xps"]
        _reject_unknown(xn, {"spectrum_file", "calibration", "background_window_ev",
                             "components", "metal_labels", "oxide_labels"}, "xps")
        comps = []
        for i, cn in enumerate(xn.get("components", [])):
            _reject_unknown(cn, {"label", "shape", "center_ev", "fwhm_ev",
                                 "doublet", "center_window_ev"},
                            f"xps.components[{i}]")
            comps.append(xps_mod.PeakComponent(
                label=str(cn.get("label")),
                shape=str(cn.get("shape")),
                center=_float(cn.get("center_ev"), f"xps.components[{i}].center_ev"),
                fwhm=_float(cn.get("fwhm_ev"), f"xps.components[{i}].fwhm_ev"),
                doublet=bool(cn.get("doublet", False)),
                center_window=_float(cn.get("center_window_ev", 0.2),
                                     f"xps.components[{i}].center_window_ev"),
            ))
        cal = xn.get("calibration") or {}
        _reject_unknown(cal, {"reference_label", "reference_energy_ev"},
                        "xps.calibration")
        window = xn.get("background_window_ev", [70.0, 80.0])
        xps_cfg = {
            "spectrum_file": _resolve_file(base, xn.get("spectrum_file"),
                                           "xps.spectrum_file"),
            "calibration": (
                {"label": str(cal["reference_label"]),
                 "energy": _float(cal["reference_energy_ev"],
                                  "xps.calibration.reference_energy_ev")}
                if cal else None
            ),
            "window": (float(window[0]), float(window[1])),
            "components": comps,
            "metal_labels": list(xn.get("metal_labels", [])),
            "oxide_labels": list(xn.get("oxide_labels", [])),
        }

    kinetics_file = None
    if raw.get("kinetics") is not None:
        kn = raw["kinetics"]
        _reject_unknown(kn, {"points_file"}, "kinetics")
        kinetics_file = _resolve_file(base, kn.get("points_file"),
                                      "kinetics.points_file")

    return AnalysisConfig(
        participation=participation,
        qubit=geometry,
        qubit_tangents=tangent_sets,
        q_measured=q_measured,
        strohmeier=strohmeier,
        tls=tls_cfg,
        treatments=treatments,
        xps=xps_cfg,
        kinetics_file=kinetics_file,
        base_dir=base,
        defaults_used=defaults_used,
        derived_flags=derived_flags,
        config_sha256=hashlib.sha256(raw_bytes).hexdigest(),
    )


# ---------------------------------------------------------------------------
# CSV ingestion


def _read_csv(path: Path, columns: tuple[str, ...],
              text: tuple[str, ...] = ()) -> list[dict]:
    """Non-blank data rows of a headed CSV as {column: value} dicts.

    Every column not listed in ``text`` is parsed as a finite float; a bad
    or missing cell raises DatasetError naming the file, line and column.
    """
    rows = []
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(columns) - set(reader.fieldnames or ())
        if missing:
            raise DatasetError(f"{path}: missing column(s) {sorted(missing)}")
        for row in reader:
            if not any((row[c] or "").strip() for c in columns):
                continue
            line = reader.line_num
            rows.append({
                c: row[c] if c in text else dataset_float(row[c], path, line, repr(c))
                for c in columns
            })
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    return rows


def read_q_grid(path: Path) -> list[tls_mod.QPoint]:
    rows = _read_csv(path, ("n_bar", "temperature_K", "q_int", "sigma"))
    return [
        tls_mod.QPoint(r["n_bar"], r["temperature_K"], UValue(r["q_int"], r["sigma"]))
        for r in rows
    ]


def read_spr_points(path: Path) -> dict[str, list[spr_mod.SprPoint]]:
    rows = _read_csv(path, ("treatment", "p_ms", "q_tls0", "sigma_q"), text=("treatment",))
    grouped: dict[str, list[spr_mod.SprPoint]] = {}
    for r in rows:
        q = r["q_tls0"]
        sq = r["sigma_q"]
        # convert Q +- sigma to 1/Q +- sigma/(Q^2)
        grouped.setdefault(r["treatment"], []).append(
            spr_mod.SprPoint(r["p_ms"], UValue(1.0 / q, sq / q ** 2))
        )
    return grouped


def read_kinetics(path: Path) -> tuple[list[float], list[UValue]]:
    rows = _read_csv(path, ("time_hours", "thickness_nm", "sigma_nm"))
    times = [r["time_hours"] for r in rows]
    thick = [UValue(r["thickness_nm"], r["sigma_nm"]) for r in rows]
    return times, thick


# ---------------------------------------------------------------------------
# stages


def _uv(v: UValue) -> dict:
    return {"value": v.value, "sigma": v.sigma}


def _stage_tls_fit(config: AnalysisConfig, fragment: dict, warnings_out: list):
    if config.tls["points_file"] is None:
        raise DatasetError("tls.points_file is not configured")
    points = read_q_grid(config.tls["points_file"])
    params, _cov = tls_mod.fit_tls(points, f0=config.tls["f0"],
                                   qp_cutoff_temperature=config.tls["qp_cutoff"])
    n1 = tls_mod.rescale_q_tls0(params, config.tls["rescale_n_bar"],
                                config.tls["rescale_temperature"])
    fragment["tls_fit"] = {
        "q_tls0": _uv(params.q_tls0),
        "D": params.D,
        "beta1": params.beta1,
        "beta2": params.beta2,
        "q_other": params.q_other,
        "f0_hz": params.f0,
        "n_points_used": sum(
            1 for p in points if p.temperature < config.tls["qp_cutoff"]
        ),
        "q_tls_rescaled": {
            "n_bar": config.tls["rescale_n_bar"],
            "temperature_K": config.tls["rescale_temperature"],
            "q": _uv(n1),
        },
    }


def _stage_spr_fit(config: AnalysisConfig, fragment: dict, warnings_out: list):
    results = {}
    for label, tr in sorted(config.treatments.items()):
        if tr["points_file"] is None:
            continue
        grouped = read_spr_points(tr["points_file"])
        pts = grouped.get(label)
        if pts is None:
            # file may hold several treatments; take all rows if unlabeled match
            pts = [p for g in grouped.values() for p in g]
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
        raise DatasetError("no treatment has a points_file configured")
    fragment["spr_fit"] = results


def _require_treatment(config: AnalysisConfig, label: str, key: str) -> UValue:
    tr = config.treatments.get(label)
    if tr is None or tr.get(key) is None:
        raise DatasetError(f"budget stage needs treatments.{label}.{key}")
    return tr[key]


def _stage_budget(config: AnalysisConfig, fragment: dict, warnings_out: list):
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
        with warnings.catch_warnings(record=True) as wl:
            warnings.simplefilter("always", InconsistentInputsWarning)
            alox_n1 = budget_mod.solve_alox(hf_n1, hf90_n1, t_hf, t_hf90, cfg)
            ms_sa_n1 = budget_mod.solve_ms_sa(hf_n1, alox_n1, t_hf, cfg)
        warnings_out.extend(f"budget[n=1]: {w.message}" for w in wl)
        entry["single_photon"] = {
            "tan_alox": _uv(alox_n1),
            "tan_ms_sa": _uv(ms_sa_n1),
        }
    fragment["budget"] = entry


def _stage_qubit(config: AnalysisConfig, fragment: dict, warnings_out: list):
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
    fragment["qubit"] = entry


def _stage_xps_fit(config: AnalysisConfig, fragment: dict, warnings_out: list):
    if config.xps is None or config.xps["spectrum_file"] is None:
        raise DatasetError("xps.spectrum_file is not configured")
    spec = xps_mod.load_spectrum(config.xps["spectrum_file"])
    cal = config.xps["calibration"]
    if cal is not None:
        spec = xps_mod.calibrate_energy(spec, cal["label"], cal["energy"])
    lo, hi = config.xps["window"]
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
    areas = {
        c.label: c.area for c in result.components
    }
    metal = config.xps["metal_labels"]
    oxide = config.xps["oxide_labels"]
    i_m = sum(xps_mod.component_area(result, lbl) for lbl in metal)
    i_ox = sum(xps_mod.component_area(result, lbl) for lbl in oxide)
    sig_m = float(np.hypot.reduce([result.area_sigmas.get(lbl, 0.0) for lbl in metal]))
    sig_ox = float(np.hypot.reduce([result.area_sigmas.get(lbl, 0.0) for lbl in oxide]))
    thickness = xps_mod.strohmeier_thickness(
        UValue(i_ox, sig_ox), UValue(i_m, sig_m), config.strohmeier
    )
    fragment["xps_fit"] = {
        "energy_shift_eV": spec.metadata.get("energy_shift_eV", 0.0),
        "areas": areas,
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


def _stage_kinetics(config: AnalysisConfig, fragment: dict, warnings_out: list):
    if config.kinetics_file is None:
        raise DatasetError("kinetics.points_file is not configured")
    times, thick = read_kinetics(config.kinetics_file)
    fit = xps_mod.fit_kinetics(times, thick)
    if fit.degenerate_log:
        warnings_out.append("kinetics: purely linear data, log segment degenerate")
    fragment["kinetics"] = {
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


def run_stage(stage: str, config: AnalysisConfig) -> dict:
    """Execute one stage, returning a report fragment {stages, warnings}."""
    if stage not in _STAGE_FUNCS:
        raise ConfigurationError(f"unknown stage {stage!r}; choose from {STAGES}")
    fragment: dict = {}
    warns: list[str] = []
    _STAGE_FUNCS[stage](config, fragment, warns)
    return {"stages": fragment, "warnings": warns}


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
        except DatasetError as exc:
            if "not configured" in str(exc) or "points_file" in str(exc):
                report["skipped"].append({"stage": stage, "reason": str(exc)})
                continue
            raise
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
