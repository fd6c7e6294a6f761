"""Configuration loading, stage orchestration, and report emission.

A single YAML config drives every stage.  Its schema is declared once, in
``SCHEMA``, and ``load_config`` checks a config against it: unknown keys
are rejected, numbers must be finite, every referenced file must exist,
and any field that falls back to a shipped default is recorded in report
provenance.

Stages build the objects they read from the validated sections.  An absent
input raises StageNotConfigured naming its key before anything is built, so a
report skips the stage (``_configured``); a fit's dataset error names the file
(``_fitting``); a value a section's object rejects names its key (``_section``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import reprlib
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import make_dataclass
from datetime import datetime, timezone
from importlib import resources
from json.encoder import encode_basestring_ascii
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
    ConvergenceError,
    DatasetError,
    DegenerateSystemError,
    InvalidInputError,
    StageNotConfigured,
    check_rows,
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


def paper_defaults_path() -> Path:
    """Path of the bundled paper-defaults configuration."""
    return Path(resources.files("qlb") / "data" / "paper_defaults.yaml")


# Leaf kinds of the schema, each named by what its node must be
NUMBER, UVALUE, STRING, BOOL, FILE, PAIR = (
    "a finite number", "a finite number or a {value, sigma} mapping", "a string",
    "true or false", "a path to an existing file", "a pair of finite numbers")

# an optional key: an absent or null node takes the default
Opt = namedtuple("Opt", "spec default", defaults=[None])

_UVALUE_NODE = {"value": NUMBER, "sigma": Opt(NUMBER, UValue.sigma), "derived": Opt(BOOL)}
_TANGENTS = {"tan_capacitor": UVALUE, "tan_alox_leads": UVALUE, "tan_ms_leads": UVALUE}
_COMPONENT = {"label": STRING, "shape": STRING, "center_ev": NUMBER, "fwhm_ev": NUMBER,
              "doublet": Opt(BOOL, xps_mod.PeakComponent.doublet),
              "center_window_ev": Opt(NUMBER, xps_mod.PeakComponent.center_window)}

# The config schema: a mapping names its keys, [spec] is a list of spec and
# {str: spec} a mapping with arbitrary string keys (the treatment labels).  A default
# that a domain dataclass declares is read from that dataclass, never written again.
SCHEMA = {
    "participation": {"r_ma": UVALUE, "r_sa": UVALUE,
                      "t0": Opt(NUMBER, budget_mod.ParticipationConfig.t0)},
    "qubit": {"p_capacitor": NUMBER, "p_ms_leads": NUMBER, "p_ma_leads": NUMBER,
              "c_shunt_fF": NUMBER, "q_measured": UVALUE,
              "junction": {"width_nm": UVALUE, "length_nm": UVALUE,
                           "barrier_thickness_nm": UVALUE,
                           "eps_r": Opt(NUMBER, qubit_mod.JunctionDims.eps_r)},
              "tangents": Opt({"linear-absorption": Opt(_TANGENTS),
                               "single-photon": Opt(_TANGENTS)}, {})},
    "strohmeier": {"lambda_m_nm": NUMBER, "lambda_ox_nm": NUMBER, "n_m": NUMBER,
                   "n_ox": NUMBER, "theta_deg": Opt(NUMBER, xps_mod.StrohmeierConstants.theta)},
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


# A config as validated: one field per SCHEMA section (None for an absent optional one),
# then its provenance.  make_dataclass before Python 3.12 sets no __module__ of its own.
AnalysisConfig = make_dataclass(
    "AnalysisConfig", [*SCHEMA, "defaults_used", "derived_flags", "config_sha256"],
    namespace={"__module__": __name__})


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
    return AnalysisConfig(**tree, defaults_used=defaults_used, derived_flags=derived_flags,
                          config_sha256=hashlib.sha256(raw_bytes).hexdigest())


# ---------------------------------------------------------------------------
# CSV ingestion


def read_q_grid(path: Path) -> tls_mod.QGrid:
    return read_csv(path, ("n_bar", "temperature_K", "q_int", "sigma"), tls_mod.QGrid)


def read_spr_points(path: Path) -> dict[str, spr_mod.SprPoints]:
    """Points by treatment, checked before the split; Q +- sigma is read as 1/Q +- sigma/Q^2."""
    def make(treatment, p_ms, q, sigma_q):
        with np.errstate(all="ignore"):  # an overflow or a zero breaks the rule below
            inv_q, sigma_inv_q = 1.0 / q, sigma_q / q ** 2
            q_ok = (0 < inv_q) & (inv_q < np.inf) & (0 < sigma_inv_q) & (sigma_inv_q < np.inf)
        # SprPoints' rules first, on the rows before the first bad Q cell: the error named
        # is the first in file order, a Q cell's on its own row
        rows = slice(None if q_ok.all() else int(np.argmin(q_ok)))
        points = spr_mod.SprPoints(p_ms[rows], inv_q[rows], sigma_inv_q[rows])
        check_rows((q_ok, lambda i: f"q_tls0 {q[i]} +- {sigma_q[i]} must be > 0 with a finite, "
                                    "positive 1/Q and sigma/Q^2"))
        treatment = np.array(treatment)
        return {label: points[treatment == label] for label in dict.fromkeys(treatment.tolist())}

    return read_csv(path, ("treatment", "p_ms", "q_tls0", "sigma_q"), make, text=("treatment",))


def read_kinetics(path: Path) -> xps_mod.KineticsPoints:
    return read_csv(path, ("time_hours", "thickness_nm", "sigma_nm"), xps_mod.KineticsPoints)


# ---------------------------------------------------------------------------
# stages


def _uv(v: UValue) -> dict:
    return {"value": v.value, "sigma": v.sigma}


def _configured(value, key: str):
    """``value``; None means the config leaves the stage's input ``key`` out."""
    if value is None:
        raise StageNotConfigured(f"{key} is not configured")
    return value


@contextmanager
def _section(key: str):
    """A value rejected by the object built from config section ``key`` names ``key``."""
    try:
        yield
    except InvalidInputError as exc:
        raise ConfigurationError(f"{key}: {exc}") from exc


@contextmanager
def _fitting(path: Path):
    """A fit's error names the dataset at ``path``; a degenerate fit is a dataset error."""
    try:
        yield
    except (DatasetError, ConvergenceError, DegenerateSystemError) as exc:
        kind = DatasetError if isinstance(exc, DegenerateSystemError) else type(exc)
        raise kind(f"{path}: {exc}") from exc


def _stage_tls_fit(config: AnalysisConfig, warnings_out: list) -> dict:
    path = _configured(config.tls["points_file"], "tls.points_file")
    cutoff = config.tls["qp_cutoff_temperature_k"]
    # the fit drops every point at or above the cutoff, so the rescale point sits below it
    if not 0 < config.tls["rescale_temperature_k"] < cutoff:
        raise ConfigurationError(f"tls.rescale_temperature_k: must be in (0, {cutoff}) K, "
                                 "below tls.qp_cutoff_temperature_k")
    if not config.tls["rescale_n_bar"] >= 0:
        raise ConfigurationError("tls.rescale_n_bar: must be >= 0")
    points = read_q_grid(path)
    with _fitting(path):
        params, _cov = tls_mod.fit_tls(points, f0=config.tls["f0_hz"],
                                       qp_cutoff_temperature=cutoff)
    n1 = tls_mod.rescale_q_tls0(params, config.tls["rescale_n_bar"],
                                config.tls["rescale_temperature_k"])
    if params.boundary_active:
        warnings_out.append(
            f"tls-fit: constraint(s) active at bounds: {list(params.boundary_active)}")
    return {
        "q_tls0": _uv(params.q_tls0),
        "D": params.D,
        "beta1": params.beta1,
        "beta2": params.beta2,
        "q_other": params.q_other,
        "f0_hz": params.f0,
        "n_points_used": int(np.count_nonzero(points.temperature < cutoff)),
        "q_tls_rescaled": {
            "n_bar": config.tls["rescale_n_bar"],
            "temperature_K": config.tls["rescale_temperature_k"],
            "q": _uv(n1),
        },
    }


def _stage_spr_fit(config: AnalysisConfig, warnings_out: list) -> dict:
    files = {label: tr["points_file"] for label, tr in sorted(config.treatments.items())
             if tr["points_file"] is not None}
    results = {}
    grouped = {}  # points_file -> its points by treatment; each file is read once
    for label, path in _configured(files or None, "treatments.*.points_file").items():
        if path not in grouped:
            grouped[path] = read_spr_points(path)
        pts = grouped[path].get(label)
        if pts is None:
            raise DatasetError(f"{path}: no rows for treatment {label!r}")
        with _fitting(path):
            tangent = spr_mod.fit_through_origin(pts)
            line = spr_mod.fit_with_intercept(pts) if len(pts) >= 2 else None
        entry = {
            "tan_delta": _uv(tangent),
            "n_points": len(pts),
            "points": [{"p_ms": p, "inv_q": v, "sigma": s, "fit": tangent.value * p} for p, v, s
                       in zip(pts.p_ms.tolist(), pts.inv_q.tolist(), pts.sigma.tolist())],
        }
        if line is not None:
            slope, intercept = line
            entry["intercept_diagnostic"] = {
                "slope": _uv(slope), "intercept": _uv(intercept),
            }
            if abs(intercept.value) > 3 * intercept.sigma:
                warnings_out.append(
                    f"spr-fit[{label}]: intercept inconsistent with zero "
                    f"({intercept:.3g})"
                )
        results[label] = entry
    return results


def _stage_budget(config: AnalysisConfig, warnings_out: list) -> dict:
    tan_hf, tan_hf90, tan_untreated, t_hf, t_hf90, t_untr, t_hc = (
        _configured(config.treatments.get(label, {}).get(key), f"treatments.{label}.{key}")
        for label, key in (("hf", "tan_delta"), ("hf_90_days", "tan_delta"),
                           ("untreated", "tan_delta"), ("hf", "t_ox"),
                           ("hf_90_days", "t_ox"), ("untreated", "t_ox"),
                           ("untreated", "t_hc")))
    with _section("participation"):
        cfg = budget_mod.ParticipationConfig(**config.participation)
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


def _qubit_inputs(config: AnalysisConfig) -> tuple[qubit_mod.QubitGeometry, dict]:
    """The qubit section's geometry and its TangentSet per configured regime."""
    qb, jj = config.qubit, config.qubit["junction"]
    nodes = _configured({regime: node for regime, node in sorted(qb["tangents"].items())
                         if node is not None} or None, "qubit.tangents")
    with _section("qubit.junction"):
        junction = qubit_mod.JunctionDims(width=jj["width_nm"], length=jj["length_nm"],
                                          barrier_thickness=jj["barrier_thickness_nm"],
                                          eps_r=jj["eps_r"])
    with _section("qubit"):
        geom = qubit_mod.QubitGeometry(
            p_capacitor=qb["p_capacitor"], p_ms_leads=qb["p_ms_leads"],
            p_ma_leads=qb["p_ma_leads"], c_shunt=qb["c_shunt_fF"], junction=junction)
    tangents = {}
    for regime, node in nodes.items():
        with _section(f"qubit.tangents.{regime}"):
            tangents[regime] = qubit_mod.TangentSet(**node, regime=regime)
    return geom, tangents


def _stage_qubit(config: AnalysisConfig, warnings_out: list) -> dict:
    geom, regimes = _qubit_inputs(config)
    entry, inv_qs = {"regimes": {}}, {}
    for regime, tangents in regimes.items():
        inv_q, q, cap_pct, leads_pct = qubit_mod.predict_regime(geom, tangents)
        inv_qs[regime] = inv_q
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
    sp = regimes.get("single-photon")
    if sp is not None:
        solve = qubit_mod.solve_barrier_tangent(config.qubit["q_measured"],
                                                inv_qs["single-photon"], c_jj, geom.c_shunt)
        budget3 = qubit_mod.three_way_budget(geom, sp, config.qubit["q_measured"], c_jj)
        entry["barrier"] = {
            "tan_barrier": _uv(solve.tan_barrier),
            "scaled_contribution": _uv(solve.scaled_contribution),
            "limiting_q": _uv(solve.limiting_q),
            "budget_pct": {k: _uv(v) for k, v in budget3.items()},
        }
    return entry


def _stage_xps_fit(config: AnalysisConfig, warnings_out: list) -> dict:
    path = _configured((config.xps or {}).get("spectrum_file"), "xps.spectrum_file")
    components = []
    for i, cn in enumerate(config.xps["components"]):
        with _section(f"xps.components[{i}]"):
            components.append(xps_mod.PeakComponent(
                label=cn["label"], shape=cn["shape"], center=cn["center_ev"],
                fwhm=cn["fwhm_ev"], doublet=cn["doublet"],
                center_window=cn["center_window_ev"]))
    st = config.strohmeier
    with _section("strohmeier"):
        constants = xps_mod.StrohmeierConstants(lambda_m=st["lambda_m_nm"],
                                                lambda_ox=st["lambda_ox_nm"], n_m=st["n_m"],
                                                n_ox=st["n_ox"], theta=st["theta_deg"])
    peaks = [c.label for c in xps_mod.expand_doublets(components)]
    if len(set(peaks)) < len(peaks):
        raise ConfigurationError(f"xps.components: peak labels {peaks} must be distinct")
    known = sorted(c.label for c in components)
    for key in ("metal_labels", "oxide_labels"):
        unknown = [label for label in config.xps[key] if label not in known]
        if unknown or not config.xps[key]:
            raise ConfigurationError(f"xps.{key}: {unknown or 'no label'} must name "
                                     f"components of xps.components {known}")
        if len(set(config.xps[key])) < len(config.xps[key]):
            raise ConfigurationError(f"xps.{key}: labels {config.xps[key]} must be distinct")
    shared = sorted(set(config.xps["metal_labels"]) & set(config.xps["oxide_labels"]))
    if shared:
        raise ConfigurationError(f"xps.oxide_labels: {shared} also in xps.metal_labels")
    spec = xps_mod.load_spectrum(path)
    cal, (lo, hi) = config.xps["calibration"], config.xps["background_window_ev"]
    with _fitting(path):
        if cal is not None:
            spec = xps_mod.calibrate_energy(spec, cal["reference_label"],
                                            cal["reference_energy_ev"])
        with _section("xps.background_window_ev"):
            window, bg = xps_mod.shirley_background(spec, lo, hi)
        x = window.binding_energy
        for i, c in enumerate(components):  # fit_components clips the window to x
            if not (x[0] < c.center + c.center_window and c.center - c.center_window < x[-1]):
                raise ConfigurationError(
                    f"xps.components[{i}]: center window {c.center:g} +- {c.center_window:g} "
                    f"eV misses the fit window [{x[0]:g}, {x[-1]:g}] eV")
        result = xps_mod.fit_components(window, bg, components)
        (i_ox, i_m), area_cov = xps_mod.summed_areas(result, config.xps["oxide_labels"],
                                                     config.xps["metal_labels"])
        thickness = xps_mod.strohmeier_thickness(i_ox, i_m, constants, area_cov)
    if result.boundary_active:
        warnings_out.append(
            f"xps-fit: constraint(s) active at bounds: {list(result.boundary_active)}"
        )
    return {
        "energy_shift_eV": spec.metadata.get("energy_shift_eV", 0.0),
        "areas": {c.label: c.area for c in result.components},
        "oxide_thickness_nm": _uv(thickness),
        "strohmeier_constants": dict(config.strohmeier),
        "normalization": "integrated area over the fit window",
    }


def _stage_kinetics(config: AnalysisConfig, warnings_out: list) -> dict:
    path = _configured((config.kinetics or {}).get("points_file"), "kinetics.points_file")
    points = read_kinetics(path)
    with _fitting(path):
        fit = xps_mod.fit_kinetics(points)
    if fit.degenerate_log:
        warnings_out.append("kinetics: purely linear data, log segment degenerate")
    return {
        "k_lin_nm_per_hour": fit.k_lin,
        "t_break_hours": fit.t_break,
        "log_a": fit.log_a,
        "log_b": fit.log_b,
        "d_sat_nm": fit.d_sat,
        "degenerate_log": fit.degenerate_log,
        "points": [{"time_hours": t, "thickness_nm": d, "sigma_nm": s} for t, d, s in zip(
            points.time.tolist(), points.thickness.tolist(), points.sigma.tolist())],
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
        path.write_text(_json_text(report))
        written.append(path)
    elif fmt == "plot-csv":
        written.extend(_emit_plot_csv(report, out_dir))
    else:
        raise ConfigurationError(f"unknown format {fmt!r}")
    return written


_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_WORDS = {None: "null", True: "true", False: "false"}


def _json_leaf(value) -> str:
    """One scalar as ``json.dumps`` writes it."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return _JSON_WORDS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_FLOATS.get(text, text)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(tree) -> str:
    """``json.dumps(tree, indent=2, sort_keys=True) + "\\n"``, byte for byte, for a tree of
    dicts with string keys, lists, tuples and scalars; ``json`` writes an indented tree
    with its pure-Python encoder, about twice as slow."""
    out = []
    append, float_text, float_word = out.append, float.__repr__, _JSON_FLOATS.get

    def write(node, pad):
        inner = pad + "  "
        sep, comma, is_dict = "\n" + inner, ",\n" + inner, isinstance(node, dict)
        append("{" if is_dict else "[")
        for key in sorted(node) if is_dict else range(len(node)):
            item = node[key]
            prefix = sep + encode_basestring_ascii(key) + ": " if is_dict else sep
            if type(item) is float:  # most leaves: _json_leaf's float branch
                text = float_text(item)
                append(prefix + float_word(text, text))
            elif not isinstance(item, (dict, list, tuple)):
                append(prefix + _json_leaf(item))
            elif item:
                append(prefix)
                write(item, inner)
            else:
                append(prefix + ("{}" if isinstance(item, dict) else "[]"))
            sep = comma
        append("\n" + pad + ("}" if is_dict else "]"))

    if isinstance(tree, (dict, list, tuple)) and tree:
        write(tree, "")
    else:
        append(json.dumps(tree))
    return "".join(out) + "\n"


def load_report(path) -> dict:
    """Round-trip loader for emitted JSON reports."""
    return json.loads(Path(path).read_text())


def _emit_plot_csv(report: dict, out_dir: Path) -> list[Path]:
    tables = {}  # file name -> (header, rows)
    spr = report["stages"].get("spr_fit")
    if spr:
        rows = []
        for label, entry in sorted(spr.items()):
            rows += [[label, "point", p["p_ms"], p["inv_q"], p["sigma"], p["fit"]]
                     for p in entry["points"]]
            slope = entry["tan_delta"]["value"]
            p_grid = np.linspace(0.0, 1.1 * max(p["p_ms"] for p in entry["points"]), 25)
            rows += [[label, "line", f"{x:.8g}", "", "", f"{slope * x:.8g}"]
                     for x in p_grid]
        tables["spr_fit.csv"] = (["treatment", "kind", "p_ms", "inv_q", "sigma", "fit"],
                                 rows)
    kin = report["stages"].get("kinetics")
    if kin:
        fit = xps_mod.KineticsFit(
            k_lin=kin["k_lin_nm_per_hour"], t_break=kin["t_break_hours"],
            log_a=kin["log_a"], log_b=kin["log_b"], d_sat=kin["d_sat_nm"],
            degenerate_log=kin["degenerate_log"],
        )
        times = [p["time_hours"] for p in kin["points"]]
        ts = np.geomspace(min(times), max(times), 100)
        rows = [["point", p["time_hours"], p["thickness_nm"], p["sigma_nm"]]
                for p in kin["points"]]
        rows += [["line", f"{ti:.6g}", f"{di:.6g}", ""]
                 for ti, di in zip(ts, fit.thickness(ts))]
        tables["kinetics_fit.csv"] = (["kind", "time_hours", "thickness_nm", "sigma_nm"],
                                      rows)
    budget_frag = report["stages"].get("budget")
    if budget_frag:
        tables["budget.csv"] = (["channel", "fraction_pct", "sigma_pct"], [
            [k, v["value"], v["sigma"]]
            for k, v in sorted(budget_frag["fractions_pct"].items())])
    written = []
    for name, (header, rows) in tables.items():
        path = out_dir / name
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows([header, *rows])
        written.append(path)
    return written
