"""Seeded synthetic inputs for the qlb benchmark.

Everything here is the benchmark's own forward model, written apart from
``qlb`` so that a defect in the package cannot shift the truth the checks
compare against.  The models follow ``scripts/make_bundled_data.py``:

- Q_int(n, T) from the saturable TLS model plus a loss channel Q_other,
  with 1 % multiplicative noise;
- an Al 2p spectrum (three spin-orbit doublets on a Shirley background,
  Gaussian counting noise) whose oxide/metal area ratio inverts the
  Strohmeier formula at a chosen thickness;
- per-treatment (p_ms, Q_TLS0) points on a through-origin line;
- linear-then-logarithmic oxide growth kinetics.

Budget and qubit inputs are drawn around the paper values.  The draw is
the same for the config files and for the ``budget-sweep`` scan points.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# CODATA exact / derived values (hbar = h / 2 pi, h and k_B exact since 2019)
HBAR = 6.62607015e-34 / (2.0 * math.pi)
K_B = 1.380649e-23
EPS0 = 8.8541878188e-12

F0_HZ = 5.0e9
QP_CUTOFF_K = 0.12
QP_ROW_K = 0.150  # above the cutoff: written, then excluded by the fit

STROHMEIER = {"lambda_m": 2.6, "lambda_ox": 2.8, "n_m": 1.6, "n_ox": 1.0, "theta": 90.0}
XPS_WINDOW = (70.0, 80.0)
DOUBLET_SPLITTING = 0.44
KINETICS_TIMES = (1, 2, 4, 8, 12, 18, 24, 48, 96, 200, 400, 600)
SPR_SLOPES = {"hf": 1.77e-3, "hf_90_days": 2.51e-3, "untreated": 3.19e-3}
SPR_PMS = tuple(np.linspace(0.8e-4, 6.0e-4, 8))

# (value, sigma) at the paper's published point
PAPER = {
    "r_ma": (0.105, 0.0),
    "r_sa": (1.15, 0.0),
    "t0": 3.0,
    "treatments": {
        "hf": {"tan_delta": (1.77e-3, 0.08e-3), "tan_delta_n1": (12.39e-4, 0.4e-4),
               "t_ox": (1.90, 0.05), "t_hc": (0.0, 0.0)},
        "hf_90_days": {"tan_delta": (2.51e-3, 0.29e-3), "tan_delta_n1": (13.66e-4, 1.0e-4),
                       "t_ox": (3.11, 0.09), "t_hc": (0.52, 0.0)},
        "untreated": {"tan_delta": (3.19e-3, 0.22e-3), "tan_delta_n1": (21.8e-4, 1.4e-4),
                      "t_ox": (2.69, 0.07), "t_hc": (0.52, 0.0)},
    },
    "p_capacitor": 0.983e-4,
    "p_ms_leads": 0.160e-4,
    "p_ma_leads": 0.013e-4,
    "c_shunt_fF": 96.0,
    "junction": {"width_nm": (200.0, 50.0), "length_nm": (200.0, 50.0),
                 "barrier_thickness_nm": (2.0, 0.5), "eps_r": 9.0},
    "tangents": {
        "linear-absorption": {"tan_capacitor": (11.3e-4, 0.5e-4),
                              "tan_alox_leads": (1.74e-2, 0.7e-2),
                              "tan_ms_leads": (6.19e-4, 4.96e-4)},
        "single-photon": {"tan_capacitor": (7.8e-4, 0.4e-4),
                          "tan_alox_leads": (2.99e-3, 0.23e-3),
                          "tan_ms_leads": (10.4e-4, 0.1e-4)},
    },
}


# ---------------------------------------------------------------------------
# budget and qubit inputs


def _jitter(rng, pair, rel):
    f = rng.uniform(1.0 - rel, 1.0 + rel)
    return [pair[0] * f, pair[1] * f]


def draw_point(rng) -> dict:
    """One budget/qubit input point around the paper values.

    Geometry and thicknesses move by up to 10 %, tangents by up to 5 %.
    The regrown oxide stays thicker than the fresh one (>= 0.7 nm apart at
    these ranges).  The measured qubit Q is drawn last, from a barrier
    share of 4-15 % of the total loss, so the barrier solve is never
    degenerate.
    """
    p = {"r_ma": _jitter(rng, PAPER["r_ma"], 0.1),
         "r_sa": _jitter(rng, PAPER["r_sa"], 0.1),
         "t0": PAPER["t0"] * rng.uniform(0.9, 1.1),
         "treatments": {}}
    for label, tr in PAPER["treatments"].items():
        p["treatments"][label] = {
            "tan_delta": _jitter(rng, tr["tan_delta"], 0.05),
            "tan_delta_n1": _jitter(rng, tr["tan_delta_n1"], 0.05),
            "t_ox": _jitter(rng, tr["t_ox"], 0.1),
            "t_hc": _jitter(rng, tr["t_hc"], 0.1),
        }
    for key in ("p_capacitor", "p_ms_leads", "p_ma_leads", "c_shunt_fF"):
        p[key] = PAPER[key] * rng.uniform(0.9, 1.1)
    jj = PAPER["junction"]
    p["junction"] = {k: _jitter(rng, jj[k], 0.1)
                     for k in ("width_nm", "length_nm", "barrier_thickness_nm")}
    p["junction"]["eps_r"] = jj["eps_r"]
    p["tangents"] = {
        regime: {k: _jitter(rng, v, 0.05) for k, v in ts.items()}
        for regime, ts in PAPER["tangents"].items()
    }
    sp = p["tangents"]["single-photon"]
    inv_q_surf = (p["p_capacitor"] * sp["tan_capacitor"][0]
                  + p["p_ma_leads"] * sp["tan_alox_leads"][0]
                  + p["p_ms_leads"] * sp["tan_ms_leads"][0])
    j = p["junction"]
    c_jj = (EPS0 * j["eps_r"] * j["width_nm"][0] * j["length_nm"][0]
            / j["barrier_thickness_nm"][0] * 1e-9 / 1e-15)
    surf_share = p["c_shunt_fF"] / (p["c_shunt_fF"] + c_jj) * inv_q_surf
    q_measured = (1.0 - rng.uniform(0.04, 0.15)) / surf_share
    p["q_measured"] = [q_measured, q_measured * 0.034]
    return p


# ---------------------------------------------------------------------------
# datasets


def q_int(n, temperature, q_tls0, D, beta1, beta2, q_other):
    """Forward TLS model: 1/Q_int = 1/Q_TLS(n, T) + 1/Q_other."""
    th = np.tanh(HBAR * 2.0 * math.pi * F0_HZ / (2.0 * K_B * temperature))
    q_tls = q_tls0 * np.sqrt(1.0 + n ** beta2 / (D * temperature ** beta1) * th) / th
    return 1.0 / (1.0 / q_tls + 1.0 / q_other)


def strohmeier_ratio(d_nm: float) -> float:
    """I_ox / I_m that yields an overlayer thickness ``d_nm``."""
    s = STROHMEIER
    k = s["lambda_ox"] * math.sin(math.radians(s["theta"]))
    pref = (s["n_m"] / s["n_ox"]) * (s["lambda_m"] / s["lambda_ox"])
    return (math.exp(d_nm / k) - 1.0) / pref


def _lineshape(x, shape, center, fwhm, area):
    if shape == "lorentzian":
        g = fwhm / 2.0
        return area * g / (math.pi * ((x - center) ** 2 + g ** 2))
    c = 4.0 * math.log(2.0)
    return area * math.sqrt(c / math.pi) / fwhm * np.exp(-c * ((x - center) / fwhm) ** 2)


XPS_COMPONENTS = (  # label, shape, center, fwhm, share of its group, window
    ("Al0", "lorentzian", 72.6, 0.45, 1.0, 0.2),
    ("Al_int", "gaussian", 74.1, 1.3, 0.25, 0.2),
    ("Al3+", "gaussian", 75.5, 1.7, 0.75, 0.5),
)


def xps_spectrum(rng, d_nm: float, step: float):
    """Al 2p doublet spectrum on a Shirley background; returns (x, y)."""
    i_m = 1000.0
    i_ox = strohmeier_ratio(d_nm) * i_m
    x = np.round(np.arange(68.0, 82.0 + step / 2, step), 2)
    peaks = np.zeros_like(x)
    for label, shape, center, fwhm, share, _ in XPS_COMPONENTS:
        total = share * (i_m if label == "Al0" else i_ox)
        area = total * 2.0 / 3.0  # 3/2 member; the 1/2 partner has half of it
        peaks += _lineshape(x, shape, center, fwhm, area)
        peaks += _lineshape(x, shape, center + DOUBLET_SPLITTING, fwhm, area / 2.0)
    cum = np.zeros_like(x)
    cum[1:] = np.cumsum(0.5 * (peaks[1:] + peaks[:-1]) * np.diff(x))
    bg = 60.0 + (220.0 - 60.0) * cum / cum[-1]
    y = np.maximum(peaks + bg + rng.normal(0.0, 3.0, x.size), 0.0)
    return x, y


def _write_csv(path: Path, header: str, rows) -> None:
    path.write_text(header + "\n" + "".join(",".join(r) + "\n" for r in rows))


def _uv(pair) -> str:
    return f"{{value: {float(pair[0])!r}, sigma: {float(pair[1])!r}}}"


def config_yaml(p: dict) -> str:
    """Analysis config for input point ``p`` and the dataset files beside it."""
    lines = [
        "participation:",
        f"  r_ma: {{value: {p['r_ma'][0]!r}, sigma: {p['r_ma'][1]!r}, derived: true}}",
        f"  r_sa: {{value: {p['r_sa'][0]!r}, sigma: {p['r_sa'][1]!r}, derived: true}}",
        f"  t0: {p['t0']!r}",
        "treatments:",
    ]
    for label, tr in p["treatments"].items():
        lines.append(f"  {label}:")
        for key in ("tan_delta", "tan_delta_n1", "t_ox", "t_hc"):
            lines.append(f"    {key}: {_uv(tr[key])}")
        lines.append("    points_file: spr_points.csv")
    j = p["junction"]
    lines += [
        "qubit:",
        f"  p_capacitor: {p['p_capacitor']!r}",
        f"  p_ms_leads: {p['p_ms_leads']!r}",
        f"  p_ma_leads: {p['p_ma_leads']!r}",
        f"  c_shunt_fF: {p['c_shunt_fF']!r}",
        f"  q_measured: {_uv(p['q_measured'])}",
        "  junction:",
        f"    width_nm: {_uv(j['width_nm'])}",
        f"    length_nm: {_uv(j['length_nm'])}",
        f"    barrier_thickness_nm: {_uv(j['barrier_thickness_nm'])}",
        f"    eps_r: {j['eps_r']!r}",
        "  tangents:",
    ]
    for regime, ts in p["tangents"].items():
        lines.append(f"    {regime}:")
        lines += [f"      {k}: {_uv(v)}" for k, v in ts.items()]
    s = STROHMEIER
    lines += [
        "strohmeier:",
        f"  lambda_m_nm: {s['lambda_m']}",
        f"  lambda_ox_nm: {s['lambda_ox']}",
        f"  n_m: {s['n_m']}",
        f"  n_ox: {s['n_ox']}",
        f"  theta_deg: {s['theta']}",
        "tls:",
        f"  f0_hz: {F0_HZ!r}",
        f"  qp_cutoff_temperature_k: {QP_CUTOFF_K}",
        "  points_file: tls_points.csv",
        "  rescale_n_bar: 1.0",
        "  rescale_temperature_k: 0.010",
        "xps:",
        "  spectrum_file: xps_al2p.csv",
        "  calibration: {reference_label: Al0, reference_energy_ev: 72.6}",
        f"  background_window_ev: [{XPS_WINDOW[0]}, {XPS_WINDOW[1]}]",
        "  components:",
    ]
    for label, shape, center, fwhm, _, window in XPS_COMPONENTS:
        lines.append(f"    - {{label: {label}, shape: {shape}, center_ev: {center}, "
                     f"fwhm_ev: {fwhm}, doublet: true, center_window_ev: {window}}}")
    lines += [
        "  metal_labels: [Al0]",
        "  oxide_labels: [Al_int, Al3+]",
        "kinetics:",
        "  points_file: kinetics_native_oxide.csv",
    ]
    return "\n".join(lines) + "\n"


TLS_TEMPS = {4: (0.010, 0.025, 0.050, 0.090), 5: (0.010, 0.020, 0.035, 0.055, 0.090)}


def write_dataset(rng, out: Path, n_temps: int, n_photon: int, xps_step: float,
                  qp_row: bool = False) -> dict:
    """Write one config plus its four datasets into ``out``.

    Returns the truth record the checks compare against: the budget/qubit
    input point, the TLS and XPS truths, the SPR points as written, the
    kinetics truth at the last time, and the generated sizes.
    """
    out.mkdir(parents=True, exist_ok=True)
    point = draw_point(rng)

    tls = {"q_tls0": float(np.exp(rng.uniform(np.log(0.6e6), np.log(2.5e6)))),
           "D": float(np.exp(rng.uniform(np.log(5e3), np.log(8e4)))),
           "beta1": float(rng.uniform(0.8, 1.2)),
           "beta2": float(rng.uniform(0.6, 1.0))}
    tls["q_other"] = tls["q_tls0"] * float(rng.uniform(3.0, 8.0))
    temps = TLS_TEMPS[n_temps] + ((QP_ROW_K,) if qp_row else ())
    rows = []
    for T in temps:
        for n in np.geomspace(0.1, 1e5, n_photon):
            q = q_int(n, T, **tls) * (1.0 + rng.normal(0.0, 0.01))
            rows.append((f"{n:.6g}", f"{T:.3f}", f"{q:.6g}", f"{0.01 * q:.6g}"))
    _write_csv(out / "tls_points.csv", "n_bar,temperature_K,q_int,sigma", rows)

    spr_rows = []
    for label, slope in SPR_SLOPES.items():
        slope *= rng.uniform(0.95, 1.05)
        for p_ms in SPR_PMS:
            q = 1.0 / (slope * p_ms * (1.0 + rng.normal(0.0, 0.05)))
            spr_rows.append((label, f"{p_ms:.6g}", f"{q:.6g}", f"{0.05 * q:.6g}"))
    _write_csv(out / "spr_points.csv", "treatment,p_ms,q_tls0,sigma_q", spr_rows)

    d24 = rng.uniform(2.0, 2.6)
    d600 = d24 + rng.uniform(0.5, 0.9)
    k, b = d24 / 24.0, (d600 - d24) / math.log(600.0 / 24.0)
    kin_rows = []
    for t in KINETICS_TIMES:
        d = k * t if t <= 24 else d24 + b * math.log(t / 24.0)
        kin_rows.append((str(t), f"{d * (1.0 + rng.normal(0.0, 0.015)):.4f}", "0.07"))
    _write_csv(out / "kinetics_native_oxide.csv", "time_hours,thickness_nm,sigma_nm",
               kin_rows)

    d_ox = float(rng.uniform(1.8, 3.5))
    x, y = xps_spectrum(rng, d_ox, xps_step)
    _write_csv(out / "xps_al2p.csv", "binding_energy_eV,counts",
               ((f"{a:.2f}", f"{c:.4f}") for a, c in zip(x, y)))

    (out / "config.yaml").write_text(config_yaml(point))
    return {
        "point": point,
        "tls_q_tls0": tls["q_tls0"],
        "xps_thickness_nm": d_ox,
        "kinetics_d_last_nm": d600,
        "spr_rows": [[r[0], float(r[1]), float(r[2]), float(r[3])] for r in spr_rows],
        "sizes": {
            "tls_points": len(rows),
            "tls_points_fitted": n_photon * n_temps,
            "xps_samples": int(x.size),
            "xps_samples_in_window": int(np.count_nonzero(
                (x >= XPS_WINDOW[0]) & (x <= XPS_WINDOW[1]))),
            "spr_points": len(spr_rows),
            "kinetics_points": len(kin_rows),
        },
    }
