"""Regenerate the synthetic datasets bundled with the package.

The published per-resonator and per-spectrum raw data are not available,
so the bundled files are deterministic forward-model synthetics shaped to
the published summary numbers.  Run from the repo root:

    python scripts/make_bundled_data.py
"""

import csv
import math
from pathlib import Path

import numpy as np

import qlb
from qlb.tls import TlsParams, q_tls
from qlb.uncert import UValue
from qlb.xps import (
    KineticsFit,
    PeakComponent,
    StrohmeierConstants,
    invert_strohmeier,
    synthesize_spectrum,
)

DATA = Path(__file__).resolve().parent.parent / "src" / "qlb" / "data"


def make_tls_points():
    """Q_int(n_bar, T) grid from known TLS parameters plus 1% noise."""
    rng = np.random.default_rng(20240817)
    # D chosen so the saturation knee sits inside the photon-number sweep
    params = TlsParams(UValue(1.2e6), D=2.0e4, beta1=1.0, beta2=0.8,
                       q_other=6.0e6, f0=5.0e9)
    rows = []
    for T in (0.010, 0.025, 0.050, 0.090, 0.150):
        for n in np.geomspace(0.1, 1e5, 13):
            inv_q = 1.0 / q_tls(n, T, params) + 1.0 / params.q_other
            inv_q *= 1.0 + rng.normal(0.0, 0.01)
            q = 1.0 / inv_q
            rows.append((f"{n:.6g}", f"{T:.3f}", f"{q:.6g}", f"{0.01 * q:.6g}"))
    with (DATA / "tls_points.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n_bar", "temperature_K", "q_int", "sigma"])
        w.writerows(rows)


def make_spr_points():
    """Per-treatment (p_ms, Q_TLS0) points shaped to the published tangents."""
    rng = np.random.default_rng(20240818)
    slopes = {"hf": 1.77e-3, "hf_90_days": 2.51e-3, "untreated": 3.19e-3}
    rows = []
    for label, slope in slopes.items():
        for p_ms in np.linspace(0.8e-4, 6.0e-4, 8):
            inv_q = slope * p_ms * (1.0 + rng.normal(0.0, 0.05))
            q = 1.0 / inv_q
            rows.append((label, f"{p_ms:.6g}", f"{q:.6g}", f"{0.05 * q:.6g}"))
    with (DATA / "spr_points.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["treatment", "p_ms", "q_tls0", "sigma_q"])
        w.writerows(rows)


def make_kinetics():
    """Linear-then-logarithmic oxide growth: 2.3 nm at 24 h, ~3 nm at 600 h."""
    rng = np.random.default_rng(20240819)
    k, tb = 2.3 / 24.0, 24.0
    b = (3.0 - 2.3) / math.log(600.0 / 24.0)
    law = KineticsFit(k_lin=k, t_break=tb, log_a=k * tb - b * math.log(tb), log_b=b,
                      d_sat=3.0)
    times = [1, 2, 4, 8, 12, 18, 24, 48, 96, 200, 400, 600]
    with (DATA / "kinetics_native_oxide.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time_hours", "thickness_nm", "sigma_nm"])
        for t in times:
            d = float(law.thickness(t)) * (1.0 + rng.normal(0.0, 0.015))
            w.writerow([t, f"{d:.4f}", "0.07"])


def make_xps_spectrum():
    """Al2p doublet spectrum with an oxide/metal ratio giving 2.69 nm."""
    consts = StrohmeierConstants()
    ratio = invert_strohmeier(2.69, consts)
    i_m = 1000.0
    i_ox = ratio * i_m
    comps = [
        PeakComponent("Al0", "lorentzian", center=72.6, fwhm=0.45,
                      area=i_m * 2.0 / 3.0, doublet=True),
        PeakComponent("Al_int", "gaussian", center=74.1, fwhm=1.3,
                      area=0.25 * i_ox * 2.0 / 3.0, doublet=True),
        PeakComponent("Al3+", "gaussian", center=75.5, fwhm=1.7,
                      area=0.75 * i_ox * 2.0 / 3.0, doublet=True),
    ]
    spec = synthesize_spectrum(
        comps, background_kind=("shirley", 60.0, 220.0), noise_sigma=3.0,
        seed=20240820, energy_lo=68.0, energy_hi=82.0, step=0.05,
    )
    with (DATA / "xps_al2p.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["binding_energy_eV", "counts"])
        for be, iy in zip(spec.binding_energy, spec.intensity):
            w.writerow([f"{be:.2f}", f"{iy:.4f}"])


if __name__ == "__main__":
    make_tls_points()
    make_spr_points()
    make_kinetics()
    make_xps_spectrum()
    print(f"wrote datasets to {DATA}")
