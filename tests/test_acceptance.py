"""End-to-end acceptance gate.

Each test pins one published or derived target at its stated tolerance;
the terminal summary (see conftest) prints one pass/fail line per
criterion.  Inputs are the shipped paper-defaults numbers.
"""

import json
import math

import numpy as np
import pytest

from qlb import cli
from qlb.budget import (
    ParticipationConfig,
    budget_fractions,
    carbon_thickness,
    solve_alox,
    solve_hc,
    solve_ms_sa,
)
from qlb.pipeline import paper_defaults_path, read_kinetics
from qlb.qubit import (
    JunctionDims,
    QubitGeometry,
    TangentSet,
    junction_capacitance,
    junction_energy_fraction,
    predict_inv_q,
    predict_q,
    solve_barrier_tangent,
    surface_fractions,
    three_way_budget,
)
from qlb.spr import SprPoints, fit_through_origin, pool_tangents
from qlb.tls import QGrid, TlsParams, fit_tls, q_tls
from qlb.uncert import UValue, mc_propagate, propagate
from qlb.xps import (
    KineticsPoints,
    PeakComponent,
    StrohmeierConstants,
    XpsSpectrum,
    fit_components,
    fit_kinetics,
    invert_strohmeier,
    shirley_background,
    strohmeier_thickness,
    synthesize_spectrum,
    component_area,
)

# --- paper-defaults inputs ---------------------------------------------------

CFG = ParticipationConfig()  # r_ma = 0.105, r_sa = 1.15, t0 = 3.0 nm

TAN_HF = UValue(1.77e-3, 0.08e-3)
TAN_HF90 = UValue(2.51e-3, 0.29e-3)
TAN_UNTR = UValue(3.19e-3, 0.22e-3)
T_HF = UValue(1.90, 0.05)
T_HF90 = UValue(3.11, 0.09)
T_UNTR = UValue(2.69, 0.07)
T_HC = UValue(0.52, 0.0)

TAN_HF_N1 = UValue(12.39e-4, 0.4e-4)
TAN_HF90_N1 = UValue(13.66e-4, 1.0e-4)

GEOM = QubitGeometry(
    p_capacitor=0.983e-4,
    p_ms_leads=0.160e-4,
    p_ma_leads=0.013e-4,
    c_shunt=96.0,
    junction=JunctionDims(UValue(200.0, 50.0), UValue(200.0, 50.0),
                          UValue(2.0, 0.5), eps_r=9.0),
)
TANGENTS_LINEAR = TangentSet(UValue(11.3e-4, 0.5e-4), UValue(1.74e-2, 0.7e-2),
                             UValue(6.19e-4, 4.96e-4), regime="linear-absorption")
TANGENTS_N1 = TangentSet(UValue(7.8e-4, 0.4e-4), UValue(2.99e-3, 0.23e-3),
                         UValue(10.4e-4, 0.1e-4), regime="single-photon")
Q_MEASURED = UValue(9.74e6, 0.33e6)


def budget_chain():
    alox = solve_alox(TAN_HF, TAN_HF90, T_HF, T_HF90, CFG)
    ms_sa = solve_ms_sa(TAN_HF, alox, T_HF, CFG)
    hc = solve_hc(TAN_UNTR, alox, ms_sa, T_UNTR, T_HC, CFG)
    return alox, ms_sa, hc


# --- criteria ----------------------------------------------------------------


def test_criterion_01_alox_tangent():
    alox, _, _ = budget_chain()
    assert alox.value == pytest.approx(1.74e-2, rel=0.05)
    assert alox.sigma == pytest.approx(0.7e-2, rel=0.25)


def test_criterion_02_ms_sa_remainder():
    _, ms_sa, _ = budget_chain()
    assert ms_sa.value == pytest.approx(6.19e-4, rel=0.05)


def test_criterion_03_hydrocarbon_tangent():
    _, _, hc = budget_chain()
    assert hc.value == pytest.approx(3.89e-3, abs=1.12e-3)


def test_criterion_04_budget_fractions():
    alox, ms_sa, hc = budget_chain()
    fractions, _ = budget_fractions(TAN_UNTR, alox, hc, ms_sa, T_UNTR, T_HC, CFG)
    published = {"alox": (52.4, 21.5), "hydrocarbon": (27.7, 7.2),
                 "ms_sa": (19.8, 15.9)}
    for key, (central, sigma) in published.items():
        assert fractions[key].value == pytest.approx(central, abs=sigma)
        assert fractions[key].value == pytest.approx(central, abs=3.0)
    assert sum(v.value for v in fractions.values()) == pytest.approx(100.0, abs=1e-9)


def test_criterion_05_qubit_linear_regime():
    inv_q = predict_inv_q(GEOM, TANGENTS_LINEAR)
    q = predict_q(GEOM, TANGENTS_LINEAR)
    assert inv_q.value == pytest.approx(1.436e-7, rel=0.01)
    assert inv_q.sigma == pytest.approx(0.130e-7, rel=0.25)
    assert q.value == pytest.approx(7.0e6, rel=0.01)


def test_criterion_06_qubit_single_photon_regime():
    inv_q = predict_inv_q(GEOM, TANGENTS_N1)
    q = predict_q(GEOM, TANGENTS_N1)
    assert inv_q.value == pytest.approx(0.972e-7, rel=0.01)
    assert q.value == pytest.approx(10.3e6, rel=0.01)


def test_criterion_07_surface_split():
    cap, leads = surface_fractions(GEOM, TANGENTS_N1)
    assert cap.value == pytest.approx(78.8, abs=0.3)
    assert leads.value == pytest.approx(21.1, abs=0.3)


def test_criterion_08_junction_capacitance():
    c_jj = junction_capacitance(GEOM.junction)
    assert c_jj.value == pytest.approx(1.59, rel=0.01)
    assert c_jj.sigma == pytest.approx(0.89, rel=0.15)
    frac = junction_energy_fraction(c_jj, GEOM.c_shunt)
    assert frac.value * 100.0 == pytest.approx(1.6, abs=0.1)


def test_criterion_09_barrier_solve():
    c_jj = junction_capacitance(GEOM.junction)
    inv_q_surf = predict_inv_q(GEOM, TANGENTS_N1)
    solve = solve_barrier_tangent(Q_MEASURED, inv_q_surf, c_jj, GEOM.c_shunt)
    assert solve.tan_barrier.value == pytest.approx(4.3e-7, rel=0.05)
    assert solve.scaled_contribution.value == pytest.approx(7.01e-9, rel=0.05)
    assert 1.35e8 <= solve.limiting_q.value <= 1.50e8
    budget3 = three_way_budget(GEOM, TANGENTS_N1, Q_MEASURED, c_jj)
    published = {"capacitor": 73.5, "junction_leads": 19.7, "barrier": 6.8}
    for key, central in published.items():
        assert budget3[key].value == pytest.approx(central, abs=0.5)


def test_criterion_10_single_photon_ladder():
    alox_n1 = solve_alox(TAN_HF_N1, TAN_HF90_N1, T_HF, T_HF90, CFG)
    ms_sa_n1 = solve_ms_sa(TAN_HF_N1, alox_n1, T_HF, CFG)
    assert alox_n1.value == pytest.approx(2.99e-3, rel=0.05)
    assert ms_sa_n1.value == pytest.approx(1.04e-3, rel=0.05)


F0 = 5e9
TLS_TRUE = TlsParams(UValue(1.2e6), D=2.0e4, beta1=1.0, beta2=0.8,
                     q_other=6.0e6, f0=F0)


def tls_grid(noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    pts = []
    for T in (0.010, 0.025, 0.050, 0.090):
        for n in np.geomspace(0.1, 1e5, 9):
            inv_q = 1.0 / q_tls(n, T, TLS_TRUE) + 1.0 / TLS_TRUE.q_other
            if noise:
                inv_q *= 1.0 + rng.normal(0.0, noise)
            q = 1.0 / inv_q
            pts.append((n, T, q, max(noise, 1e-4) * q))
    return QGrid(*zip(*pts))


def test_criterion_11_tls_model():
    # limit identities
    from qlb.constants import HBAR, K_B

    th = math.tanh(HBAR * 2 * math.pi * F0 / (2 * K_B * 0.010))
    assert q_tls(0.0, 0.010, TLS_TRUE) == pytest.approx(
        TLS_TRUE.q_tls0.value / th, rel=1e-12
    )
    assert q_tls(0.0, 1e-3, TLS_TRUE) == pytest.approx(
        TLS_TRUE.q_tls0.value, rel=1e-12
    )
    # monotone in photon number on a 100-point grid
    grid = np.geomspace(1e-3, 1e7, 100)
    q = [q_tls(n, 0.025, TLS_TRUE) for n in grid]
    assert np.all(np.diff(q) > 0)
    # noiseless round trip: every parameter within 0.1%
    params, _ = fit_tls(tls_grid(), f0=F0)
    assert params.q_tls0.value == pytest.approx(TLS_TRUE.q_tls0.value, rel=1e-3)
    assert params.D == pytest.approx(TLS_TRUE.D, rel=1e-3)
    assert params.beta1 == pytest.approx(TLS_TRUE.beta1, rel=1e-3)
    assert params.beta2 == pytest.approx(TLS_TRUE.beta2, rel=1e-3)
    assert params.q_other == pytest.approx(TLS_TRUE.q_other, rel=1e-3)
    # noisy round trip: q_tls0 pull within 3 sigma in >= 90 of 100 runs
    hits = 0
    for seed in range(100):
        fit, _ = fit_tls(tls_grid(noise=0.01, seed=seed), f0=F0)
        if abs(fit.q_tls0.value - TLS_TRUE.q_tls0.value) <= 3 * fit.q_tls0.sigma:
            hits += 1
    assert hits >= 90, f"only {hits}/100 noisy fits within 3 sigma"


def test_criterion_12_regression():
    # exact on noiseless through-origin data
    pts = SprPoints(*zip(*[(x, 2.5e-3 * x, 1e-8) for x in (1e-4, 2e-4, 5e-4)]))
    assert fit_through_origin(pts).value == pytest.approx(2.5e-3, rel=1e-12)
    # scale equivariance to machine precision
    base = SprPoints([1.0, 2.0, 3.0], [2.1, 3.9, 6.3], [0.2, 0.1, 0.3])
    for c in (1e-4, 0.37, 128.0):
        scaled = SprPoints(base.p_ms * c, base.inv_q, base.sigma)
        assert fit_through_origin(scaled).value * c == pytest.approx(
            fit_through_origin(base).value, rel=1e-12
        )
    # pooled per-chip HF tangents against the closed-form oracle
    chips = [UValue(1.86e-3, 0.18e-3), UValue(1.68e-3, 0.14e-3),
             UValue(1.34e-3, 0.07e-3), UValue(1.95e-3, 0.08e-3)]
    w = np.array([1 / v.sigma ** 2 for v in chips])
    vals = np.array([v.value for v in chips])
    oracle = UValue(float(np.sum(w * vals) / np.sum(w)),
                    float(1 / np.sqrt(np.sum(w))))
    pooled = pool_tangents(chips)
    assert pooled.value == pytest.approx(oracle.value, rel=1e-14)
    assert pooled.sigma == pytest.approx(oracle.sigma, rel=1e-14)
    assert pooled.value == pytest.approx(1.631e-3, abs=0.001e-3)
    assert pooled.sigma == pytest.approx(0.048e-3, abs=0.001e-3)


def test_criterion_13_xps_round_trip():
    consts = StrohmeierConstants()
    # trivial / symmetric / inversion identities
    assert strohmeier_thickness(UValue(0.0), UValue(1.0), consts).value == (
        pytest.approx(0.0, abs=1e-12)
    )
    sym = StrohmeierConstants(lambda_m=2.8, lambda_ox=2.8, n_m=1.0, n_ox=1.0)
    assert strohmeier_thickness(UValue(math.e - 1), UValue(1.0), sym).value == (
        pytest.approx(2.8, rel=1e-12)
    )
    ratio = invert_strohmeier(2.69, consts)
    assert strohmeier_thickness(UValue(ratio), UValue(1.0), consts).value == (
        pytest.approx(2.69, rel=1e-12)
    )
    # synthesize -> background -> fit -> thickness round trip at 1% relative
    # noise.  The scan is kept wide so the Lorentzian metal tails are inside
    # the background window; with anchors on the tails the recovered metal
    # area (and hence the thickness) acquires a few-percent bias.
    i_m = 1000.0
    i_ox = ratio * i_m
    comps = [
        PeakComponent("Al0", "lorentzian", 72.6, 0.45, area=i_m * 2 / 3,
                      doublet=True),
        PeakComponent("Al_int", "gaussian", 74.1, 1.3, area=0.25 * i_ox * 2 / 3,
                      doublet=True),
        PeakComponent("Al3+", "gaussian", 75.5, 1.7, area=0.75 * i_ox * 2 / 3,
                      doublet=True, center_window=0.5),
    ]
    clean = synthesize_spectrum(comps, background_kind=("shirley", 60.0, 220.0),
                                energy_lo=58.0, energy_hi=92.0)
    rng = np.random.default_rng(99)
    noisy = clean.intensity * (1.0 + rng.normal(0.0, 0.01, clean.intensity.size))
    spec = XpsSpectrum(clean.binding_energy, np.maximum(noisy, 0.0))
    windowed, bg = shirley_background(spec, 66.0, 84.0)
    result = fit_components(windowed, bg, comps)
    # doublet constraints hold exactly in the fitted output
    by_label = {c.label: c for c in result.components}
    for label in ("Al0", "Al_int", "Al3+"):
        main, partner = by_label[label], by_label[label + "_1/2"]
        assert partner.center == main.center + 0.44
        assert partner.area == main.area / 2.0
    fit_m = component_area(result, "Al0")
    fit_ox = component_area(result, "Al_int") + component_area(result, "Al3+")
    d = strohmeier_thickness(UValue(fit_ox), UValue(fit_m), consts)
    assert d.value == pytest.approx(2.69, rel=0.03)
    # Shirley endpoints anchored to the 3-sample averages
    y = windowed.intensity
    assert bg[0] == pytest.approx(float(np.mean(y[:3])), abs=1e-6 * np.max(y))
    assert bg[-1] == pytest.approx(float(np.mean(y[-3:])), abs=1e-6 * np.max(y))


def test_criterion_14_kinetics():
    # generator round trip within 10% on all parameters
    k, tb, b = 2.3 / 24.0, 24.0, (3.0 - 2.3) / math.log(600.0 / 24.0)
    rng = np.random.default_rng(7)
    times = [1, 2, 4, 8, 12, 18, 24, 48, 96, 200, 400, 600]
    thick = []
    for t in times:
        d = k * t if t <= tb else k * tb + b * math.log(t / tb)
        thick.append(UValue(d * (1 + rng.normal(0, 0.015)), 0.07))
    fit = fit_kinetics(KineticsPoints(times, [v.value for v in thick],
                                      [v.sigma for v in thick]))
    assert fit.k_lin == pytest.approx(k, rel=0.10)
    assert fit.t_break == pytest.approx(tb, rel=0.10)
    assert fit.log_b == pytest.approx(b, rel=0.10)
    # bundled paper-shaped dataset saturates in the published window
    bundled = fit_kinetics(read_kinetics(
        paper_defaults_path().parent / "kinetics_native_oxide.csv"
    ))
    assert 2.9 <= bundled.d_sat <= 3.2
    # one carbon monolayer per 7.6 at.%
    assert carbon_thickness(7.6) == pytest.approx(0.5, abs=1e-15)


def test_criterion_15_first_order_vs_monte_carlo():
    """First-order sigma within 10% of the Monte-Carlo sigma (1e6 samples).

    Covers every budget and qubit operation whose output distribution is
    well approximated by a Gaussian at the shipped inputs.  The two
    reciprocal-heavy operations (junction capacitance, barrier-tangent
    solve) are excluded: their inputs carry >= 25% relative error on a
    denominator, so the sampled distribution has divergent heavy tails and
    no finite-sample standard deviation to converge to, while the quoted
    first-order sigmas are the ones the downstream algebra relies on.
    """
    alox, ms_sa, hc = budget_chain()
    t0 = CFG.t0
    rma, rsa = CFG.r_ma, CFG.r_sa
    cs = GEOM.c_shunt
    pc, pma, pms = GEOM.p_capacitor, GEOM.p_ma_leads, GEOM.p_ms_leads
    c_jj = junction_capacitance(GEOM.junction)

    ops = {
        "solve_alox": (
            lambda a, b, c, d, r: (b - a) * t0 / ((d - c) * r),
            [TAN_HF, TAN_HF90, T_HF, T_HF90, rma],
        ),
        "solve_ms_sa": (
            lambda thf, ta, t, r: thf - ta * r * t / t0,
            [TAN_HF, alox, T_HF, rma],
        ),
        "solve_hc": (
            lambda tu, ta, ms, tox, thc, r1, r2:
                (t0 / thc) / (r1 + r2) * (tu - r1 * (tox / t0) * ta - ms),
            [TAN_UNTR, alox, ms_sa, T_UNTR, T_HC, rma, rsa],
        ),
        "fraction_alox": (
            lambda tu, ta, tox, r: r * (tox / t0) * ta / tu * 100.0,
            [TAN_UNTR, alox, T_UNTR, rma],
        ),
        "fraction_hydrocarbon": (
            lambda tu, th, thc, r1, r2: (r1 + r2) * (thc / t0) * th / tu * 100.0,
            [TAN_UNTR, hc, T_HC, rma, rsa],
        ),
        "fraction_ms_sa": (
            lambda tu, ms: ms / tu * 100.0,
            [TAN_UNTR, ms_sa],
        ),
        "predict_inv_q_linear": (
            lambda tc, ta, tm: pc * tc + pma * ta + pms * tm,
            [TANGENTS_LINEAR.tan_capacitor, TANGENTS_LINEAR.tan_alox_leads,
             TANGENTS_LINEAR.tan_ms_leads],
        ),
        "predict_inv_q_single_photon": (
            lambda tc, ta, tm: pc * tc + pma * ta + pms * tm,
            [TANGENTS_N1.tan_capacitor, TANGENTS_N1.tan_alox_leads,
             TANGENTS_N1.tan_ms_leads],
        ),
        "surface_fraction_capacitor": (
            lambda tc, ta, tm:
                pc * tc / (pc * tc + pma * ta + pms * tm) * 100.0,
            [TANGENTS_N1.tan_capacitor, TANGENTS_N1.tan_alox_leads,
             TANGENTS_N1.tan_ms_leads],
        ),
        "surface_fraction_leads": (
            lambda tc, ta, tm:
                (pma * ta + pms * tm) / (pc * tc + pma * ta + pms * tm) * 100.0,
            [TANGENTS_N1.tan_capacitor, TANGENTS_N1.tan_alox_leads,
             TANGENTS_N1.tan_ms_leads],
        ),
        "junction_energy_fraction": (
            lambda c: c / (c + cs),
            [c_jj],
        ),
    }
    for seed, (name, (f, inputs)) in enumerate(sorted(ops.items())):
        first = propagate(f, inputs)
        mc = mc_propagate(f, inputs, n_samples=10 ** 6, seed=seed)
        assert mc.sigma == pytest.approx(first.sigma, rel=0.10), name


def test_criterion_16_pipeline_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli.main(["--out", str(out1), "report"]) == 0
    assert cli.main(["--out", str(out2), "report"]) == 0
    capsys.readouterr()
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    # schema validation
    assert r1["schema_version"] == 1
    for key in ("provenance", "stages", "warnings", "skipped"):
        assert key in r1
    for key in ("software_version", "config_sha256", "defaults_used",
                "constants", "seed", "timestamp"):
        assert key in r1["provenance"]
    assert r1["skipped"] == []
    assert set(r1["stages"]) == {"tls_fit", "spr_fit", "budget", "qubit",
                                 "xps_fit", "kinetics"}
    # byte-identical modulo the provenance timestamp
    for r in (r1, r2):
        r["provenance"].pop("timestamp")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
