"""First-order sigmas of each propagated chain against an end-to-end Monte Carlo.

Every primitive input of a chain is sampled once per draw and pushed
through an independent oracle of the whole chain, so the Monte-Carlo
sigmas carry the correlations between intermediate quantities.  The
budget oracle solves the forward treatment system per draw instead of
using the closed-form inverse.  Inputs are the bundled paper defaults.
"""

import numpy as np
import pytest

from qlb.budget import solve_budget, solve_hf_pair
from qlb.pipeline import load_config, paper_defaults_path
from qlb.qubit import junction_capacitance, surface_fractions, three_way_budget

N_SAMPLES = 10**6
CONFIG = load_config(paper_defaults_path())
CFG = CONFIG.participation
HF, HF90, UNTR = (CONFIG.treatments[k] for k in ("hf", "hf_90_days", "untreated"))
GEOM = CONFIG.qubit


def mc_sigmas(chain, inputs, seed):
    """Sample standard deviation of each output of ``chain`` over N_SAMPLES draws."""
    rng = np.random.default_rng(seed)
    outputs = chain(*[rng.normal(v.value, v.sigma, N_SAMPLES) for v in inputs])
    return [float(np.std(out, ddof=1)) for out in outputs]


def forward_matrix(t_hf, t_hf90, t_ox, t_hc, r_ma, r_sa):
    """M with (tan_hf, tan_hf90, tan_untreated) = M (tan_alox, ms_sa, tan_hc)."""
    t0, one, zero = CFG.t0, np.ones_like(t_hf), np.zeros_like(t_hf)
    return np.stack([
        np.stack([r_ma * t_hf / t0, one, zero], axis=-1),
        np.stack([r_ma * t_hf90 / t0, one, zero], axis=-1),
        np.stack([r_ma * t_ox / t0, one, (r_ma + r_sa) * t_hc / t0], axis=-1),
    ], axis=-2)


def budget_oracle(tan_hf, tan_hf90, tan_untr, t_hf, t_hf90, t_ox, t_hc, r_ma, r_sa):
    m = forward_matrix(t_hf, t_hf90, t_ox, t_hc, r_ma, r_sa)
    rhs = np.stack([tan_hf, tan_hf90, tan_untr], axis=-1)[..., None]
    alox, ms_sa, hc = np.linalg.solve(m, rhs)[..., 0].T
    return (alox, ms_sa, hc, m[:, 2, 0] * alox / tan_untr * 100.0,
            m[:, 2, 2] * hc / tan_untr * 100.0, ms_sa / tan_untr * 100.0)


def pair_oracle(tan_hf, tan_hf90, t_hf, t_hf90, r_ma):
    m = forward_matrix(t_hf, t_hf90, t_hf, t_hf, r_ma, r_ma)[:, :2, :2]
    rhs = np.stack([tan_hf, tan_hf90], axis=-1)[..., None]
    return tuple(np.linalg.solve(m, rhs)[..., 0].T)


def surface_oracle(tc, ta, tm):
    cap, leads = GEOM.p_capacitor * tc, GEOM.p_ma_leads * ta + GEOM.p_ms_leads * tm
    return cap / (cap + leads) * 100.0, leads / (cap + leads) * 100.0


def three_way_oracle(tc, ta, tm, c_jj, q_measured):
    # share of the measured loss 1/Q stored in the shunt-side surfaces
    shunt = GEOM.c_shunt / (GEOM.c_shunt + c_jj)
    cap = shunt * GEOM.p_capacitor * tc * q_measured * 100.0
    leads = shunt * (GEOM.p_ma_leads * ta + GEOM.p_ms_leads * tm) * q_measured * 100.0
    return cap, leads, 100.0 - cap - leads


def assert_sigmas_match(first_order, chain, inputs, seed):
    mc = mc_sigmas(chain, inputs, seed)
    assert [v.sigma for v in first_order] == pytest.approx(mc, rel=0.10)


def test_solve_budget_matches_whole_chain_mc():
    inputs = [HF["tan_delta"], HF90["tan_delta"], UNTR["tan_delta"], HF["t_ox"],
              HF90["t_ox"], UNTR["t_ox"], UNTR["t_hc"], CFG.r_ma, CFG.r_sa]
    result = solve_budget(*inputs[:7], CFG)
    outputs = [result.tan_alox, result.tan_ms_sa, result.tan_hc,
               *(result.fractions[k] for k in ("alox", "hydrocarbon", "ms_sa"))]
    assert_sigmas_match(outputs, budget_oracle, inputs, seed=21)


def test_single_photon_pair_matches_whole_chain_mc():
    inputs = [HF["tan_delta_n1"], HF90["tan_delta_n1"], HF["t_ox"], HF90["t_ox"], CFG.r_ma]
    outputs = solve_hf_pair(*inputs[:4], CFG)
    assert_sigmas_match(outputs, pair_oracle, inputs, seed=22)


@pytest.mark.parametrize("regime", ["linear-absorption", "single-photon"])
def test_surface_fractions_match_mc(regime):
    t = CONFIG.qubit_tangents[regime]
    inputs = [t.tan_capacitor, t.tan_alox_leads, t.tan_ms_leads]
    assert_sigmas_match(surface_fractions(GEOM, t), surface_oracle, inputs, seed=23)


def test_three_way_budget_matches_mc():
    t = CONFIG.qubit_tangents["single-photon"]
    c_jj = junction_capacitance(GEOM.junction)
    budget = three_way_budget(GEOM, t, CONFIG.q_measured, c_jj)
    inputs = [t.tan_capacitor, t.tan_alox_leads, t.tan_ms_leads, c_jj, CONFIG.q_measured]
    outputs = [budget[k] for k in ("capacitor", "junction_leads", "barrier")]
    assert_sigmas_match(outputs, three_way_oracle, inputs, seed=24)
