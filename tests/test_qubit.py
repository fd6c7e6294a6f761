import math

import pytest

from qlb import qubit
from qlb.constants import EPS0
from qlb.errors import DegenerateSystemError, InvalidInputError
from qlb.qubit import (
    JunctionDims,
    QubitGeometry,
    TangentSet,
    junction_capacitance,
    junction_energy_fraction,
    predict_inv_q,
    predict_q,
    predict_regime,
    solve_barrier_tangent,
    surface_fractions,
    three_way_budget,
)
from qlb.uncert import UValue


def make_geom(junction=None):
    return QubitGeometry(
        p_capacitor=0.983e-4,
        p_ms_leads=0.160e-4,
        p_ma_leads=0.013e-4,
        c_shunt=96.0,
        junction=junction or JunctionDims(
            UValue(200.0, 50.0), UValue(200.0, 50.0), UValue(2.0, 0.5), eps_r=9.0
        ),
    )


def make_tangents(regime="linear-absorption"):
    if regime == "linear-absorption":
        return TangentSet(UValue(11.3e-4, 0.5e-4), UValue(1.74e-2, 0.7e-2),
                          UValue(6.19e-4, 4.96e-4), regime=regime)
    return TangentSet(UValue(7.8e-4, 0.4e-4), UValue(2.99e-3, 0.23e-3),
                      UValue(10.4e-4, 0.1e-4), regime=regime)


class TestPrediction:
    def test_inv_q_closed_form(self):
        geom, tangents = make_geom(), make_tangents()
        out = predict_inv_q(geom, tangents)
        expected = (geom.p_capacitor * 11.3e-4 + geom.p_ma_leads * 1.74e-2
                    + geom.p_ms_leads * 6.19e-4)
        assert out.value == pytest.approx(expected, rel=1e-14)

    def test_q_is_reciprocal(self):
        geom, tangents = make_geom(), make_tangents()
        inv_q = predict_inv_q(geom, tangents)
        q = predict_q(geom, tangents)
        assert q.value == pytest.approx(1.0 / inv_q.value, rel=1e-14)
        assert q.sigma / q.value == pytest.approx(inv_q.sigma / inv_q.value, rel=1e-12)

    def test_fractions_sum_to_100(self):
        geom = make_geom()
        for regime in ("linear-absorption", "single-photon"):
            cap, leads = surface_fractions(geom, make_tangents(regime))
            assert cap.value + leads.value == pytest.approx(100.0, abs=1e-9)

    def test_single_channel_dominates(self):
        geom = make_geom()
        t = TangentSet(UValue(1e-3, 1e-5), UValue(0.0), UValue(0.0))
        cap, leads = surface_fractions(geom, t)
        assert cap.value == pytest.approx(100.0, abs=1e-9)
        assert leads.value == pytest.approx(0.0, abs=1e-9)


    @pytest.mark.parametrize("regime", ["linear-absorption", "single-photon"])
    def test_regime_is_the_three_predictions_in_one_propagation(self, regime, monkeypatch):
        geom, tangents = make_geom(), make_tangents(regime)
        expected = (predict_inv_q(geom, tangents), predict_q(geom, tangents),
                    *surface_fractions(geom, tangents))
        calls = []
        propagate_joint = qubit.propagate_joint

        def counted(f, *args):
            calls.append(0)
            return propagate_joint(lambda *x: calls.append(1) or f(*x), *args)

        monkeypatch.setattr(qubit, "propagate_joint", counted)
        assert predict_regime(geom, tangents) == expected  # bit for bit
        assert calls == [0, 1, 1, 1, 1]  # one propagation: the means, then 3 inputs

    def test_regime_without_loss_is_degenerate(self):
        t = TangentSet(UValue(0.0), UValue(0.0), UValue(0.0))
        with pytest.raises(DegenerateSystemError, match="Q undefined"):
            predict_regime(make_geom(), t)

    def test_fractions_without_loss_raise_the_regime_error(self):
        t = TangentSet(UValue(0.0), UValue(0.0), UValue(0.0))
        with pytest.raises(DegenerateSystemError, match=r"^zero predicted loss, Q undefined$"):
            surface_fractions(make_geom(), t)


class TestJunction:
    def test_parallel_plate_closed_form(self):
        jj = JunctionDims(UValue(100.0), UValue(100.0), UValue(1.0), eps_r=9.0)
        expected = EPS0 * 9.0 * (100e-9 * 100e-9) / 1e-9 / 1e-15
        out = junction_capacitance(jj)
        assert out.value == pytest.approx(expected, rel=1e-14)
        assert out.sigma == 0.0

    def test_correlated_lateral_sigma(self):
        # width and length come from the same imaging step: coherent sum
        jj = JunctionDims(UValue(200.0, 50.0), UValue(200.0, 50.0),
                          UValue(2.0, 0.5), eps_r=9.0)
        out = junction_capacitance(jj)
        rel = math.hypot(50 / 200 + 50 / 200, 0.5 / 2.0)
        assert out.sigma / out.value == pytest.approx(rel, rel=1e-12)

    def test_energy_fraction_closed_form(self):
        out = junction_energy_fraction(UValue(4.0, 0.0), 96.0)
        assert out.value == pytest.approx(0.04, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            JunctionDims(UValue(-1.0), UValue(1.0), UValue(1.0))
        with pytest.raises(InvalidInputError):
            junction_energy_fraction(UValue(1.0, 0.1), 0.0)


BARRIER_RULE = "barrier share is non-positive; surfaces already exceed measured loss"


class TestBarrierSolve:
    def test_forward_inverse_identity(self):
        cs, cj, tan_b, inv_q_surf = 96.0, 1.6, 5e-7, 9.7e-8
        inv_q_meas = (cs / (cs + cj)) * inv_q_surf + (cj / (cs + cj)) * tan_b
        solve = solve_barrier_tangent(
            UValue(1.0 / inv_q_meas), UValue(inv_q_surf), UValue(cj), cs
        )
        assert solve.tan_barrier.value == pytest.approx(tan_b, rel=1e-9)
        assert solve.scaled_contribution.value == pytest.approx(
            cj / (cs + cj) * tan_b, rel=1e-9
        )
        assert solve.limiting_q.value == pytest.approx(
            (cs + cj) / (cj * tan_b), rel=1e-9
        )

    def test_surfaces_exceeding_measured_loss_rejected(self):
        with pytest.raises(DegenerateSystemError):
            solve_barrier_tangent(UValue(1e8), UValue(1e-7), UValue(1.6), 96.0)

    @pytest.mark.parametrize("solve, kind, message", [
        (lambda geom, sp, c_jj: solve_barrier_tangent(UValue(-5.0), UValue(1e-7), c_jj, 96.0),
         InvalidInputError, "measured Q must be positive"),
        (lambda geom, sp, c_jj: solve_barrier_tangent(UValue(1e6), UValue(1e-7), UValue(0.0),
                                                      96.0),
         DegenerateSystemError, "zero junction capacitance"),
        (lambda geom, sp, c_jj: three_way_budget(geom, sp, UValue(-5.0), c_jj),
         InvalidInputError, "measured Q must be positive"),
        (lambda geom, sp, c_jj: three_way_budget(geom, sp, UValue(1e9), c_jj),
         DegenerateSystemError, BARRIER_RULE),
        (lambda geom, sp, c_jj: solve_barrier_tangent(UValue(1e9), predict_inv_q(geom, sp),
                                                      c_jj, geom.c_shunt),
         DegenerateSystemError, BARRIER_RULE),
    ], ids=["solve-negative-q", "solve-zero-c-jj", "budget-negative-q", "budget-q-1e9",
            "solve-q-1e9"])
    def test_rejected_inputs(self, solve, kind, message):
        geom = make_geom()
        with pytest.raises(kind, match=f"^{message}$"):
            solve(geom, make_tangents("single-photon"), junction_capacitance(geom.junction))

    def test_barrier_rule_is_checked_before_propagating(self, monkeypatch):
        geom, sp = make_geom(), make_tangents("single-photon")
        c_jj, inv_q = junction_capacitance(geom.junction), predict_inv_q(geom, sp)
        monkeypatch.setattr(qubit, "propagate_joint", None)  # a call would raise TypeError
        for solve in (lambda: three_way_budget(geom, sp, UValue(1e9), c_jj),
                      lambda: solve_barrier_tangent(UValue(1e9), inv_q, c_jj, geom.c_shunt)):
            with pytest.raises(DegenerateSystemError, match=f"^{BARRIER_RULE}$"):
                solve()

    def test_three_way_budget_sums_to_100(self):
        geom = make_geom()
        tangents = make_tangents("single-photon")
        c_jj = junction_capacitance(geom.junction)
        out = three_way_budget(geom, tangents, UValue(9.74e6, 0.33e6), c_jj)
        total = sum(v.value for v in out.values())
        assert total == pytest.approx(100.0, abs=1e-9)
        assert set(out) == {"capacitor", "junction_leads", "barrier"}


def test_tangent_set_validation():
    with pytest.raises(InvalidInputError):
        TangentSet(UValue(-1e-4), UValue(1e-3), UValue(1e-3))
    with pytest.raises(InvalidInputError):
        TangentSet(UValue(1e-4), UValue(1e-3), UValue(1e-3), regime="other")
