import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlb.budget import (
    ParticipationConfig,
    budget_fractions,
    carbon_thickness,
    solve_alox,
    solve_budget,
    solve_hc,
    solve_hf_pair,
    solve_ms_sa,
)
from qlb.errors import (
    DegenerateSystemError,
    InconsistentInputsWarning,
    InvalidInputError,
)
from qlb.uncert import UValue

CFG = ParticipationConfig()  # r_ma = 0.105, r_sa = 1.15, t0 = 3.0 nm
# solve_budget's arguments at the bundled paper values
BUDGET_ARGS = dict(tan_hf=UValue(1.77e-3), tan_hf90=UValue(2.51e-3),
                   tan_untreated=UValue(3.19e-3), t_hf=UValue(1.9), t_hf90=UValue(3.1),
                   t_untreated_ox=UValue(2.7), t_hc=UValue(0.5), cfg=CFG)


def forward_tangents(tan_alox, ms_sa, tan_hc, t_hf, t_hf90, t_ox, t_hc, cfg):
    """Forward model used to build self-consistent solver inputs."""
    r_ma, r_sa, t0 = cfg.r_ma.value, cfg.r_sa.value, cfg.t0
    tan_hf = r_ma * (t_hf / t0) * tan_alox + ms_sa
    tan_hf90 = r_ma * (t_hf90 / t0) * tan_alox + ms_sa
    tan_untr = (r_ma * (t_ox / t0) * tan_alox
                + (r_ma + r_sa) * (t_hc / t0) * tan_hc + ms_sa)
    return tan_hf, tan_hf90, tan_untr


class TestSolverRoundTrip:
    def test_forward_inverse_identity(self):
        tan_alox, ms_sa, tan_hc = 1.2e-2, 5.0e-4, 3.5e-3
        t_hf, t_hf90, t_ox, t_hc = 1.9, 3.1, 2.7, 0.5
        f_hf, f_hf90, f_untr = forward_tangents(
            tan_alox, ms_sa, tan_hc, t_hf, t_hf90, t_ox, t_hc, CFG
        )
        a = solve_alox(UValue(f_hf), UValue(f_hf90), UValue(t_hf), UValue(t_hf90), CFG)
        m = solve_ms_sa(UValue(f_hf), a, UValue(t_hf), CFG)
        h = solve_hc(UValue(f_untr), a, m, UValue(t_ox), UValue(t_hc), CFG)
        assert a.value == pytest.approx(tan_alox, rel=1e-9)
        assert m.value == pytest.approx(ms_sa, rel=1e-9)
        assert h.value == pytest.approx(tan_hc, rel=1e-9)

    def test_hf_pair_matches_the_step_solvers(self):
        args = (UValue(1.77e-3, 0.08e-3), UValue(2.51e-3, 0.29e-3),
                UValue(1.90, 0.05), UValue(3.11, 0.09), CFG)
        alox, ms_sa = solve_hf_pair(*args)
        assert alox == solve_alox(*args)
        assert ms_sa.value == solve_ms_sa(args[0], alox, args[2], CFG).value

    def test_fractions_sum_and_consistency(self):
        tan_alox, ms_sa, tan_hc = 1.2e-2, 5.0e-4, 3.5e-3
        f_hf, f_hf90, f_untr = forward_tangents(
            tan_alox, ms_sa, tan_hc, 1.9, 3.1, 2.7, 0.5, CFG
        )
        result = solve_budget(
            UValue(f_hf), UValue(f_hf90), UValue(f_untr),
            UValue(1.9), UValue(3.1), UValue(2.7), UValue(0.5), CFG,
        )
        total = sum(v.value for v in result.fractions.values())
        assert total == pytest.approx(100.0, abs=1e-9)
        # self-consistent inputs need no renormalization
        assert result.renormalization == pytest.approx(1.0, rel=1e-9)
        assert result.warnings == ()


class TestSolverGuards:
    def test_alox_requires_regrowth(self):
        with pytest.raises(DegenerateSystemError):
            solve_alox(UValue(1e-3), UValue(2e-3), UValue(3.0), UValue(2.0), CFG)

    def test_ms_sa_negative_warns(self):
        with pytest.warns(InconsistentInputsWarning):
            out = solve_ms_sa(UValue(1e-4), UValue(1.0), UValue(2.0), CFG)
        assert out.value < 0

    def test_hc_zero_thickness(self):
        with pytest.raises(DegenerateSystemError):
            solve_hc(UValue(3e-3), UValue(1e-2), UValue(5e-4),
                     UValue(2.7), UValue(0.0), CFG)

    @pytest.mark.parametrize("tan_untreated, t_hc, message", [
        (3e-3, 0.0, r"t_hc must be > 0 nm to solve for tan_hc"),
        (0.0, 0.5, r"tan_untreated must be > 0, got 0\.0"),
        (-1e-3, 0.5, r"tan_untreated must be > 0, got -0\.001")],
        ids=["0.003-0.0", "0.0-0.5", "-0.001-0.5"])
    def test_budget_needs_positive_hc_thickness_and_untreated_tangent(self, tan_untreated,
                                                                      t_hc, message):
        with pytest.raises(DegenerateSystemError, match=f"^{message}$"):
            solve_budget(UValue(1.77e-3), UValue(2.51e-3), UValue(tan_untreated),
                         UValue(1.9), UValue(3.1), UValue(2.7), UValue(t_hc), CFG)

    @pytest.mark.parametrize("solve, kind, arg", [
        *((lambda name=name: solve_budget(**{**BUDGET_ARGS, name: UValue(-0.1)}),
           InvalidInputError, name) for name in ("t_hf", "t_hf90", "t_untreated_ox", "t_hc")),
        (lambda: solve_alox(UValue(1e-3), UValue(2e-3), UValue(3.0), UValue(2.0), CFG),
         DegenerateSystemError, "t_hf90"),
        (lambda: solve_budget(**{**BUDGET_ARGS, "t_hf90": UValue(1.9)}),
         DegenerateSystemError, "t_hf90"),
        (lambda: solve_hc(UValue(3e-3), UValue(1e-2), UValue(5e-4), UValue(2.7), UValue(0.0),
                          CFG), DegenerateSystemError, "t_hc"),
        (lambda: solve_budget(**{**BUDGET_ARGS, "t_hc": UValue(0.0)}),
         DegenerateSystemError, "t_hc"),
        (lambda: budget_fractions(UValue(0.0), UValue(1e-2), UValue(3e-3), UValue(5e-4),
                                  UValue(2.7), UValue(0.5), CFG),
         DegenerateSystemError, "tan_untreated"),
        (lambda: solve_budget(**{**BUDGET_ARGS, "tan_untreated": UValue(-1e-3)}),
         DegenerateSystemError, "tan_untreated"),
    ], ids=["negative-t_hf", "negative-t_hf90", "negative-t_untreated_ox", "negative-t_hc",
            "alox-no-regrowth", "budget-no-regrowth", "hc-zero-t_hc", "budget-zero-t_hc",
            "fractions-zero-tangent", "budget-negative-tangent"])
    def test_rejection_names_its_argument(self, solve, kind, arg):
        with pytest.raises(kind) as info:
            solve()
        assert info.value.arg == arg
        assert info.value.exit_code == 2

    def test_regrowth_error_gives_both_thicknesses(self):
        with pytest.raises(DegenerateSystemError, match=r"^regrown oxide must be thicker than "
                                                        r"fresh oxide: t_hf90 0\.0 nm, "
                                                        r"t_hf 1\.9 nm$"):
            solve_budget(**{**BUDGET_ARGS, "t_hf90": UValue(0.0)})

    def test_fractions_take_a_zero_hc_thickness(self):
        # t_hc divides only where tan_hc is solved for
        fractions, _ = budget_fractions(UValue(3e-3), UValue(1e-2), UValue(3e-3), UValue(5e-4),
                                        UValue(2.7), UValue(0.0), CFG)
        assert fractions["hydrocarbon"].value == 0.0

    def test_hc_negative_warns(self):
        with pytest.warns(InconsistentInputsWarning):
            solve_hc(UValue(1e-4), UValue(1e-2), UValue(5e-4),
                     UValue(2.7), UValue(0.5), CFG)

    @pytest.mark.parametrize("solve", [
        lambda t: solve_alox(UValue(1e-3), UValue(2e-3), t, UValue(3.0), CFG),
        lambda t: solve_hf_pair(UValue(1e-3), UValue(2e-3), t, UValue(3.0), CFG),
        lambda t: solve_ms_sa(UValue(1e-3), UValue(1e-2), t, CFG),
        lambda t: solve_hc(UValue(3e-3), UValue(1e-2), UValue(5e-4), t, UValue(0.5), CFG),
        lambda t: solve_hc(UValue(3e-3), UValue(1e-2), UValue(5e-4), UValue(2.7), t, CFG),
        lambda t: budget_fractions(UValue(3e-3), UValue(1e-2), UValue(3e-3), UValue(5e-4),
                                   t, UValue(0.5), CFG),
        lambda t: solve_budget(UValue(1.77e-3), UValue(2.51e-3), UValue(3.19e-3),
                               UValue(1.9), UValue(3.1), UValue(2.7), t, CFG),
    ])
    def test_negative_thickness_rejected(self, solve):
        with pytest.raises(InvalidInputError, match="must be >= 0"):
            solve(UValue(-0.1, 0.05))

    def test_budget_reports_negative_tangents(self):
        # an HF tangent below the regrowth slope leaves a negative MS+SA remainder
        result = solve_budget(UValue(1e-4, 1e-5), UValue(2.51e-3), UValue(3.19e-3),
                              UValue(1.9), UValue(3.1), UValue(2.7), UValue(0.5), CFG)
        assert result.tan_ms_sa.value < 0
        assert result.warnings == ("MS+SA remainder has a negative central value",)

    def test_budget_warns_on_a_negative_oxide_tangent(self):
        # an HF-90 tangent below the HF tangent solves to a negative oxide tangent
        result = solve_budget(UValue(1.77e-3), UValue(-1e-3), UValue(3.19e-3),
                              UValue(1.9), UValue(3.1), UValue(2.7), UValue(0.5), CFG)
        assert result.tan_alox.value < 0
        assert result.warnings == ("oxide tangent has a negative central value",)

    def test_participation_validation(self):
        with pytest.raises(InvalidInputError):
            ParticipationConfig(r_ma=UValue(-0.1), r_sa=UValue(1.0))
        with pytest.raises(InvalidInputError):
            ParticipationConfig(t0=0.0)


class TestCarbon:
    def test_one_monolayer(self):
        assert carbon_thickness(7.6) == pytest.approx(0.5, abs=1e-15)

    def test_linear(self):
        assert carbon_thickness(15.2) == pytest.approx(1.0, abs=1e-12)
        assert carbon_thickness(0.0) == 0.0

    def test_range_check(self):
        with pytest.raises(InvalidInputError):
            carbon_thickness(-1.0)
        with pytest.raises(InvalidInputError):
            carbon_thickness(101.0)


class TestFractionGuards:
    def test_zero_untreated_rejected(self):
        with pytest.raises(DegenerateSystemError):
            budget_fractions(UValue(0.0), UValue(1e-2), UValue(3e-3),
                             UValue(5e-4), UValue(2.7), UValue(0.5), CFG)

    def test_all_zero_terms_rejected(self):
        with pytest.raises(DegenerateSystemError, match="^all budget terms are zero$"):
            budget_fractions(UValue(3e-3), UValue(0.0), UValue(0.0),
                             UValue(0.0), UValue(2.7), UValue(0.5), CFG)

    def test_sigma_not_renormalized(self):
        # renormalization only shifts central values; sigmas stay physical
        fr, renorm = budget_fractions(
            UValue(3.19e-3, 0.22e-3), UValue(1.7475e-2, 0.7e-2),
            UValue(4.3e-3, 4.0e-3), UValue(6.08e-4, 4.7e-4),
            UValue(2.69, 0.07), UValue(0.52), CFG,
        )
        assert sum(v.value for v in fr.values()) == pytest.approx(100.0, abs=1e-9)
        assert all(v.sigma > 0 for v in fr.values())


@given(truth=st.tuples(*[st.floats(1e-3, 1e-2)] * 3),  # tan_alox, ms_sa, tan_hc
       t_hf=st.floats(1.0, 3.0), regrowth=st.floats(0.5, 2.0), t_ox=st.floats(1.0, 4.0),
       t_hc=st.floats(0.2, 2.0), r_ma=st.floats(0.05, 0.5), r_sa=st.floats(0.5, 2.0))
def test_budget_recovers_drawn_tangents(truth, t_hf, regrowth, t_ox, t_hc, r_ma, r_sa):
    # the test's own forward model builds the tangents; the solvers must invert it
    cfg = ParticipationConfig(r_ma=UValue(r_ma), r_sa=UValue(r_sa))
    t_hf90 = t_hf + regrowth
    tangents = forward_tangents(*truth, t_hf, t_hf90, t_ox, t_hc, cfg)
    thicknesses = [UValue(t) for t in (t_hf, t_hf90, t_ox, t_hc)]
    result = solve_budget(*map(UValue, tangents), *thicknesses, cfg)
    solved = (result.tan_alox.value, result.tan_ms_sa.value, result.tan_hc.value)
    assert solved == pytest.approx(truth, rel=1e-9)
    assert result.renormalization == pytest.approx(1.0, rel=1e-9)
    alox, ms_sa = solve_hf_pair(*map(UValue, tangents[:2]), *thicknesses[:2], cfg)
    assert (alox.value, ms_sa.value) == solved[:2]
