import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlb import xps
from qlb.errors import (
    CalibrationError,
    DatasetError,
    DegenerateSystemError,
    InvalidInputError,
)
from qlb.uncert import UValue, weighted_lstsq
from qlb.xps import (
    DOUBLET_AREA_RATIO,
    DOUBLET_SPLITTING_EV,
    KineticsFit,
    KineticsPoints,
    PeakComponent,
    StrohmeierConstants,
    XpsSpectrum,
    _growth_columns,
    _lineshape,
    _lineshape_grad,
    _peak_model,
    calibrate_energy,
    component_area,
    expand_doublets,
    fit_components,
    fit_kinetics,
    invert_strohmeier,
    load_spectrum,
    shirley_background,
    strohmeier_thickness,
    summed_areas,
    synthesize_spectrum,
)


class TestLineshapes:
    @pytest.mark.parametrize("shape", ["lorentzian", "gaussian"])
    def test_area_normalization(self, shape):
        x = np.arange(-400.0, 400.0, 0.01)
        y = _lineshape(x, shape, center=0.0, fwhm=1.2, area=7.0)
        assert np.trapezoid(y, x) == pytest.approx(7.0, rel=2e-3)

    @pytest.mark.parametrize("shape", ["lorentzian", "gaussian"])
    def test_fwhm(self, shape):
        fwhm = 1.2
        peak = _lineshape(np.array([0.0]), shape, 0.0, fwhm, 1.0)[0]
        half = _lineshape(np.array([fwhm / 2]), shape, 0.0, fwhm, 1.0)[0]
        assert half == pytest.approx(peak / 2, rel=1e-12)

    def test_doublet_expansion_exact(self):
        c = PeakComponent("Al0", "lorentzian", 72.6, 0.45, area=300.0, doublet=True)
        main, partner = expand_doublets([c])
        assert partner.center == pytest.approx(72.6 + DOUBLET_SPLITTING_EV, abs=0)
        assert partner.area == pytest.approx(300.0 / DOUBLET_AREA_RATIO, abs=0)
        assert partner.fwhm == main.fwhm and partner.shape == main.shape

    def test_component_validation(self):
        with pytest.raises(InvalidInputError):
            PeakComponent("x", "voigt", 72.6, 0.45)
        with pytest.raises(InvalidInputError):
            PeakComponent("x", "gaussian", 72.6, -1.0)
        with pytest.raises(InvalidInputError, match="^area must be >= 0$"):
            PeakComponent("x", "gaussian", 72.6, 0.45, area=-1.0)


class TestFitJacobian:
    """The analytic model Jacobian against central differences."""

    x = np.arange(68.0, 82.0, 0.05)
    model = (
        PeakComponent("L", "lorentzian", 72.6, 0.45, area=300.0),
        PeakComponent("G", "gaussian", 75.5, 1.7, area=250.0),
        PeakComponent("Ld", "lorentzian", 73.1, 0.6, area=120.0, doublet=True),
        PeakComponent("Gd", "gaussian", 74.1, 1.3, area=200.0, doublet=True),
        PeakComponent("Z", "gaussian", 77.0, 0.9, area=0.0, doublet=True),
    )

    def central_difference(self, p):
        cols = []
        for k in range(p.size):
            h = 1e-6 * max(1.0, abs(p[k]))
            step = np.zeros_like(p)
            step[k] = h
            cols.append((_peak_model(self.x, self.model, p + step)[0]
                         - _peak_model(self.x, self.model, p - step)[0]) / (2 * h))
        return np.column_stack(cols)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_central_difference(self, seed):
        rng = np.random.default_rng(seed)
        p = np.array([v for c in self.model for v in (c.center, c.fwhm, c.area)])
        p[0::3] += rng.uniform(-0.2, 0.2, len(self.model))
        p[1::3] *= rng.uniform(0.7, 1.4, len(self.model))
        p[2::3] *= rng.uniform(0.5, 2.0, len(self.model))  # keeps Z at area 0
        J = _peak_model(self.x, self.model, p)[1]
        J_fd = self.central_difference(p)
        # near-zero entries are judged against their column; all-zero columns stay 0
        scale = np.maximum(np.abs(J_fd).max(axis=0), np.finfo(float).tiny)
        np.testing.assert_allclose(J / scale, J_fd / scale, rtol=1e-5, atol=1e-5)
        # a zero area still gets a nonzero area column, so it can leave its bound
        assert np.abs(J[:, -1]).max() > 0

    def test_matches_the_per_peak_loop(self):
        """The per-template model against one ``_lineshape_grad`` per peak, a 1/2 partner
        added to its 3/2 member's columns: sums in another order, so equal to rounding."""
        p = np.array([v for c in self.model for v in (c.center, c.fwhm, c.area)])
        total, JT = np.zeros_like(self.x), np.zeros((p.size, self.x.size))
        for i, c in enumerate(self.model):
            for offset, factor in [(0.0, 1.0)] + [
                    (DOUBLET_SPLITTING_EV, 1.0 / DOUBLET_AREA_RATIO)] * c.doublet:
                value, d_center, d_fwhm, unit = _lineshape_grad(
                    self.x, c.shape, p[3 * i] + offset, p[3 * i + 1], p[3 * i + 2] * factor)
                total += value
                JT[3 * i: 3 * i + 3] += [d_center, d_fwhm, unit * factor]
        model, J = _peak_model(self.x, self.model, p)
        np.testing.assert_allclose(model, total, rtol=0.0, atol=4 * np.finfo(float).eps
                                   * np.abs(total).max())
        scale = np.maximum(np.abs(JT).max(axis=1), np.finfo(float).tiny)  # Z's are 0
        np.testing.assert_allclose(J / scale, JT.T / scale, rtol=0.0,
                                   atol=4 * np.finfo(float).eps)

    @settings(max_examples=30)
    @given(st.lists(st.tuples(st.sampled_from(["lorentzian", "gaussian"]),
                              st.floats(60.0, 90.0), st.floats(0.1, 3.0),
                              st.just(0.0) | st.floats(0.0, 500.0), st.booleans()),
                    max_size=5))
    def test_drawn_models_agree_with_their_peaks(self, drawn):
        """The three readers of the doublet rule on 0-5 drawn templates, centres inside and
        outside the grid: ``_peak_model`` against one ``_lineshape_grad`` per peak and
        against ``_lineshape`` over ``expand_doublets``, and each template's area row in
        ``fit_components`` (its solve skipped) against the integral of its peaks."""
        model = tuple(PeakComponent(f"c{i}", shape, center, fwhm, area=area, doublet=doublet)
                      for i, (shape, center, fwhm, area, doublet) in enumerate(drawn))
        p = np.array([v for c in model for v in (c.center, c.fwhm, c.area)])
        total, JT = np.zeros_like(self.x), np.zeros((p.size, self.x.size))
        for i, c in enumerate(model):
            for offset, factor in [(0.0, 1.0)] + [
                    (DOUBLET_SPLITTING_EV, 1.0 / DOUBLET_AREA_RATIO)] * c.doublet:
                value, d_center, d_fwhm, unit = _lineshape_grad(
                    self.x, c.shape, p[3 * i] + offset, p[3 * i + 1], p[3 * i + 2] * factor)
                total += value
                JT[3 * i: 3 * i + 3] += [d_center, d_fwhm, unit * factor]
        model_sum, J = _peak_model(self.x, model, p)
        atol = 4 * np.finfo(float).eps * np.abs(total).max()
        np.testing.assert_allclose(model_sum, total, rtol=0.0, atol=atol)
        scale = np.maximum(np.abs(JT).max(axis=1), np.finfo(float).tiny)
        np.testing.assert_allclose(J / scale, JT.T / scale, rtol=0.0,
                                   atol=4 * np.finfo(float).eps)
        peaks = sum((_lineshape(self.x, c.shape, c.center, c.fwhm, c.area)
                     for c in expand_doublets(model)), np.zeros_like(self.x))
        np.testing.assert_allclose(model_sum, peaks, rtol=0.0, atol=atol)
        if not model:
            return
        spectrum = synthesize_spectrum(model, energy_lo=55.0, energy_hi=95.0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(xps, "bounded_fit", lambda solve, evaluate, y, sigma, p0, *_: (
                SimpleNamespace(x=p0, cost=0.0), np.zeros((p0.size, p0.size))))
            fit = fit_components(spectrum, np.zeros_like(spectrum.intensity), model)
        u = np.linspace(-15.0, 15.0, 30001)  # x = 75 + sinh(u) spans +-1.6e6 eV
        for i, c in enumerate(model):
            fitted = replace(c, center=fit.params[3 * i], fwhm=fit.params[3 * i + 1],
                             area=fit.params[3 * i + 2])
            y = sum(_lineshape(75.0 + np.sinh(u), d.shape, d.center, d.fwhm, d.area)
                    for d in expand_doublets([fitted]))
            assert fit.area_rows[c.label] @ fit.params == pytest.approx(
                np.trapezoid(y * np.cosh(u), u), rel=1e-5, abs=1e-9)

    def test_no_peaks_give_zero_and_no_columns(self):
        model, J = _peak_model(self.x, (), [])
        assert not model.any() and J.shape == (self.x.size, 0)

    @pytest.mark.parametrize("shape", ["lorentzian", "gaussian"])
    def test_kernel_value_matches_lineshape(self, shape):
        value, *_ = _lineshape_grad(self.x, shape, 74.0, 0.8, 33.0)
        np.testing.assert_allclose(value, _lineshape(self.x, shape, 74.0, 0.8, 33.0),
                                   rtol=1e-14)


class TestSpectrumIngestion:
    def test_validation(self):
        with pytest.raises(DatasetError):
            XpsSpectrum(np.arange(5.0), np.ones(5))
        with pytest.raises(InvalidInputError):
            XpsSpectrum(np.zeros(20), np.ones(20))
        with pytest.raises(InvalidInputError):
            XpsSpectrum(np.arange(20.0), -np.ones(20))

    def test_load_and_header_requirement(self, tmp_path):
        good = tmp_path / "good.csv"
        rows = "\n".join(f"{70 + 0.1 * i:.1f},{100 + i}" for i in range(20))
        good.write_text("binding_energy_eV,counts\n" + rows + "\n")
        spec = load_spectrum(good)
        assert spec.binding_energy.size == 20
        bad = tmp_path / "bad.csv"
        bad.write_text("70.0,100\n70.1,101\n" + rows)
        with pytest.raises(DatasetError):
            load_spectrum(bad)

    def test_unknown_synthetic_background_rejected(self):
        with pytest.raises(InvalidInputError, match="^unknown background kind 'linear'$"):
            synthesize_spectrum([PeakComponent("m", "gaussian", 73.0, 0.6, area=500.0)],
                                background_kind=("linear", 10.0))


class TestCalibration:
    def test_shift_applied(self):
        spec = synthesize_spectrum(
            [PeakComponent("m", "gaussian", 73.0, 0.6, area=500.0)],
            background_kind=("flat", 10.0),
        )
        out = calibrate_energy(spec, "m", 72.6)
        assert out.metadata["energy_shift_eV"] == pytest.approx(-0.4, abs=0.03)
        peak_be = out.binding_energy[np.argmax(out.intensity)]
        assert peak_be == pytest.approx(72.6, abs=0.03)

    def test_flat_spectrum_rejected(self):
        spec = XpsSpectrum(np.arange(68.0, 82.0, 0.1),
                           np.full(140, 50.0))
        with pytest.raises(CalibrationError):
            calibrate_energy(spec, "m", 72.6)

    def test_window_outside_scan(self):
        spec = synthesize_spectrum(
            [PeakComponent("m", "gaussian", 73.0, 0.6, area=500.0)]
        )
        with pytest.raises(CalibrationError):
            calibrate_energy(spec, "m", 300.0)


class TestShirley:
    def test_endpoints_anchored(self):
        spec = synthesize_spectrum(
            [PeakComponent("m", "gaussian", 74.0, 1.0, area=800.0)],
            background_kind=("shirley", 50.0, 180.0),
        )
        window, bg = shirley_background(spec, 70.0, 80.0)
        y = window.intensity
        assert bg[0] == pytest.approx(np.mean(y[:3]), abs=1e-9)
        assert bg[-1] == pytest.approx(np.mean(y[-3:]), abs=1e-9)

    def test_background_recovered_on_noiseless_synthetic(self):
        comps = [PeakComponent("m", "gaussian", 74.0, 1.0, area=800.0)]
        spec = synthesize_spectrum(comps, background_kind=("shirley", 50.0, 180.0))
        window, bg = shirley_background(spec, 68.5, 81.5)
        # subtracting the estimated background leaves the pure component sum
        residual_area = np.trapezoid(window.intensity - bg, window.binding_energy)
        assert residual_area == pytest.approx(800.0, rel=0.02)

    def test_window_validation(self):
        spec = synthesize_spectrum(
            [PeakComponent("m", "gaussian", 74.0, 1.0, area=800.0)]
        )
        with pytest.raises(InvalidInputError):
            shirley_background(spec, 60.0, 80.0)


class TestFit:
    def make_spectrum(self, noise=0.0):
        comps = [
            PeakComponent("Al0", "lorentzian", 72.6, 0.45, area=600.0, doublet=True),
            PeakComponent("Al3+", "gaussian", 75.5, 1.7, area=900.0, doublet=True),
        ]
        full = synthesize_spectrum(comps, background_kind=("shirley", 60.0, 210.0),
                                   noise_sigma=noise, seed=42)
        spec, bg = shirley_background(full, 68.5, 81.5)
        return comps, spec, bg

    def test_recovers_areas_noiseless(self):
        comps, spec, bg = self.make_spectrum()
        result = fit_components(spec, bg, comps)
        assert component_area(result, "Al0") == pytest.approx(600.0 * 1.5, rel=0.02)
        assert component_area(result, "Al3+") == pytest.approx(900.0 * 1.5, rel=0.02)

    def test_doublet_constraints_exact_in_output(self):
        comps, spec, bg = self.make_spectrum(noise=2.0)
        result = fit_components(spec, bg, comps)
        by_label = {c.label: c for c in result.components}
        for label in ("Al0", "Al3+"):
            main, partner = by_label[label], by_label[label + "_1/2"]
            assert partner.center == main.center + DOUBLET_SPLITTING_EV
            assert partner.area == main.area / DOUBLET_AREA_RATIO
            assert partner.fwhm == main.fwhm

    def test_center_window_respected(self):
        comps, spec, bg = self.make_spectrum(noise=2.0)
        result = fit_components(spec, bg, comps)
        by_label = {c.label: c for c in result.components}
        for template in comps:
            fitted = by_label[template.label]
            assert abs(fitted.center - template.center) <= template.center_window + 1e-12

    def test_area_sigmas_positive_with_noise(self):
        comps, spec, bg = self.make_spectrum(noise=2.0)
        result = fit_components(spec, bg, comps)
        areas, _ = summed_areas(result, ["Al3+"], ["Al0"])
        assert all(a.sigma > 0 for a in areas)

    @pytest.mark.parametrize("field, value", [
        ("center", 1e300),  # center +- window rounds to one value
        ("center", math.nan),
        ("center_window", math.nan),
        ("fwhm", math.nan),
    ])
    def test_unusable_start_or_bounds_rejected(self, field, value):
        comps, spec, bg = self.make_spectrum()
        comps[0] = replace(comps[0], **{field: value})
        with pytest.raises(InvalidInputError, match="^Al0: .*bounds") as info:
            fit_components(spec, bg, comps)
        assert info.value.arg == 0  # the template's index in the model

    def test_center_window_that_rounds_away_names_its_template(self):
        # c +- 1e-300 rounds to c, so the centre's bounds are not ordered
        comps, spec, bg = self.make_spectrum()
        comps[1] = replace(comps[1], center_window=1e-300)
        with pytest.raises(InvalidInputError, match=r"^Al3\+: .*bounds") as info:
            fit_components(spec, bg, comps)
        assert info.value.arg == 1

    @pytest.mark.parametrize("malformed, message", [
        (lambda comps, bg: ([], bg), "model needs >= 1 component"),
        (lambda comps, bg: (comps, bg[:-1]), "background length must match the spectrum"),
    ], ids=["no-component", "short-background"])
    def test_malformed_model_or_background_rejected(self, malformed, message):
        comps, spec, bg = self.make_spectrum()
        model, background = malformed(comps, bg)
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            fit_components(spec, background, model)

    def test_center_window_clipped_to_the_energy_range(self):
        comps, spec, bg = self.make_spectrum()
        # 20 eV covers the whole 68.5-81.5 eV window from every centre
        fits = [fit_components(spec, bg, [replace(c, center_window=window) for c in comps])
                for window in (20.0, 1e300)]
        np.testing.assert_array_equal(fits[0].params, fits[1].params)
        np.testing.assert_array_equal(fits[0].covariance, fits[1].covariance)

    def test_summed_areas_follow_the_fit_covariance(self):
        comps, spec, bg = self.make_spectrum(noise=2.0)
        result = fit_components(spec, bg, comps)
        (i_ox, i_m), cov = summed_areas(result, ["Al3+"], ["Al0"])
        assert i_ox.value == component_area(result, "Al3+")
        assert i_m.value == component_area(result, "Al0")
        rows = [result.area_rows["Al3+"], result.area_rows["Al0"]]
        assert [i_ox.sigma, i_m.sigma] == pytest.approx(
            [math.sqrt(row @ result.covariance @ row) for row in rows], rel=1e-12)
        # total area = fitted 3/2 area x (1 + 1/ratio): its variance scales by the square
        var_32 = result.covariance[5, 5]
        assert cov[0][0] == pytest.approx(var_32 * 1.5 ** 2, rel=1e-12)
        assert cov[0][1] == pytest.approx(cov[1][0], rel=1e-12)
        (both, _), _ = summed_areas(result, ["Al0", "Al3+"], ["Al0"])
        assert both.sigma ** 2 == pytest.approx(cov[0][0] + cov[1][1] + 2 * cov[0][1],
                                                 rel=1e-9)

    def test_empty_template_flagged_at_its_zero_area_bound(self):
        comps, spec, bg = self.make_spectrum()
        ghost = PeakComponent("Ghost", "gaussian", 78.5, 1.0)  # no such peak in the data
        result = fit_components(spec, bg, comps + [ghost])
        assert component_area(result, "Ghost") < 1e-9
        assert "Ghost.area" in result.boundary_active

    @pytest.mark.parametrize("area", [0.0, 1e-30, 1.0])
    def test_zero_area_flag_does_not_depend_on_the_template_area(self, area):
        comps, spec, bg = self.make_spectrum()
        ghost = PeakComponent("Ghost", "gaussian", 78.5, 1.0, area=area)
        result = fit_components(spec, bg, comps + [ghost])
        assert "Ghost.area" in result.boundary_active

    def test_unknown_label_rejected(self):
        comps, spec, bg = self.make_spectrum()
        result = fit_components(spec, bg, comps)
        with pytest.raises(InvalidInputError, match="Al0_1/2"):
            component_area(result, "Al0_1/2")

    def test_area_guess_uses_bounded_fwhm(self):
        comps, spec, bg = self.make_spectrum()
        comps = [replace(c, fwhm=1e300, area=0.0) for c in comps]
        result = fit_components(spec, bg, comps)
        assert component_area(result, "Al0") == pytest.approx(600.0 * 1.5, rel=0.02)


class TestThicknessSigma:
    """The first-order thickness sigma against a seeded noise Monte Carlo."""

    def test_sigma_matches_scatter_over_noise_draws(self):
        # the bundled spectrum's generator (scripts/make_bundled_data.py), other seeds
        consts = StrohmeierConstants()
        i_ox = invert_strohmeier(2.69, consts) * 1000.0
        truth = [
            PeakComponent("Al0", "lorentzian", 72.6, 0.45, area=1000.0 * 2 / 3,
                          doublet=True),
            PeakComponent("Al_int", "gaussian", 74.1, 1.3, area=0.25 * i_ox * 2 / 3,
                          doublet=True),
            PeakComponent("Al3+", "gaussian", 75.5, 1.7, area=0.75 * i_ox * 2 / 3,
                          doublet=True),
        ]
        # the bundled config's templates, fitted as the report does
        templates = [replace(c, area=0.0) for c in truth]
        templates[2] = replace(templates[2], center_window=0.5)
        values, sigmas = [], []
        for seed in range(1000, 1100):
            spec = synthesize_spectrum(truth, background_kind=("shirley", 60.0, 220.0),
                                       noise_sigma=3.0, seed=seed)
            spec = calibrate_energy(spec, "Al0", 72.6)
            windowed, bg = shirley_background(spec, 70.0, 80.0)
            result = fit_components(windowed, bg, templates)
            (ox, m), cov = summed_areas(result, ["Al_int", "Al3+"], ["Al0"])
            d = strohmeier_thickness(ox, m, consts, cov)
            values.append(d.value)
            sigmas.append(d.sigma)
        scatter = float(np.std(values, ddof=1))
        assert float(np.median(sigmas)) == pytest.approx(scatter, rel=0.2)


class TestStrohmeier:
    def test_zero_oxide(self):
        out = strohmeier_thickness(UValue(0.0), UValue(1000.0), StrohmeierConstants())
        assert out.value == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_case(self):
        # lambda_m = lambda_ox, N_m = N_ox, theta = 90: ratio e-1 gives d = lambda
        consts = StrohmeierConstants(lambda_m=2.8, lambda_ox=2.8, n_m=1.0, n_ox=1.0)
        out = strohmeier_thickness(UValue(math.e - 1.0), UValue(1.0), consts)
        assert out.value == pytest.approx(2.8, rel=1e-12)

    def test_inversion_identity(self):
        consts = StrohmeierConstants()
        for d in (0.5, 2.69, 5.0):
            ratio = invert_strohmeier(d, consts)
            out = strohmeier_thickness(UValue(ratio), UValue(1.0), consts)
            assert out.value == pytest.approx(d, rel=1e-12)

    def test_negative_oxide_intensity_rejected(self):
        with pytest.raises(InvalidInputError, match="^oxide intensity must be >= 0$"):
            strohmeier_thickness(UValue(-1.0), UValue(1000.0), StrohmeierConstants())

    def test_unresolved_metal_intensity_rejected(self):
        # 1.0 +- 2.0 is within its sigma of 0, where the log's argument has no bound
        with pytest.raises(DegenerateSystemError, match="not resolved"):
            strohmeier_thickness(UValue(10.0), UValue(1.0, 2.0), StrohmeierConstants())

    def test_monotone_in_ratio(self):
        consts = StrohmeierConstants()
        ds = [strohmeier_thickness(UValue(r), UValue(1.0), consts).value
              for r in np.linspace(0.1, 10.0, 30)]
        assert np.all(np.diff(ds) > 0)

    def test_constants_validation(self):
        with pytest.raises(InvalidInputError):
            StrohmeierConstants(lambda_m=-1.0)
        with pytest.raises(InvalidInputError):
            StrohmeierConstants(theta=120.0)


def points(times, thick) -> KineticsPoints:
    """The kinetics record of ``times`` and UValue ``thick``nesses."""
    return KineticsPoints(times, [v.value for v in thick], [v.sigma for v in thick])


class TestKineticsPoints:
    TIMES = [1.0, 2.0, 4.0, 8.0, 12.0, 24.0]

    # (column, row, value, the reader's message for it): one case per row rule
    ROW_RULES = [
        ("sigma", 2, 0.0, "sigma_nm must be > 0 with a finite weight 1/sigma, got 0.0"),
        ("sigma", 3, 1e-320,
         "sigma_nm must be > 0 with a finite weight 1/sigma, got 1e-320"),
        ("thickness", 1, 1e300,
         "thickness_nm 1e+300 over sigma_nm 0.07 overflows the weighted fit"),
        ("sigma", 4, 1e-300, "thickness_nm 0.5 over sigma_nm 1e-300 overflows the weighted fit"),
        ("time", 0, 0.0, "time_hours must be > 0 and strictly ascending, got 0.0"),
        ("time", 3, 4.0, "time_hours must be > 0 and strictly ascending, got 4.0"),
    ]

    def columns(self):
        return {"time": list(self.TIMES), "thickness": [0.5] * 6, "sigma": [0.07] * 6}

    @pytest.mark.parametrize("column, row, value, message", ROW_RULES)
    def test_row_rule_names_the_row(self, column, row, value, message):
        cells = self.columns()
        cells[column][row] = value
        with pytest.raises(InvalidInputError) as exc:
            KineticsPoints(**cells)
        assert (exc.value.row, str(exc.value)) == (row, message)

    def test_first_broken_row_is_named(self):
        cells = self.columns()
        cells["sigma"][4] = 0.0
        cells["time"][2] = 1.0
        with pytest.raises(InvalidInputError) as exc:
            KineticsPoints(**cells)
        assert exc.value.row == 2

    def test_fewer_than_six_rows(self):
        cells = {name: column[:5] for name, column in self.columns().items()}
        with pytest.raises(DatasetError, match=r"^need >= 6 \(time, thickness\) points$"):
            KineticsPoints(**cells)

    def test_columns_of_unequal_length(self):
        cells = self.columns()
        cells["sigma"].append(0.07)
        with pytest.raises(InvalidInputError,
                           match="time, thickness, sigma must be equal-length 1-d arrays"):
            KineticsPoints(**cells)


class TestKinetics:
    def synth(self, k=0.1, tb=24.0, b=0.22, noise=0.0, seed=0):
        rng = np.random.default_rng(seed)
        times = [1, 2, 4, 8, 12, 18, 24, 48, 96, 200, 400, 600]
        thick = []
        for t in times:
            d = k * t if t <= tb else k * tb + b * math.log(t / tb)
            if noise:
                d *= 1.0 + rng.normal(0.0, noise)
            thick.append(UValue(d, 0.05))
        return times, thick

    def test_noiseless_round_trip(self):
        times, thick = self.synth()
        fit = fit_kinetics(points(times, thick))
        assert fit.k_lin == pytest.approx(0.1, rel=1e-6)
        assert fit.t_break == pytest.approx(24.0)
        assert fit.log_b == pytest.approx(0.22, rel=1e-6)
        assert not fit.degenerate_log

    def test_model_continuous_at_breakpoint(self):
        times, thick = self.synth(noise=0.01, seed=3)
        fit = fit_kinetics(points(times, thick))
        eps = 1e-9
        below = float(fit.thickness(fit.t_break - eps))
        above = float(fit.thickness(fit.t_break + eps))
        assert above == pytest.approx(below, abs=1e-6)

    def test_purely_linear_data(self):
        times = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
        thick = [UValue(0.05 * t, 0.01) for t in times]
        fit = fit_kinetics(points(times, thick))
        assert fit.k_lin == pytest.approx(0.05, rel=1e-6)

    def test_validation(self):
        with pytest.raises(DatasetError):
            fit_kinetics(points([1, 2, 3], [UValue(1, 0.1)] * 3))
        with pytest.raises(InvalidInputError):
            fit_kinetics(points([3, 2, 4, 8, 12, 20], [UValue(1, 0.1)] * 6))

    def test_thickness_helper_matches_fit(self):
        times, thick = self.synth()
        fit = fit_kinetics(points(times, thick))
        assert float(fit.thickness(times[-1])) == pytest.approx(fit.d_sat, rel=1e-12)

    @staticmethod
    def per_candidate(times, thick):
        """(chi2, t_break, k, b) of the first best candidate, each by weighted_lstsq."""
        t, d = np.array(times, dtype=float), [v.value for v in thick]
        sig = [v.sigma for v in thick]
        best = None
        for tb in list(t[1:-2]) + [t[-1]]:
            columns = _growth_columns(t, tb)[:1 if tb >= t[-1] else 2]
            coef, _, chi2 = weighted_lstsq(np.column_stack(columns), d, sig)
            if best is None or chi2 < best[0]:
                best = (chi2, tb, coef[0], coef[1] if coef.size > 1 else 0.0)
        return best

    @pytest.mark.parametrize("seed", range(6))
    def test_batched_grid_matches_each_candidate_solved_alone(self, seed):
        times, thick = self.synth(noise=0.02, seed=seed)
        if seed == 5:  # growth that never leaves the line: the linear-only candidate wins
            times, thick = self.synth(tb=1000.0, noise=0.002, seed=seed)
        _, tb, k, b = self.per_candidate(times, thick)
        fit = fit_kinetics(points(times, thick))
        assert (fit.t_break, fit.degenerate_log) == (tb, seed == 5)
        assert fit.k_lin == pytest.approx(k, rel=1e-12)
        assert fit.log_b == pytest.approx(b, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("n", [6, 12, 40])
    def test_one_qr_for_every_candidate(self, n, monkeypatch):
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(a) or qr(*a, **k))
        times = np.geomspace(1.0, 600.0, n)
        fit_kinetics(points(times, [UValue(0.1 * t ** 0.5, 0.05) for t in times]))
        assert len(calls) == 2  # the two-column candidates' stack and the linear-only one

    def test_rank_deficient_candidate_raises(self):
        # one row outweighs the rest by 1e14: each two-column candidate has rank 1 to
        # 1e-12, with a finite covariance
        times, thick = self.synth(noise=0.01, seed=2)
        thick = [UValue(v.value, 0.05 if i == len(thick) - 1 else 0.05e14)
                 for i, v in enumerate(thick)]
        with pytest.raises(DegenerateSystemError, match="rank-deficient"):
            self.per_candidate(times, thick)
        with pytest.raises(DegenerateSystemError, match="rank-deficient"):
            fit_kinetics(points(times, thick))

    @pytest.mark.parametrize("last_times, last_sigma, message", [
        ((400.0, 1e300), 1e-10, "the weighted system is not finite"),  # t / sigma = 1e310
        ((8e306, 1.6e308), 1.0, "rank-deficient"),  # |t / sigma| overflows
    ])
    def test_linear_only_candidate_raises_as_weighted_lstsq(self, last_times, last_sigma,
                                                           message):
        times, thick = self.synth()
        times = np.array(times[:-2] + list(last_times))
        thick[-1] = UValue(thick[-1].value, last_sigma)
        d, sig = [v.value for v in thick], [v.sigma for v in thick]
        for tb in times[1:-2]:  # every two-column candidate solves
            weighted_lstsq(np.column_stack(_growth_columns(times, tb)), d, sig)
        with pytest.raises(DegenerateSystemError, match=message) as alone:
            weighted_lstsq(times, d, sig)
        with pytest.raises(DegenerateSystemError) as fitted:
            fit_kinetics(points(times, thick))
        assert str(fitted.value) == str(alone.value)

    def test_overflowing_covariance_raises(self):
        times, thick = self.synth()
        thick = [UValue(v.value, 1e300) for v in thick]  # weights 1e-600: no covariance
        with pytest.raises(DegenerateSystemError, match="covariance"):
            fit_kinetics(points(times, thick))


def test_kinetics_dataclass_evaluation():
    fit = KineticsFit(k_lin=0.1, t_break=10.0, log_a=1.0 - 0.2 * math.log(10.0),
                      log_b=0.2, d_sat=0.0)
    assert float(fit.thickness(5.0)) == pytest.approx(0.5)
    assert float(fit.thickness(10.0)) == pytest.approx(1.0)
    assert float(fit.thickness(100.0)) == pytest.approx(1.0 + 0.2 * math.log(10.0))
