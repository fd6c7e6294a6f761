import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlb.errors import DatasetError, DegenerateSystemError, InvalidInputError
from qlb.spr import (
    SprPoints,
    fit_through_origin,
    fit_with_intercept,
    pool_tangents,
)
from qlb.uncert import UValue


def line_points(slope, xs, sigma=1e-6):
    return SprPoints(xs, [slope * x for x in xs], [sigma] * len(xs))


class TestThroughOrigin:
    def test_exact_on_noiseless_line(self):
        out = fit_through_origin(line_points(2.5e-3, [1e-4, 2e-4, 5e-4]))
        assert out.value == pytest.approx(2.5e-3, rel=1e-12)

    def test_closed_form_three_points(self):
        pts = SprPoints([1.0, 2.0, 3.0], [2.1, 3.9, 6.3], [0.2, 0.1, 0.3])
        sxy = sxx = 0.0
        for p_ms, inv_q, sigma in zip(pts.p_ms, pts.inv_q, pts.sigma):
            w = 1.0 / sigma ** 2
            sxy += w * p_ms * inv_q
            sxx += w * p_ms ** 2
        out = fit_through_origin(pts)
        assert out.value == pytest.approx(sxy / sxx, rel=1e-14)
        assert out.sigma == pytest.approx(1.0 / math.sqrt(sxx), rel=1e-14)

    def test_single_point(self):
        out = fit_through_origin(SprPoints([2.0], [5.0], [0.5]))
        assert out.value == pytest.approx(2.5)
        assert out.sigma == pytest.approx(0.5 / 2.0)

    def test_empty(self):
        with pytest.raises(DatasetError):
            fit_through_origin(SprPoints([], [], []))

    @settings(max_examples=50)
    @given(st.floats(1e-3, 1e3))
    def test_scale_equivariance(self, c):
        pts = SprPoints([1.0, 2.0, 3.0], [2.1, 3.9, 6.3], [0.2, 0.1, 0.3])
        scaled = SprPoints(pts.p_ms * c, pts.inv_q, pts.sigma)
        a = fit_through_origin(pts)
        b = fit_through_origin(scaled)
        assert b.value * c == pytest.approx(a.value, rel=1e-12)
        assert b.sigma * c == pytest.approx(a.sigma, rel=1e-12)

    def test_slope_bracketed_by_point_ratios(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pts = SprPoints(*zip(*[
                (x, r * x, s)
                for x, r, s in zip(rng.uniform(0.5, 3, 6),
                                   rng.uniform(1, 4, 6),
                                   rng.uniform(0.05, 0.5, 6))
            ]))
            ratios = pts.inv_q / pts.p_ms
            slope = fit_through_origin(pts).value
            assert min(ratios) - 1e-12 <= slope <= max(ratios) + 1e-12


class TestInterceptDiagnostic:
    def test_recovers_affine_line_exactly(self):
        pts = SprPoints(*zip(*[(x, 1.5 * x + 0.3, 0.1) for x in (1.0, 2.0, 4.0)]))
        slope, intercept = fit_with_intercept(pts)
        assert slope.value == pytest.approx(1.5, rel=1e-12)
        assert intercept.value == pytest.approx(0.3, rel=1e-10)

    def test_degenerate_design(self):
        pts = SprPoints([1.0, 1.0], [2.0, 2.2], [0.1, 0.1])
        with pytest.raises(DegenerateSystemError):
            fit_with_intercept(pts)

    def test_needs_two_points(self):
        with pytest.raises(DatasetError):
            fit_with_intercept(SprPoints([1.0], [2.0], [0.1]))


class TestPooling:
    def test_identical_values(self):
        out = pool_tangents([UValue(2.0, 0.5)] * 4)
        assert out.value == pytest.approx(2.0)
        assert out.sigma == pytest.approx(0.25)

    def test_weighted_mean_closed_form(self):
        vals = [UValue(1.0, 0.1), UValue(2.0, 0.2)]
        w = [1 / 0.1 ** 2, 1 / 0.2 ** 2]
        expected = (w[0] * 1.0 + w[1] * 2.0) / sum(w)
        out = pool_tangents(vals)
        assert out.value == pytest.approx(expected, rel=1e-14)
        assert out.sigma == pytest.approx(1 / math.sqrt(sum(w)), rel=1e-14)

    def test_pool_within_value_range(self):
        vals = [UValue(v, s) for v, s in ((1.3, 0.2), (1.9, 0.1), (1.6, 0.3))]
        out = pool_tangents(vals)
        assert 1.3 <= out.value <= 1.9

    def test_zero_sigma_rejected(self):
        with pytest.raises(DegenerateSystemError):
            pool_tangents([UValue(1.0, 0.0)])

    def test_empty(self):
        with pytest.raises(DatasetError):
            pool_tangents([])


def test_point_validation():
    with pytest.raises(InvalidInputError):
        SprPoints([-1.0], [1.0], [0.1])
    with pytest.raises(InvalidInputError):
        SprPoints([1.0], [1.0], [0.0])


def test_rows_keep_their_columns():
    pts = SprPoints([1.0, 2.0, 3.0], [2.1, 3.9, 6.3], [0.2, 0.1, 0.3])
    rows = pts[np.array([True, False, True])]
    assert isinstance(rows, SprPoints) and len(rows) == 2
    for name in ("p_ms", "inv_q", "sigma"):
        np.testing.assert_array_equal(getattr(rows, name), getattr(pts, name)[[0, 2]])
    assert fit_through_origin(rows) == fit_through_origin(SprPoints([1.0, 3.0], [2.1, 6.3],
                                                                    [0.2, 0.3]))
