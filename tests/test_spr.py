import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlb.errors import DatasetError, DegenerateSystemError, InvalidInputError
from qlb.spr import (
    SprPoint,
    fit_through_origin,
    fit_with_intercept,
    pool_tangents,
)
from qlb.uncert import UValue


def line_points(slope, xs, sigma=1e-6):
    return [SprPoint(x, UValue(slope * x, sigma)) for x in xs]


class TestThroughOrigin:
    def test_exact_on_noiseless_line(self):
        out = fit_through_origin(line_points(2.5e-3, [1e-4, 2e-4, 5e-4]))
        assert out.value == pytest.approx(2.5e-3, rel=1e-12)

    def test_closed_form_three_points(self):
        pts = [
            SprPoint(1.0, UValue(2.1, 0.2)),
            SprPoint(2.0, UValue(3.9, 0.1)),
            SprPoint(3.0, UValue(6.3, 0.3)),
        ]
        sxy = sxx = 0.0
        for p in pts:
            w = 1.0 / p.inv_q.sigma ** 2
            sxy += w * p.p_ms * p.inv_q.value
            sxx += w * p.p_ms ** 2
        out = fit_through_origin(pts)
        assert out.value == pytest.approx(sxy / sxx, rel=1e-14)
        assert out.sigma == pytest.approx(1.0 / math.sqrt(sxx), rel=1e-14)

    def test_single_point(self):
        out = fit_through_origin([SprPoint(2.0, UValue(5.0, 0.5))])
        assert out.value == pytest.approx(2.5)
        assert out.sigma == pytest.approx(0.5 / 2.0)

    def test_empty(self):
        with pytest.raises(DatasetError):
            fit_through_origin([])

    @settings(max_examples=50)
    @given(st.floats(1e-3, 1e3))
    def test_scale_equivariance(self, c):
        pts = [
            SprPoint(1.0, UValue(2.1, 0.2)),
            SprPoint(2.0, UValue(3.9, 0.1)),
            SprPoint(3.0, UValue(6.3, 0.3)),
        ]
        scaled = [SprPoint(p.p_ms * c, p.inv_q) for p in pts]
        a = fit_through_origin(pts)
        b = fit_through_origin(scaled)
        assert b.value * c == pytest.approx(a.value, rel=1e-12)
        assert b.sigma * c == pytest.approx(a.sigma, rel=1e-12)

    def test_slope_bracketed_by_point_ratios(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pts = [
                SprPoint(x, UValue(r * x, s))
                for x, r, s in zip(rng.uniform(0.5, 3, 6),
                                   rng.uniform(1, 4, 6),
                                   rng.uniform(0.05, 0.5, 6))
            ]
            ratios = [p.inv_q.value / p.p_ms for p in pts]
            slope = fit_through_origin(pts).value
            assert min(ratios) - 1e-12 <= slope <= max(ratios) + 1e-12


class TestInterceptDiagnostic:
    def test_recovers_affine_line_exactly(self):
        pts = [SprPoint(x, UValue(1.5 * x + 0.3, 0.1)) for x in (1.0, 2.0, 4.0)]
        slope, intercept = fit_with_intercept(pts)
        assert slope.value == pytest.approx(1.5, rel=1e-12)
        assert intercept.value == pytest.approx(0.3, rel=1e-10)

    def test_degenerate_design(self):
        pts = [SprPoint(1.0, UValue(2.0, 0.1)), SprPoint(1.0, UValue(2.2, 0.1))]
        with pytest.raises(DegenerateSystemError):
            fit_with_intercept(pts)

    def test_needs_two_points(self):
        with pytest.raises(DatasetError):
            fit_with_intercept([SprPoint(1.0, UValue(2.0, 0.1))])


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
        SprPoint(-1.0, UValue(1.0, 0.1))
    with pytest.raises(InvalidInputError):
        SprPoint(1.0, UValue(1.0, 0.0))
