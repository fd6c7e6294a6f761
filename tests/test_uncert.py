import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlb._trf import least_squares
from qlb.errors import (
    ConfigurationError,
    ConvergenceError,
    DegenerateSystemError,
    InvalidInputError,
)
from qlb.uncert import (
    UValue,
    active_bounds,
    bounded_fit,
    combine_linear,
    mc_propagate,
    projection,
    propagate,
    propagate_joint,
    weighted_lstsq,
)


def test_uvalue_invariants():
    with pytest.raises(InvalidInputError):
        UValue(1.0, -0.1)
    with pytest.raises(InvalidInputError):
        UValue(float("nan"), 0.1)
    with pytest.raises(InvalidInputError):
        UValue(1.0, float("inf"))


class TestCombineLinear:
    def test_3_4_5_quadrature(self):
        out = combine_linear([(1, UValue(2, 0.3)), (1, UValue(1, 0.4))])
        assert out.value == pytest.approx(3.0)
        assert out.sigma == pytest.approx(0.5)

    def test_identity(self):
        out = combine_linear([(1, UValue(7.5, 0.2)), (1, UValue(0, 0))])
        assert out.value == 7.5 and out.sigma == 0.2

    def test_mixed_coefficients(self):
        # closed form: sigma = sqrt((2*0.1)^2 + (1*0.2)^2) = sqrt(0.08)
        out = combine_linear([(2, UValue(5, 0.1)), (-1, UValue(3, 0.2))])
        assert out.value == pytest.approx(7.0)
        assert out.sigma == pytest.approx(math.sqrt(0.08))

    def test_rejects_nonfinite_coefficient(self):
        with pytest.raises(InvalidInputError):
            combine_linear([(float("inf"), UValue(1, 0.1))])

    @given(st.lists(
        st.tuples(st.floats(-10, 10), st.floats(-10, 10), st.floats(0, 5)),
        min_size=1, max_size=6,
    ))
    def test_sigma_invariant_under_sign_flip(self, rows):
        terms = [(c, UValue(v, s)) for c, v, s in rows]
        flipped = [(-c, UValue(v, s)) for c, v, s in rows]
        assert combine_linear(terms).sigma == pytest.approx(
            combine_linear(flipped).sigma, abs=1e-15
        )


class TestPropagate:
    def test_sum_matches_combine_linear(self):
        out = propagate(lambda a, b: a + b, [UValue(2, 0.3), UValue(1, 0.4)])
        assert out.value == pytest.approx(3)
        assert out.sigma == pytest.approx(0.5, rel=1e-6)

    def test_square(self):
        out = propagate(lambda x: x * x, [UValue(3, 0.1)])
        assert out.value == pytest.approx(9)
        assert out.sigma == pytest.approx(0.6, rel=1e-6)

    def test_log_zero_sigma_passthrough(self):
        out = propagate(math.log, [UValue(1, 0)])
        assert out.value == 0 and out.sigma == 0

    def test_constant_function(self):
        out = propagate(lambda x: 42.0, [UValue(3, 0.5)])
        assert out.sigma == 0

    def test_nonfinite_at_means(self):
        with pytest.raises(InvalidInputError):
            propagate(lambda x: math.inf, [UValue(1, 0.1)])

    def test_overflowing_variance(self):
        # (grad * sigma)^2 = 1e400 is past the largest float
        with pytest.raises(InvalidInputError, match="variance"):
            propagate(lambda x: 2.0 * x, [UValue(1.0, 1e200)])


class TestPropagateJoint:
    def test_sum_and_difference_covariance(self):
        # closed form: var = sa^2 + sb^2 on the diagonal, sa^2 - sb^2 off it
        outs, cov = propagate_joint(lambda a, b: (a + b, a - b),
                                    [UValue(2, 0.3), UValue(1, 0.4)])
        assert [o.value for o in outs] == pytest.approx([3.0, 1.0])
        assert [o.sigma for o in outs] == pytest.approx([0.5, 0.5], rel=1e-6)
        assert cov[0] + cov[1] == pytest.approx([0.25, -0.07, -0.07, 0.25], rel=1e-6)

    def test_each_output_matches_propagate(self):
        f = (lambda x, y: x * y, lambda x, y: x / y, lambda x, y: np.exp(x) - y)
        inputs = [UValue(1.3, 0.1), UValue(0.7, 0.05)]
        outs, _ = propagate_joint(lambda x, y: [g(x, y) for g in f], inputs)
        assert outs == [propagate(g, inputs) for g in f]

    @pytest.mark.parametrize("sigmas", [(0.1, 0.0, 0.2), (0.1, 0.2, 0.3), (0.0, 0.0, 0.0)])
    def test_one_call_per_uncertain_input(self, sigmas):
        calls = []
        f = lambda *x: calls.append(x) or (x[0] * x[1] / x[2],)
        propagate_joint(f, [UValue(v, s) for v, s in zip((1.0, 2.0, 3.0), sigmas)])
        assert len(calls) == 1 + sum(s > 0 for s in sigmas)

    def test_exact_inputs_give_zero_covariance(self):
        outs, cov = propagate_joint(lambda a, b: (a * b, a), [UValue(2.0), UValue(3.0)])
        assert [o.sigma for o in outs] == [0.0, 0.0]
        assert cov == [[0.0, 0.0], [0.0, 0.0]]

    def test_nonfinite_output_rejected(self):
        with pytest.raises(InvalidInputError):
            propagate_joint(lambda x: (x, math.inf), [UValue(1, 0.1)])

    @pytest.mark.parametrize("rho", [-0.9, -0.3, 0.0, 0.6])
    def test_correlated_linear_pair_exact(self, rho):
        sa, sb = 0.3, 0.4
        cov_in = [[sa * sa, rho * sa * sb], [rho * sa * sb, sb * sb]]
        outs, cov = propagate_joint(lambda a, b: (a + b, a - b),
                                    [UValue(2, sa), UValue(1, sb)], covariance=cov_in)
        assert outs[0].sigma ** 2 == pytest.approx(sa ** 2 + sb ** 2 + 2 * rho * sa * sb,
                                                   rel=1e-9)
        assert outs[1].sigma ** 2 == pytest.approx(sa ** 2 + sb ** 2 - 2 * rho * sa * sb,
                                                   rel=1e-9)
        assert cov[0][1] == pytest.approx(sa ** 2 - sb ** 2, rel=1e-9)
        single = propagate(lambda a, b: a + b, [UValue(2, sa), UValue(1, sb)],
                           covariance=cov_in)
        assert single == outs[0]

    def test_default_is_independent_and_unchanged(self):
        f = lambda a, b, c: (a * b / c, np.log(a) + b ** 2, np.exp(-c) * a)
        inputs = [UValue(2.5, 0.1), UValue(-0.7, 0.05), UValue(1.3, 0.2)]
        outs, cov = propagate_joint(f, inputs)
        # exact: J = [[b/c, a/c, -ab/c^2], [1/a, 2b, 0], [e^-c, 0, -a e^-c]] at
        # (a, b, c) = (2.5, -0.7, 1.3) and cov = J diag(0.1^2, 0.05^2, 0.2^2) J^T, in
        # 40-digit arithmetic rounded to double; e.g. var(ln a + b^2) = (0.1/2.5)^2
        # + (1.4*0.05)^2 = 0.0065 and cov(ab/c, ln a + b^2) = (b/c)(1/a) 0.1^2
        # + (a/c)(2b) 0.05^2 = -0.01155/1.3
        pinned = [(-1.3461538461538463, 0.23459672952389748),
                  (1.406290731874155, 0.0806225774829855),
                  (0.6813294825850315, 0.13896449307548606)]
        pinned_cov = [
            [0.055035625503308705, -0.008884615384615385, -0.029688226684947763],
            [-0.008884615384615385, 0.0065, 0.0010901271721360504],
            [-0.029688226684947763, 0.0010901271721360504, 0.01931113033572681],
        ]
        assert [x for o in outs for x in (o.value, o.sigma)] == pytest.approx(
            [x for pair in pinned for x in pair], rel=1e-15)  # approx compares tuples by ==
        for row, pinned_row in zip(cov, pinned_cov):
            assert row == pytest.approx(pinned_row, rel=1e-15)
        diagonal = [[v.sigma ** 2 if j == k else 0.0 for k, v in enumerate(inputs)]
                    for j in range(3)]
        outs_diag, cov_diag = propagate_joint(f, inputs, covariance=diagonal)
        assert [o.sigma for o in outs_diag] == pytest.approx([o.sigma for o in outs],
                                                             rel=1e-15)
        for row, diag_row in zip(cov_diag, cov):
            assert row == pytest.approx(diag_row, rel=1e-14)

    def test_covariance_shape_checked(self):
        with pytest.raises(InvalidInputError, match="2 x 2"):
            propagate_joint(lambda a, b: (a + b,), [UValue(1, 0.1), UValue(2, 0.1)],
                            covariance=[[0.01]])


class TestWeightedLstsq:
    """The core against the closed-form weighted sums it replaces."""

    @staticmethod
    def data(seed=0, n=8):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.5, 3.0, n)
        sigma = rng.uniform(0.05, 0.5, n)
        y = 1.7 * x + 0.4 + rng.normal(0.0, sigma)
        return x, y, sigma, 1.0 / sigma ** 2

    @pytest.mark.parametrize("seed", range(5))
    def test_slope_through_origin(self, seed):
        x, y, sigma, w = self.data(seed)
        (slope,), cov, chi2 = weighted_lstsq(x[:, None], y, sigma)
        one_d = weighted_lstsq(x, y, sigma)  # a 1-D design is one column
        assert (one_d[0].shape, one_d[1].shape) == ((1,), (1, 1))
        assert (one_d[0][0], one_d[1][0, 0], one_d[2]) == (slope, cov[0, 0], chi2)
        sxx = np.sum(w * x * x)
        expected = np.sum(w * x * y) / sxx
        assert slope == pytest.approx(expected, rel=1e-14)
        assert math.sqrt(cov[0, 0]) == pytest.approx(1.0 / math.sqrt(sxx), rel=1e-14)
        assert chi2 == pytest.approx(np.sum(w * (y - expected * x) ** 2), rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_slope_and_intercept(self, seed):
        x, y, sigma, w = self.data(seed)
        coef, cov, _ = weighted_lstsq(np.column_stack([x, np.ones_like(x)]), y, sigma)
        sw, swx, swy = np.sum(w), np.sum(w * x), np.sum(w * y)
        swxx, swxy = np.sum(w * x * x), np.sum(w * x * y)
        delta = sw * swxx - swx ** 2
        assert coef[0] == pytest.approx((sw * swxy - swx * swy) / delta, rel=1e-12)
        assert coef[1] == pytest.approx((swxx * swy - swx * swxy) / delta, rel=1e-12)
        assert cov[0, 0] == pytest.approx(sw / delta, rel=1e-12)
        assert cov[1, 1] == pytest.approx(swxx / delta, rel=1e-12)
        assert cov[0, 1] == pytest.approx(-swx / delta, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_inverse_variance_pooling(self, seed):
        _, y, sigma, w = self.data(seed)
        (mean,), cov, _ = weighted_lstsq(np.ones((y.size, 1)), y, sigma)
        assert mean == pytest.approx(np.sum(w * y) / np.sum(w), rel=1e-14)
        assert math.sqrt(cov[0, 0]) == pytest.approx(1.0 / math.sqrt(np.sum(w)), rel=1e-14)

    def test_collinear_design_rejected(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DegenerateSystemError, match="rank"):
            weighted_lstsq(np.column_stack([x, 3.0 * x]), x, np.ones(4))
        with pytest.raises(DegenerateSystemError, match="rank"):
            weighted_lstsq(np.column_stack([x, np.zeros(4)]), x, np.ones(4))
        with pytest.raises(DegenerateSystemError, match="rank"):
            weighted_lstsq(np.ones((1, 2)), [1.0], [1.0])  # fewer rows than columns
        with pytest.raises(DegenerateSystemError, match="rank-deficient"):  # one of a stack
            weighted_lstsq(np.stack([np.column_stack([x, np.ones(4)]),
                                     np.column_stack([x, 3.0 * x])]), x, np.ones(4))

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_unusable_sigma_rejected(self, sigma):
        with pytest.raises(DegenerateSystemError, match="sigma"):
            weighted_lstsq(np.ones((3, 1)), [1.0, 2.0, 3.0], [1.0, sigma, 1.0])

    def test_overflowing_weighted_system_rejected(self):
        with pytest.raises(DegenerateSystemError, match="not finite"):
            weighted_lstsq(np.ones((2, 1)), [1.0, 2.0], [1.0, 1e-320])

    def test_overflowing_chi2_rejected(self):
        # each weighted value is finite, their squared residuals are not
        with pytest.raises(DegenerateSystemError, match="chi2"):
            weighted_lstsq(np.ones((2, 1)), [1e200, -1e200], [1.0, 1.0])

    def test_columns_of_extreme_scale_stay_finite(self):
        # weighted sums of these columns would overflow (1e300 x 1e300) or
        # underflow; the solve stays finite and recovers an exact line
        x = np.array([1.0, 2.0, 3.0, 5.0])
        A = np.column_stack([1e150 * x, 1e-150 * np.ones(4)])
        y = 2.0 * x + 3.0
        coef, cov, chi2 = weighted_lstsq(A, y, np.full(4, 1e-3))
        assert np.all(np.isfinite(coef)) and np.all(np.isfinite(np.sqrt(np.diag(cov))))
        assert coef[0] * 1e150 == pytest.approx(2.0, rel=1e-12)
        assert coef[1] * 1e-150 == pytest.approx(3.0, rel=1e-12)
        assert np.all(np.diag(cov) > 0)
        assert chi2 == pytest.approx(0.0, abs=1e-18)


    @staticmethod
    def reference(A, y, sigma, scales):
        """np.linalg.lstsq of the whitened system with its columns divided by ``scales``
        (lstsq's SVD cuts singular values 1e280 apart): coef, chi2 and (A_w^T A_w)^-1."""
        B = A / sigma[:, None] / scales
        x = np.linalg.lstsq(B, y / sigma, rcond=None)[0]
        resid = B @ x - y / sigma
        return x / scales, resid @ resid, np.linalg.inv(B.T @ B) / np.outer(scales, scales)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("square", [False, True], ids=["m>k", "m=k"])
    def test_matches_numpy_lstsq(self, k, seed, square):
        rng = np.random.default_rng([k, seed])
        m = k if square else 4 + 3 * k
        scales = 10.0 ** rng.choice([-140, 0, 140], k)  # every column's scale, extremes too
        A = rng.normal(size=(m, k)) * scales
        y = rng.normal(size=m)
        sigma = rng.uniform(0.1, 2.0, m)
        coef, cov, chi2 = weighted_lstsq(A, y, sigma)
        ref_coef, ref_chi2, ref_cov = self.reference(A, y, sigma, scales)
        np.testing.assert_allclose(coef * scales, ref_coef * scales, rtol=1e-10, atol=1e-12)
        unscaled = np.outer(scales, scales)
        np.testing.assert_allclose(cov * unscaled, ref_cov * unscaled, rtol=1e-10, atol=1e-12)
        if square:
            assert chi2 == 0.0
        else:
            assert chi2 == pytest.approx(ref_chi2, rel=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("square", [False, True], ids=["m>k", "m=k"])
    def test_stack_matches_each_design_alone(self, k, seed, square):
        rng = np.random.default_rng([k, seed, 1])
        m = k if square else 4 + 3 * k
        scales = 10.0 ** rng.choice([-140, 0, 140], (5, 1, k))  # per design and column
        A = rng.normal(size=(5, m, k)) * scales
        y = rng.normal(size=m)
        sigma = rng.uniform(0.1, 2.0, m)
        coef, cov, chi2 = weighted_lstsq(A, y, sigma)
        assert (coef.shape, cov.shape, chi2.shape) == ((5, k), (5, k, k), (5,))
        for i, design in enumerate(A):
            one_coef, one_cov, one_chi2 = weighted_lstsq(design, y, sigma)
            assert isinstance(one_chi2, float)
            unscaled = np.outer(scales[i], scales[i])
            np.testing.assert_allclose(coef[i] * scales[i, 0], one_coef * scales[i, 0],
                                       rtol=1e-13, atol=0)
            np.testing.assert_allclose(cov[i] * unscaled, one_cov * unscaled,
                                       rtol=1e-13, atol=0)
            assert chi2[i] == pytest.approx(one_chi2, rel=1e-13, abs=0)

    @pytest.mark.parametrize("r22, full_rank", [(1.01e-12, True), (0.99e-12, False)])
    def test_rank_rule_at_its_threshold(self, r22, full_rank):
        # unit-norm columns whose R has R_22 = r22 (R_11 = 1), rotated into 5 rows
        rotation = np.linalg.qr(np.random.default_rng(7).normal(size=(5, 5)))[0]
        A = rotation[:, :2] @ np.array([[1.0, 1.0], [0.0, r22]])
        y = rotation @ np.arange(1.0, 6.0)
        if full_rank:
            coef, _, _ = weighted_lstsq(A, y, np.ones(5))
            assert np.all(np.isfinite(coef))
        else:
            with pytest.raises(DegenerateSystemError, match="rank"):
                weighted_lstsq(A, y, np.ones(5))

class TestProjection:
    X = np.linspace(0.0, 2.0, 12)

    def exponentials(self, phi):
        """(G, dG) of exp(-phi0 x), exp(-phi1 x) and a constant: k = 3, p = 2."""
        e0, e1 = np.exp(-phi[0] * self.X), np.exp(-phi[1] * self.X)
        zero = np.zeros_like(self.X)
        return (e0, e1, 1.0), (np.column_stack([-self.X * e0, zero]),
                               np.column_stack([zero, -self.X * e1]), None)

    @pytest.mark.parametrize("phi", [(0.5, 3.0), (3.0, 0.5), (1.0, 6.0)])
    def test_matches_weighted_lstsq_and_kaufman(self, phi):
        rng = np.random.default_rng(3)
        sigma = rng.uniform(0.01, 0.05, self.X.size)
        y = 2.0 * np.exp(-0.8 * self.X) - np.exp(-2.0 * self.X) + 0.3 + rng.normal(0, sigma)
        project = projection(self.exponentials, y, sigma)
        project(np.array([1.5, 0.2]))  # the constant column is normalised once, here
        model, jac, coef, Q, (G, dG) = project(np.array(phi))
        A = np.column_stack([G[0], G[1], np.ones_like(y)])
        ref_coef, cov, _ = weighted_lstsq(A, y, sigma)
        np.testing.assert_allclose(coef, ref_coef, rtol=1e-11)
        np.testing.assert_allclose(model, A @ ref_coef, rtol=1e-12)
        np.testing.assert_allclose(Q.T @ Q, np.eye(3), rtol=0.0, atol=1e-14)
        # Kaufman's Jacobian dA - A cov A_w^T dA_w, with dA = sum_j c_j dG_j
        dA = coef[0] * dG[0] + coef[1] * dG[1]
        ref_jac = dA - A @ (cov @ ((A / sigma[:, None]).T @ (dA / sigma[:, None])))
        np.testing.assert_allclose(jac, ref_jac, rtol=0.0, atol=1e-12 * np.abs(ref_jac).max())

    ONES = np.ones(4)
    XS = np.array([1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("G, y, sigma, message", [
        ((XS, 3.0 * XS), XS, ONES, "rank-deficient design matrix"),  # collinear
        ((XS, 0.0 * XS), XS, ONES, "rank-deficient design matrix"),  # a zero column
        ((XS, XS.copy()), XS, ONES, "rank-deficient design matrix"),  # a repeated one
        ((ONES * [1, 0, 0, 0], ONES * [2, 0, 0, 0]), XS, ONES,
         "rank-deficient design matrix"),  # Gram-Schmidt leaves exactly 0
        ((XS, np.array([1.0, np.nan, 1.0, 1.0])), XS, ONES,
         "the weighted system is not finite"),
        ((XS, np.array([1.0, 1e300, 1.0, 1.0])), XS, np.full(4, 1e-10),
         "the weighted system is not finite"),  # a column over sigma overflows
        ((ONES,), np.array([1e200, -1e200, 1e200, -1e200]), ONES,
         "chi2 of the weighted fit is not finite"),  # each |y / sigma| finite
        ((np.array([1e-10]),), np.array([1e300]), np.ones(1),
         "coefficients of the weighted fit overflow"),  # chi2 = 0: one row
        ((1e-200 * ONES,), ONES, ONES, "covariance of the weighted fit overflows"),
        ((XS,), XS, np.array([1.0, 0.0, 1.0, 1.0]), "every sigma must be finite and > 0"),
    ])
    def test_rules_are_weighted_lstsq_s(self, G, y, sigma, message):
        # each error, message included, is weighted_lstsq's on the same design; the
        # projection runs under the solver's errstate, as in a fit
        with pytest.raises(DegenerateSystemError, match=message):
            weighted_lstsq(np.column_stack(G), y, sigma)
        basis = lambda phi: (G, (np.ones((y.size, 1)),) + (None,) * (len(G) - 1))  # noqa: E731
        with pytest.raises(DegenerateSystemError, match=message), np.errstate(all="ignore"):
            projection(basis, y, sigma)(np.zeros(1))

    def test_no_lapack_call(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg called")
        for name in ("qr", "inv", "solve", "lstsq", "svd"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        sigma = np.full(self.X.size, 0.1)
        project = projection(self.exponentials, np.exp(-self.X) + 1.0, sigma)
        coef = project(np.array([1.0, 3.0]))[2]
        np.testing.assert_allclose(coef, [1.0, 0.0, 1.0], atol=1e-12)


class TestBoundedFit:
    @staticmethod
    def solver(**result):
        def solve(resid, p0, **kwargs):
            assert kwargs["xtol"] == kwargs["ftol"] == kwargs["gtol"] == 1e-14
            return type("Result", (), dict(result, fun=np.array([-3.0, 2.0])))()
        return solve

    @staticmethod
    def fit(solve, jac=np.eye(2), model=lambda p: np.zeros(2)):
        return bounded_fit(solve, lambda p: (model(p), jac), np.zeros(2), np.ones(2), [0, 0],
                           [-1, -1], [1, 1], "toy fit")

    def test_returns_result_and_inverse_normal_matrix(self):
        J = np.array([[2.0, 0.0], [1.0, 1.0]])
        res, cov = self.fit(self.solver(success=True, jac=J))
        assert res.success
        assert np.allclose(cov @ (J.T @ J), np.eye(2))

    def test_covariance_matches_weighted_lstsq_for_a_linear_model(self):
        rng = np.random.default_rng(3)
        A = np.column_stack([np.ones(20), np.linspace(0.0, 1e3, 20), rng.normal(size=20)])
        sigma = rng.uniform(0.5, 2.0, 20)
        y = A @ [1.0, 2e-3, -0.5] + rng.normal(0.0, sigma)
        _, cov, _ = weighted_lstsq(A, y, sigma)
        _, fit_cov = bounded_fit(least_squares, lambda p: (A @ p, A), y, sigma,
                                 np.zeros(3), -np.full(3, 1e3), np.full(3, 1e3), "line")
        np.testing.assert_allclose(fit_cov, cov, rtol=1e-12, atol=0.0)

    def test_each_point_is_evaluated_once(self):
        rng = np.random.default_rng(4)
        A = np.column_stack([np.ones(30), np.linspace(-1.0, 1.0, 30), rng.normal(size=30)])
        sigma = rng.uniform(0.5, 2.0, 30)
        y = A @ [0.3, -1.2, 0.7] + rng.normal(0.0, sigma)
        calls = []

        def evaluate(p):
            calls.append(p.copy())
            return A @ p, A

        res, _ = bounded_fit(least_squares, evaluate, y, sigma, np.array([0.1, 0.1, 0.1]),
                             -np.full(3, 10.0), np.full(3, 10.0), "line")
        # the solver's first point is the start, evaluated once for the check and the solve
        assert len(calls) == res.nfev
        assert res.njev >= 2
        np.testing.assert_array_equal(calls[0], [0.1, 0.1, 0.1])

    def test_active_bounds_names_the_values_at_a_bound(self):
        names = ["a", "b", "c", "d", "e"]
        x = [0.0, 5e-10, 1.0 - 1e-12, 0.5, 1e-8]
        lower, upper = [0.0, 0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0, np.inf]
        assert active_bounds(names, x, lower, upper, [1.0] * 5) == ("a", "b", "c")
        assert active_bounds(names, x, lower, upper, [1e-3] * 5) == ("a", "c")

    @pytest.mark.parametrize("model, J, solve, match", [
        (lambda p: np.zeros(2), np.array([[1.0, 1.0], [2.0, 2.0]]), None,
         "toy fit: rank-deficient"),
        # the start is checked by the solver, which a fake one does not do
        (lambda p: np.array([0.0, math.inf]), np.eye(2), least_squares,
         "toy fit: the model is not finite"),
        (lambda p: np.zeros(2), 1e-160 * np.eye(2), None, "toy fit: covariance of the weighted"),
    ], ids=["collinear-jacobian", "non-finite-start", "overflowing-covariance"])
    def test_degenerate_fit_is_degenerate_system_error(self, model, J, solve, match):
        with pytest.raises(DegenerateSystemError, match=match):
            self.fit(solve or self.solver(success=True, jac=J), jac=J, model=model)

    def test_unconverged_result_is_convergence_error(self):
        with pytest.raises(ConvergenceError, match="toy fit did not converge") as info:
            self.fit(self.solver(success=False))
        assert info.value.residual == 3.0

    def test_solver_value_error_is_convergence_error(self):
        def solve(*args, **kwargs):
            raise ValueError("Residuals are not finite in the initial point.")
        with pytest.raises(ConvergenceError, match="toy fit failed: Residuals"):
            self.fit(solve)


class TestMcPropagate:
    def test_identity_passthrough(self):
        out = mc_propagate(lambda x: x, [UValue(5, 1)], n_samples=10**6, seed=1)
        assert out.value == pytest.approx(5, rel=0.01)
        assert out.sigma == pytest.approx(1, rel=0.01)

    def test_product_sigma_analytic(self):
        # Var(XY) = sx^2 sy^2 + sx^2 my^2 + sy^2 mx^2 = 201 for (10+-1)^2
        out = mc_propagate(lambda a, b: a * b,
                           [UValue(10, 1), UValue(10, 1)], n_samples=10**6, seed=2)
        assert out.sigma == pytest.approx(math.sqrt(201), rel=0.035)

    def test_deterministic_per_seed(self):
        args = (lambda a, b: a / b, [UValue(6, 0.1), UValue(3, 0.05)])
        r1 = mc_propagate(*args, n_samples=10**4, seed=7)
        r2 = mc_propagate(*args, n_samples=10**4, seed=7)
        assert r1 == r2

    def test_rejects_small_sample_count(self):
        with pytest.raises(ConfigurationError):
            mc_propagate(lambda x: x, [UValue(1, 0.1)], n_samples=100, seed=0)


class TestFirstOrderVsMc:
    def test_linear_agreement_within_mc_error(self):
        terms = [(2.0, UValue(1.5, 0.05)), (-3.0, UValue(0.7, 0.02))]
        exact = combine_linear(terms)
        n = 10**6
        mc = mc_propagate(lambda a, b: 2 * a - 3 * b,
                          [t[1] for t in terms], n_samples=n, seed=3)
        # standard error of an MC sd estimate is sigma/sqrt(2n)
        se = exact.sigma / math.sqrt(2 * n)
        assert abs(mc.sigma - exact.sigma) < 3 * se * 3  # 3 std errors, margin 3

    @pytest.mark.parametrize("f,inputs", [
        (lambda a, b: a * b, [UValue(10, 0.3), UValue(4, 0.15)]),
        (lambda a, b: a / b, [UValue(10, 0.3), UValue(4, 0.15)]),
        (lambda a: np.log(a), [UValue(10, 0.3)]),
    ])
    def test_small_relative_error_agreement(self, f, inputs):
        first = propagate(f, inputs)
        mc = mc_propagate(f, inputs, n_samples=10**6, seed=4)
        assert mc.sigma == pytest.approx(first.sigma, rel=0.05)


@settings(max_examples=50)
@given(st.floats(0.1, 100), st.floats(0, 0.05))
def test_scaled_is_exact(value, rel):
    v = UValue(value, rel * value)
    out = v.scaled(-2.5)
    assert out.value == pytest.approx(-2.5 * value)
    assert out.sigma == pytest.approx(2.5 * v.sigma)
