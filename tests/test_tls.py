import math
from dataclasses import astuple, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlb import tls, uncert
from qlb.constants import HBAR, K_B
from qlb.errors import DatasetError, InvalidInputError
from qlb.tls import (
    QGrid,
    TlsParams,
    _model_inv_q_jac,
    fit_tls,
    q_tls,
    rescale_q_tls0,
)
from qlb.uncert import UValue, bounded_fit, weighted_lstsq

F0 = 5e9
TRUE = TlsParams(UValue(1.2e6), D=2.0e4, beta1=1.0, beta2=0.8, q_other=6.0e6, f0=F0)


def grid_points(params, noise=0.0, seed=0, temps=(0.010, 0.025, 0.050, 0.090),
                n_decades=(0.1, 1e5), n_per_temp=10):
    rng = np.random.default_rng(seed)
    pts = []
    for T in temps:
        for n in np.geomspace(*n_decades, n_per_temp):
            inv_q = 1.0 / q_tls(n, T, params) + 1.0 / params.q_other
            if noise:
                inv_q *= 1.0 + rng.normal(0.0, noise)
            q = 1.0 / inv_q
            pts.append((n, T, q, max(noise, 1e-4) * q))
    return QGrid(*zip(*pts))


def with_rows(grid, rows):
    """``grid`` with the (n_bar, T, q_int, sigma) ``rows`` appended."""
    return QGrid(*(np.append(column, added) for column, added in zip(astuple(grid), zip(*rows))))


def five_parameter_fit(pts):
    """Reference: the five-parameter ``bounded_fit`` of ``fit_tls``'s bounds and model from
    the fixed start q_tls0 = max q_int, D = 1, beta1 = beta2 = 1, q_other = 10 max q_int.
    Returns the values and covariance in (q_tls0, D, beta1, beta2, q_other)."""
    n, T, q, sigma = pts.n_bar, pts.temperature, pts.q_int, pts.sigma
    evaluate = partial(_model_inv_q_jac, n=n, T=T, th=tls._tanh_factor(F0, T),
                       ln_T=np.log(T), ln_n=np.log(n, out=np.zeros_like(n), where=n > 0))
    lower = [np.log(tls.Q_TLS0_BOUNDS[0]), np.log(1e-8), 0.05, 0.05, 0.0]
    upper = [np.log(tls.Q_TLS0_BOUNDS[1]), np.log(1e8), 4.0, 4.0, np.log(1e14)]
    theta0 = np.array([np.log(q.max()), 0.0, 1.0, 1.0, np.log(10.0 * q.max())])
    res, cov = bounded_fit(tls.least_squares, evaluate, 1.0 / q, sigma / q ** 2, theta0,
                           lower, upper, "reference fit")
    q0, D, beta1, beta2, q_other = tls._physical(res.x)
    scale = np.array([q0, D, 1.0, 1.0, q_other])
    return [q0, D, beta1, beta2, q_other], cov * np.outer(scale, scale)


class TestModel:
    def test_unsaturated_limit_closed_form(self):
        # n_bar = 0: Q_TLS = Q_TLS0 / tanh(hbar w / 2 kB T) exactly
        for T in (0.010, 0.050, 0.100):
            th = math.tanh(HBAR * 2 * math.pi * F0 / (2 * K_B * T))
            assert q_tls(0.0, T, TRUE) == pytest.approx(
                TRUE.q_tls0.value / th, rel=1e-12
            )

    def test_low_temperature_limit(self):
        # tanh -> 1 as T -> 0, so Q_TLS(0, T) -> Q_TLS0
        assert q_tls(0.0, 1e-3, TRUE) == pytest.approx(TRUE.q_tls0.value, rel=1e-12)

    def test_monotone_in_photon_number(self):
        n = np.geomspace(1e-3, 1e7, 100)
        q = np.array([q_tls(x, 0.025, TRUE) for x in n])
        assert np.all(np.diff(q) > 0)

    @settings(max_examples=30)
    @given(st.floats(0.005, 0.11), st.floats(0.01, 1e6))
    def test_saturation_never_below_linear_limit(self, T, n):
        assert q_tls(n, T, TRUE) >= q_tls(0.0, T, TRUE) - 1e-9

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            q_tls(1.0, -0.01, TRUE)
        with pytest.raises(InvalidInputError):
            q_tls(-1.0, 0.01, TRUE)
        with pytest.raises(InvalidInputError):
            TlsParams(UValue(-1e6), f0=F0)
        with pytest.raises(InvalidInputError):
            QGrid([1.0], [0.01], [-1.0], [0.0])

    @pytest.mark.parametrize("q,sigma", [(1e6, 0.0), (1e-320, 1e4), (1e200, 1.0)])
    def test_point_without_finite_fit_weight_rejected(self, q, sigma):
        # 1/Q and sigma/Q^2 must both be finite and > 0
        with pytest.raises(InvalidInputError, match="sigma/Q"):
            QGrid([1.0], [0.01], [q], [sigma])


class TestRescale:
    def test_relative_sigma_preserved(self):
        params = TlsParams(UValue(1.2e6, 0.1e6), D=2e4, beta1=1.0, beta2=0.8,
                           q_other=6e6, f0=F0)
        out = rescale_q_tls0(params, 1.0, 0.010)
        assert out.sigma / out.value == pytest.approx(
            params.q_tls0.sigma / params.q_tls0.value, rel=1e-12
        )
        assert out.value == pytest.approx(q_tls(1.0, 0.010, params), rel=1e-12)

    def test_rescale_at_linear_point_is_near_identity(self):
        params = TlsParams(UValue(1e6, 1e4), D=1e6, beta1=1.0, beta2=1.0,
                           q_other=1e9, f0=F0)
        out = rescale_q_tls0(params, 1e-6, 0.001)
        assert out.value == pytest.approx(1e6, rel=1e-6)


class TestFit:
    def test_noiseless_round_trip(self):
        params, cov = fit_tls(grid_points(TRUE), f0=F0)
        assert params.q_tls0.value == pytest.approx(TRUE.q_tls0.value, rel=1e-3)
        assert params.D == pytest.approx(TRUE.D, rel=1e-3)
        assert params.beta1 == pytest.approx(TRUE.beta1, rel=1e-3)
        assert params.beta2 == pytest.approx(TRUE.beta2, rel=1e-3)
        assert params.q_other == pytest.approx(TRUE.q_other, rel=1e-3)
        assert cov.shape == (5, 5)

    def test_quasiparticle_points_excluded(self):
        pts = with_rows(grid_points(TRUE), [
            # junk points in the quasiparticle regime must not bias the fit
            (n, 0.200, 1e4, 100.0) for n in (1.0, 10.0, 100.0)
        ])
        params, _ = fit_tls(pts, f0=F0)
        assert params.q_tls0.value == pytest.approx(TRUE.q_tls0.value, rel=1e-3)

    @pytest.mark.parametrize("f0", [0.0, -5e9, math.nan])
    def test_nonpositive_f0_rejected(self, f0):
        with pytest.raises(InvalidInputError, match="f0"):
            fit_tls(grid_points(TRUE), f0=f0)
        with pytest.raises(InvalidInputError, match="f0"):
            TlsParams(UValue(1e6), f0=f0)

    def test_too_few_cold_points(self):
        pts = QGrid(*zip(*[(10 ** k, 0.150, 1e6, 1e4) for k in range(6)]))
        with pytest.raises(DatasetError):
            fit_tls(pts, f0=F0)

    def test_requires_two_decades(self):
        for n_scale in (1.0, 1e-320, 1e307):  # no ratio of n_bar, nor 100 x n_bar, overflows
            pts = QGrid(*zip(*[(n_scale * (1.0 + 0.1 * k), 0.010, 1e6, 1e4)
                               for k in range(8)]))
            with pytest.raises(DatasetError, match="2 decades"):
                fit_tls(pts, f0=F0)

    def test_zero_photon_rows(self):
        pts = with_rows(grid_points(TRUE), [
            (0.0, T, 1.0 / (1.0 / q_tls(0.0, T, TRUE) + 1.0 / TRUE.q_other),
             1e-4 * TRUE.q_tls0.value)
            for T in (0.010, 0.050)
        ])
        params, cov = fit_tls(pts, f0=F0)
        assert np.all(np.isfinite(cov))
        assert params.q_tls0.value == pytest.approx(TRUE.q_tls0.value, rel=1e-3)
        assert params.beta2 == pytest.approx(TRUE.beta2, rel=1e-3)

    @pytest.mark.parametrize("noise, seed", [(0.0, 0)] + [(0.01, s) for s in range(5)])
    def test_projection_matches_the_five_parameter_fit(self, noise, seed):
        pts = grid_points(TRUE, noise=noise, seed=seed)
        params, cov = fit_tls(pts, f0=F0)
        ref_values, ref_cov = five_parameter_fit(pts)
        # both stop at ftol = 1e-14 of a chi2 ~ 40: each within ~1e-6 sigma of the optimum
        values = [params.q_tls0.value, params.D, params.beta1, params.beta2, params.q_other]
        np.testing.assert_array_less(np.abs(np.subtract(values, ref_values)),
                                     1e-6 * np.sqrt(np.diag(ref_cov)))
        np.testing.assert_allclose(cov, ref_cov, rtol=1e-6, atol=0.0)

    @staticmethod
    def projection_inputs(pts):
        """(evaluate, y, sigma) of ``fit_tls`` on its points, none at the cutoff."""
        n, T, q, sigma = pts.n_bar, pts.temperature, pts.q_int, pts.sigma
        ln_n = np.log(n, out=np.zeros_like(n), where=n > 0)
        evaluate = partial(_model_inv_q_jac, n=n, T=T, th=tls._tanh_factor(F0, T),
                           ln_T=np.log(T), ln_n=ln_n)
        return evaluate, 1.0 / q, sigma / q ** 2

    @pytest.mark.parametrize("noise, seed", [(0.0, 0)] + [(0.01, s) for s in range(5)])
    def test_closed_form_projection_matches_weighted_lstsq(self, noise, seed):
        pts = grid_points(TRUE, noise=noise, seed=seed)
        evaluate, y, sigma = self.projection_inputs(pts)
        project = uncert.projection(partial(tls._basis, evaluate), y, sigma)
        params, _ = fit_tls(pts, f0=F0)
        for phi in ([0.0, 1.0, 1.0], [np.log(params.D), params.beta1, params.beta2],
                    [3.0, 0.5, 1.5]):
            # the reference: (a, b) and their covariance by weighted_lstsq, Kaufman's
            # Jacobian dA - A cov A_w^T dA_w
            J = evaluate(np.concatenate([[0.0], phi, [0.0]]))[1]
            A = np.column_stack([-J[:, 0], np.ones_like(y)])
            coef, cov, _ = weighted_lstsq(A, y, sigma)
            dA = J[:, 1:4] * coef[0]
            ref_jac = dA - A @ (cov @ ((A / sigma[:, None]).T @ (dA / sigma[:, None])))
            model, jac, *_ = project(np.array(phi))
            np.testing.assert_allclose(model, A @ coef, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(jac, ref_jac, rtol=0.0,
                                       atol=1e-12 * np.max(np.abs(ref_jac)))

    def test_projection_basis_stays_orthonormal_near_rank_loss(self):
        # g = 1 + 1e-9 x is within r22 ~ 1e-9 of the constant column: one Gram-Schmidt
        # pass would leave q1 . q2 ~ eps / r22 ~ 1e-7
        x = np.linspace(-1.0, 1.0, 40)
        g, sigma = 1.0 + 1e-9 * x, np.full(40, 1e-3)
        y = 2.0 * g + 0.5

        def evaluate(theta):
            return None, np.column_stack([-g, np.outer(x, [1.0, 2.0, 3.0]), -np.ones(40)])

        project = uncert.projection(partial(tls._basis, evaluate), y, sigma)
        _, _, (a, b), Q, _ = project(np.zeros(3))
        np.testing.assert_allclose(Q.T @ Q, np.eye(2), rtol=0.0, atol=1e-14)
        assert (a, b) == pytest.approx((2.0, 0.5), rel=1e-5)

    def test_no_weighted_lstsq_in_the_solve(self, monkeypatch):
        # the projection takes no QR: the fit's QRs are the covariances at its end,
        # bounded_fit's of the projection and fit_tls' of all five parameters
        counts = {"weighted_lstsq": 0, "qr": 0, "evaluations": 0}

        def counted(name, f):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return f(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(uncert, "weighted_lstsq", counted("weighted_lstsq",
                                                               uncert.weighted_lstsq))
        monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
        monkeypatch.setattr(tls, "_model_inv_q_jac", counted("evaluations",
                                                              tls._model_inv_q_jac))
        params, _ = fit_tls(grid_points(TRUE, noise=0.01, seed=11), f0=F0)
        assert params.boundary_active == ()  # one solve, of the projection alone
        assert counts["evaluations"] > 5
        assert (counts["weighted_lstsq"], counts["qr"]) == (0, 2)

    # a q_other of 1e11 against a Q_TLS0 of 1.2e6 is unresolved at 1 % noise
    UNRESOLVED_Q_OTHER = dict(params=replace(TRUE, q_other=1e11), noise=0.01, n_per_temp=12)

    @pytest.mark.parametrize("grid, solves", [
        (dict(params=TRUE), 1),
        (dict(params=TRUE, noise=0.01, seed=11), 1),
        (dict(UNRESOLVED_Q_OTHER, seed=1), 2),
        (dict(UNRESOLVED_Q_OTHER, seed=3), 2),
    ], ids=["noiseless", "seed-11", "unresolved-seed-1", "unresolved-seed-3"])
    def test_five_parameter_solve_only_past_a_bound(self, monkeypatch, grid, solves):
        starts, nfev, calls = [], [], []
        solve, model = tls.least_squares, tls._model_inv_q_jac

        def recorded(evaluate, x0, **kwargs):
            starts.append(np.array(x0))
            res = solve(evaluate, x0, **kwargs)
            nfev.append(res.nfev)
            return res

        def counted(*args, **kwargs):
            calls.append(None)
            return model(*args, **kwargs)

        monkeypatch.setattr(tls, "least_squares", recorded)
        monkeypatch.setattr(tls, "_model_inv_q_jac", counted)
        fit_tls(grid_points(**grid), f0=F0)
        assert [x0.size for x0 in starts] == [3, 5][:solves]
        if solves == 2:  # from the projection, its 1/q_other <= 0 clipped to the bound
            assert starts[1][4] == pytest.approx(np.log(1e14), rel=1e-12)
        # one model call per solver point, a start moved off its bound included, and the
        # projection's at its solution
        assert len(calls) == sum(nfev) + 1

    @pytest.mark.parametrize("seed", [1, 3])
    def test_parameter_at_its_bound_is_reported(self, seed):
        # a q_other of 1e11 against a Q_TLS0 of 1.2e6 is unresolved at 1 % noise:
        # on these draws the fit runs to the 1e14 bound of q_other
        pts = grid_points(replace(TRUE, q_other=1e11), noise=0.01, seed=seed, n_per_temp=12)
        params, _ = fit_tls(pts, f0=F0)
        assert params.q_other == pytest.approx(1e14, rel=1e-9)
        assert params.boundary_active == ("q_other",)

    def test_interior_fit_reports_no_bound(self):
        params, _ = fit_tls(grid_points(TRUE, noise=0.01, seed=11), f0=F0)
        assert params.boundary_active == ()

    def test_noisy_fit_sigma_is_meaningful(self):
        params, _ = fit_tls(grid_points(TRUE, noise=0.01, seed=11), f0=F0)
        pull = abs(params.q_tls0.value - TRUE.q_tls0.value) / params.q_tls0.sigma
        assert params.q_tls0.sigma > 0
        assert pull < 5.0


class TestJacobian:
    """The analytic log-parameter Jacobian against central differences."""

    n = np.tile(np.concatenate([[0.0], np.geomspace(0.1, 1e5, 7)]), 4)
    T = np.repeat([0.010, 0.030, 0.060, 0.110], 8)
    th = np.tanh(HBAR * 2.0 * np.pi * F0 / (2.0 * K_B * T))

    def model(self, theta):
        ln_n = np.log(self.n, out=np.zeros_like(self.n), where=self.n > 0)
        return _model_inv_q_jac(theta, self.n, self.T, self.th, np.log(self.T), ln_n)[0]

    def central_difference(self, theta):
        cols = []
        for k in range(theta.size):
            h = 1e-6 * max(1.0, abs(theta[k]))
            step = np.zeros_like(theta)
            step[k] = h
            cols.append((self.model(theta + step) - self.model(theta - step)) / (2 * h))
        return np.column_stack(cols)

    def random_thetas(self):
        rng = np.random.default_rng(5)
        thetas = [np.array([np.log(rng.uniform(1e5, 1e7)), np.log(rng.uniform(1e-2, 1e6)),
                            rng.uniform(0.05, 4.0), rng.uniform(0.05, 4.0),
                            np.log(rng.uniform(1e6, 1e8))]) for _ in range(6)]
        # next to the default beta bounds (0.05, 4.0)
        for b1, b2 in ((0.0501, 0.0501), (3.999, 3.999), (0.0501, 3.999)):
            thetas.append(np.array([np.log(1.2e6), np.log(2e4), b1, b2, np.log(6e6)]))
        return thetas

    def test_matches_central_difference(self):
        ln_n = np.log(self.n, out=np.zeros_like(self.n), where=self.n > 0)
        for theta in self.random_thetas():
            J = _model_inv_q_jac(theta, self.n, self.T, self.th, np.log(self.T), ln_n)[1]
            assert np.all(np.isfinite(J))
            J_fd = self.central_difference(theta)
            # near-zero entries are judged against their column
            scale = np.abs(J_fd).max(axis=0)
            np.testing.assert_allclose(J / scale, J_fd / scale, rtol=1e-5, atol=1e-5)

    def test_model_matches_public_law(self):
        for theta in self.random_thetas():
            params = TlsParams(UValue(np.exp(theta[0])), D=np.exp(theta[1]), beta1=theta[2],
                               beta2=theta[3], q_other=np.exp(theta[4]), f0=F0)
            law = [1.0 / q_tls(n, T, params) + 1.0 / params.q_other
                   for n, T in zip(self.n, self.T)]
            np.testing.assert_allclose(self.model(theta), law, rtol=1e-13, atol=0.0)

    def test_zero_photon_rows_have_zero_beta2_column(self):
        ln_n = np.log(self.n, out=np.zeros_like(self.n), where=self.n > 0)
        for theta in self.random_thetas():
            J = _model_inv_q_jac(theta, self.n, self.T, self.th, np.log(self.T), ln_n)[1]
            assert np.all(J[self.n == 0, 3] == 0.0)

