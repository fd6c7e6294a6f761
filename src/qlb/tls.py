"""Power- and temperature-dependent TLS quality-factor model.

The saturable two-level-system absorption gives

    Q_TLS(n, T) = Q_TLS0 * sqrt(1 + (n^b2 / (D T^b1)) th) / th,
    th = tanh(hbar w / 2 kB T)

with Q_TLS0 the linear (unsaturated) limit.  Measured internal quality
factors are modeled as 1/Q_int = 1/Q_TLS(n, T) + 1/Q_other below the
quasiparticle regime; points above the quasiparticle cutoff temperature
are excluded from fits rather than modeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import least_squares

from .constants import HBAR, K_B
from .errors import ConvergenceError, DatasetError, InvalidInputError
from .uncert import UValue

__all__ = ["TlsParams", "QPoint", "q_tls", "fit_tls", "rescale_q_tls0"]

DEFAULT_QP_CUTOFF_K = 0.120


@dataclass(frozen=True)
class TlsParams:
    """Fitted parameters of the TLS quality-factor model."""

    q_tls0: UValue
    D: float = 1.0
    beta1: float = 1.0
    beta2: float = 1.0
    q_other: float = 1e9
    f0: float = 5e9  # Hz

    def __post_init__(self):
        if self.q_tls0.value <= 0 or self.q_other <= 0 or self.D <= 0:
            raise InvalidInputError("q_tls0, q_other and D must be positive")
        _check_f0(self.f0)
        if self.beta2 <= 0:
            raise InvalidInputError("beta2 must be > 0 (Q_TLS increases with photon number)")


@dataclass(frozen=True)
class QPoint:
    """One measured (photon number, temperature, Q_int) point."""

    n_bar: float
    temperature: float  # K
    q_int: UValue

    def __post_init__(self):
        if self.temperature <= 0:
            raise InvalidInputError("temperature must be > 0")
        if self.n_bar < 0:
            raise InvalidInputError("n_bar must be >= 0")
        if self.q_int.value <= 0:
            raise InvalidInputError("q_int must be > 0")


def _check_f0(f0: float):
    if not (math.isfinite(f0) and f0 > 0):
        raise InvalidInputError(f"f0 must be a finite positive frequency, got {f0}")


def _tanh_factor(f0: float, temperature):
    """tanh(hbar w / 2 kB T) for a scalar or an array of temperatures."""
    return np.tanh(HBAR * 2.0 * np.pi * f0 / (2.0 * K_B * temperature))


def q_tls(n_bar: float, temperature: float, params: TlsParams) -> float:
    """Evaluate Q_TLS(n_bar, T) for the given parameters."""
    if temperature <= 0:
        raise InvalidInputError("temperature must be > 0")
    if n_bar < 0:
        raise InvalidInputError("n_bar must be >= 0")
    th = _tanh_factor(params.f0, temperature)
    sat = n_bar ** params.beta2 / (params.D * temperature ** params.beta1)
    return params.q_tls0.value * math.sqrt(1.0 + sat * th) / th


def rescale_q_tls0(params: TlsParams, n_bar: float, temperature: float) -> UValue:
    """Rescale the fitted Q_TLS0 to operating conditions (n_bar, T).

    The relative uncertainty of q_tls0 is carried through unchanged, since
    the rescaling factor is treated as exact.
    """
    factor = q_tls(n_bar, temperature, params) / params.q_tls0.value
    return params.q_tls0.scaled(factor)


def _physical(theta):
    """(q_tls0, D, beta1, beta2, q_other) from the fit's log-parameter vector."""
    return (np.exp(theta[0]), np.exp(theta[1]), theta[2], theta[3], np.exp(theta[4]))


def _model_inv_q(n, T, th, q_tls0, D, beta1, beta2, q_other):
    sat = n ** beta2 / (D * T ** beta1)
    qtls = q_tls0 * np.sqrt(1.0 + sat * th) / th
    return 1.0 / qtls + 1.0 / q_other


def _model_inv_q_jac(theta, n, T, th, ln_T, ln_n):
    """Jacobian of ``_model_inv_q`` with respect to the log-parameters theta.

    With g = th / (q_tls0 sqrt(1 + s th)) and s = n^b2 / (D T^b1), the
    saturation columns share h = g s th / (2 (1 + s th)).  ``ln_n`` must be
    0 where n = 0, so those rows get a zero beta2 column (s = 0 there).
    """
    q0, D, b1, b2, qo = _physical(theta)
    s_th = n ** b2 / (D * T ** b1) * th
    g = th / (q0 * np.sqrt(1.0 + s_th))
    h = 0.5 * g * s_th / (1.0 + s_th)
    return np.column_stack([-g, h, h * ln_T, -h * ln_n, np.full_like(g, -1.0 / qo)])


def fit_tls(
    points: Sequence[QPoint],
    f0: float,
    init: TlsParams | None = None,
    bounds: dict | None = None,
    qp_cutoff_temperature: float = DEFAULT_QP_CUTOFF_K,
) -> tuple[TlsParams, np.ndarray]:
    """Fit the TLS model to measured Q_int(n_bar, T) points.

    Points at or above the quasiparticle cutoff temperature are dropped.
    Fits 1/Q_int residuals weighted by their sigma using bounded damped
    least squares in log-parameter space for the positive scale parameters,
    with the analytic Jacobian of ``_model_inv_q_jac``.  Returns the fitted
    parameters (q_tls0 sigma from the covariance diagonal) and the full 5x5
    covariance matrix in the order (q_tls0, D, beta1, beta2, q_other).
    """
    _check_f0(f0)
    kept = [p for p in points if p.temperature < qp_cutoff_temperature]
    if len(kept) < 5:
        raise DatasetError(
            f"need >= 5 points below {qp_cutoff_temperature} K, have {len(kept)}"
        )
    n = np.array([p.n_bar for p in kept])
    positive_n = n[n > 0]
    if positive_n.size == 0 or positive_n.max() / positive_n.min() < 100.0:
        raise DatasetError("points must span at least 2 decades in n_bar")
    T = np.array([p.temperature for p in kept])
    q = np.array([p.q_int.value for p in kept])
    y = 1.0 / q
    # sigma(1/Q) = sigma_Q / Q^2
    sig = np.array([p.q_int.sigma for p in kept]) / q ** 2
    sig[sig == 0] = np.median(sig[sig > 0]) if np.any(sig > 0) else 1.0

    if init is None:
        q_init = float(np.max([p.q_int.value for p in kept]))
        init = TlsParams(UValue(q_init), D=1.0, beta1=1.0, beta2=1.0,
                         q_other=10.0 * q_init, f0=f0)

    bounds = bounds or {}
    lo_beta1, hi_beta1 = bounds.get("beta1", (0.05, 4.0))
    lo_beta2, hi_beta2 = bounds.get("beta2", (0.05, 4.0))
    lo_logD, hi_logD = np.log(bounds.get("D", (1e-8, 1e8)))

    # theta = (log q_tls0, log D, beta1, beta2, log q_other)
    theta0 = np.array([
        np.log(init.q_tls0.value), np.log(init.D), init.beta1, init.beta2,
        np.log(init.q_other),
    ])
    lower = np.array([np.log(1.0), lo_logD, lo_beta1, lo_beta2, np.log(1.0)])
    upper = np.array([np.log(1e12), hi_logD, hi_beta1, hi_beta2, np.log(1e14)])

    th = _tanh_factor(f0, T)
    ln_T = np.log(T)
    ln_n = np.log(n, out=np.zeros_like(n), where=n > 0)

    def resid(theta):
        return (_model_inv_q(n, T, th, *_physical(theta)) - y) / sig

    def jac(theta):
        return _model_inv_q_jac(theta, n, T, th, ln_T, ln_n) / sig[:, None]

    try:
        res = least_squares(resid, theta0, jac=jac, bounds=(lower, upper),
                            xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=20000)
    except ValueError as exc:  # extreme data: a non-finite model or a start past a bound
        raise ConvergenceError(f"TLS fit failed: {exc}") from exc
    if not res.success:
        raise ConvergenceError("TLS fit did not converge",
                               residual=float(np.max(np.abs(res.fun))))

    q0, D, b1, b2, qo = _physical(res.x)
    # covariance in physical parameters via the log-space jacobian
    J = res.jac
    try:
        cov_theta = np.linalg.inv(J.T @ J)
    except np.linalg.LinAlgError:
        cov_theta = np.linalg.pinv(J.T @ J)
    scale = np.array([q0, D, 1.0, 1.0, qo])
    cov = cov_theta * np.outer(scale, scale)
    sigma_q0 = float(np.sqrt(max(cov[0, 0], 0.0)))
    params = TlsParams(UValue(q0, sigma_q0), D=D, beta1=b1, beta2=b2,
                       q_other=qo, f0=f0)
    return params, cov

