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
from .errors import DatasetError, DegenerateSystemError, InvalidInputError
from .uncert import UValue, bounded_fit

__all__ = ["TlsParams", "QPoint", "q_tls", "fit_tls", "rescale_q_tls0"]

DEFAULT_QP_CUTOFF_K = 0.120
Q_TLS0_BOUNDS = (1.0, 1e12)  # fit range of q_tls0


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
        q, sigma = self.q_int.value, self.q_int.sigma
        # the fit's value 1/Q and its sigma/Q^2 must be finite and positive
        if not (q > 0 and 0.0 < 1.0 / q < math.inf and 0.0 < sigma / q / q < math.inf):
            raise InvalidInputError(f"q_int {q} +- {sigma} must be > 0 with a finite, "
                                    "positive 1/Q and sigma/Q^2")
        r = q / sigma  # 1/Q over its sigma; r * r, as r ** 2 raises on overflow
        if not math.isfinite(r * r):  # a term of the fit's chi2
            raise InvalidInputError(f"q_int {q} over sigma {sigma} overflows the weighted fit")


def _check_f0(f0: float):
    if not (math.isfinite(f0) and f0 > 0):
        raise InvalidInputError(f"f0 must be a finite positive frequency, got {f0}")


def _tanh_factor(f0: float, temperature):
    """tanh(hbar w / 2 kB T) for a scalar or an array of temperatures."""
    return np.tanh(HBAR * 2.0 * np.pi * f0 / (2.0 * K_B * temperature))


def _q_tls(n, T, th, q_tls0, D, beta1, beta2):
    """Q_TLS(n, T) for scalars or arrays, with th = tanh(hbar w / 2 kB T)."""
    return q_tls0 * np.sqrt(1.0 + n ** beta2 / (D * T ** beta1) * th) / th


def q_tls(n_bar: float, temperature: float, params: TlsParams) -> float:
    """Evaluate Q_TLS(n_bar, T) for the given parameters."""
    if temperature <= 0:
        raise InvalidInputError("temperature must be > 0")
    if n_bar < 0:
        raise InvalidInputError("n_bar must be >= 0")
    return _q_tls(n_bar, temperature, _tanh_factor(params.f0, temperature),
                  params.q_tls0.value, params.D, params.beta1, params.beta2)


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
    return 1.0 / _q_tls(n, T, th, q_tls0, D, beta1, beta2) + 1.0 / q_other


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
    qp_cutoff_temperature: float = DEFAULT_QP_CUTOFF_K,
) -> tuple[TlsParams, np.ndarray]:
    """Fit the TLS model to measured Q_int(n_bar, T) points.

    Points at or above the quasiparticle cutoff temperature are dropped.
    Fits 1/Q_int residuals weighted by their sigma using bounded damped
    least squares in log-parameter space for the positive scale parameters,
    with the analytic Jacobian of ``_model_inv_q_jac``.  The start and the
    bounds are fixed: q_tls0 = max q_int in ``Q_TLS0_BOUNDS``, D = 1 in
    [1e-8, 1e8], beta1 = beta2 = 1 in [0.05, 4], q_other = 10 max q_int in
    [1, 1e14].  Returns the fitted parameters (q_tls0 sigma from the
    covariance diagonal) and the full 5x5 covariance matrix in the order
    (q_tls0, D, beta1, beta2, q_other).
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

    q_init = float(np.max(q))
    if not Q_TLS0_BOUNDS[0] <= q_init <= Q_TLS0_BOUNDS[1]:  # q_tls0 starts there
        raise DatasetError(f"largest q_int {q_init:g} is outside the q_tls0 fit "
                           "range [{:g}, {:g}]".format(*Q_TLS0_BOUNDS))
    # theta = (log q_tls0, log D, beta1, beta2, log q_other)
    theta0 = np.array([np.log(q_init), 0.0, 1.0, 1.0, np.log(10.0 * q_init)])
    lower = np.array([np.log(Q_TLS0_BOUNDS[0]), np.log(1e-8), 0.05, 0.05, np.log(1.0)])
    upper = np.array([np.log(Q_TLS0_BOUNDS[1]), np.log(1e8), 4.0, 4.0, np.log(1e14)])

    with np.errstate(all="ignore"):  # hbar w / 2 kB T overflows as T -> 0; tanh -> 1
        th = _tanh_factor(f0, T)
    ln_T = np.log(T)
    ln_n = np.log(n, out=np.zeros_like(n), where=n > 0)

    # a model that is not finite is rejected at the start here, later by the solver
    def resid(theta):
        with np.errstate(all="ignore"):
            return (_model_inv_q(n, T, th, *_physical(theta)) - y) / sig

    def jac(theta):
        with np.errstate(all="ignore"):
            return _model_inv_q_jac(theta, n, T, th, ln_T, ln_n) / sig[:, None]

    if not (np.isfinite(resid(theta0)).all() and np.isfinite(jac(theta0)).all()):
        raise DegenerateSystemError("the TLS model is not finite at the start of the fit")

    res, cov_theta = bounded_fit(least_squares, resid, jac, theta0, lower, upper, "TLS fit")
    q0, D, b1, b2, qo = _physical(res.x)
    # covariance in physical parameters via the log-space jacobian
    scale = np.array([q0, D, 1.0, 1.0, qo])
    cov = cov_theta * np.outer(scale, scale)
    sigma_q0 = float(np.sqrt(max(cov[0, 0], 0.0)))
    params = TlsParams(UValue(q0, sigma_q0), D=D, beta1=b1, beta2=b2,
                       q_other=qo, f0=f0)
    return params, cov

