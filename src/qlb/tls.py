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
from functools import partial

import numpy as np

from ._trf import least_squares
from .constants import HBAR, K_B
from .errors import DatasetError, InvalidInputError, check_rows, float_columns
from .uncert import (UValue, _qr_solve, _reciprocal, _uvalues, active_bounds, bounded_fit,
                     projection)

__all__ = ["TlsParams", "QGrid", "q_tls", "fit_tls", "rescale_q_tls0"]

DEFAULT_QP_CUTOFF_K = 0.120
Q_TLS0_BOUNDS = (1.0, 1e12)  # fit range of q_tls0
_NAMES = ("q_tls0", "D", "beta1", "beta2", "q_other")  # the fit's parameters, in order


@dataclass(frozen=True)
class TlsParams:
    """Fitted parameters of the TLS quality-factor model."""

    q_tls0: UValue
    D: float = 1.0
    beta1: float = 1.0
    beta2: float = 1.0
    q_other: float = 1e9
    f0: float = 5e9  # Hz
    boundary_active: tuple = ()  # names of fitted parameters at a fit bound

    def __post_init__(self):
        if self.q_tls0.value <= 0 or self.q_other <= 0 or self.D <= 0:
            raise InvalidInputError("q_tls0, q_other and D must be positive")
        _check_f0(self.f0)
        if self.beta2 <= 0:
            raise InvalidInputError("beta2 must be > 0 (Q_TLS increases with photon number)")


@dataclass(frozen=True)
class QGrid:
    """Measured Q_int(n_bar, T) +- sigma, one row per point, as float arrays.  A row's
    rules: T > 0, n_bar >= 0, Q_int > 0 with the fit's value 1/Q and its sigma sigma/Q^2
    finite and > 0, and its chi2 term (Q/sigma)^2 finite."""

    n_bar: np.ndarray
    temperature: np.ndarray  # K
    q_int: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        n, T, q, sigma = float_columns(self, ("n_bar", "temperature", "q_int", "sigma"))
        q_ok = _reciprocal(q, sigma)[2]
        with np.errstate(all="ignore"):  # an overflow or a zero breaks the last rule
            r = q / sigma
            check_rows(
                (T > 0, lambda i: "temperature must be > 0"),
                (n >= 0, lambda i: "n_bar must be >= 0"),
                (q_ok, lambda i: f"q_int {q[i]} +- {sigma[i]} must be > 0 with a finite, "
                                 "positive 1/Q and sigma/Q^2"),
                (np.isfinite(r * r),
                 lambda i: f"q_int {q[i]} over sigma {sigma[i]} overflows the weighted fit"))


def _check_f0(f0: float):
    if not (math.isfinite(f0) and f0 > 0):
        raise InvalidInputError(f"f0 must be a finite positive frequency, got {f0}", arg="f0")


def _tanh_factor(f0: float, temperature):
    """tanh(hbar w / 2 kB T) for a scalar or an array of temperatures."""
    return np.tanh(HBAR * 2.0 * np.pi * f0 / (2.0 * K_B * temperature))


def _saturation(n, T, th, D, beta1, beta2):
    """s th, s = n^b2 / (D T^b1), for scalars or arrays, with th = tanh(hbar w / 2 kB T)."""
    return n ** beta2 / (D * T ** beta1) * th


def _q_tls(n, T, th, q_tls0, D, beta1, beta2):
    """Q_TLS(n, T) = q_tls0 sqrt(1 + s th) / th for scalars or arrays."""
    return q_tls0 * np.sqrt(1.0 + _saturation(n, T, th, D, beta1, beta2)) / th


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


def _model_inv_q_jac(theta, n, T, th, ln_T, ln_n):
    """(1/Q = 1/Q_TLS + 1/q_other, its Jacobian in theta) at the log-parameters theta.

    With g = 1/Q_TLS = th / (q_tls0 sqrt(1 + s th)) and s = n^b2 / (D T^b1), the
    saturation columns share h = g s th / (2 (1 + s th)).  ``ln_n`` must be
    0 where n = 0, so those rows get a zero beta2 column (s = 0 there)."""
    q0, D, b1, b2, qo = _physical(theta)
    s_th = _saturation(n, T, th, D, b1, b2)
    one_s = 1.0 + s_th
    g = th / (q0 * np.sqrt(one_s))
    h = 0.5 * g * s_th / one_s
    J = np.empty((g.size, 5))  # filled in place, cheaper per evaluation than stacking
    J[:, 0], J[:, 1], J[:, 2], J[:, 3], J[:, 4] = -g, h, h * ln_T, -h * ln_n, -1.0 / qo
    return g + 1.0 / qo, J


def _basis(evaluate, phi):
    """((g, 1), (dg/dphi, None)): the columns of 1/Q = a g(phi) + b and their derivatives
    in phi = (ln D, beta1, beta2), from ``evaluate``'s Jacobian at q_tls0 = q_other = 1."""
    J = evaluate(np.concatenate([[0.0], phi, [0.0]]))[1]
    return (-J[:, 0], 1.0), (J[:, 1:4], None)


def fit_tls(
    points: QGrid,
    f0: float,
    qp_cutoff_temperature: float = DEFAULT_QP_CUTOFF_K,
) -> tuple[TlsParams, np.ndarray]:
    """Fit the TLS model to the measured Q_int(n_bar, T) points of a ``QGrid``.

    Points at or above the quasiparticle cutoff temperature are dropped, and a max q_int
    outside ``Q_TLS0_BOUNDS`` is a DatasetError.  1/Q_int +- sigma is fitted in
    log-parameter space for the positive scale parameters, within fixed bounds: q_tls0 in
    ``Q_TLS0_BOUNDS``, D in [1e-8, 1e8], beta1 and beta2 in [0.05, 4], q_other in [1, 1e14].
    1/Q = a g(phi) + b is linear in (a, b) = (1/q_tls0, 1/q_other), so one ``bounded_fit``
    runs over phi = (ln D, beta1, beta2) alone from D = beta1 = beta2 = 1: the
    ``uncert.projection`` of the columns (g, 1) of ``_basis``.  One model call at the
    solution gives (a, b) and the full Jacobian.  Only where a or b falls outside its
    bound does the five-parameter ``bounded_fit`` run, from (a, b) clipped into their
    bounds, and its Jacobian is taken instead.  That whitened Jacobian, in the physical
    parameters, gives the covariance by ``uncert._qr_solve``, under its rules.
    Returns the fitted parameters (q_tls0 sigma from the covariance diagonal,
    ``boundary_active`` naming those at a bound, as ``uncert.active_bounds`` finds them
    on theta with the bound spans as scales) and the full 5x5 covariance matrix in the
    order (q_tls0, D, beta1, beta2, q_other).
    """
    _check_f0(f0)
    kept = points.temperature < qp_cutoff_temperature
    n, T, q = points.n_bar[kept], points.temperature[kept], points.q_int[kept]
    if n.size < 5:
        raise DatasetError(
            f"need >= 5 points below {qp_cutoff_temperature} K, have {n.size}"
        )
    positive_n = n[n > 0]
    if positive_n.size == 0 or positive_n.max() / 100.0 < positive_n.min():
        raise DatasetError("points must span at least 2 decades in n_bar")
    y, sig, _ = _reciprocal(q, points.sigma[kept])

    q_max = float(np.max(q))
    if not Q_TLS0_BOUNDS[0] <= q_max <= Q_TLS0_BOUNDS[1]:  # input range check
        raise DatasetError(f"largest q_int {q_max:g} is outside the q_tls0 fit "
                           "range [{:g}, {:g}]".format(*Q_TLS0_BOUNDS))
    # theta = (log q_tls0, log D, beta1, beta2, log q_other)
    lower = np.array([np.log(Q_TLS0_BOUNDS[0]), np.log(1e-8), 0.05, 0.05, np.log(1.0)])
    upper = np.array([np.log(Q_TLS0_BOUNDS[1]), np.log(1e8), 4.0, 4.0, np.log(1e14)])

    with np.errstate(all="ignore"):  # hbar w / 2 kB T overflows as T -> 0; tanh -> 1
        th = _tanh_factor(f0, T)
    ln_n = np.log(n, out=np.zeros_like(n), where=n > 0)
    evaluate = partial(_model_inv_q_jac, n=n, T=T, th=th, ln_T=np.log(T), ln_n=ln_n)

    project = projection(partial(_basis, evaluate), y, sig)
    phi = bounded_fit(least_squares, project, y, sig, np.array([0.0, 1.0, 1.0]), lower[1:4],
                      upper[1:4], "TLS fit")[0].x
    with np.errstate(all="ignore"):  # as in the solver's evaluations (qlb._trf)
        _, _, coef, _, ((g, _), (dg, _)) = project(phi)
    # (a, b) clipped to [1/upper, 1/lower] of their q bounds: b <= 0 starts q_other at 1e14
    a, b = np.clip(coef, np.exp(-upper[[0, 4]]), np.exp(-lower[[0, 4]]))
    theta = np.clip(np.concatenate([[-np.log(a)], phi, [-np.log(b)]]), lower, upper)
    if np.array_equal((a, b), coef):  # the projection's optimum is within every bound
        jac = np.column_stack([-a * g, a * dg, np.full_like(y, -b)]) / sig[:, None]
    else:
        res = bounded_fit(least_squares, evaluate, y, sig, theta, lower, upper, "TLS fit")[0]
        theta, jac = res.x, res.jac
    q0, D, b1, b2, qo = _physical(theta)
    # the whitened Jacobian in physical parameters: d theta / dp = 1 / p for the logs
    cov = _qr_solve(jac / np.array([q0, D, 1.0, 1.0, qo]))[0]
    params = TlsParams(_uvalues([q0], cov)[0], D=D, beta1=b1, beta2=b2, q_other=qo, f0=f0,
                       boundary_active=active_bounds(_NAMES, theta, lower, upper,
                                                     upper - lower))
    return params, cov

