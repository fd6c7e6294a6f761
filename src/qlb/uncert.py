"""Uncertainty-carrying scalars with first-order Gaussian propagation.

Every measured or derived quantity in the loss budget is a ``UValue``:
a central value plus a one-standard-deviation Gaussian uncertainty.
Inputs are independent unless their covariance is given.  Quantities
derived from shared inputs are correlated: ``propagate_joint`` takes a
whole chain in one Jacobian and returns the output covariance.

Every fit solves here: ``weighted_lstsq`` (SPR slopes, pooling, kinetics)
and ``bounded_fit`` (the bounded TLS and XPS fits) return the covariance.

``mc_propagate`` is a seeded Monte-Carlo sampler used as an independent
oracle for the first-order propagation routines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (ConfigurationError, ConvergenceError, DegenerateSystemError,
                     InvalidInputError)

__all__ = [
    "UValue",
    "combine_linear",
    "propagate",
    "propagate_joint",
    "weighted_lstsq",
    "bounded_fit",
    "mc_propagate",
]


@dataclass(frozen=True)
class UValue:
    """A scalar with a one-sigma Gaussian uncertainty."""

    value: float
    sigma: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.sigma)):
            raise InvalidInputError(
                f"UValue requires finite value and sigma, got {self.value} +- {self.sigma}"
            )
        if self.sigma < 0:
            raise InvalidInputError(f"sigma must be >= 0, got {self.sigma}")

    def scaled(self, factor: float) -> "UValue":
        """Multiply by an exact (zero-uncertainty) scalar."""
        return UValue(self.value * factor, self.sigma * abs(factor))

    def __format__(self, spec: str) -> str:
        spec = spec or "g"
        return f"{self.value:{spec}} +- {self.sigma:{spec}}"


def _as_uvalue(v) -> UValue:
    if isinstance(v, UValue):
        return v
    return UValue(float(v), 0.0)


def combine_linear(terms: Sequence[tuple[float, UValue]]) -> UValue:
    """Exact propagation for a linear combination sum(c_i * v_i).

    The sigma adds in quadrature, weighted by |c_i|; this is exact for
    independent Gaussian inputs.
    """
    value = 0.0
    var = 0.0
    for coeff, v in terms:
        coeff = float(coeff)
        if not math.isfinite(coeff):
            raise InvalidInputError(f"non-finite coefficient {coeff}")
        v = _as_uvalue(v)
        value += coeff * v.value
        var += coeff * coeff * v.sigma * v.sigma
    return UValue(value, math.sqrt(var))


def propagate_joint(f: Callable[..., Sequence[float]], inputs: Sequence[UValue],
                    covariance: Sequence[Sequence[float]] | None = None,
                    ) -> tuple[list[UValue], list[list[float]]]:
    """First-order propagation of a vector-valued ``f`` of the inputs.

    The Jacobian J of ``f`` at the input means comes from central finite
    differences, each step 1e-6 of its input's magnitude with an absolute
    floor of 1e-12, so inputs at zero still get a usable stencil; a ValueError
    or ArithmeticError that ``f`` raises at a stencil point raises
    DegenerateSystemError naming the input.  Returns
    one UValue per output of ``f`` and their covariance J C J^T, with C the
    inputs' ``covariance`` if given (it replaces their sigmas), else diag(sigma^2).
    """
    inputs = [_as_uvalue(v) for v in inputs]
    means = [v.value for v in inputs]
    if covariance is not None and [len(r) for r in covariance] != [len(inputs)] * len(inputs):
        raise InvalidInputError(f"covariance must be {len(inputs)} x {len(inputs)}")
    center = [float(y) for y in f(*means)]
    if not all(map(math.isfinite, center)):
        raise InvalidInputError("function is non-finite at the input means")
    grads = []  # (i, df/dx_i) for each input with a nonzero variance
    for i, v in enumerate(inputs):
        if (v.sigma if covariance is None else covariance[i][i]) == 0.0:
            continue
        h = max(abs(means[i]) * 1e-6, 1e-12)
        hi, lo = list(means), list(means)
        hi[i] += h
        lo[i] -= h
        try:
            grad = [(float(a) - float(b)) / (2.0 * h) for a, b in zip(f(*hi), f(*lo))]
        except (ValueError, ArithmeticError) as exc:  # e.g. a log's argument crosses 0
            raise DegenerateSystemError(
                f"function undefined at input {i} = {means[i]:g} +- {h:g}: {exc}") from exc
        if not all(map(math.isfinite, grad)):
            raise InvalidInputError(f"gradient non-finite in input {i}")
        grads.append((i, grad))
    n = len(center)
    if covariance is None:  # products overflow to inf, where ** 2 would raise
        columns = [[g * inputs[i].sigma for g in grad] for i, grad in grads]
        cov = [[sum(c[j] * c[k] for c in columns) for k in range(n)] for j in range(n)]
    else:
        cov = [[sum(ga[j] * covariance[a][b] * gb[k] for a, ga in grads for b, gb in grads)
                for k in range(n)] for j in range(n)]
    if not all(math.isfinite(cov[j][j]) for j in range(n)):
        raise InvalidInputError("propagated variance is not finite")
    # max: rounding can leave a variance of correlated inputs a hair below 0
    return [UValue(y, math.sqrt(max(cov[j][j], 0.0))) for j, y in enumerate(center)], cov


def propagate(f: Callable[..., float], inputs: Sequence[UValue],
              covariance: Sequence[Sequence[float]] | None = None) -> UValue:
    """First-order propagation of a scalar ``f``; ``covariance`` and the method
    as for ``propagate_joint``."""
    (out,), _ = propagate_joint(lambda *x: (f(*x),), inputs, covariance)
    return out


def weighted_lstsq(A, y, sigma) -> tuple[np.ndarray, np.ndarray, float]:
    """(coef, cov, chi2) minimising chi2 = |(A coef - y) / sigma|^2.

    One QR of the whitened design A / sigma, its columns scaled to unit norm:
    no weighted sum is formed, so columns of any magnitude stay finite.  A sigma
    <= 0 or not finite, a non-finite weighted system, chi2, coef or cov, or a
    rank-deficient design (|R_jj| <= 1e-12 max |R_ii|) raises DegenerateSystemError.
    """
    sigma = np.asarray(sigma, dtype=float)
    if not ((sigma > 0) & np.isfinite(sigma)).all():
        raise DegenerateSystemError("every sigma must be finite and > 0")
    with np.errstate(over="ignore"):  # an overflow is raised as an error below
        Aw = np.asarray(A, dtype=float).reshape(sigma.size, -1) / sigma[:, None]
        yw = np.asarray(y, dtype=float) / sigma
    if not (np.isfinite(Aw).all() and np.isfinite(yw).all()):
        raise DegenerateSystemError("the weighted system is not finite")
    norms = np.hypot.reduce(Aw, axis=0)  # hypot: no overflow of the squares
    Q, R = np.linalg.qr(Aw / np.where(norms > 0, norms, 1.0))
    diag = np.abs(np.diag(R))
    if diag.size < norms.size or not diag.min() > 1e-12 * diag.max():
        raise DegenerateSystemError("rank-deficient design matrix (collinear columns?)")
    qty = Q.T @ yw
    resid = yw - Q @ qty
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # raised below
        R_inv = np.linalg.inv(R) / norms[:, None]  # of the unscaled whitened design
        coef, cov, chi2 = R_inv @ qty, R_inv @ R_inv.T, float(resid @ resid)
    if not math.isfinite(chi2):
        raise DegenerateSystemError("chi2 of the weighted fit is not finite")
    if not (np.isfinite(coef).all() and np.isfinite(cov).all()):
        raise DegenerateSystemError("coefficients or covariance of the weighted fit overflow")
    return coef, cov, chi2


def bounded_fit(solve, resid, jac, p0, lower, upper, what: str):
    """Run ``solve`` (``least_squares``' signature) at 1e-14 tolerances; return
    its result and (J^T J)^-1 at the solution (pinv if singular).  A solver
    ValueError (a non-finite model, a start past a bound) or an unconverged
    result raises ConvergenceError naming ``what``.
    """
    try:
        res = solve(resid, p0, jac=jac, bounds=(lower, upper),
                    xtol=1e-14, ftol=1e-14, gtol=1e-14)
    except ValueError as exc:
        raise ConvergenceError(f"{what} failed: {exc}") from exc
    if not res.success:
        raise ConvergenceError(f"{what} did not converge",
                               residual=float(np.max(np.abs(res.fun))))
    jtj = res.jac.T @ res.jac
    try:
        return res, np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        return res, np.linalg.pinv(jtj)


def mc_propagate(
    f: Callable[..., float],
    inputs: Sequence[UValue],
    n_samples: int = 10**6,
    seed: int = 0,
) -> UValue:
    """Monte-Carlo oracle: sample independent Gaussians, return mean and sd.

    ``f`` must accept equal-length numpy arrays in place of scalars
    (all budget expressions are elementwise arithmetic, so this holds).
    Deterministic for a fixed seed.
    """
    if n_samples < 10**3:
        raise ConfigurationError(f"n_samples must be >= 1000, got {n_samples}")
    rng = np.random.default_rng(seed)
    inputs = [_as_uvalue(v) for v in inputs]
    samples = [rng.normal(v.value, v.sigma, n_samples) for v in inputs]
    out = np.asarray(f(*samples), dtype=float)
    out = np.broadcast_to(out, (n_samples,))
    return UValue(float(np.mean(out)), float(np.std(out, ddof=1)))
