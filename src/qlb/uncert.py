"""Uncertainty-carrying scalars with first-order Gaussian propagation.

Every measured or derived quantity in the loss budget is a ``UValue``:
a central value plus a one-standard-deviation Gaussian uncertainty.
Inputs are independent unless their covariance is given.  Quantities
derived from shared inputs are correlated: ``propagate_joint`` takes a
whole chain in one Jacobian, exact by the complex step (so each propagated
function accepts complex arguments, and a linear one propagates exactly),
and returns the output covariance J C J^T, the independent case being the
diagonal C = diag(sigma^2) (GUM, JCGM 100:2008, 5.1.2 and 5.2.2).  Every sigma
read from a covariance, a propagated or a fitted one, is sqrt(max(C_jj, 0))
(``_uvalues``), and every measured Q is fitted as its first-order reciprocal
1/Q +- sigma/Q^2 (``_reciprocal``).

Every weighted fit whitens (``_whiten``) and solves (``_solution``) under one set of
rules.  Every fit's covariance comes from one column-scaled, R-only QR (``_qr_solve``):
``weighted_lstsq`` (SPR slopes, pooling, the XPS area start, the kinetics breakpoint
candidates: the two-column ones as one stack of designs, the linear-only one alone)
solves from that R alone, and ``bounded_fit`` runs
every nonlinear solve (the TLS variable projection, the five-parameter TLS fit where a
linear parameter passes its bound, the XPS fit), each model returning its value with its
Jacobian from one call, which the solver takes once per point.  ``projection`` is the
variable projection of a model linear in some of its parameters, with no LAPACK call.

``mc_propagate`` is a seeded Monte-Carlo sampler used as an independent
oracle for the first-order propagation routines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from typing import Callable, Sequence

import numpy as np

from .errors import (ConfigurationError, ConvergenceError, DegenerateSystemError,
                     InvalidInputError)

__all__ = ["UValue", "propagate", "propagate_joint", "weighted_lstsq",
           "projection", "bounded_fit", "active_bounds", "mc_propagate"]


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


def _uvalues(values, cov) -> list[UValue]:
    """One UValue per value, its sigma sqrt(max(C_jj, 0)) from the covariance array C =
    ``cov``: rounding can leave a variance of correlated inputs a hair below 0."""
    return [UValue(float(v), math.sqrt(max(c, 0.0)))
            for v, c in zip(values, cov.diagonal().tolist())]


def _reciprocal(x, sigma):
    """(1/x, sigma/x^2, ok) of arrays x +- sigma: their first-order reciprocal, the form in
    which every Q is fitted, and ok where both are finite and > 0 (overflows unwarned)."""
    with np.errstate(all="ignore"):
        inv, sigma_inv = 1.0 / x, sigma / x ** 2
    return inv, sigma_inv, (0 < inv) & (inv < np.inf) & (0 < sigma_inv) & (sigma_inv < np.inf)


def propagate_joint(f: Callable[..., Sequence[float]], inputs: Sequence[UValue],
                    covariance: Sequence[Sequence[float]] | None = None,
                    ) -> tuple[list[UValue], list[list[float]]]:
    """First-order propagation of a vector-valued ``f`` of the inputs.

    The Jacobian J of ``f`` at the input means is exact by the complex step: one call
    per input with a nonzero variance, that input at x + ih with h = 1e-30 max(|x|, 1),
    gives its column Im f / h.  So ``f`` must accept complex arguments: arithmetic and
    numpy ufuncs, not ``math``.  Returns one UValue per output of ``f`` and their
    covariance J C J^T, with C the inputs' ``covariance`` if given (it replaces their
    sigmas), else diag(sigma^2).
    """
    means = [v.value for v in inputs]
    C = np.diag([v.sigma * v.sigma for v in inputs]) if covariance is None else covariance
    if [len(r) for r in C] != [len(inputs)] * len(inputs):
        raise InvalidInputError(f"covariance must be {len(inputs)} x {len(inputs)}")
    C = np.asarray(C, dtype=float)
    center = [float(y) for y in f(*means)]
    if not all(map(math.isfinite, center)):
        raise InvalidInputError("function is non-finite at the input means")
    kept, grads = [], []  # the inputs of nonzero variance and gradient, and df/dx_i
    for i in np.flatnonzero(C.diagonal()).tolist():
        h = 1e-30 * max(abs(means[i]), 1.0)
        point = list(means)
        point[i] = complex(means[i], h)
        grad = [complex(y).imag / h for y in f(*point)]
        if not all(map(math.isfinite, grad)):
            raise InvalidInputError(f"gradient non-finite in input {i}")
        if any(grad):  # a zero column adds nothing, even where its variance is inf
            kept.append(i)
            grads.append(grad)
    J = np.array(grads, dtype=float).reshape(len(kept), len(center)).T
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan variance raises below
        cov = J @ C.take(kept, 0).take(kept, 1) @ J.T  # C of the kept inputs
    if not np.isfinite(cov.diagonal()).all():
        raise InvalidInputError("propagated variance is not finite")
    return _uvalues(center, cov), cov.tolist()


def propagate(f: Callable[..., float], inputs: Sequence[UValue],
              covariance: Sequence[Sequence[float]] | None = None) -> UValue:
    """First-order propagation of a scalar ``f``; ``covariance`` and the method
    as for ``propagate_joint``."""
    (out,), _ = propagate_joint(lambda *x: (f(*x),), inputs, covariance)
    return out


def _whiten(sigma, *arrays):
    """(sigma, each array / sigma, 1-D ones by row, others over axis -2) as floats; a sigma
    <= 0 or not finite, or a quotient not finite, is a DegenerateSystemError."""
    sigma = np.asarray(sigma, dtype=float)
    if not ((sigma > 0) & np.isfinite(sigma)).all():
        raise DegenerateSystemError("every sigma must be finite and > 0")
    with np.errstate(over="ignore"):  # an overflow is raised as an error below
        out = [a / (sigma if a.ndim == 1 else sigma[:, None]) for a in map(np.asarray, arrays)]
    if not all(np.isfinite(a).all() for a in out):
        raise DegenerateSystemError("the weighted system is not finite")
    return sigma, *out


def _solution(diag, k, solve):
    """``solve()`` -> (cov, coef, chi2) of k unit-norm columns, ``diag`` listing per design its
    R's |diagonal|: fewer than k entries or one <= 1e-12 of their max (or nan) is a rank loss,
    raised first; then a cov, chi2 or coef not finite (None: skipped), on Python floats."""
    if any(len(d) < k or not all(map((1e-12 * max(d)).__lt__, d)) for d in diag):
        raise DegenerateSystemError("rank-deficient design matrix (collinear columns?)")
    cov, coef, chi2 = solve()
    for value, message in ((cov, "covariance of the weighted fit overflows"),
                           (chi2, "chi2 of the weighted fit is not finite"),
                           (coef, "coefficients of the weighted fit overflow")):
        if value is not None and not all(map(math.isfinite, np.ravel(value).tolist())):
            raise DegenerateSystemError(message)
    return cov, coef, chi2


def _qr_solve(Aw, yw=None):
    """(R^-1 R^-T, coef, chi2) of one R-only QR of whitened ``Aw`` scaled to unit-norm
    columns, with ``yw`` as one more column when given: R then holds Q^T yw above its
    corner, the residual norm (Bjorck 1996, 1.3), giving coef = R^-1 Q^T yw and chi2,
    0 for a square system; both None without ``yw``.  ``Aw`` is one design (m, k) or a
    stack of them (n, m, k), all in one QR call, ``yw`` then (m,) or (n, m), and each
    result gains that leading n (chi2 a float for one design), under ``_solution``'s rules."""
    k = Aw.shape[-1]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # raised below
        # hypot: no overflow of the squares; an infinite norm leaves a zero column
        norms = np.hypot.reduce(Aw, axis=-2)
        M = np.empty(Aw.shape[:-1] + (k if yw is None else k + 1,))
        np.divide(Aw, np.where(norms > 0, norms, 1.0)[..., None, :], out=M[..., :k])
        if yw is not None:
            M[..., k] = yw
        R = np.linalg.qr(M, mode="r")

    def solve():
        with np.errstate(over="ignore", invalid="ignore"):  # raised by _solution
            R_inv = np.linalg.inv(R[..., :k, :k]) / norms[..., :, None]  # of the unscaled Aw
            return R_inv @ R_inv.swapaxes(-1, -2), *((None, None) if yw is None else (
                (R_inv @ R[..., :k, k, None])[..., 0],
                R[..., k, k] ** 2 if R.shape[-2] > k else np.zeros(R.shape[:-2])))
    diag = np.abs(R.diagonal(axis1=-2, axis2=-1)[..., :k])
    cov, coef, chi2 = _solution(diag.reshape(-1, diag.shape[-1]).tolist(), k, solve)
    return cov, coef, chi2 if chi2 is None or chi2.ndim else float(chi2)


def weighted_lstsq(A, y, sigma) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
    """(coef, cov, chi2) minimising chi2 = |(A coef - y) / sigma|^2 by ``_qr_solve``:
    no weighted sum is formed, so columns of any magnitude stay finite.  ``A`` is one
    design (m, k), a 1-D ``A`` one column, or a stack of designs (n, m, k) fitted to the
    same ``y`` and ``sigma``, which gives (n, k) coef, (n, k, k) cov and (n,) chi2, under
    ``_whiten``'s and ``_solution``'s rules."""
    A = np.asarray(A, dtype=float)
    _, Aw, yw = _whiten(sigma, A[:, None] if A.ndim == 1 else A, y)
    cov, coef, chi2 = _qr_solve(Aw, yw)
    return coef, cov, chi2


def projection(basis, y, sigma):
    """Variable projection (Golub & Pereyra 1973) of G(phi) c fitted to ``y`` +- ``sigma``:
    ``basis(phi)`` -> (G, dG), the k columns of G, each (m,) or a scalar, and per column its
    phi derivatives (m, p), or None if not in phi (whitened once, as y is).  project(phi) ->
    (G c, Kaufman's Jacobian P_perp sum_j c_j dG_j, c, Q, (G, dG)): c, unbounded, at its
    weighted optimum by back substitution on R of Gram-Schmidt run twice (Giraud et al.,
    Numer. Math. 101, 87 (2005)) on the unit-norm G / sigma, Q (m, k) orthonormal, with no
    LAPACK call, under ``_whiten``'s and ``_solution``'s rules (chi2 only where its bound
    |y / sigma|^2 overflows); overflows warn as the caller's errstate says."""
    sigma, yw = _whiten(sigma, y)
    rows, fixed = sigma[:, None], {}  # fixed: j -> (unit-norm G_j / sigma, its norm)
    bounded_chi2 = np.hypot.reduce(yw) < math.sqrt(np.finfo(float).max)  # |yw|^2 finite

    def project(phi):
        G, dG = basis(phi)
        k = len(G)
        Q, R, norms = np.empty((k, yw.size)), [[0.0] * k for _ in G], [0.0] * k
        for j, (g, d) in enumerate(zip(G, dG)):  # R of the unit-norm columns
            if j in fixed:
                w, norms[j] = fixed[j]
            else:
                u = g / sigma
                n = float(np.hypot.reduce(u))  # hypot: no overflow of the squares
                if not 0.0 < n < math.inf:  # not finite raises; else R_jj stays 0
                    _whiten(sigma, g)
                    break
                w, norms[j] = u / n, n
                if d is None:
                    fixed[j] = w, n
            for _ in range(2):  # Gram-Schmidt, twice, against the columns before
                for i in range(j):
                    h = float(Q[i] @ w)
                    w = w - h * Q[i]
                    R[i][j] += h
            R[j][j] = math.sqrt(w @ w) if j else 1.0  # column 0 is of unit norm already
            if not R[j][j] > 0.0:
                break
            Q[j] = w / R[j][j]

        def solve():
            T = [[0.0] * k for _ in G]  # R^-1 by back substitution
            for i in reversed(range(k)):
                T[i][i] = 1.0 / R[i][i]
                for j in range(i + 1, k):
                    T[i][j] = -sum(R[i][l] * T[l][j] for l in range(i + 1, j + 1)) / R[i][i]
            T = np.array([[t / n for t in row] for row, n in zip(T, norms)])  # R^-1 of G
            qy, chi2 = Q @ yw, None
            if not bounded_chi2:  # the residual, formed only where its chi2 may overflow
                chi2 = np.sum((yw - qy @ Q) ** 2)
            return T @ T.T, T @ qy, chi2
        c = _solution([[R[j][j] for j in range(k)]], k, solve)[1]
        cs = c.tolist()
        X = reduce(add, [cj * d for cj, d in zip(cs, dG) if d is not None]) / rows  # whitened
        return reduce(add, map(mul, cs, G)), (X - Q.T @ (Q @ X)) * rows, c, Q.T, (G, dG)
    return project


def bounded_fit(solve, evaluate, y, sigma, p0, lower, upper, what: str):
    """Fit ``evaluate(p) -> (model, J, ...)`` to arrays ``y`` +- ``sigma`` by ``solve``
    (``_trf.least_squares``' call form, 1e-14 tolerances), which takes the whitened
    residual (model - y) / sigma and its Jacobian J / sigma from one ``evaluate`` per
    point: the result and the ``_qr_solve`` covariance of its whitened Jacobian.  Errors
    name ``what``: a model not finite at the solver's start or a degenerate QR is a
    DegenerateSystemError, any other solver ValueError or no convergence a
    ConvergenceError."""
    def whitened(p):
        model, J = evaluate(p)[:2]
        return (model - y) / sigma, J / sigma[:, None]
    try:  # DegenerateSystemError is a ValueError, so it is caught first
        res = solve(whitened, p0, bounds=(lower, upper), xtol=1e-14, ftol=1e-14, gtol=1e-14)
        if not res.success:
            raise ConvergenceError(f"{what} did not converge",
                                   residual=float(np.max(np.abs(res.fun))))
        return res, _qr_solve(res.jac)[0]
    except DegenerateSystemError as exc:
        raise DegenerateSystemError(f"{what}: {exc}") from exc
    except ValueError as exc:
        raise ConvergenceError(f"{what} failed: {exc}") from exc


def active_bounds(names, x, lower, upper, scale) -> tuple:
    """The ``names`` of the values of ``x`` at a bound: ``math.isclose`` to their lower
    or upper bound, absolutely within 1e-9 of their ``scale`` (a bound may be 0)."""
    return tuple(name for name, v, lo, hi, s in zip(names, x, lower, upper, scale)
                 if math.isclose(v, lo, abs_tol=1e-9 * s)
                 or math.isclose(v, hi, abs_tol=1e-9 * s))


def mc_propagate(f: Callable[..., float], inputs: Sequence[UValue], n_samples: int = 10**6,
                 seed: int = 0) -> UValue:
    """Monte-Carlo oracle: sample independent Gaussians, return mean and sd.

    ``f`` must accept equal-length numpy arrays in place of scalars
    (all budget expressions are elementwise arithmetic, so this holds).
    Deterministic for a fixed seed.
    """
    if n_samples < 10**3:
        raise ConfigurationError(f"n_samples must be >= 1000, got {n_samples}")
    rng = np.random.default_rng(seed)
    samples = [rng.normal(v.value, v.sigma, n_samples) for v in inputs]
    out = np.asarray(f(*samples), dtype=float)
    out = np.broadcast_to(out, (n_samples,))
    return UValue(float(np.mean(out)), float(np.std(out, ddof=1)))
