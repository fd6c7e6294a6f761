"""Uncertainty-carrying scalars with first-order Gaussian propagation.

Every measured or derived quantity in the loss budget is a ``UValue``:
a central value plus a one-standard-deviation Gaussian uncertainty.
Inputs are treated as independent; covariances are not modeled.

``mc_propagate`` is a seeded Monte-Carlo sampler used as an independent
oracle for the first-order propagation routines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError, ConfigurationError, DegenerateSystemError

__all__ = [
    "UValue",
    "combine_linear",
    "combine_product",
    "combine_quotient",
    "propagate",
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


def combine_product(a: UValue, b: UValue) -> UValue:
    """Product with relative sigmas added in quadrature (first order)."""
    a, b = _as_uvalue(a), _as_uvalue(b)
    value = a.value * b.value
    # d(ab) = b*da + a*db; avoids 0/0 when a central value is zero
    sigma = math.hypot(b.value * a.sigma, a.value * b.sigma)
    return UValue(value, abs(sigma))


def combine_quotient(a: UValue, b: UValue) -> UValue:
    """Quotient a/b with relative sigmas added in quadrature (first order)."""
    a, b = _as_uvalue(a), _as_uvalue(b)
    if b.value == 0:
        raise DegenerateSystemError("division by UValue with zero central value")
    value = a.value / b.value
    sigma = math.hypot(a.sigma / b.value, value * b.sigma / b.value)
    return UValue(value, abs(sigma))


def propagate(
    f: Callable[..., float],
    inputs: Sequence[UValue],
    step: float = 1e-6,
    abs_step_floor: float = 1e-12,
) -> UValue:
    """First-order Taylor propagation with a central finite-difference gradient.

    ``step`` is relative to each input magnitude, with an absolute floor so
    inputs at zero still get a usable stencil.
    """
    inputs = [_as_uvalue(v) for v in inputs]
    means = [v.value for v in inputs]
    center = float(f(*means))
    if not math.isfinite(center):
        raise InvalidInputError("function is non-finite at the input means")
    var = 0.0
    for i, v in enumerate(inputs):
        if v.sigma == 0.0:
            continue
        h = max(abs(means[i]) * step, abs_step_floor)
        hi = list(means)
        lo = list(means)
        hi[i] += h
        lo[i] -= h
        grad = (float(f(*hi)) - float(f(*lo))) / (2.0 * h)
        if not math.isfinite(grad):
            raise InvalidInputError(f"gradient non-finite in input {i}")
        term = grad * v.sigma  # a product overflows to inf; ** 2 would raise
        var += term * term
    if not math.isfinite(var):
        raise InvalidInputError("propagated variance is not finite")
    return UValue(center, math.sqrt(var))


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
