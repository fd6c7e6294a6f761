"""Uncertainty-carrying scalars with first-order Gaussian propagation.

Every measured or derived quantity in the loss budget is a ``UValue``:
a central value plus a one-standard-deviation Gaussian uncertainty.
Inputs are treated as independent.  Quantities derived from shared
inputs are correlated: ``propagate_joint`` propagates a whole chain from
its primitive inputs in one Jacobian and returns the output covariance.

``mc_propagate`` is a seeded Monte-Carlo sampler used as an independent
oracle for the first-order propagation routines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError, ConfigurationError

__all__ = [
    "UValue",
    "combine_linear",
    "propagate",
    "propagate_joint",
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
                    step: float = 1e-6, abs_step_floor: float = 1e-12,
                    ) -> tuple[list[UValue], list[list[float]]]:
    """First-order propagation of a vector-valued ``f`` of independent inputs.

    The Jacobian J of ``f`` at the input means comes from central finite
    differences; ``step`` is relative to each input magnitude, with an
    absolute floor so inputs at zero still get a usable stencil.  Returns
    one UValue per output of ``f`` and their covariance J diag(sigma^2) J^T.
    """
    inputs = [_as_uvalue(v) for v in inputs]
    means = [v.value for v in inputs]
    center = [float(y) for y in f(*means)]
    if not all(map(math.isfinite, center)):
        raise InvalidInputError("function is non-finite at the input means")
    columns = []  # sigma_i * df/dx_i for each input with a nonzero sigma
    for i, v in enumerate(inputs):
        if v.sigma == 0.0:
            continue
        h = max(abs(means[i]) * step, abs_step_floor)
        hi, lo = list(means), list(means)
        hi[i] += h
        lo[i] -= h
        grads = [(float(a) - float(b)) / (2.0 * h) for a, b in zip(f(*hi), f(*lo))]
        if not all(map(math.isfinite, grads)):
            raise InvalidInputError(f"gradient non-finite in input {i}")
        # a product overflows to inf, where ** 2 would raise
        columns.append([g * v.sigma for g in grads])
    n = len(center)
    cov = [[sum(c[j] * c[k] for c in columns) for k in range(n)] for j in range(n)]
    if not all(math.isfinite(cov[j][j]) for j in range(n)):
        raise InvalidInputError("propagated variance is not finite")
    return [UValue(y, math.sqrt(cov[j][j])) for j, y in enumerate(center)], cov


def propagate(f: Callable[..., float], inputs: Sequence[UValue],
              step: float = 1e-6, abs_step_floor: float = 1e-12) -> UValue:
    """First-order propagation of a scalar ``f``; see ``propagate_joint``."""
    (out,), _ = propagate_joint(lambda *x: (f(*x),), inputs, step, abs_step_floor)
    return out


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
