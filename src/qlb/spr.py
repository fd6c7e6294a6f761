"""Through-origin regression of 1/Q_TLS0 against surface participation.

With surface-dominated loss, 1/Q_TLS0 = p_MS * tan(delta), so the loss
tangent of a surface treatment is the slope of a weighted least-squares
line through the origin.  An intercept diagnostic is reported separately;
a large intercept flags non-surface loss contamination but is never used
downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DatasetError, InvalidInputError
from .uncert import UValue, weighted_lstsq

__all__ = [
    "SprPoint",
    "fit_through_origin",
    "fit_with_intercept",
    "pool_tangents",
]


@dataclass(frozen=True)
class SprPoint:
    """One resonator: metal-substrate participation and 1/Q_TLS0."""

    p_ms: float
    inv_q: UValue

    def __post_init__(self):
        if self.p_ms <= 0:
            raise InvalidInputError(f"p_ms must be > 0, got {self.p_ms}")
        if self.inv_q.value <= 0 or self.inv_q.sigma <= 0:
            raise InvalidInputError("inv_q needs positive value and sigma")
        if not 1e-150 < self.inv_q.sigma < 1e150:  # keeps the weight 1/sigma^2 finite
            raise InvalidInputError(f"inv_q sigma out of range, got {self.inv_q.sigma}")
        # keeps the point's weighted terms w x^2 and w x y finite
        if not math.isfinite(self.p_ms * max(self.p_ms, self.inv_q.value)
                             / self.inv_q.sigma ** 2):
            raise InvalidInputError(f"p_ms {self.p_ms} overflows the weighted fit")


def _fit(columns, values: Sequence[UValue]) -> list[UValue]:
    """Weighted least-squares coefficients of ``values`` on the design ``columns``."""
    coef, cov, _ = weighted_lstsq(np.column_stack(columns), [v.value for v in values],
                                  [v.sigma for v in values])
    return [UValue(float(c), float(s)) for c, s in zip(coef, np.sqrt(np.diag(cov)))]


def fit_through_origin(points: Sequence[SprPoint]) -> UValue:
    """Weighted least-squares slope through the origin.

    slope = sum(w x y) / sum(w x^2), sigma = 1/sqrt(sum(w x^2)),
    with w = 1/sigma_y^2.
    """
    if not points:
        raise DatasetError("no points to fit")
    return _fit([[p.p_ms for p in points]], [p.inv_q for p in points])[0]


def fit_with_intercept(points: Sequence[SprPoint]) -> tuple[UValue, UValue]:
    """Diagnostic weighted straight-line fit (slope, intercept).

    The intercept should be consistent with zero for purely surface-limited
    loss; it is reported but never used in the budget.
    """
    if len(points) < 2:
        raise DatasetError("need >= 2 points for an intercept fit")
    return tuple(_fit([[p.p_ms for p in points], np.ones(len(points))],
                      [p.inv_q for p in points]))


def pool_tangents(values: Sequence[UValue]) -> UValue:
    """Inverse-variance weighted mean of per-chip tangents."""
    if not values:
        raise DatasetError("no values to pool")
    return _fit([np.ones(len(values))], values)[0]
