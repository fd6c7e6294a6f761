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

from .errors import DatasetError, InvalidInputError, DegenerateSystemError
from .uncert import UValue

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


def fit_through_origin(points: Sequence[SprPoint]) -> UValue:
    """Weighted least-squares slope through the origin.

    slope = sum(w x y) / sum(w x^2), sigma = 1/sqrt(sum(w x^2)),
    with w = 1/sigma_y^2.
    """
    if not points:
        raise DatasetError("no points to fit")
    sxy = 0.0
    sxx = 0.0
    for p in points:
        w = 1.0 / p.inv_q.sigma ** 2
        sxy += w * p.p_ms * p.inv_q.value
        sxx += w * p.p_ms * p.p_ms
    return UValue(sxy / sxx, 1.0 / math.sqrt(sxx))


def fit_with_intercept(points: Sequence[SprPoint]) -> tuple[UValue, UValue]:
    """Diagnostic weighted straight-line fit (slope, intercept).

    The intercept should be consistent with zero for purely surface-limited
    loss; it is reported but never used in the budget.
    """
    if len(points) < 2:
        raise DatasetError("need >= 2 points for an intercept fit")
    sw = swx = swy = swxx = swxy = 0.0
    for p in points:
        w = 1.0 / p.inv_q.sigma ** 2
        x, y = p.p_ms, p.inv_q.value
        sw += w
        swx += w * x
        swy += w * y
        swxx += w * x * x
        swxy += w * x * y
    delta = sw * swxx - swx * swx
    if delta <= 0:
        raise DegenerateSystemError("degenerate design matrix (identical x values?)")
    slope = (sw * swxy - swx * swy) / delta
    intercept = (swxx * swy - swx * swxy) / delta
    return (
        UValue(slope, math.sqrt(sw / delta)),
        UValue(intercept, math.sqrt(swxx / delta)),
    )


def pool_tangents(values: Sequence[UValue]) -> UValue:
    """Inverse-variance weighted mean of per-chip tangents."""
    if not values:
        raise DatasetError("no values to pool")
    sw = swv = 0.0
    for v in values:
        if v.sigma == 0:
            raise DegenerateSystemError("cannot pool a value with sigma = 0")
        w = 1.0 / v.sigma ** 2
        sw += w
        swv += w * v.value
    return UValue(swv / sw, 1.0 / math.sqrt(sw))
