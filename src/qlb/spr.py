"""Through-origin regression of 1/Q_TLS0 against surface participation.

With surface-dominated loss, 1/Q_TLS0 = p_MS * tan(delta), so the loss
tangent of a surface treatment is the slope of a weighted least-squares
line through the origin.  An intercept diagnostic is reported separately;
a large intercept flags non-surface loss contamination but is never used
downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DatasetError, check_rows, float_columns
from .uncert import UValue, weighted_lstsq

__all__ = [
    "SprPoints",
    "fit_through_origin",
    "fit_with_intercept",
    "pool_tangents",
]


@dataclass(frozen=True)
class SprPoints:
    """Resonators, one row each: participation p_ms and 1/Q_TLS0 +- sigma, as float arrays.
    A row's rules: inv_q, sigma finite; p_ms, inv_q, sigma > 0; sigma in (1e-150, 1e150) so
    that the weight w = 1/sigma^2 is finite; w p_ms^2 and w p_ms inv_q finite."""

    p_ms: np.ndarray
    inv_q: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        p, v, s = float_columns(self, ("p_ms", "inv_q", "sigma"))
        with np.errstate(all="ignore"):  # an overflow breaks the last rule
            check_rows(
                (np.isfinite(v) & np.isfinite(s),
                 lambda i: f"inv_q {v[i]} +- {s[i]} must be finite"),
                (p > 0, lambda i: f"p_ms must be > 0, got {p[i]}"),
                ((v > 0) & (s > 0), lambda i: "inv_q needs positive value and sigma"),
                ((1e-150 < s) & (s < 1e150), lambda i: f"inv_q sigma out of range, got {s[i]}"),
                (np.isfinite(p * np.maximum(p, v) / s ** 2),
                 lambda i: f"p_ms {p[i]} overflows the weighted fit"))

    def __len__(self):
        return self.p_ms.size

    def __getitem__(self, rows) -> SprPoints:
        """The points of ``rows`` (an index array or mask): checked rows, not checked again."""
        subset = object.__new__(SprPoints)
        subset.__dict__.update(p_ms=self.p_ms[rows], inv_q=self.inv_q[rows], sigma=self.sigma[rows])
        return subset


def _fit(columns, y, sigma) -> list[UValue]:
    """Weighted least-squares coefficients of ``y`` +- ``sigma`` on the design ``columns``."""
    coef, cov, _ = weighted_lstsq(np.column_stack(columns), y, sigma)
    return [UValue(float(c), float(s)) for c, s in zip(coef, np.sqrt(np.diag(cov)))]


def fit_through_origin(points: SprPoints) -> UValue:
    """Weighted least-squares slope through the origin.

    slope = sum(w x y) / sum(w x^2), sigma = 1/sqrt(sum(w x^2)),
    with w = 1/sigma_y^2.
    """
    if not len(points):
        raise DatasetError("no points to fit")
    return _fit([points.p_ms], points.inv_q, points.sigma)[0]


def fit_with_intercept(points: SprPoints) -> tuple[UValue, UValue]:
    """Diagnostic weighted straight-line fit (slope, intercept).

    The intercept should be consistent with zero for purely surface-limited
    loss; it is reported but never used in the budget.
    """
    if len(points) < 2:
        raise DatasetError("need >= 2 points for an intercept fit")
    return tuple(_fit([points.p_ms, np.ones(len(points))], points.inv_q, points.sigma))


def pool_tangents(values: Sequence[UValue]) -> UValue:
    """Inverse-variance weighted mean of per-chip tangents."""
    if not values:
        raise DatasetError("no values to pool")
    return _fit([np.ones(len(values))], [v.value for v in values],
                [v.sigma for v in values])[0]
