"""Bounded nonlinear least squares by the trust-region-reflective (TRF) method, in numpy.

``least_squares(evaluate, x0, bounds, xtol, ftol, gtol)`` minimises 0.5 |f(x)|^2 over
lb <= x <= ub, where one call ``evaluate(x) -> (f, J)`` gives the residuals f and their
dense Jacobian J at x.  It is scipy's ``trf_bounds`` (``scipy.optimize.least_squares``,
method 'trf'; SciPy is BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc. and
2003-2024 SciPy Developers) reduced to the one branch qlb runs: dense J, linear loss,
x_scale 1, the exact trust-region subproblem and a cap of 100 n evaluations.

The method (Branch, Coleman & Li, SIAM J. Sci. Comput. 21, 1 (1999)):

- Coleman-Li scaling: v_i is the distance from x_i to the bound its anti-gradient
  points at (1 where that bound is infinite).  In the "hat" variables p = D p_h,
  D = diag(v^1/2), the model is 0.5 p_h^T B p_h + g_h^T p_h with
  B = J_h^T J_h + diag(g dv/dx), J_h = J D, g_h = D g, and the trust region is
  |p_h| <= Delta.
- The subproblem: one ``eigh`` of the n x n matrix B per accepted point, then MINPACK's
  iteration on the Levenberg-Marquardt parameter alpha for |p_h(alpha)| = Delta
  (Moré, Lecture Notes in Mathematics 630, 105 (1978)).
- Strict feasibility: a start within 1e-10 max(1, |bound|) of a bound is moved to that
  distance.  A step that leaves the box is cut back to theta = max(0.995, 1 - |v g|_inf)
  of the way to it, and the best (by the model) of that step, its reflection off the
  bound and the gradient step is taken; a trial still on a bound moves to the next float.
- Stopping, MINPACK's tests (Moré, Garbow & Hillstrom, ANL-80-74, 1980) as scipy states
  them: status 1 when |v g|_inf < gtol; 2 when a step's actual reduction is below
  ftol cost with ratio > 0.25; 3 when the step is below xtol (xtol + |x|); 4 when 2 and
  3 hold together; 0 at the evaluation cap.  One test is added: status 2, before that
  point is evaluated, when the Gauss-Newton step's predicted reduction is below
  ftol cost.  At tolerances near rounding (qlb fits at 1e-14) scipy spends its last
  evaluations on cost changes of rounding size, which its ratio test cannot read.

A non-finite trial cost shrinks the trust radius to a quarter of the step; the J of a
rejected trial is dropped.  A start outside the bounds, a cost that overflows at the
start and a non-finite J at an accepted point are ValueErrors; a non-finite f or J at
the strictly feasible start is a DegenerateSystemError (a ValueError too).  The solve
runs under ``np.errstate(all="ignore")``, ``evaluate`` included: every overflow ends in
one of those checks.

The result is a ``scipy.optimize.OptimizeResult`` with the fields qlb reads: x, fun and
jac (f and J at x), cost, nfev (points evaluated), njev (the start and each accepted
point), status and success (status > 0).  It is qlb's one runtime use of scipy, and it
keeps ``scipy.optimize`` loaded by ``import qlb``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import OptimizeResult

from .errors import DegenerateSystemError

__all__ = ["least_squares"]

EPS = np.finfo(float).eps


def least_squares(evaluate, x0, bounds, xtol, ftol, gtol):
    """Minimise 0.5 |f(x)|^2 for bounds[0] <= x <= bounds[1] from ``x0``, with
    ``evaluate(x) -> (f, J)``; the module docstring gives the method and the result."""
    x = np.array(x0, dtype=float)
    lb, ub = (np.broadcast_to(np.asarray(b, dtype=float), x.shape) for b in bounds)
    if not (lb < ub).all():
        raise ValueError("each lower bound must be below its upper bound")
    if not ((lb <= x) & (x <= ub)).all():
        raise ValueError("the start is outside the bounds")
    with np.errstate(all="ignore"):
        return _solve(evaluate, x, lb, ub, xtol, ftol, gtol)


def _norm(v):
    """|v| as a numpy scalar: a division by it follows IEEE rules, as under errstate."""
    return (v @ v) ** 0.5


def _solve(evaluate, x, lb, ub, xtol, ftol, gtol):
    lb_finite, ub_finite = np.isfinite(lb), np.isfinite(ub)
    # strictly feasible start: 1e-10 max(1, |bound|) inside a bound it is that close to
    step_in = 1e-10 * np.maximum(1.0, np.abs(lb)), 1e-10 * np.maximum(1.0, np.abs(ub))
    to_lb, to_ub = x - lb, ub - x
    at_lb = lb_finite & (to_lb <= np.minimum(to_ub, step_in[0]))
    at_ub = ub_finite & (to_ub <= np.minimum(to_lb, step_in[1]))
    if at_lb.any() or at_ub.any():
        x = np.where(at_lb, lb + step_in[0], np.where(at_ub, ub - step_in[1], x))
        x = np.where((x < lb) | (x > ub), 0.5 * (lb + ub), x)

    f, J = evaluate(x)
    if not (np.isfinite(f).all() and np.isfinite(J).all()):
        raise DegenerateSystemError("the model is not finite at the start")
    cost = 0.5 * float(f @ f)
    if not math.isfinite(cost):
        raise ValueError("the residuals are not finite at the start")
    g = J.T @ f
    m, n = J.shape
    nfev = njev = 1
    max_nfev = 100 * n

    def scaling(x, g):
        """Coleman-Li (v, dv/dx)."""
        up, down = (g < 0) & ub_finite, (g > 0) & lb_finite
        return np.where(up, ub - x, np.where(down, x - lb, 1.0)), down - up.astype(float)

    Delta = _norm(x / np.sqrt(scaling(x, g)[0])) or 1.0
    alpha, status = 0.0, None
    while True:
        v, dv = scaling(x, g)
        g_norm = float(np.max(np.abs(g * v)))
        if g_norm < gtol:
            status = 1
        if status is not None or nfev == max_nfev:
            break
        d = np.sqrt(v)
        g_h, J_h = d * g, J * d
        B = J_h.T @ J_h
        B.flat[::n + 1] += g * dv
        lam, V = np.linalg.eigh(B)
        lam = np.maximum(lam, 0.0)
        suf = g_h @ V  # g_h in B's eigenvectors
        full_rank = m >= n and math.sqrt(lam[0]) > EPS * m * math.sqrt(lam[-1])
        theta = max(0.995, 1.0 - g_norm)
        x_norm = _norm(x)
        actual_reduction = -1.0
        while actual_reduction <= 0 and nfev < max_nfev:
            c, alpha = _subproblem(lam, suf, Delta, alpha, full_rank)
            if alpha == 0.0 and -0.5 * (suf @ c) < ftol * cost:
                status = 2  # the Gauss-Newton step cannot reduce the cost by ftol
                break
            p_h = V @ c
            step, step_h, predicted = _select_step(x, B, g_h, d * p_h, p_h, d, Delta,
                                                   lb, ub, theta)
            x_new = x + step
            if ((x_new <= lb) | (x_new >= ub)).any():  # on a bound: to the next float
                x_new = np.where(x_new <= lb, np.nextafter(lb, ub),
                                 np.where(x_new >= ub, np.nextafter(ub, lb), x_new))
            f_new, J_new = evaluate(x_new)
            nfev += 1
            step_h_norm = _norm(step_h)
            cost_new = 0.5 * float(f_new @ f_new)
            if not math.isfinite(cost_new):
                Delta = 0.25 * step_h_norm
                continue
            actual_reduction = cost - cost_new
            if predicted > 0:
                ratio = actual_reduction / predicted
            else:
                ratio = 1.0 if predicted == actual_reduction == 0 else 0.0
            Delta_new = Delta
            if ratio < 0.25:
                Delta_new = 0.25 * step_h_norm
            elif ratio > 0.75 and step_h_norm > 0.95 * Delta:
                Delta_new = 2.0 * Delta
            ftol_met = actual_reduction < ftol * cost and ratio > 0.25
            xtol_met = _norm(step) < xtol * (xtol + x_norm)
            if ftol_met or xtol_met:
                status = 4 if ftol_met and xtol_met else 2 if ftol_met else 3
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new
        if actual_reduction > 0:
            x, f, J, cost = x_new, f_new, J_new, cost_new
            if not np.isfinite(J).all():
                raise ValueError("the Jacobian is not finite at an accepted point")
            g = J.T @ f
            njev += 1
    status = status or 0
    return OptimizeResult(x=x, fun=f, jac=J, cost=cost, nfev=nfev, njev=njev, status=status,
                          success=status > 0)


def _subproblem(lam, suf, Delta, alpha, full_rank):
    """(c, alpha): the step V c minimising the model within |c| <= Delta, with the
    Gauss-Newton step c = -suf / lam (alpha 0) where it fits, else MINPACK's iteration
    from ``alpha`` on |suf / (lam + alpha)| = Delta to 1 %, at most 10 times."""
    if full_rank:
        c = -suf / lam
        if _norm(c) <= Delta:
            return c, 0.0
    upper = _norm(suf) / Delta
    lower = 0.0
    if full_rank:  # -phi / phi' at alpha 0
        c = suf / lam
        p_norm = _norm(c)
        lower = (p_norm - Delta) * p_norm / (c @ (c / lam))
    elif alpha == 0.0:
        alpha = max(0.001 * upper, math.sqrt(lower * upper))
    for _ in range(10):
        if alpha < lower or alpha > upper:
            alpha = max(0.001 * upper, math.sqrt(lower * upper))
        denom = lam + alpha
        c = suf / denom
        p_norm = _norm(c)
        phi = p_norm - Delta
        phi_prime = -(c @ (c / denom)) / p_norm
        if phi < 0:
            upper = alpha
        ratio = phi / phi_prime
        lower = max(lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if abs(phi) < 0.01 * Delta:
            break
    c = -suf / (lam + alpha)
    return c * (Delta / _norm(c)), alpha


def _quadratic(B, g, s):
    """The model 0.5 s^T B s + g^T s."""
    return s @ (0.5 * (B @ s) + g)


def _to_bound(x, s, lb, ub):
    """(t, hits): the least t >= 0 with x + t s on a bound, and the sign of s where that
    bound is met (0 elsewhere)."""
    steps = np.full_like(x, np.inf)
    moving = s != 0
    steps[moving] = np.maximum((lb - x)[moving] / s[moving], (ub - x)[moving] / s[moving])
    t = float(steps.min())
    return t, (steps == t) * np.sign(s)


def _min_1d(a, b, lo, hi, c=0.0):
    """(t, value) minimising a t^2 + b t + c over [lo, hi]."""
    ts = [lo, hi]
    if a != 0 and lo < -0.5 * b / a < hi:
        ts.append(-0.5 * b / a)
    return min(((t, t * (a * t + b) + c) for t in ts), key=lambda tv: tv[1])


def _select_step(x, B, g_h, p, p_h, d, Delta, lb, ub, theta):
    """(step, step in hat variables, predicted reduction): the trust-region step if it
    stays in the box, else the best of that step cut back by theta from the bound, its
    reflection off the bound and the gradient step to theta of the way to a bound."""
    x_p = x + p
    if ((x_p >= lb) & (x_p <= ub)).all():
        return p, p_h, -_quadratic(B, g_h, p_h)
    p_stride, hits = _to_bound(x, p, lb, ub)
    r_h = np.where(hits != 0, -p_h, p_h)
    r = d * r_h
    p, p_h = p * p_stride, p_h * p_stride
    # the reflected direction meets the trust-region boundary or a bound first
    a, b, c = r_h @ r_h, p_h @ r_h, p_h @ p_h - Delta ** 2
    q = -(b + np.copysign(np.sqrt(b * b - a * c), b))
    to_tr = max(q / a, c / q)
    to_bound = _to_bound(x + p, r, lb, ub)[0]
    r_stride = min(to_bound, to_tr)
    r_value = math.inf
    if r_stride > 0:
        r_lo = (1.0 - theta) * p_stride / r_stride
        r_hi = theta * to_bound if r_stride == to_bound else to_tr
        if r_lo <= r_hi:
            Br = B @ r_h
            r_stride, r_value = _min_1d(0.5 * (r_h @ Br), g_h @ r_h + p_h @ Br,
                                        r_lo, r_hi, _quadratic(B, g_h, p_h))
            r_h = p_h + r_stride * r_h
            r = d * r_h
    p, p_h = p * theta, p_h * theta
    p_value = _quadratic(B, g_h, p_h)
    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / _norm(ag_h)
    to_bound = _to_bound(x, ag, lb, ub)[0]
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr
    ag_stride, ag_value = _min_1d(0.5 * (ag_h @ (B @ ag_h)), g_h @ ag_h,
                                  0.0, ag_stride)
    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return ag * ag_stride, ag_h * ag_stride, -ag_value
