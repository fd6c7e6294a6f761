"""qlb's bounded least-squares solver against ``scipy.optimize.least_squares`` (method
'trf', the one it reduces), and the solver's own contract."""

import math

import numpy as np
import pytest
from scipy.optimize import least_squares as scipy_least_squares

from qlb import tls, xps
from qlb._trf import least_squares
from qlb.errors import DegenerateSystemError
from qlb.pipeline import load_config, paper_defaults_path, run_report
from test_tls import F0, TRUE, grid_points

TOLERANCES = dict(xtol=1e-14, ftol=1e-14, gtol=1e-14)


@pytest.fixture
def both(monkeypatch):
    """Runs every fit's solve with qlb's solver and with scipy's on the same problem;
    returns the list of (qlb result, scipy result) pairs."""
    pairs = []

    def solve(evaluate, x0, **kwargs):
        ours = least_squares(evaluate, x0, **kwargs)
        pairs.append((ours, scipy_reference(evaluate, x0, **kwargs)))
        return ours

    for module in (tls, xps):
        monkeypatch.setattr(module, "least_squares", solve)
    return pairs


def scipy_reference(evaluate, x0, **kwargs):
    """scipy's solver on the problem of ``evaluate(x) -> (f, J)``."""
    return scipy_least_squares(lambda x: evaluate(x)[0], x0, jac=lambda x: evaluate(x)[1],
                               **kwargs)


def assert_parity(pairs, count):
    assert len(pairs) == count
    for ours, ref in pairs:
        assert ours.status > 0 and ref.status > 0
        np.testing.assert_allclose(ours.x, ref.x, rtol=1e-6, atol=0.0)


def test_bundled_fits_match_scipy(both):
    run_report(load_config(paper_defaults_path()), stages=("tls-fit", "xps-fit"))
    assert [ours.x.size for ours, _ in both] == [3, 9]  # the TLS projection, the XPS fit
    assert_parity(both, 2)


@pytest.mark.parametrize("noise, seed", [(0.0, 0)] + [(0.01, s) for s in range(5)])
def test_tls_grids_match_scipy(both, noise, seed):
    tls.fit_tls(grid_points(TRUE, noise=noise, seed=seed), f0=F0)
    assert_parity(both, 1)


def decay(t):
    """p -> (f, J) of y = a exp(-b t) + c against (a, b, c) = (3, 0.7, 0.4) with a ripple:
    the residual at the optimum is not 0."""
    y = 3.0 * np.exp(-0.7 * t) + 0.4 + 0.02 * np.sin(5.0 * t)

    def evaluate(p):
        e = np.exp(-p[1] * t)
        return p[0] * e + p[2] - y, np.column_stack([e, -p[0] * t * e, np.ones_like(t)])
    return evaluate


@pytest.mark.parametrize("x0, bounds", [
    ([1.0, 0.1, 0.0], ([0.0, 0.0, 0.0], [np.inf, np.inf, np.inf])),  # infinite upper bounds
    ([0.5, 2.0, 0.0], ([0.5, 0.0, 0.0], [10.0, 2.0, 1.0])),  # a start on its bounds
    ([1.0, 0.1, 0.7], ([0.0, 0.0, 0.5], [10.0, 5.0, 1.0])),  # an optimum past a bound
])
def test_toy_fits_match_scipy(x0, bounds):
    evaluate = decay(np.linspace(0.0, 6.0, 40))
    ours = least_squares(evaluate, x0, bounds=bounds, **TOLERANCES)
    ref = scipy_reference(evaluate, x0, bounds=bounds, **TOLERANCES)
    assert ours.status > 0 and ref.status > 0
    np.testing.assert_allclose(ours.x, ref.x, rtol=1e-6, atol=0.0)
    assert np.all(ours.x > bounds[0]) and np.all(ours.x < bounds[1])  # strictly feasible


def line(x):
    return np.array([x[0] - 1.0]), np.ones((1, 1))


@pytest.mark.parametrize("evaluate, x0, match", [
    (line, [2.0], "outside the bounds"),
    (lambda x: (np.array([math.nan]), np.ones((1, 1))), [0.0], "not finite at the start"),
    (lambda x: (np.array([1e200, 1e200]), np.ones((2, 1))), [0.0],
     "not finite at the start"),  # cost overflows
    (lambda x: (np.zeros(1), np.full((1, 1), math.inf)), [0.0],
     "not finite at the start"),  # a finite residual, an infinite Jacobian
])
def test_bad_start_is_a_value_error(evaluate, x0, match):
    with pytest.raises(ValueError, match=match) as info:
        least_squares(evaluate, x0, bounds=([-1.0], [1.0]), **TOLERANCES)
    # only a model not finite at the start is degenerate; a cost that overflows is not
    assert isinstance(info.value, DegenerateSystemError) == str(info.value).startswith("the model")


def test_non_finite_jacobian_at_an_accepted_point_is_a_value_error():
    calls = []

    def evaluate(x):
        calls.append(x)
        f, J = line(x)
        return f, J * (1.0 if len(calls) == 1 else math.inf)
    with pytest.raises(ValueError, match="Jacobian is not finite"):
        least_squares(evaluate, [4.0], bounds=(-np.inf, np.inf), **TOLERANCES)
    assert len(calls) == 2


@pytest.mark.parametrize("bad", [math.nan, 1e200], ids=["nan", "cost-overflows"])
def test_non_finite_trial_shrinks_the_trust_radius(bad):
    points = []

    def evaluate(x):
        points.append(float(x[0]))
        return (np.array([bad]), np.ones((1, 1))) if len(points) == 2 else line(x)
    res = least_squares(evaluate, [4.0], bounds=(-np.inf, np.inf), **TOLERANCES)
    # radius |x0| = 4 holds the Gauss-Newton step to 1; it fails, so the radius is a
    # quarter of that step and the next trial stops on it
    assert points[:3] == [4.0, 1.0, pytest.approx(3.25, rel=1e-12)]
    assert res.status > 0
    assert res.x[0] == pytest.approx(1.0, rel=1e-12)


def test_evaluation_cap_is_status_0():
    res = least_squares(decay(np.linspace(0.0, 6.0, 40)), [1.0, 0.1, 0.0],
                        bounds=([0.0] * 3, [10.0] * 3), xtol=0.0, ftol=0.0, gtol=0.0)
    assert (res.status, res.success, res.nfev) == (0, False, 300)
    assert np.isfinite(res.x).all()


def test_gauss_newton_stop_saves_the_rounding_level_evaluations():
    evaluate = decay(np.linspace(0.0, 6.0, 40))
    kwargs = dict(bounds=([0.0] * 3, [10.0] * 3), **TOLERANCES)
    ours = least_squares(evaluate, [1.0, 0.1, 0.0], **kwargs)
    ref = scipy_reference(evaluate, [1.0, 0.1, 0.0], **kwargs)
    # stopped before evaluating a step the model says cannot gain ftol of the cost
    assert ours.status == 2 and ours.nfev < ref.nfev
    assert ours.cost == pytest.approx(ref.cost, rel=1e-12)
