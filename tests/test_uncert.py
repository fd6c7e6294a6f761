import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlb.errors import ConfigurationError, InvalidInputError
from qlb.uncert import (
    UValue,
    combine_linear,
    mc_propagate,
    propagate,
    propagate_joint,
)


def test_uvalue_invariants():
    with pytest.raises(InvalidInputError):
        UValue(1.0, -0.1)
    with pytest.raises(InvalidInputError):
        UValue(float("nan"), 0.1)
    with pytest.raises(InvalidInputError):
        UValue(1.0, float("inf"))


class TestCombineLinear:
    def test_3_4_5_quadrature(self):
        out = combine_linear([(1, UValue(2, 0.3)), (1, UValue(1, 0.4))])
        assert out.value == pytest.approx(3.0)
        assert out.sigma == pytest.approx(0.5)

    def test_identity(self):
        out = combine_linear([(1, UValue(7.5, 0.2)), (1, UValue(0, 0))])
        assert out.value == 7.5 and out.sigma == 0.2

    def test_mixed_coefficients(self):
        # closed form: sigma = sqrt((2*0.1)^2 + (1*0.2)^2) = sqrt(0.08)
        out = combine_linear([(2, UValue(5, 0.1)), (-1, UValue(3, 0.2))])
        assert out.value == pytest.approx(7.0)
        assert out.sigma == pytest.approx(math.sqrt(0.08))

    def test_rejects_nonfinite_coefficient(self):
        with pytest.raises(InvalidInputError):
            combine_linear([(float("inf"), UValue(1, 0.1))])

    @given(st.lists(
        st.tuples(st.floats(-10, 10), st.floats(-10, 10), st.floats(0, 5)),
        min_size=1, max_size=6,
    ))
    def test_sigma_invariant_under_sign_flip(self, rows):
        terms = [(c, UValue(v, s)) for c, v, s in rows]
        flipped = [(-c, UValue(v, s)) for c, v, s in rows]
        assert combine_linear(terms).sigma == pytest.approx(
            combine_linear(flipped).sigma, abs=1e-15
        )


class TestPropagate:
    def test_sum_matches_combine_linear(self):
        out = propagate(lambda a, b: a + b, [UValue(2, 0.3), UValue(1, 0.4)])
        assert out.value == pytest.approx(3)
        assert out.sigma == pytest.approx(0.5, rel=1e-6)

    def test_square(self):
        out = propagate(lambda x: x * x, [UValue(3, 0.1)])
        assert out.value == pytest.approx(9)
        assert out.sigma == pytest.approx(0.6, rel=1e-6)

    def test_log_zero_sigma_passthrough(self):
        out = propagate(math.log, [UValue(1, 0)])
        assert out.value == 0 and out.sigma == 0

    def test_constant_function(self):
        out = propagate(lambda x: 42.0, [UValue(3, 0.5)])
        assert out.sigma == 0

    def test_nonfinite_at_means(self):
        with pytest.raises(InvalidInputError):
            propagate(lambda x: math.inf, [UValue(1, 0.1)])

    def test_overflowing_variance(self):
        # (grad * sigma)^2 = 1e400 is past the largest float
        with pytest.raises(InvalidInputError, match="variance"):
            propagate(lambda x: 2.0 * x, [UValue(1.0, 1e200)])


class TestPropagateJoint:
    def test_sum_and_difference_covariance(self):
        # closed form: var = sa^2 + sb^2 on the diagonal, sa^2 - sb^2 off it
        outs, cov = propagate_joint(lambda a, b: (a + b, a - b),
                                    [UValue(2, 0.3), UValue(1, 0.4)])
        assert [o.value for o in outs] == pytest.approx([3.0, 1.0])
        assert [o.sigma for o in outs] == pytest.approx([0.5, 0.5], rel=1e-6)
        assert cov[0] + cov[1] == pytest.approx([0.25, -0.07, -0.07, 0.25], rel=1e-6)

    def test_each_output_matches_propagate(self):
        f = (lambda x, y: x * y, lambda x, y: x / y, lambda x, y: math.exp(x) - y)
        inputs = [UValue(1.3, 0.1), UValue(0.7, 0.05)]
        outs, _ = propagate_joint(lambda x, y: [g(x, y) for g in f], inputs)
        assert outs == [propagate(g, inputs) for g in f]

    def test_exact_inputs_give_zero_covariance(self):
        outs, cov = propagate_joint(lambda a, b: (a * b, a), [UValue(2.0), UValue(3.0)])
        assert [o.sigma for o in outs] == [0.0, 0.0]
        assert cov == [[0.0, 0.0], [0.0, 0.0]]

    def test_nonfinite_output_rejected(self):
        with pytest.raises(InvalidInputError):
            propagate_joint(lambda x: (x, math.inf), [UValue(1, 0.1)])


class TestMcPropagate:
    def test_identity_passthrough(self):
        out = mc_propagate(lambda x: x, [UValue(5, 1)], n_samples=10**6, seed=1)
        assert out.value == pytest.approx(5, rel=0.01)
        assert out.sigma == pytest.approx(1, rel=0.01)

    def test_product_sigma_analytic(self):
        # Var(XY) = sx^2 sy^2 + sx^2 my^2 + sy^2 mx^2 = 201 for (10+-1)^2
        out = mc_propagate(lambda a, b: a * b,
                           [UValue(10, 1), UValue(10, 1)], n_samples=10**6, seed=2)
        assert out.sigma == pytest.approx(math.sqrt(201), rel=0.035)

    def test_deterministic_per_seed(self):
        args = (lambda a, b: a / b, [UValue(6, 0.1), UValue(3, 0.05)])
        r1 = mc_propagate(*args, n_samples=10**4, seed=7)
        r2 = mc_propagate(*args, n_samples=10**4, seed=7)
        assert r1 == r2

    def test_rejects_small_sample_count(self):
        with pytest.raises(ConfigurationError):
            mc_propagate(lambda x: x, [UValue(1, 0.1)], n_samples=100, seed=0)


class TestFirstOrderVsMc:
    def test_linear_agreement_within_mc_error(self):
        terms = [(2.0, UValue(1.5, 0.05)), (-3.0, UValue(0.7, 0.02))]
        exact = combine_linear(terms)
        n = 10**6
        mc = mc_propagate(lambda a, b: 2 * a - 3 * b,
                          [t[1] for t in terms], n_samples=n, seed=3)
        # standard error of an MC sd estimate is sigma/sqrt(2n)
        se = exact.sigma / math.sqrt(2 * n)
        assert abs(mc.sigma - exact.sigma) < 3 * se * 3  # 3 std errors, margin 3

    @pytest.mark.parametrize("f,inputs", [
        (lambda a, b: a * b, [UValue(10, 0.3), UValue(4, 0.15)]),
        (lambda a, b: a / b, [UValue(10, 0.3), UValue(4, 0.15)]),
        (lambda a: np.log(a), [UValue(10, 0.3)]),
    ])
    def test_small_relative_error_agreement(self, f, inputs):
        first = propagate(f, inputs)
        mc = mc_propagate(f, inputs, n_samples=10**6, seed=4)
        assert mc.sigma == pytest.approx(first.sigma, rel=0.05)


@settings(max_examples=50)
@given(st.floats(0.1, 100), st.floats(0, 0.05))
def test_scaled_is_exact(value, rel):
    v = UValue(value, rel * value)
    out = v.scaled(-2.5)
    assert out.value == pytest.approx(-2.5 * value)
    assert out.sigma == pytest.approx(2.5 * v.sigma)
