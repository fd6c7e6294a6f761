"""Propagating measurement uncertainty through derived quantities.

Every quantity in this package is a UValue: a central value with a
1-sigma Gaussian uncertainty.  Linear combinations propagate exactly;
everything else goes through first-order (complex-step) propagation,
cross-checked against Monte-Carlo sampling.
"""

from qlb.uncert import UValue, combine_linear, mc_propagate, propagate

# A resonator loss 1/Q built from two participation-weighted tangents.
tan_a = UValue(11.3e-4, 0.5e-4)
tan_b = UValue(6.19e-4, 4.96e-4)
inv_q = combine_linear([(0.983e-4, tan_a), (0.160e-4, tan_b)])
print(f"1/Q = {inv_q.value:.4e} +- {inv_q.sigma:.2e}")

# Nonlinear functions use first-order propagation...
q = propagate(lambda x: 1.0 / x, [inv_q])
print(f"Q   = {q.value:.4e} +- {q.sigma:.2e}")

# ...which should agree with Monte-Carlo when relative errors are small.
q_mc = mc_propagate(lambda x: 1.0 / x, [inv_q], n_samples=10 ** 6, seed=0)
print(f"Q (Monte-Carlo, 1e6 samples) = {q_mc.value:.4e} +- {q_mc.sigma:.2e}")
print(f"sigma ratio first-order / MC = {q.sigma / q_mc.sigma:.3f}")
