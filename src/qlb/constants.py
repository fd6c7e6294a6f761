"""Physical constants used across the toolkit (CODATA 2022).

Written as literals rather than imported from ``scipy.constants``, whose
import costs a sizeable share of start-up; a test checks them against
scipy.  Centralized so the pipeline can print the exact values into
report provenance.
"""

HBAR = 1.0545718176461565e-34  # J s, h / 2 pi with h = 6.62607015e-34 exact
K_B = 1.380649e-23  # J / K, exact
EPS0 = 8.8541878188e-12  # F / m

CONSTANTS_TABLE = {
    "hbar_J_s": HBAR,
    "k_B_J_per_K": K_B,
    "epsilon_0_F_per_m": EPS0,
}
