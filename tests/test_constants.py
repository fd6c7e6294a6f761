import scipy.constants

from qlb.constants import EPS0, HBAR, K_B


def test_literals_equal_scipy_codata():
    assert HBAR == scipy.constants.hbar
    assert K_B == scipy.constants.k
    assert EPS0 == scipy.constants.epsilon_0
