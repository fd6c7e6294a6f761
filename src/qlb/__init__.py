"""Loss budgeting for superconducting microwave resonators and transmon qubits."""

__version__ = "0.1.0"

from .uncert import UValue, combine_linear, propagate, propagate_joint, mc_propagate
from .tls import TlsParams, QPoint, q_tls, fit_tls, rescale_q_tls0
from .spr import SprPoint, fit_through_origin, pool_tangents
from .budget import (
    ParticipationConfig,
    BudgetResult,
    solve_alox,
    solve_ms_sa,
    solve_hc,
    solve_hf_pair,
    carbon_thickness,
    budget_fractions,
    solve_budget,
)
from .qubit import (
    QubitGeometry,
    JunctionDims,
    TangentSet,
    predict_inv_q,
    predict_q,
    surface_fractions,
    junction_capacitance,
    junction_energy_fraction,
    solve_barrier_tangent,
    three_way_budget,
)
from .xps import (
    XpsSpectrum,
    PeakComponent,
    StrohmeierConstants,
    KineticsFit,
    load_spectrum,
    calibrate_energy,
    shirley_background,
    fit_components,
    strohmeier_thickness,
    fit_kinetics,
    synthesize_spectrum,
)
