"""Transmon quality-factor prediction and junction-barrier budgeting.

The qubit's surface loss is the participation-weighted sum of the
capacitor-pad tangent and the junction-lead interface tangents.  The
junction barrier itself is budgeted through its share of the circuit
energy, estimated from the parallel-plate junction capacitance relative
to the shunt capacitance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constants import EPS0
from .errors import DegenerateSystemError, InvalidInputError
from .uncert import UValue, propagate, propagate_joint

__all__ = [
    "QubitGeometry",
    "JunctionDims",
    "TangentSet",
    "predict_inv_q",
    "predict_q",
    "surface_fractions",
    "predict_regime",
    "junction_capacitance",
    "junction_energy_fraction",
    "solve_barrier_tangent",
    "BarrierSolve",
    "three_way_budget",
]


@dataclass(frozen=True)
class JunctionDims:
    """Parallel-plate junction dimensions (nm) and barrier permittivity."""

    width: UValue
    length: UValue
    barrier_thickness: UValue
    eps_r: float = 9.0

    def __post_init__(self):
        if min(self.width.value, self.length.value, self.barrier_thickness.value) <= 0:
            raise InvalidInputError("junction dimensions must be positive")
        if self.eps_r <= 0:
            raise InvalidInputError("eps_r must be positive")


@dataclass(frozen=True)
class QubitGeometry:
    """Participations and capacitances of the transmon layout."""

    p_capacitor: float
    p_ms_leads: float
    p_ma_leads: float
    c_shunt: float  # fF
    junction: JunctionDims

    def __post_init__(self):
        if min(self.p_capacitor, self.p_ms_leads, self.p_ma_leads) <= 0:
            raise InvalidInputError("participations must be positive")
        if self.c_shunt <= 0:
            raise InvalidInputError("c_shunt must be positive")


@dataclass(frozen=True)
class TangentSet:
    """Loss tangents feeding the qubit prediction, one per surface group."""

    tan_capacitor: UValue
    tan_alox_leads: UValue
    tan_ms_leads: UValue
    regime: str = "linear-absorption"  # or "single-photon"

    def __post_init__(self):
        if min(self.tan_capacitor.value, self.tan_alox_leads.value,
               self.tan_ms_leads.value) < 0:
            raise InvalidInputError("tangent central values must be >= 0")
        if self.regime not in ("linear-absorption", "single-photon"):
            raise InvalidInputError(f"unknown regime {self.regime!r}")


def predict_inv_q(geom: QubitGeometry, tangents: TangentSet) -> UValue:
    """Total surface loss 1/Q as a participation-weighted tangent sum."""
    return propagate(lambda tc, ta, tm: sum(_loss_terms(geom, tc, ta, tm)), [
        tangents.tan_capacitor, tangents.tan_alox_leads, tangents.tan_ms_leads])


def _loss_terms(geom: QubitGeometry, tan_capacitor, tan_alox_leads, tan_ms_leads):
    """Capacitor and junction-lead terms of the surface loss sum 1/Q."""
    return (geom.p_capacitor * tan_capacitor,
            geom.p_ma_leads * tan_alox_leads + geom.p_ms_leads * tan_ms_leads)


def predict_q(geom: QubitGeometry, tangents: TangentSet) -> UValue:
    """Surface-loss-limited quality factor, Q = 1/(1/Q)."""
    return predict_regime(geom, tangents)[1]


def surface_fractions(geom: QubitGeometry, tangents: TangentSet) -> tuple[UValue, UValue]:
    """Percent split of surface loss between capacitor pads and junction leads."""
    if sum(_loss_terms(geom, tangents.tan_capacitor.value, tangents.tan_alox_leads.value,
                       tangents.tan_ms_leads.value)) == 0:
        raise DegenerateSystemError("zero total loss")
    return predict_regime(geom, tangents)[2:]


def predict_regime(geom: QubitGeometry,
                   tangents: TangentSet) -> tuple[UValue, UValue, UValue, UValue]:
    """(1/Q, Q, capacitor %, junction leads %) of one regime from one joint propagation:
    the surface loss sum 1/Q as ``predict_inv_q`` gives it, its reciprocal, and its split
    between capacitor pads and junction leads."""
    inputs = [tangents.tan_capacitor, tangents.tan_alox_leads, tangents.tan_ms_leads]
    if sum(_loss_terms(geom, *(v.value for v in inputs))) == 0:
        raise DegenerateSystemError("zero predicted loss, Q undefined")

    def chain(tc, ta, tm):
        cap, leads = _loss_terms(geom, tc, ta, tm)
        total = cap + leads
        return total, 1.0 / total, cap / total * 100.0, leads / total * 100.0

    return tuple(propagate_joint(chain, inputs)[0])


def junction_capacitance(junction: JunctionDims) -> UValue:
    """Parallel-plate junction capacitance C = eps0 eps_r (w l) / t in fF.  Width and length
    come from one lithography/imaging step, so their errors are propagated fully correlated,
    the barrier thickness independent: for a square junction this gives the quoted sigma,
    which independent lateral errors would understate."""
    w, l, t = junction.width, junction.length, junction.barrier_thickness
    cov = [[w.sigma ** 2, w.sigma * l.sigma, 0.0], [w.sigma * l.sigma, l.sigma ** 2, 0.0],
           [0.0, 0.0, t.sigma ** 2]]
    return propagate(lambda w, l, t: EPS0 * junction.eps_r * (w * 1e-9) * (l * 1e-9)
                     / (t * 1e-9) / 1e-15, [w, l, t], cov)


def _junction_share(c_jj, c_shunt):
    """Junction's share of the circuit electric energy, c_jj / (c_jj + c_shunt)."""
    return c_jj / (c_jj + c_shunt)


def junction_energy_fraction(c_jj: UValue, c_shunt: float) -> UValue:
    """Fraction of circuit electric energy stored in the junction barrier."""
    if c_shunt <= 0:
        raise InvalidInputError("c_shunt must be positive")
    return propagate(lambda c: _junction_share(c, c_shunt), [c_jj])


@dataclass(frozen=True)
class BarrierSolve:
    """Barrier tangent and its derived loss contribution."""

    tan_barrier: UValue
    scaled_contribution: UValue  # energy fraction x tan_barrier
    limiting_q: UValue


def solve_barrier_tangent(
    q_measured: UValue,
    inv_q_surfaces: UValue,
    c_jj: UValue,
    c_shunt: float,
) -> BarrierSolve:
    """Invert the capacitance-weighted loss sum for the barrier tangent.

    1/Q_meas = (Cs/(Cs+Cj)) (1/Q_surfaces) + (Cj/(Cs+Cj)) tan_barrier
    """
    if q_measured.value <= 0:
        raise InvalidInputError("measured Q must be positive")
    if c_jj.value == 0:
        raise DegenerateSystemError("zero junction capacitance")
    surfaces = (1.0 - _junction_share(c_jj.value, c_shunt)) * inv_q_surfaces.value
    if 1.0 / q_measured.value <= surfaces:  # the contribution 1/Q_meas - surfaces, inverted below
        raise DegenerateSystemError(
            "barrier contribution is non-positive; surfaces already exceed measured loss"
        )

    def barrier(qm, iqs, cj):
        share = _junction_share(cj, c_shunt)
        tan_barrier = (1.0 / qm - (1.0 - share) * iqs) / share
        contribution = share * tan_barrier
        return tan_barrier, contribution, 1.0 / contribution

    (tan_barrier, contribution, limiting_q), _ = propagate_joint(
        barrier, [q_measured, inv_q_surfaces, c_jj])
    return BarrierSolve(tan_barrier, contribution, limiting_q)


def three_way_budget(
    geom: QubitGeometry,
    tangents: TangentSet,
    q_measured: UValue,
    c_jj: UValue,
) -> dict:
    """Percent budget {capacitor, junction_leads, barrier} of measured loss.

    Surface terms are scaled by the shunt's energy share; the barrier term
    is the residual, so central values sum to exactly 100.  All three come
    from one propagation over (tangents, c_jj, q_measured).
    """
    if q_measured.value <= 0:
        raise InvalidInputError("measured Q must be positive")

    def shares(tc, ta, tm, cj, qm):
        scale = (1.0 - _junction_share(cj, geom.c_shunt)) * qm * 100.0
        cap_pct, leads_pct = (scale * term for term in _loss_terms(geom, tc, ta, tm))
        return cap_pct, leads_pct, 100.0 - cap_pct - leads_pct

    (capacitor, leads, barrier), _ = propagate_joint(shares, [
        tangents.tan_capacitor, tangents.tan_alox_leads, tangents.tan_ms_leads,
        c_jj, q_measured])
    if barrier.value <= 0:
        raise DegenerateSystemError("barrier share is non-positive; surfaces already "
                                    "exceed measured loss")
    return {"capacitor": capacitor, "junction_leads": leads, "barrier": barrier}
