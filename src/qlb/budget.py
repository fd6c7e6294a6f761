"""Interface loss-tangent solvers and the per-interface loss budget.

Forward model: the fitted surface tangent of a treatment is the sum of
participation- and thickness-scaled interface terms,

    tan_hf        = r_ma (t_hf/t0) tan_alox + ms_sa
    tan_hf90      = r_ma (t_hf90/t0) tan_alox + ms_sa
    tan_untreated = r_ma (t_ox/t0) tan_alox
                    + (r_ma + r_sa) (t_hc/t0) tan_hc + ms_sa

where r_ma = p_MA/p_MS, r_sa = p_SA/p_MS, t0 is the simulated interface
thickness, and ms_sa is the combined (participation-scaled) loss of the
metal-substrate and substrate-air interfaces.  ``_row`` is this forward
model, written once: a treatment's coefficients of (tan_alox, tan_hc,
ms_sa).  Every solver back-substitutes through it (``_solve_row``): the
difference of the two HF rows isolates tan_alox, the HF row then yields
ms_sa, and the untreated row yields the fabrication-hydrocarbon term and
the budget shares.  ``solve_budget`` propagates the whole chain from its
primitive inputs in one Jacobian.

Participation ratios are not published for the resonator geometry; the
shipped defaults (r_ma = 0.105, r_sa = 1.15) are back-solved from the
published scaled quantities and flagged as derived in reports.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial

from .errors import (
    DegenerateSystemError,
    InconsistentInputsWarning,
    InvalidInputError,
)
from .uncert import UValue, propagate, propagate_joint

__all__ = [
    "ParticipationConfig",
    "BudgetResult",
    "solve_alox",
    "solve_ms_sa",
    "solve_hc",
    "solve_hf_pair",
    "carbon_thickness",
    "budget_fractions",
    "solve_budget",
]

DERIVED_R_MA = 0.105
DERIVED_R_SA = 1.15

CARBON_MONOLAYER_AT_PCT = 7.6
CARBON_MONOLAYER_NM = 0.5

CHANNELS = ("alox", "hydrocarbon", "ms_sa")
ALOX_NEGATIVE = "oxide tangent has a negative central value"
MS_SA_NEGATIVE = "MS+SA remainder has a negative central value"
HC_NEGATIVE = "hydrocarbon tangent has a negative central value"


@dataclass(frozen=True)
class ParticipationConfig:
    """Participation ratios relative to the metal-substrate interface."""

    r_ma: UValue = field(default_factory=lambda: UValue(DERIVED_R_MA))
    r_sa: UValue = field(default_factory=lambda: UValue(DERIVED_R_SA))
    t0: float = 3.0  # nm, simulated interface thickness

    def __post_init__(self):
        if self.r_ma.value <= 0 or self.r_sa.value <= 0 or self.t0 <= 0:
            raise InvalidInputError("participation ratios and t0 must be positive")


@dataclass(frozen=True)
class BudgetResult:
    """Solved tangents and the fractional loss budget (percent)."""

    tan_alox: UValue
    tan_ms_sa: UValue
    tan_hc: UValue
    fractions: dict  # {"alox" | "hydrocarbon" | "ms_sa": UValue percent}
    renormalization: float
    warnings: tuple = ()


def _row(t_ox, t_hc, r_ma, r_sa, t0):
    """A treatment's coefficients of (tan_alox, tan_hc, ms_sa), in CHANNELS order."""
    return r_ma * t_ox / t0, (r_ma + r_sa) * t_hc / t0, 1.0


def _solve_row(tangent, row, known, j):
    """The j-th unknown of ``tangent = row . x``; ``known`` is x with a 0 in place j."""
    alox, hc, ms_sa = known
    return (tangent - (row[0] * alox + row[1] * hc + row[2] * ms_sa)) / row[j]


def _shares(tangent, row, x):
    """Percent share of each term of ``row . x`` in ``tangent``."""
    alox, hc, ms_sa = x
    return (row[0] * alox / tangent * 100.0, row[1] * hc / tangent * 100.0,
            row[2] * ms_sa / tangent * 100.0)


def _hf_pair(tan_hf, tan_hf90, t_hf, t_hf90, r_ma, r_sa, t0):
    """(tan_alox, ms_sa): the HF rows differ only in their oxide coefficient."""
    hf, hf90 = _row(t_hf, 0.0, r_ma, r_sa, t0), _row(t_hf90, 0.0, r_ma, r_sa, t0)
    tan_alox = (tan_hf90 - tan_hf) / (hf90[0] - hf[0])
    return tan_alox, _solve_row(tan_hf, hf, (tan_alox, 0.0, 0.0), 2)


def _chain(tan_hf, tan_hf90, tan_untreated, t_hf, t_hf90, t_ox, t_hc, r_ma, r_sa, t0):
    """(tan_alox, ms_sa, tan_hc, *raw percent shares of CHANNELS) from the inputs."""
    tan_alox, ms_sa = _hf_pair(tan_hf, tan_hf90, t_hf, t_hf90, r_ma, r_sa, t0)
    row = _row(t_ox, t_hc, r_ma, r_sa, t0)
    tan_hc = _solve_row(tan_untreated, row, (tan_alox, 0.0, ms_sa), 1)
    return (tan_alox, ms_sa, tan_hc, *_shares(tan_untreated, row, (tan_alox, tan_hc, ms_sa)))


def _check(t_hf=None, t_hf90=None, t_untreated_ox=None, t_hc=None, tan_untreated=None,
           solving_hc=False) -> None:
    """The budget's input rules on the inputs given, the error's ``arg`` naming the one it
    rejects: thicknesses >= 0, t_hf90 > t_hf (regrowth), t_hc > 0 where tan_hc is solved
    for (``solving_hc``) and tan_untreated > 0, which the shares divide by."""
    named = {"t_hf": t_hf, "t_hf90": t_hf90, "t_untreated_ox": t_untreated_ox, "t_hc": t_hc}
    for name, t in named.items():
        if t is not None and t.value < 0:
            raise InvalidInputError(f"{name} must be >= 0 nm, got {t.value}", arg=name)
    if t_hf90 is not None and t_hf90.value <= t_hf.value:
        raise DegenerateSystemError("regrown oxide must be thicker than fresh oxide: t_hf90 "
                                    f"{t_hf90.value} nm, t_hf {t_hf.value} nm", arg="t_hf90")
    if solving_hc and t_hc.value == 0:
        raise DegenerateSystemError("t_hc must be > 0 nm to solve for tan_hc", arg="t_hc")
    if tan_untreated is not None and tan_untreated.value <= 0:
        raise DegenerateSystemError(f"tan_untreated must be > 0, got {tan_untreated.value}",
                                    arg="tan_untreated")


def _renormalize(raw: list[UValue]) -> tuple[dict, float]:
    total = sum(v.value for v in raw)
    if total <= 0:
        raise DegenerateSystemError("all budget terms are zero")
    renorm = 100.0 / total
    return {k: UValue(v.value * renorm, v.sigma) for k, v in zip(CHANNELS, raw)}, renorm


def solve_alox(
    tan_hf: UValue,
    tan_hf90: UValue,
    t_hf: UValue,
    t_hf90: UValue,
    cfg: ParticipationConfig,
) -> UValue:
    """Intrinsic oxide tangent from the oxide-regrowth pair of HF tangents."""
    return solve_hf_pair(tan_hf, tan_hf90, t_hf, t_hf90, cfg)[0]


def solve_ms_sa(
    tan_hf: UValue,
    tan_alox: UValue,
    t_hf: UValue,
    cfg: ParticipationConfig,
) -> UValue:
    """Participation-scaled remainder of the HF tangent after the oxide term.

    The HF row solved for ms_sa, for independent inputs; a ``tan_alox``
    solved from the same ``tan_hf`` needs ``solve_hf_pair``.
    A negative central value is flagged with a warning, not rejected:
    uncertainties can straddle zero.
    """
    _check(t_hf)
    out = propagate(lambda tan, alox, t, r_ma: _solve_row(
        tan, _row(t, 0.0, r_ma, cfg.r_sa.value, cfg.t0), (alox, 0.0, 0.0), 2),
        [tan_hf, tan_alox, t_hf, cfg.r_ma])
    if out.value < 0:
        warnings.warn(MS_SA_NEGATIVE, InconsistentInputsWarning, stacklevel=2)
    return out


def solve_hc(
    tan_untreated: UValue,
    tan_alox: UValue,
    ms_sa: UValue,
    t_untreated_ox: UValue,
    t_hc: UValue,
    cfg: ParticipationConfig,
) -> UValue:
    """Fabrication-hydrocarbon tangent from the untreated-device tangent.

    The untreated row solved for tan_hc, for independent inputs
    (``solve_budget`` solves the whole chain).
    """
    _check(t_untreated_ox=t_untreated_ox, t_hc=t_hc, solving_hc=True)
    out = propagate(lambda tan, alox, m, t_ox, t, r_ma, r_sa: _solve_row(
        tan, _row(t_ox, t, r_ma, r_sa, cfg.t0), (alox, 0.0, m), 1),
        [tan_untreated, tan_alox, ms_sa, t_untreated_ox, t_hc, cfg.r_ma, cfg.r_sa])
    if out.value < 0:
        warnings.warn(HC_NEGATIVE, InconsistentInputsWarning, stacklevel=2)
    return out


def solve_hf_pair(tan_hf: UValue, tan_hf90: UValue, t_hf: UValue, t_hf90: UValue,
                  cfg: ParticipationConfig) -> tuple[UValue, UValue]:
    """(tan_alox, ms_sa) from one propagation over the HF pair's inputs."""
    _check(t_hf, t_hf90)
    (tan_alox, ms_sa), _ = propagate_joint(
        partial(_hf_pair, r_sa=cfg.r_sa.value, t0=cfg.t0),
        [tan_hf, tan_hf90, t_hf, t_hf90, cfg.r_ma])
    return tan_alox, ms_sa


def carbon_thickness(at_pct_carbon: float) -> float:
    """Hydrocarbon layer thickness in nm from XPS atomic-percent carbon.

    One monolayer per 7.6 at.% carbon, 0.5 nm per monolayer.
    """
    if not 0.0 <= at_pct_carbon <= 100.0:
        raise InvalidInputError(f"atomic percent out of range: {at_pct_carbon}")
    return at_pct_carbon / CARBON_MONOLAYER_AT_PCT * CARBON_MONOLAYER_NM


def budget_fractions(
    tan_untreated: UValue,
    tan_alox: UValue,
    tan_hc: UValue,
    ms_sa: UValue,
    t_untreated_ox: UValue,
    t_hc: UValue,
    cfg: ParticipationConfig,
) -> tuple[dict, float]:
    """Percent share of each loss channel in the untreated-device tangent.

    The inputs are independent (``solve_budget`` solves the whole chain).
    Central values are renormalized to sum to exactly 100; the
    renormalization factor is returned alongside (it is ~1 when the
    tangents solve the forward model consistently).
    """
    _check(t_untreated_ox=t_untreated_ox, t_hc=t_hc, tan_untreated=tan_untreated)
    raw, _ = propagate_joint(lambda tan, alox, hc, m, t_ox, t, r_ma, r_sa: _shares(
        tan, _row(t_ox, t, r_ma, r_sa, cfg.t0), (alox, hc, m)),
        [tan_untreated, tan_alox, tan_hc, ms_sa, t_untreated_ox, t_hc, cfg.r_ma, cfg.r_sa])
    return _renormalize(raw)


def solve_budget(
    tan_hf: UValue,
    tan_hf90: UValue,
    tan_untreated: UValue,
    t_hf: UValue,
    t_hf90: UValue,
    t_untreated_ox: UValue,
    t_hc: UValue,
    cfg: ParticipationConfig,
) -> BudgetResult:
    """Solve the treatment system and assemble the budget.

    Tangents and fractions come from one propagation over the primitive
    inputs, so their sigmas keep the correlations between them.
    """
    _check(t_hf, t_hf90, t_untreated_ox, t_hc, tan_untreated, solving_hc=True)
    (tan_alox, ms_sa, tan_hc, *raw), _ = propagate_joint(
        partial(_chain, t0=cfg.t0),
        [tan_hf, tan_hf90, tan_untreated, t_hf, t_hf90, t_untreated_ox, t_hc,
         cfg.r_ma, cfg.r_sa],
    )
    fractions, renorm = _renormalize(raw)
    return BudgetResult(
        tan_alox=tan_alox,
        tan_ms_sa=ms_sa,
        tan_hc=tan_hc,
        fractions=fractions,
        renormalization=renorm,
        warnings=tuple(msg for msg, v in ((ALOX_NEGATIVE, tan_alox), (MS_SA_NEGATIVE, ms_sa),
                                          (HC_NEGATIVE, tan_hc)) if v.value < 0),
    )
