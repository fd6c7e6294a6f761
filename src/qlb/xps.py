"""XPS spectral analysis for oxide and contaminant thickness extraction.

Covers the full chain used on Al2p spectra: binding-energy calibration to
a reference peak, iterative Shirley background construction, constrained
multicomponent fitting with spin-orbit doublets (0.44 eV splitting, 2:1
area ratio), the Strohmeier overlayer-thickness formula, and the
piecewise linear/logarithmic oxide-growth-kinetics fit.

``synthesize_spectrum`` generates deterministic forward-model spectra and
serves as the independent oracle for the fitting routines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.optimize import least_squares

from .errors import (
    CalibrationError,
    ConvergenceError,
    DatasetError,
    DegenerateSystemError,
    InvalidInputError,
    read_csv,
)
from .uncert import UValue, bounded_fit, propagate, weighted_lstsq

__all__ = [
    "XpsSpectrum",
    "PeakComponent",
    "StrohmeierConstants",
    "KineticsFit",
    "FitResult",
    "load_spectrum",
    "calibrate_energy",
    "shirley_background",
    "fit_components",
    "summed_areas",
    "strohmeier_thickness",
    "fit_kinetics",
    "synthesize_spectrum",
]

DOUBLET_SPLITTING_EV = 0.44
DOUBLET_AREA_RATIO = 2.0  # 3/2 component carries twice the 1/2 area
FWHM_BOUNDS_EV = (0.05, 5.0)  # fit range of every component's fwhm

_GAUSS_NORM = math.sqrt(4.0 * math.log(2.0) / math.pi)


@dataclass(frozen=True)
class XpsSpectrum:
    """Binding-energy-indexed intensity trace."""

    binding_energy: np.ndarray  # eV, strictly ascending
    intensity: np.ndarray  # counts
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        be = np.asarray(self.binding_energy, dtype=float)
        iy = np.asarray(self.intensity, dtype=float)
        object.__setattr__(self, "binding_energy", be)
        object.__setattr__(self, "intensity", iy)
        if be.shape != iy.shape or be.ndim != 1:
            raise InvalidInputError("energy and intensity must be equal-length 1-d arrays")
        if be.size < 16:
            raise DatasetError(f"need >= 16 samples, got {be.size}")
        if not np.all(np.diff(be) > 0):
            raise InvalidInputError("binding energy must be strictly ascending")
        if np.any(iy < 0):
            raise InvalidInputError("intensity must be >= 0")


@dataclass(frozen=True)
class PeakComponent:
    """One fitted (or template) peak.

    ``doublet`` marks the 3/2 member of a spin-orbit pair; the 1/2 partner
    is generated from it (center + DOUBLET_SPLITTING_EV, half the area, same
    shape and fwhm) and never fitted independently.  ``center_window``
    bounds the center during fitting (eV, half-width).
    """

    label: str
    shape: str  # "lorentzian" | "gaussian"
    center: float  # eV
    fwhm: float  # eV
    area: float = 0.0
    doublet: bool = False
    center_window: float = 0.2

    def __post_init__(self):
        if self.shape not in ("lorentzian", "gaussian"):
            raise InvalidInputError(f"unknown lineshape {self.shape!r}")
        if self.fwhm <= 0:
            raise InvalidInputError("fwhm must be > 0")
        if self.area < 0:
            raise InvalidInputError("area must be >= 0")


@dataclass(frozen=True)
class StrohmeierConstants:
    """Material constants entering the Strohmeier thickness formula.

    The defaults are literature values for Al/AlOx at Al K-alpha excitation:
    inelastic mean free paths lambda_m = 2.6 nm, lambda_ox = 2.8 nm, and
    atom-density ratio N_m/N_ox = 1.6.  They are configuration, not ground
    truth; every reported thickness should name the constants used.
    """

    lambda_m: float = 2.6  # nm
    lambda_ox: float = 2.8  # nm
    n_m: float = 1.6
    n_ox: float = 1.0
    theta: float = 90.0  # degrees

    def __post_init__(self):
        if min(self.lambda_m, self.lambda_ox, self.n_m, self.n_ox) <= 0:
            raise InvalidInputError("Strohmeier constants must be positive")
        if not 0.0 < self.theta <= 90.0:
            raise InvalidInputError("theta must be in (0, 90] degrees")

    def coefficients(self) -> tuple[float, float]:
        """(k, pref) of the Strohmeier formula d = k ln(pref I_ox / I_m + 1)."""
        return (self.lambda_ox * math.sin(math.radians(self.theta)),
                (self.n_m / self.n_ox) * (self.lambda_m / self.lambda_ox))


@dataclass(frozen=True)
class KineticsFit:
    """Piecewise linear-then-logarithmic oxide growth model.

    d(t) = k_lin * t               for t <= t_break
    d(t) = log_a + log_b * ln(t)   for t >  t_break
    continuous at t_break; d_sat is the model value at the latest
    measured time.  ``degenerate_log`` flags a fit with no points past
    the breakpoint (purely linear data).
    """

    k_lin: float  # nm / hour
    t_break: float  # hours
    log_a: float
    log_b: float
    d_sat: float  # nm
    degenerate_log: bool = False

    def thickness(self, t):
        t = np.asarray(t, dtype=float)
        lin = self.k_lin * t
        if self.degenerate_log:
            return lin
        log = self.log_a + self.log_b * np.log(np.maximum(t, 1e-300))
        return np.where(t <= self.t_break, lin, log)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a multicomponent fit."""

    components: tuple  # fitted PeakComponents incl. generated 1/2 partners
    params: np.ndarray  # fitted (center, fwhm, area) per template
    covariance: np.ndarray  # C, of params
    area_rows: dict  # template label -> row T, its total area T . params
    area_sigmas: dict  # template label -> sigma of its total area, sqrt(T C T^T)
    boundary_active: tuple  # labels of parameters pinned at a constraint


# ---------------------------------------------------------------------------
# lineshapes


def _lineshape(x, shape, center, fwhm, area):
    if shape == "lorentzian":
        gamma = fwhm / 2.0
        return area * gamma / (math.pi * ((x - center) ** 2 + gamma ** 2))
    return (area * _GAUSS_NORM / fwhm) * np.exp(
        -4.0 * math.log(2.0) * ((x - center) / fwhm) ** 2
    )


def _lineshape_grad(x, shape, center, fwhm, area):
    """``_lineshape`` and its derivatives with respect to (center, fwhm, area).

    The area derivative is the unit-area shape rather than value / area,
    so it stays defined for an area at its lower bound of 0.
    """
    u = x - center
    if shape == "lorentzian":
        gamma = fwhm / 2.0
        den = u ** 2 + gamma ** 2
        unit = gamma / (math.pi * den)
        value = area * unit
        d_center = value * 2.0 * u / den
        d_fwhm = area * (u ** 2 - gamma ** 2) / (2.0 * math.pi * den ** 2)
    else:
        z2 = (u / fwhm) ** 2
        unit = (_GAUSS_NORM / fwhm) * np.exp(-4.0 * math.log(2.0) * z2)
        value = area * unit
        d_center = value * 8.0 * math.log(2.0) * u / fwhm ** 2
        d_fwhm = value * (8.0 * math.log(2.0) * z2 - 1.0) / fwhm
    return value, d_center, d_fwhm, unit


def _peaks(model):
    """(template index, label, center offset, area factor) of every peak: the
    doublet rule, a 1/2 partner of the same shape and fwhm per doublet."""
    for i, c in enumerate(model):
        yield i, c.label, 0.0, 1.0
        if c.doublet:
            yield i, c.label + "_1/2", DOUBLET_SPLITTING_EV, 1.0 / DOUBLET_AREA_RATIO


def _peak_model(x, model, p):
    """Sum of the ``model`` peaks at p = (center, fwhm, area) per template;
    only shape and doublet are read from the templates."""
    total = np.zeros_like(x)
    for i, _, offset, factor in _peaks(model):
        total += _lineshape(x, model[i].shape, p[3 * i] + offset, p[3 * i + 1],
                            p[3 * i + 2] * factor)
    return total


def _peak_model_jac(x, model, p):
    """Jacobian of ``_peak_model`` with respect to p; a doublet's 1/2
    partner is accumulated into its 3/2 member's columns."""
    JT = np.zeros((len(p), x.size))  # filled by contiguous rows, returned in C order
    for i, _, offset, factor in _peaks(model):
        _, d_center, d_fwhm, unit = _lineshape_grad(x, model[i].shape, p[3 * i] + offset,
                                                    p[3 * i + 1], p[3 * i + 2] * factor)
        JT[3 * i] += d_center
        JT[3 * i + 1] += d_fwhm
        JT[3 * i + 2] += unit * factor
    return np.ascontiguousarray(JT.T)


def _component_sum(x, components):
    return _peak_model(x, components, [v for c in components
                                       for v in (c.center, c.fwhm, c.area)])


def expand_doublets(components: Sequence[PeakComponent]) -> list[PeakComponent]:
    """Every peak of ``components``, each doublet followed by its 1/2 partner."""
    return [
        replace(components[i], label=label, center=components[i].center + offset,
                area=components[i].area * factor,
                # a generated partner is a peak, not a template of its own
                doublet=components[i].doublet and label == components[i].label)
        for i, label, offset, factor in _peaks(components)
    ]


# ---------------------------------------------------------------------------
# ingestion and calibration


def load_spectrum(path) -> XpsSpectrum:
    """Read a headed CSV with columns binding_energy_eV and counts.

    A missing column, a missing, non-numeric or non-finite cell, negative
    counts or a binding energy not above the previous row's raise
    DatasetError naming the file (and the line).
    """
    energies: list[float] = []

    def sample(energy, counts):
        if counts < 0 or (energies and energy <= energies[-1]):
            raise InvalidInputError("counts must be >= 0 and binding energies strictly "
                                    f"ascending, got {energy}, {counts}")
        energies.append(energy)
        return counts

    counts = read_csv(path, ("binding_energy_eV", "counts"), sample)
    return XpsSpectrum(np.array(energies), np.array(counts),
                       metadata={"source_file": str(Path(path))})


def calibrate_energy(
    spectrum: XpsSpectrum,
    reference_label: str,
    reference_energy: float,
) -> XpsSpectrum:
    """Shift the energy axis so the reference peak maximum sits at its
    nominal binding energy.

    The reference peak is located as the intensity maximum within +-2.0 eV
    of the nominal energy; it must be a genuine local maximum (flat spectra
    raise a calibration error).
    """
    be, iy = spectrum.binding_energy, spectrum.intensity
    mask = np.abs(be - reference_energy) <= 2.0
    if not np.any(mask):
        raise CalibrationError(
            f"{reference_label}: window +-2.0 eV around "
            f"{reference_energy} eV is outside the scan"
        )
    idx_window = np.flatnonzero(mask)
    peak = idx_window[np.argmax(iy[idx_window])]
    interior = 0 < peak < be.size - 1
    if not interior or not (iy[peak] > iy[peak - 1] and iy[peak] > iy[peak + 1]):
        raise CalibrationError(f"{reference_label}: no local maximum near "
                               f"{reference_energy} eV")
    shift = reference_energy - be[peak]
    meta = dict(spectrum.metadata)
    meta["energy_shift_eV"] = float(shift)
    meta["calibration_reference"] = reference_label
    return XpsSpectrum(be + shift, iy, metadata=meta)


# ---------------------------------------------------------------------------
# Shirley background


def shirley_background(
    spectrum: XpsSpectrum,
    lo: float,
    hi: float,
) -> np.ndarray:
    """Iterative Shirley background over [lo, hi] (binding energy, eV).

    Anchored to 3-sample endpoint averages; the background above the
    low-energy anchor at each point is proportional to the integrated
    signal-above-background on the high-kinetic-energy (lower binding
    energy) side.  Returns the background on the samples inside [lo, hi]
    once an iteration moves it by < 1e-6 max(|i_hi - i_lo|, |i_hi|, |i_lo|, 1),
    and raises ConvergenceError after 50 iterations that do not.
    """
    be, iy = spectrum.binding_energy, spectrum.intensity
    if lo < be[0] or hi > be[-1] or lo >= hi:
        raise InvalidInputError(f"[{lo}, {hi}] eV not inside scan window")
    sel = np.flatnonzero((be >= lo) & (be <= hi))
    if sel.size < 8:
        raise DatasetError("too few samples in the background window")
    x = be[sel]
    y = iy[sel]
    i_lo = float(np.mean(y[:3]))
    i_hi = float(np.mean(y[-3:]))
    tolerance = 1e-6 * max(abs(i_hi - i_lo), abs(i_hi), abs(i_lo), 1.0)
    bg = np.full_like(y, i_lo)
    for _ in range(50):
        signal = y - bg
        cum = _cumtrapz(signal, x)
        total = cum[-1]
        if total <= 0:
            new_bg = np.full_like(y, i_lo)
        else:
            new_bg = i_lo + (i_hi - i_lo) * cum / total
        delta = float(np.max(np.abs(new_bg - bg)))
        bg = new_bg
        if delta < tolerance:
            return bg
    raise ConvergenceError("Shirley background did not converge", residual=delta)


def _cumtrapz(y, x):
    out = np.zeros_like(y)
    dx = np.diff(x)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * dx)
    return out


# ---------------------------------------------------------------------------
# component fitting


def fit_components(
    spectrum: XpsSpectrum,
    background: np.ndarray,
    model: Sequence[PeakComponent],
) -> FitResult:
    """Constrained least squares of the background-subtracted spectrum.

    Fit parameters per template component: center (bounded by its
    ``center_window``), fwhm (bounded by ``FWHM_BOUNDS_EV``), area (>= 0).
    Doublet 1/2 partners are generated exactly (shared fwhm,
    +DOUBLET_SPLITTING_EV, half area), never fitted.  Weights
    are Poisson-like, 1/max(I, 1).  The model is evaluated straight from the
    parameter vector, with the analytic Jacobian of ``_peak_model_jac``.
    """
    if not model:
        raise InvalidInputError("model needs >= 1 component")
    x = spectrum.binding_energy
    y = spectrum.intensity - np.asarray(background, dtype=float)
    if y.shape != x.shape:
        raise InvalidInputError("background length must match the spectrum")
    w = np.sqrt(1.0 / np.maximum(spectrum.intensity, 1.0))

    p0, lower, upper = [], [], []
    for c in model:
        if c.center_window <= 0:
            raise InvalidInputError(f"{c.label}: empty constraint window")
        # the area guess takes the fwhm the fit starts from, inside its bounds
        fwhm0 = min(max(c.fwhm, FWHM_BOUNDS_EV[0]), FWHM_BOUNDS_EV[1])
        area0 = c.area if c.area > 0 else max(float(np.max(y)), 0.0) * fwhm0
        p0 += [c.center, c.fwhm, area0]
        lower += [c.center - c.center_window, FWHM_BOUNDS_EV[0], 0.0]
        upper += [c.center + c.center_window, FWHM_BOUNDS_EV[1], np.inf]
    p0 = np.clip(p0, lower, upper)
    if not (np.all(np.isfinite(p0)) and np.all(np.less(lower, upper))):
        raise InvalidInputError("component start values and bounds must be finite "
                                "and ordered (lower < upper)")

    def resid(p):
        return (_peak_model(x, model, p) - y) * w

    def jac(p):
        return _peak_model_jac(x, model, p) * w[:, None]

    res, cov = bounded_fit(least_squares, resid, jac, p0, lower, upper, "component fit")

    fitted = [
        replace(c, center=res.x[3 * i], fwhm=res.x[3 * i + 1], area=res.x[3 * i + 2])
        for i, c in enumerate(model)
    ]
    names = []
    for c in model:
        names += [f"{c.label}.center", f"{c.label}.fwhm", f"{c.label}.area"]
    active = tuple(
        names[i]
        for i in range(len(res.x))
        if math.isclose(res.x[i], lower[i]) or math.isclose(res.x[i], upper[i])
    )
    # the Poisson-like weights are not true sigmas; rescale by reduced chi2
    dof = max(x.size - res.x.size, 1)
    cov = cov * (2.0 * res.cost / dof)
    area_rows = {c.label: np.zeros(res.x.size) for c in model}
    for i, _, _, factor in _peaks(model):
        area_rows[model[i].label][3 * i + 2] += factor
    return FitResult(
        components=tuple(expand_doublets(fitted)),
        params=res.x,
        covariance=cov,
        area_rows=area_rows,
        area_sigmas={label: math.sqrt(max(row @ cov @ row, 0.0))
                     for label, row in area_rows.items()},
        boundary_active=active,
    )


def component_area(result: FitResult, label: str) -> float:
    """Total area of the template ``label``, a doublet's 1/2 partner included."""
    if label not in result.area_rows:
        raise InvalidInputError(f"no fitted template component {label!r}")
    return float(result.area_rows[label] @ result.params)


def summed_areas(result: FitResult, oxide_labels: Sequence[str],
                 metal_labels: Sequence[str]) -> tuple[list[UValue], list[list[float]]]:
    """[I_ox, I_m], the summed template areas, and their 2x2 covariance S C S^T,
    S being the sums' rows: overlapping components' correlations are kept."""
    groups = (oxide_labels, metal_labels)
    values = [sum(component_area(result, label) for label in labels) for labels in groups]
    S = np.array([sum((result.area_rows[label] for label in labels),
                      np.zeros_like(result.params)) for labels in groups])
    cov = S @ result.covariance @ S.T
    areas = [UValue(v, math.sqrt(max(cov[j, j], 0.0))) for j, v in enumerate(values)]
    return areas, cov.tolist()


# ---------------------------------------------------------------------------
# thickness and kinetics


def strohmeier_thickness(i_ox: UValue, i_m: UValue, constants: StrohmeierConstants,
                         covariance: Sequence[Sequence[float]] | None = None) -> UValue:
    """Overlayer thickness (nm) from the oxide/metal peak intensity ratio.

    d = lambda_ox sin(theta) ln( (N_m/N_ox)(I_ox/I_m)(lambda_m/lambda_ox) + 1 )
    ``covariance`` is that of (I_ox, I_m), as from ``summed_areas``; default independent.
    """
    if i_m.value <= 0:
        raise DegenerateSystemError("metal intensity must be positive")
    if i_ox.value < 0:
        raise InvalidInputError("oxide intensity must be >= 0")
    k, pref = constants.coefficients()

    def f(ox, m):
        return k * math.log(pref * (ox / m) + 1.0)

    return propagate(f, [i_ox, i_m], covariance=covariance)


def invert_strohmeier(d: float, constants: StrohmeierConstants) -> float:
    """Intensity ratio I_ox/I_m that yields thickness ``d`` (test oracle)."""
    k, pref = constants.coefficients()
    return (math.exp(d / k) - 1.0) / pref


def fit_kinetics(times: Sequence[float], thicknesses: Sequence[UValue]) -> KineticsFit:
    """Fit the piecewise linear/logarithmic oxide growth model.

    The breakpoint is grid-searched over the measured time points; for each
    candidate, the continuous model d = k t (t <= tb), d = k tb + b ln(t/tb)
    (t > tb) is a weighted linear least-squares problem in (k, b).
    """
    t = np.asarray(times, dtype=float)
    if t.size < 6 or t.size != len(thicknesses):
        raise DatasetError("need >= 6 (time, thickness) points")
    if np.any(np.diff(t) <= 0) or t[0] <= 0:
        raise InvalidInputError("times must be positive and strictly ascending")
    d = [v.value for v in thicknesses]
    sig = [v.sigma for v in thicknesses]

    best = None
    # candidates leaving >= 2 points per regime, plus the all-linear case
    candidates = list(t[1:-2]) + [t[-1]]
    for tb in candidates:
        lin = t <= tb
        col_k = np.where(lin, t, tb)
        col_b = np.where(lin, 0.0, np.log(np.maximum(t / tb, 1e-300)))
        design = [col_k] if np.all(lin) else [col_k, col_b]
        coef, _, chi2 = weighted_lstsq(np.column_stack(design), d, sig)
        k, b = float(coef[0]), (float(coef[1]) if coef.size > 1 else 0.0)
        if best is None or chi2 < best[0]:
            best = (chi2, tb, k, b, np.all(lin))

    _, tb, k, b, degenerate = best
    log_a = k * tb - b * math.log(tb)
    fit = KineticsFit(
        k_lin=k,
        t_break=float(tb),
        log_a=float(log_a),
        log_b=float(b),
        d_sat=0.0,
        degenerate_log=bool(degenerate),
    )
    d_sat = float(fit.thickness(t[-1]))
    return replace(fit, d_sat=d_sat)


# ---------------------------------------------------------------------------
# synthesis oracle


def synthesize_spectrum(
    components: Sequence[PeakComponent],
    background_kind: tuple = ("flat", 0.0),
    noise_sigma: float = 0.0,
    seed: int = 0,
    energy_lo: float = 68.0,
    energy_hi: float = 82.0,
    step: float = 0.05,
) -> XpsSpectrum:
    """Deterministic forward-model spectrum: components + background + noise.

    ``background_kind`` is ("flat", level) or ("shirley", lo_level, hi_level);
    the Shirley variant builds the background from the ideal component sum,
    so the background-estimation round trip is self-consistent.
    """
    x = np.arange(energy_lo, energy_hi + step / 2, step)
    peaks = _component_sum(x, list(components))
    kind = background_kind[0]
    if kind == "flat":
        bg = np.full_like(x, float(background_kind[1]))
    elif kind == "shirley":
        b_lo, b_hi = float(background_kind[1]), float(background_kind[2])
        cum = _cumtrapz(peaks, x)
        total = cum[-1]
        bg = np.full_like(x, b_lo) if total <= 0 else b_lo + (b_hi - b_lo) * cum / total
    else:
        raise InvalidInputError(f"unknown background kind {kind!r}")
    y = peaks + bg
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        y = y + rng.normal(0.0, noise_sigma, x.size)
    y = np.maximum(y, 0.0)
    return XpsSpectrum(x, y, metadata={"synthetic": True, "seed": seed})
