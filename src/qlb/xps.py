"""XPS spectral analysis for oxide and contaminant thickness extraction.

Covers the full chain used on Al2p spectra: binding-energy calibration to
a reference peak, iterative Shirley background construction, constrained
multicomponent fitting with spin-orbit doublets (0.44 eV splitting, 2:1
area ratio), the Strohmeier overlayer-thickness formula, and the
piecewise linear/logarithmic oxide-growth-kinetics fit.  Both datasets are
records holding their row rules, ``XpsSpectrum`` and ``KineticsPoints``.

``synthesize_spectrum`` generates deterministic spectra from the same
``_peak_model`` the fit evaluates, so its round trips test the fitting, not the
lineshapes; ``benchmarks/gen.py`` holds an independent copy of those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from ._trf import least_squares
from .errors import (
    CalibrationError,
    ConvergenceError,
    DatasetError,
    DegenerateSystemError,
    InvalidInputError,
    check_rows,
    float_columns,
    read_csv,
)
from .uncert import UValue, _uvalues, active_bounds, bounded_fit, propagate, weighted_lstsq

__all__ = [
    "XpsSpectrum",
    "PeakComponent",
    "StrohmeierConstants",
    "KineticsPoints",
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
    """Binding-energy-indexed intensity trace, one row per sample: >= 16 samples, each
    with counts >= 0 and a binding energy above the previous sample's."""

    binding_energy: np.ndarray  # eV, strictly ascending
    intensity: np.ndarray  # counts
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        be, iy = float_columns(self, ("binding_energy", "intensity"))
        check_rows((~(iy < 0) & np.append(True, np.diff(be) > 0),
                    lambda i: "counts must be >= 0 and binding energies strictly "
                              f"ascending, got {be[i]}, {iy[i]}"))
        if be.size < 16:
            raise DatasetError(f"need >= 16 samples, got {be.size}")


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
        if self.center_window <= 0:
            raise InvalidInputError("center_window must be > 0")
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
class KineticsPoints:
    """Oxide thickness +- sigma over time, one row per measurement, as float arrays:
    >= 6 rows, each with sigma > 0 and a finite weight 1/sigma, a finite chi2 term
    (thickness / sigma)^2, and a time above the previous row's (the first above 0)."""

    time: np.ndarray  # hours, strictly ascending
    thickness: np.ndarray  # nm
    sigma: np.ndarray  # nm

    def __post_init__(self):
        t, d, s = float_columns(self, ("time", "thickness", "sigma"))
        with np.errstate(all="ignore"):  # an overflow or a zero breaks a rule below
            check_rows(
                ((s > 0) & np.isfinite(1.0 / s),
                 lambda i: f"sigma_nm must be > 0 with a finite weight 1/sigma, got {s[i]}"),
                (np.isfinite((d / s) ** 2),
                 lambda i: f"thickness_nm {d[i]} over sigma_nm {s[i]} "
                           "overflows the weighted fit"),
                (t > np.append(0.0, t[:-1]),
                 lambda i: f"time_hours must be > 0 and strictly ascending, got {t[i]}"))
        if t.size < 6:
            raise DatasetError("need >= 6 (time, thickness) points")


@dataclass(frozen=True)
class KineticsFit:
    """Piecewise linear-then-logarithmic oxide growth model.

    d(t) = k_lin min(t, t_break) + log_b ln(max(t, t_break) / t_break): linear up
    to t_break, then log_a + log_b ln(t), log_a = k_lin t_break - log_b ln(t_break).
    d_sat is the model value at the latest measured time.  ``degenerate_log``
    flags a fit with no points past the breakpoint (purely linear data), whose
    ``thickness`` extrapolates the line.
    """

    k_lin: float  # nm / hour
    t_break: float  # hours
    log_a: float
    log_b: float
    d_sat: float  # nm
    degenerate_log: bool = False

    def thickness(self, t):
        t = np.asarray(t, dtype=float)
        if self.degenerate_log:
            return self.k_lin * t
        col_k, col_b = _growth_columns(t, self.t_break)
        return self.k_lin * col_k + self.log_b * col_b


def _growth_columns(t, t_break):
    """Columns (k, b) of the growth law d = k min(t, t_b) + b ln(max(t, t_b) / t_b)."""
    return np.minimum(t, t_break), np.log(np.maximum(t, t_break) / t_break)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a multicomponent fit."""

    components: tuple  # fitted PeakComponents incl. generated 1/2 partners
    params: np.ndarray  # fitted (center, fwhm, area) per template
    covariance: np.ndarray  # C, of params
    area_rows: dict  # template label -> row T, its total area T . params
    boundary_active: tuple  # labels of parameters pinned at a constraint


# ---------------------------------------------------------------------------
# lineshapes


def _lineshape(x, shape, center, fwhm, area):
    return _lineshape_grad(x, shape, center, fwhm, area)[0]


def _lineshape_grad(x, shape, center, fwhm, area):
    """The ``shape`` of ``area`` at x and its derivatives with respect to (center, fwhm,
    area), from each shape's common term, u^2 + (fwhm / 2)^2 or (u / fwhm)^2, u = x - center.

    The area derivative is the unit-area shape rather than value / area, so it stays
    defined for an area at its lower bound of 0.
    """
    u = x - center
    if shape == "lorentzian":
        gamma, u2 = fwhm / 2.0, u * u
        den = u2 + gamma ** 2
        unit = gamma / math.pi / den
        value = area * unit
        d_center = value * (2.0 * u / den)
        d_fwhm = area / (2.0 * math.pi) * (u2 - gamma ** 2) / (den * den)
    else:
        z = (u / fwhm) ** 2
        unit = (_GAUSS_NORM / fwhm) * np.exp(-4.0 * math.log(2.0) * z)
        value = area * unit
        d_center = value * u * (8.0 * math.log(2.0) / fwhm ** 2)
        d_fwhm = value * (8.0 * math.log(2.0) / fwhm * z - 1.0 / fwhm)
    return value, d_center, d_fwhm, unit


def _peaks(model):
    """(template index, label, center offset, area factor) of every peak: the
    doublet rule, a 1/2 partner of the same shape and fwhm per doublet."""
    for i, c in enumerate(model):
        yield i, c.label, 0.0, 1.0
        if c.doublet:
            yield i, c.label + "_1/2", DOUBLET_SPLITTING_EV, 1.0 / DOUBLET_AREA_RATIO


def _peak_model(x, model, p):
    """Sum of the ``model`` peaks at p = (center, fwhm, area) per template and its
    Jacobian in p, by one loop over the templates: one ``_lineshape_grad`` over the
    template's peaks, at the centre offsets and area factors ``_peaks`` gives, summed into
    its three columns (the area column each unit shape times its factor).  Only shape and
    doublet are read from the templates."""
    p = np.asarray(p, dtype=float).tolist()
    total, JT = np.zeros_like(x), np.empty((3 * len(model), x.size))
    for i, c in enumerate(model):
        # (k, 1) arrays over the template's k peaks
        offset, factor = np.array([peak[2:] for peak in _peaks([c])]).T[:, :, None]
        value, d_center, d_fwhm, unit = _lineshape_grad(
            x, c.shape, p[3 * i] + offset, p[3 * i + 1], p[3 * i + 2] * factor)
        total += value.sum(axis=0)
        JT[3 * i:3 * i + 3] = d_center.sum(0), d_fwhm.sum(0), (unit * factor).sum(0)
    return total, np.ascontiguousarray(JT.T)  # C order: the solver's rounding depends on it


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

    A missing column, a missing, non-numeric or non-finite cell, or a spectrum that
    ``XpsSpectrum`` rejects raise DatasetError naming the file (and the line of a
    rejected row).
    """
    return read_csv(path, ("binding_energy_eV", "counts"),
                    lambda be, counts: XpsSpectrum(be, counts,
                                                   metadata={"source_file": str(Path(path))}))


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
) -> tuple[XpsSpectrum, np.ndarray]:
    """Iterative Shirley background over [lo, hi] (binding energy, eV).

    Anchored to 3-sample endpoint averages; the background above the
    low-energy anchor at each point is proportional to the integrated
    signal-above-background on the high-kinetic-energy (lower binding
    energy) side.  Returns (window, background), the samples inside [lo, hi]
    as the spectrum ``fit_components`` takes and the background on them, once
    an iteration moves it by < 1e-6 max(|i_hi - i_lo|, |i_hi|, |i_lo|, 1);
    50 iterations that do not raise ConvergenceError.
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
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite: never converges
            new_bg = _shirley_step(y - bg, x, i_lo, i_hi)
            delta = float(np.max(np.abs(new_bg - bg)))
        bg = new_bg
        if delta < tolerance:
            return XpsSpectrum(x, y, metadata=dict(spectrum.metadata)), bg
    raise ConvergenceError("Shirley background did not converge", residual=delta)


def _shirley_step(signal, x, i_lo, i_hi):
    """Background rising from i_lo to i_hi in proportion to the running
    trapezoid integral of ``signal`` over x; flat at i_lo when the total <= 0."""
    cum = np.zeros_like(signal)
    cum[1:] = np.cumsum(0.5 * (signal[1:] + signal[:-1]) * np.diff(x))
    if cum[-1] <= 0:
        return np.full_like(signal, i_lo)
    return i_lo + (i_hi - i_lo) * cum / cum[-1]


# ---------------------------------------------------------------------------
# component fitting


def fit_components(
    spectrum: XpsSpectrum,
    background: np.ndarray,
    model: Sequence[PeakComponent],
) -> FitResult:
    """Constrained least squares of the background-subtracted spectrum.

    Fit parameters per template component: center (within its ``center_window``, clipped
    to the spectrum's energy range), fwhm (within ``FWHM_BOUNDS_EV``), area (>= 0);
    unusable ones are rejected by their template's index (``arg``).  Doublet 1/2
    partners are generated exactly (shared fwhm, +DOUBLET_SPLITTING_EV, half area),
    never fitted.  The sigmas are Poisson-like, sqrt(max(I, 1)).  ``_peak_model``
    evaluates the model straight from the parameter vector together with its analytic
    Jacobian, once per point.  The fit starts at the template centres and fwhms, clipped
    to their bounds; the model is linear in the areas, which start at their
    ``weighted_lstsq`` optimum there, clipped to >= 0, or where that system is
    degenerate at the template area if > 0, else at max(y) times the fwhm.  The
    covariance is rescaled by the reduced chi2; where that overflows, a
    DegenerateSystemError.
    """
    if not model:
        raise InvalidInputError("model needs >= 1 component")
    x, background = spectrum.binding_energy, np.asarray(background, dtype=float)
    if background.shape != x.shape:
        raise InvalidInputError("background length must match the spectrum")
    y = spectrum.intensity - background

    peak = max(float(np.max(y)), 0.0)
    p0, lower, upper, scale = [], [], [], []
    for c in model:
        # a typical area: the peak height times the fwhm the fit starts from
        area = peak * min(max(c.fwhm, FWHM_BOUNDS_EV[0]), FWHM_BOUNDS_EV[1])
        p0 += [c.center, c.fwhm, c.area if c.area > 0 else area]
        lower += [np.maximum(c.center - c.center_window, x[0]), FWHM_BOUNDS_EV[0], 0.0]
        upper += [np.minimum(c.center + c.center_window, x[-1]), FWHM_BOUNDS_EV[1], np.inf]
        scale += [upper[-3] - lower[-3], upper[-2] - lower[-2], area]
    p0 = np.clip(p0, lower, upper)
    usable = np.isfinite(p0) & np.less(lower, upper)
    if not usable.all():  # arg: the first template with an unusable parameter
        i = int(np.argmin(usable)) // 3
        raise InvalidInputError(f"{model[i].label}: start values and bounds must be finite "
                                f"and ordered (lower < upper) in [{x[0]:g}, {x[-1]:g}] eV", arg=i)
    sigma = np.sqrt(np.maximum(spectrum.intensity, 1.0))
    evaluate = partial(_peak_model, x, model)
    areas = slice(2, None, 3)
    try:  # the model is linear in the areas: start at their optimum for p0's shapes
        p0[areas] = np.maximum(weighted_lstsq(evaluate(p0)[1][:, areas], y, sigma)[0], 0.0)
    except DegenerateSystemError:  # e.g. two templates of one shape: the areas above
        pass
    res, cov = bounded_fit(least_squares, evaluate, y, sigma, p0, lower, upper,
                           "component fit")

    fitted = [
        replace(c, center=res.x[3 * i], fwhm=res.x[3 * i + 1], area=res.x[3 * i + 2])
        for i, c in enumerate(model)
    ]
    names = [f"{c.label}.{k}" for c in model for k in ("center", "fwhm", "area")]
    # the Poisson-like sigmas are not the true ones; rescale by reduced chi2
    dof = max(x.size - res.x.size, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        cov = cov * (2.0 * res.cost / dof)
    if not np.isfinite(cov).all():
        raise DegenerateSystemError("component fit: covariance rescaled by the reduced "
                                    "chi2 overflows")
    area_rows = {c.label: np.zeros(res.x.size) for c in model}
    for i, _, _, factor in _peaks(model):
        area_rows[model[i].label][3 * i + 2] += factor
    return FitResult(
        components=tuple(expand_doublets(fitted)),
        params=res.x,
        covariance=cov,
        area_rows=area_rows,
        # scales the start does not move: a typical area, a centre's or fwhm's bound span
        boundary_active=active_bounds(names, res.x, lower, upper, scale),
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
    return _uvalues(values, cov), cov.tolist()


# ---------------------------------------------------------------------------
# thickness and kinetics


def strohmeier_thickness(i_ox: UValue, i_m: UValue, constants: StrohmeierConstants,
                         covariance: Sequence[Sequence[float]] | None = None) -> UValue:
    """Overlayer thickness (nm) from the oxide/metal peak intensity ratio.

    d = lambda_ox sin(theta) ln( (N_m/N_ox)(I_ox/I_m)(lambda_m/lambda_ox) + 1 )
    ``covariance`` is that of (I_ox, I_m), as from ``summed_areas``; default independent.
    The metal intensity must be resolved: above 0 by more than its sigma.
    """
    if i_m.value <= i_m.sigma:
        raise DegenerateSystemError(
            f"metal intensity {i_m.value:g} +- {i_m.sigma:g} is not resolved above 0")
    if i_ox.value < 0:
        raise InvalidInputError("oxide intensity must be >= 0")
    k, pref = constants.coefficients()

    def f(ox, m):
        return k * np.log(pref * (ox / m) + 1.0)

    return propagate(f, [i_ox, i_m], covariance=covariance)


def invert_strohmeier(d: float, constants: StrohmeierConstants) -> float:
    """Intensity ratio I_ox/I_m that yields thickness ``d`` (test oracle)."""
    k, pref = constants.coefficients()
    return (math.exp(d / k) - 1.0) / pref


def fit_kinetics(points: KineticsPoints) -> KineticsFit:
    """Fit the piecewise linear/logarithmic oxide growth model to ``points``.

    The breakpoint is grid-searched over the measured time points; for each
    candidate tb, the ``KineticsFit`` law d = k min(t, tb) + b ln(max(t, tb)/tb)
    is a weighted linear least-squares problem in (k, b), in k alone at the last time.
    The first candidate of least chi2 wins.  The two-column candidates, those leaving
    >= 2 points per regime, are one stack of designs in one ``weighted_lstsq`` call, and
    the linear-only last one is a second call on its single column.
    """
    t, d, sig = points.time, points.thickness, points.sigma
    coef, _, chi2 = weighted_lstsq(np.stack(_growth_columns(t, t[1:-2, None]), axis=-1),
                                   d, sig)
    (line_k,), _, line_chi2 = weighted_lstsq(t, d, sig)
    candidates, coef = np.append(t[1:-2], t[-1]), np.vstack([coef, [line_k, 0.0]])
    best = int(np.argmin(np.append(chi2, line_chi2)))  # the first minimum
    tb, (k, b) = candidates[best], coef[best].tolist()
    log_a = k * tb - b * math.log(tb)
    fit = KineticsFit(
        k_lin=k,
        t_break=float(tb),
        log_a=float(log_a),
        log_b=float(b),
        d_sat=0.0,
        degenerate_log=bool(tb >= t[-1]),
    )
    d_sat = float(fit.thickness(t[-1]))
    return replace(fit, d_sat=d_sat)


# ---------------------------------------------------------------------------
# synthesis


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
    peaks = _peak_model(x, components, [v for c in components
                                        for v in (c.center, c.fwhm, c.area)])[0]
    kind = background_kind[0]
    if kind == "flat":
        bg = np.full_like(x, float(background_kind[1]))
    elif kind == "shirley":
        bg = _shirley_step(peaks, x, float(background_kind[1]), float(background_kind[2]))
    else:
        raise InvalidInputError(f"unknown background kind {kind!r}")
    y = peaks + bg
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        y = y + rng.normal(0.0, noise_sigma, x.size)
    y = np.maximum(y, 0.0)
    return XpsSpectrum(x, y, metadata={"synthetic": True, "seed": seed})
