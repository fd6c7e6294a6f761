"""XPS round trip: synthesize a doublet spectrum, fit it, extract thickness.

A forward-model Al2p spectrum with a known oxide thickness is generated,
a Shirley background is estimated, the spin-orbit doublets are fitted,
and the Strohmeier formula turns the oxide/metal area ratio back into a
thickness.  Its 1-sigma comes from the fit covariance of the two summed
areas, correlation included.
"""

import numpy as np

from qlb.xps import (
    PeakComponent,
    StrohmeierConstants,
    XpsSpectrum,
    fit_components,
    invert_strohmeier,
    shirley_background,
    strohmeier_thickness,
    summed_areas,
    synthesize_spectrum,
)

consts = StrohmeierConstants()
target_nm = 2.69
ratio = invert_strohmeier(target_nm, consts)

i_metal = 1000.0
comps = [
    PeakComponent("Al0", "lorentzian", 72.6, 0.45,
                  area=i_metal * 2 / 3, doublet=True),
    PeakComponent("Al_oxide", "gaussian", 75.5, 1.7,
                  area=ratio * i_metal * 2 / 3, doublet=True, center_window=0.5),
]
clean = synthesize_spectrum(comps, background_kind=("shirley", 60.0, 220.0),
                            energy_lo=58.0, energy_hi=92.0)
rng = np.random.default_rng(1)
spec = XpsSpectrum(
    clean.binding_energy,
    np.maximum(clean.intensity * (1 + rng.normal(0, 0.01, clean.intensity.size)), 0),
)

windowed, bg = shirley_background(spec, 66.0, 84.0)
result = fit_components(windowed, bg, comps)

(i_ox, i_m), area_cov = summed_areas(result, ["Al_oxide"], ["Al0"])
d = strohmeier_thickness(i_ox, i_m, consts, area_cov)
print(f"target thickness    = {target_nm:.3f} nm")
print(f"recovered thickness = {d.value:.3f} +- {d.sigma:.3f} nm "
      f"({100 * (d.value / target_nm - 1):+.2f}%)")
