"""Output checks for the qlb benchmark: central values only.

Closed-form quantities (budget tangents and fractions, qubit Q, the
three-way split, SPR slopes) are evaluated here from the generated inputs
and must match to ``REL``.  Fitted quantities (Q_TLS0, oxide thickness,
kinetics end point) are compared with the generator's truth within
tolerances sized from the fit scatter over many seeds.  A sigma is only
required to be finite and >= 0: correlated propagation may legitimately
change it.

Pure Python on purpose: the worker imports this module before its timed
set-up, so it must not pre-load numpy for the program.
"""

from __future__ import annotations

import math
from array import array

REL = 1e-6
FIT_TOLERANCES = {  # name -> (kind, tolerance)
    "tls.q_tls0": ("rel", 0.12),
    "xps.thickness_nm": ("abs", 0.4),
    "kinetics.d_last_nm": ("abs", 0.25),
}
STAGE_KEYS = {"tls_fit", "spr_fit", "budget", "qubit", "xps_fit", "kinetics"}
EPS0 = 8.8541878188e-12


def expected_budget(p: dict) -> dict:
    """Closed-form treatment system and budget fractions for input point ``p``."""
    t0 = p["t0"]
    r_ma, r_sa = p["r_ma"][0], p["r_sa"][0]
    tr = {k: {q: v[0] for q, v in d.items()} for k, d in p["treatments"].items()}
    hf, hf90, un = tr["hf"], tr["hf_90_days"], tr["untreated"]

    def alox_ms(a, b):
        alox = (b - a) * t0 / ((hf90["t_ox"] - hf["t_ox"]) * r_ma)
        return alox, a - alox * r_ma * hf["t_ox"] / t0

    alox, ms = alox_ms(hf["tan_delta"], hf90["tan_delta"])
    tu, tox, thc = un["tan_delta"], un["t_ox"], un["t_hc"]
    hc = (t0 / thc) / (r_ma + r_sa) * (tu - r_ma * (tox / t0) * alox - ms)
    raw = {"alox": r_ma * (tox / t0) * alox / tu * 100.0,
           "hydrocarbon": (r_ma + r_sa) * (thc / t0) * hc / tu * 100.0,
           "ms_sa": ms / tu * 100.0}
    renorm = 100.0 / sum(raw.values())
    out = {"budget.tan_alox": alox, "budget.tan_ms_sa": ms, "budget.tan_hc": hc}
    out.update({f"budget.fraction.{k}": v * renorm for k, v in raw.items()})
    alox1, ms1 = alox_ms(hf["tan_delta_n1"], hf90["tan_delta_n1"])
    out.update({"budget.n1.tan_alox": alox1, "budget.n1.tan_ms_sa": ms1})
    return out


def expected_qubit(p: dict) -> dict:
    """Closed-form qubit Q, surface split, junction and three-way budget."""
    pc, pms, pma, cs = p["p_capacitor"], p["p_ms_leads"], p["p_ma_leads"], p["c_shunt_fF"]
    out = {}
    for regime, ts in p["tangents"].items():
        cap = pc * ts["tan_capacitor"][0]
        leads = pma * ts["tan_alox_leads"][0] + pms * ts["tan_ms_leads"][0]
        out[f"qubit.{regime}.q"] = 1.0 / (cap + leads)
        out[f"qubit.{regime}.capacitor_pct"] = cap / (cap + leads) * 100.0
        out[f"qubit.{regime}.junction_leads_pct"] = leads / (cap + leads) * 100.0
    j = p["junction"]
    cj = (EPS0 * j["eps_r"] * j["width_nm"][0] * j["length_nm"][0]
          / j["barrier_thickness_nm"][0] * 1e-9 / 1e-15)
    qm = p["q_measured"][0]
    sp = p["tangents"]["single-photon"]
    cap = pc * sp["tan_capacitor"][0]
    leads = pma * sp["tan_alox_leads"][0] + pms * sp["tan_ms_leads"][0]
    tan_barrier = (1.0 / qm) * (cs + cj) / cj - (cs / cj) * (cap + leads)
    scaled = cj / (cs + cj) * tan_barrier
    cap_pct = cs / (cs + cj) * cap * qm * 100.0
    leads_pct = cs / (cs + cj) * leads * qm * 100.0
    out.update({
        "qubit.c_jj_fF": cj,
        "qubit.energy_fraction_pct": cj / (cj + cs) * 100.0,
        "qubit.tan_barrier": tan_barrier,
        "qubit.scaled_contribution": scaled,
        "qubit.limiting_q": 1.0 / scaled,
        "qubit.budget.capacitor": cap_pct,
        "qubit.budget.junction_leads": leads_pct,
        "qubit.budget.barrier": 100.0 - cap_pct - leads_pct,
    })
    return out


def expected_spr(rows: list) -> dict:
    """Weighted through-origin slope per treatment from the rows as written."""
    sums: dict[str, list[float]] = {}
    for label, p_ms, q, sq in rows:
        inv_q, w = 1.0 / q, (q * q / sq) ** 2  # sigma(1/Q) = sigma_Q / Q^2
        s = sums.setdefault(label, [0.0, 0.0])
        s[0] += w * p_ms * inv_q
        s[1] += w * p_ms * p_ms
    return {f"spr.{label}.tan_delta": sxy / sxx for label, (sxy, sxx) in sums.items()}


def expected_report(truth: dict) -> dict:
    """Every central value a full report is checked against."""
    out = {"tls.q_tls0": truth["tls_q_tls0"],
           "xps.thickness_nm": truth["xps_thickness_nm"],
           "kinetics.d_last_nm": truth["kinetics_d_last_nm"]}
    out.update(expected_spr(truth["spr_rows"]))
    out.update(expected_budget(truth["point"]))
    out.update(expected_qubit(truth["point"]))
    return out


def expected_sweep(p: dict) -> dict:
    """Every central value one ``budget-sweep`` operation is checked against."""
    out = {k: v for k, v in expected_budget(p).items() if ".n1." not in k}
    out.update(expected_qubit(p))
    return out


def report_values(report: dict) -> tuple[dict, list, list]:
    """(central values, sigmas, structural errors) of a parsed report.json."""
    errors = []
    if report.get("schema_version") != 1:
        errors.append(f"schema_version is {report.get('schema_version')!r}, not 1")
    st = report.get("stages", {})
    if set(st) != STAGE_KEYS or report.get("skipped"):
        errors.append(f"stages {sorted(st)}, skipped {report.get('skipped')}")
        return {}, [], errors
    vals, sigmas = {}, []

    def take(name, uv):
        vals[name] = uv["value"]
        sigmas.append((name, uv["sigma"]))

    take("tls.q_tls0", st["tls_fit"]["q_tls0"])
    take("xps.thickness_nm", st["xps_fit"]["oxide_thickness_nm"])
    vals["kinetics.d_last_nm"] = st["kinetics"]["d_sat_nm"]
    for label, entry in st["spr_fit"].items():
        take(f"spr.{label}.tan_delta", entry["tan_delta"])
    b = st["budget"]
    for k in ("tan_alox", "tan_ms_sa", "tan_hc"):
        take(f"budget.{k}", b[k])
    for k, uv in b["fractions_pct"].items():
        take(f"budget.fraction.{k}", uv)
    for k in ("tan_alox", "tan_ms_sa"):
        take(f"budget.n1.{k}", b["single_photon"][k])
    q = st["qubit"]
    for regime, r in q["regimes"].items():
        for k in ("q", "capacitor_pct", "junction_leads_pct"):
            take(f"qubit.{regime}.{k}", r[k])
    take("qubit.c_jj_fF", q["junction"]["c_jj_fF"])
    take("qubit.energy_fraction_pct", q["junction"]["energy_fraction_pct"])
    for k in ("tan_barrier", "scaled_contribution", "limiting_q"):
        take(f"qubit.{k}", q["barrier"][k])
    for k, uv in q["barrier"]["budget_pct"].items():
        take(f"qubit.budget.{k}", uv)
    return vals, sigmas, errors


def sweep_values(budget_result, q, fractions, c_jj, energy_fraction, barrier,
                 budget3) -> tuple[dict, list]:
    """(central values, sigmas) of one ``budget-sweep`` operation's results."""
    uvs = {"budget.tan_alox": budget_result.tan_alox,
           "budget.tan_ms_sa": budget_result.tan_ms_sa,
           "budget.tan_hc": budget_result.tan_hc,
           "qubit.c_jj_fF": c_jj,
           "qubit.energy_fraction_pct": energy_fraction.scaled(100.0),
           "qubit.tan_barrier": barrier.tan_barrier,
           "qubit.scaled_contribution": barrier.scaled_contribution,
           "qubit.limiting_q": barrier.limiting_q}
    uvs.update({f"budget.fraction.{k}": v for k, v in budget_result.fractions.items()})
    for regime in q:
        uvs[f"qubit.{regime}.q"] = q[regime]
        uvs[f"qubit.{regime}.capacitor_pct"] = fractions[regime][0]
        uvs[f"qubit.{regime}.junction_leads_pct"] = fractions[regime][1]
    uvs.update({f"qubit.budget.{k}": v for k, v in budget3.items()})
    return ({k: v.value for k, v in uvs.items()},
            [(k, v.sigma) for k, v in uvs.items()])


def compare(values: dict, sigmas: list, expected: dict) -> list[str]:
    """Differences between produced and expected central values, as messages."""
    errors = []
    for name, want in expected.items():
        got = values.get(name)
        if got is None or not math.isfinite(got):
            errors.append(f"{name}: missing or non-finite ({got!r})")
            continue
        kind, tol = FIT_TOLERANCES.get(name, ("rel", REL))
        scale = abs(want) if kind == "rel" else 1.0
        if "pct" in name or "fraction" in name or name.startswith("qubit.budget."):
            scale = max(scale, 1.0)  # percent shares: 1e-6 of a percent point
        elif name.startswith("budget."):
            scale = max(scale, 1e-6)  # tangents may sit near zero
        err = abs(got - want) / scale
        if err > tol:
            errors.append(f"{name}: got {got!r}, expected {want!r} ({kind} error {err:.3g})")
    for name, s in sigmas:
        if not (isinstance(s, (int, float)) and math.isfinite(s) and s >= 0):
            errors.append(f"{name}: sigma {s!r} is not finite and >= 0")
    return errors


def new_tally() -> dict:
    """Counts of one timed loop."""
    return {"latencies_s": array("d"), "busy_s": 0.0, "attempted": 0, "failed": 0,
            "errors": []}


def record(tally: dict, seconds: float, errors: list) -> None:
    """Count one operation: its time, and whether any check failed.

    Latencies are kept for successful operations only; a failed one keeps
    its first messages.
    """
    tally["attempted"] += 1
    tally["busy_s"] += seconds
    if errors:
        tally["failed"] += 1
        tally["errors"].extend(errors[: max(0, 5 - len(tally["errors"]))])
    else:
        tally["latencies_s"].append(seconds)
