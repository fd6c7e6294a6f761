"""Child process of the qlb benchmark: the process that runs the program.

Started by ``run.py`` with ``PYTHONPATH=src``:

    python benchmarks/worker.py setup REQUEST RESULT   time set-up only
    python benchmarks/worker.py loop REQUEST RESULT    set-up, then the timed loop
    python benchmarks/worker.py cli RESULT ARGV...     one traced ``qlb.cli.main``

Set-up is timed from the first line of this file: ``import qlb``, the
first ``load_config``, then one warm-up operation.  The benchmark's own
modules (``checks``, ``tracer``) are pure Python, so importing them first
pre-loads nothing the program would import.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")
KEEP_SPANS_OPS = 20  # operations whose raw spans are written out


def context() -> dict:
    """Versions and settings the numbers depend on."""
    import platform

    import numpy
    import scipy
    import yaml

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "yaml_with_libyaml": bool(yaml.__with_libyaml__),
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in BLAS_ENV},
        "qlb_import": f"PYTHONPATH={os.environ.get('PYTHONPATH', '')}",
    }


# ---------------------------------------------------------------------------
# operations (modules are bound by ``set_up``; looked up per call so that
# tracing hooks installed later are seen)

qlb = None


def report_op(entry):
    """report-batch: load one config, run every stage, write report.json."""
    config = qlb.pipeline.load_config(entry["config"])
    report = qlb.pipeline.run_report(config)
    qlb.pipeline.emit(report, entry["out"])


def sweep_op(entry):
    """budget-sweep: one sensitivity-scan point through the budget and qubit chain."""
    p = entry["point"]
    budget, qubit = qlb.budget, qlb.qubit

    def u(pair):
        return qlb.uncert.UValue(pair[0], pair[1])

    tr = p["treatments"]
    cfg = budget.ParticipationConfig(r_ma=u(p["r_ma"]), r_sa=u(p["r_sa"]), t0=p["t0"])
    result = budget.solve_budget(
        u(tr["hf"]["tan_delta"]), u(tr["hf_90_days"]["tan_delta"]),
        u(tr["untreated"]["tan_delta"]), u(tr["hf"]["t_ox"]),
        u(tr["hf_90_days"]["t_ox"]), u(tr["untreated"]["t_ox"]),
        u(tr["untreated"]["t_hc"]), cfg)
    j = p["junction"]
    junction = qubit.JunctionDims(u(j["width_nm"]), u(j["length_nm"]),
                                  u(j["barrier_thickness_nm"]), j["eps_r"])
    geom = qubit.QubitGeometry(p["p_capacitor"], p["p_ms_leads"], p["p_ma_leads"],
                               p["c_shunt_fF"], junction)
    sets = {r: qubit.TangentSet(u(t["tan_capacitor"]), u(t["tan_alox_leads"]),
                                u(t["tan_ms_leads"]), regime=r)
            for r, t in p["tangents"].items()}
    q = {r: qubit.predict_q(geom, ts) for r, ts in sets.items()}
    fractions = {r: qubit.surface_fractions(geom, ts) for r, ts in sets.items()}
    c_jj = qubit.junction_capacitance(junction)
    energy = qubit.junction_energy_fraction(c_jj, geom.c_shunt)
    sp, q_measured = sets["single-photon"], u(p["q_measured"])
    barrier = qubit.solve_barrier_tangent(q_measured, qubit.predict_inv_q(geom, sp),
                                          c_jj, geom.c_shunt)
    budget3 = qubit.three_way_budget(geom, sp, q_measured, c_jj)
    return result, q, fractions, c_jj, energy, barrier, budget3


def check_report(entry, _out) -> list:
    with open(os.path.join(entry["out"], "report.json")) as fh:
        values, sigmas, errors = checks.report_values(json.load(fh))
    return errors + checks.compare(values, sigmas, entry["expected"])


def check_sweep(entry, out) -> list:
    values, sigmas = checks.sweep_values(*out)
    return checks.compare(values, sigmas, entry["expected"])


OPS = {"report-batch": (report_op, check_report), "budget-sweep": (sweep_op, check_sweep)}


def set_up(req: dict) -> float:
    """Import, first ``load_config``, one warm-up operation; seconds since start."""
    global qlb
    import qlb.pipeline

    config = qlb.pipeline.load_config(req["setup_config"])
    if req["workload"] == "cli-cold":
        import qlb.cli

        rc = qlb.cli.main(req["cli_argv"])
        if rc != 0:
            raise RuntimeError(f"warm-up qlb report exited {rc}")
    elif req["workload"] == "report-batch":
        qlb.pipeline.emit(qlb.pipeline.run_report(config), req["ring"][0]["out"])
    else:
        sweep_op(req["ring"][0])
    return time.perf_counter() - T0


def timed_loop(req: dict, seconds: float, hooks=None) -> dict:
    """Closed loop over the ring: next operation only after the last one ends.

    With ``hooks``, tracing is on for every other pass over the ring, so
    traced and untraced operations see the same inputs over the same
    stretch of time; the tallies are keyed "traced" and "untraced".
    """
    op, check = OPS[req["workload"]]
    ring = req["ring"]
    tallies = {False: checks.new_tally(), True: checks.new_tally()}
    per_op, fired, spans_out = [], set(), []
    i = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        entry = ring[i % len(ring)]
        traced = hooks is not None and i // len(ring) % 2 == 1
        if hooks is not None and i % len(ring) == 0:
            hooks.enable(traced)
        t = time.perf_counter()
        try:
            out = op(entry)
            dt = time.perf_counter() - t
            errs = check(entry, out)
        except Exception as exc:  # any raise is a failed operation
            dt = time.perf_counter() - t
            errs = [f"{type(exc).__name__}: {exc}"]
        if traced:
            spans = hooks.take()
            if len(per_op) < KEEP_SPANS_OPS:
                spans_out.extend([len(per_op)] + s[:4] for s in spans)
            per_op.append(tracing.op_layers(spans))
            fired.update(s[0] for s in spans)
        i += 1
        checks.record(tallies[traced], dt, errs)
    for tally in tallies.values():
        tally["latencies_s"] = tally["latencies_s"].tolist()
    if hooks is None:
        return tallies[False]
    tallies[True].update(per_op=per_op, fired=sorted(fired), spans=spans_out,
                         installed=sorted(hooks.installed),
                         missing_hooks=hooks.missing_hooks)
    return {"untraced": tallies[False], "traced": tallies[True]}


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "cli":
        return traced_cli(argv[1], argv[2:])
    with open(argv[1]) as fh:
        req = json.load(fh)
    result = {"setup_s": set_up(req)}
    result["context"] = context()
    if mode == "loop":
        if req["trace"]:
            hooks = tracing.Tracer()
            hooks.install()
            result.update(timed_loop(req, req["seconds"], hooks))
        else:
            result["loop"] = timed_loop(req, req["seconds"])
    with open(argv[2], "w") as fh:
        json.dump(result, fh)
    return 0


def traced_cli(result_path: str, cli_argv: list) -> int:
    """One ``qlb report`` with the benchmark's hooks installed in this process."""
    import qlb.cli

    hooks = tracing.Tracer()
    hooks.install()
    rc = qlb.cli.main(cli_argv)
    spans = hooks.take()
    with open(result_path, "w") as fh:
        json.dump({"rc": rc, "layers": tracing.op_layers(spans),
                   "fired": sorted({s[0] for s in spans}),
                   "installed": sorted(hooks.installed),
                   "missing_hooks": hooks.missing_hooks,
                   "spans": [s[:4] for s in spans]}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
