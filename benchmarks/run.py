"""qlb benchmark: seeded workloads, end-to-end metrics, and a traced run.

Run from the repository root:

    python3 benchmarks/run.py --workload report-batch --seed 1 --seconds 20 --trace 0

Workloads (all closed loops: one client, one operation at a time):

- ``cli-cold``: every operation is a fresh ``python -m qlb.cli ... report``
  on one bundled-shaped dataset set, so interpreter start, imports, config
  and all six stages are paid on each call, as a shell user pays them.
- ``report-batch``: one process imports qlb once, then runs
  ``load_config`` + ``run_report`` + ``emit`` over a ring of 48 dataset
  directories of varied TLS-grid and XPS-scan sizes: the scripted user
  re-analysing many chips, where the two nonlinear fits dominate.
- ``budget-sweep``: one process runs a seeded sensitivity scan through
  ``solve_budget`` and the qubit chain, bypassing scipy.optimize; it is
  where uncertainty propagation is most of the work.  Run it by hand: it
  is not listed in BENCHMARK.json, because its ~0.2 ms operations swing
  between two speeds with host contention and its medians did not settle
  within the bounds (see README.md).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (import breakdown and spans around each module's entry points)
plus the tracing overhead.  Every output is checked (see ``checks.py``);
the last stdout line is one JSON object, and the exit code is 1 if any
check failed.  Inputs are written under ``.bench_work/`` and removed at
the end, except the traced run's spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import gen
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = str(HERE / "worker.py")
WORKLOADS = ("cli-cold", "report-batch", "budget-sweep")
# span-name prefixes of the layers each workload calls ("" = every layer)
CALLED = {"cli-cold": ("",), "report-batch": ("",),
          "budget-sweep": ("budget.solve_budget", "qubit.", "uncert.propagate")}
SETUP_RUNS = 5  # set-up samples per run; the median is reported
IMPORTTIME_RUNS = 3
BATCH_RING = 48  # 2 temperature counts x 3 XPS steps x 8 photon-number counts
SWEEP_RING = 256
# p99.9 and above are left out: for sub-millisecond operations on a shared
# host they measure interrupts, and their run-to-run spread exceeds any bound
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)
OP_TIMEOUT_S = 120.0
IMPORT_MODULES = {"import.numpy_ms": "numpy", "import.scipy_optimize_ms": "scipy.optimize",
                  "import.scipy_constants_ms": "scipy.constants", "import.yaml_ms": "yaml"}


class BenchError(Exception):
    """The program could not be set up or run at all."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)  # as tier-1 runs it
    return env


def run_child(argv: list, log: Path, timeout: float) -> tuple[int, float, int]:
    """Run one child to completion: (exit code, wall seconds, peak RSS in KiB)."""
    with open(log, "ab") as fh:
        t = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=fh, stderr=fh)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss


def run_worker(mode: str, request: Path, result: Path, timeout: float) -> tuple[dict, int]:
    rc, _, maxrss = run_child([sys.executable, WORKER, mode, str(request), str(result)],
                              request.parent / "worker.log", timeout)
    if rc != 0 or not result.is_file():
        log = (request.parent / "worker.log").read_text(errors="replace")[-2000:]
        raise BenchError(f"worker {mode} exited {rc}:\n{log}")
    return json.loads(result.read_text()), maxrss


# ---------------------------------------------------------------------------
# inputs


def make_inputs(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs; return the worker request."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    base = gen.write_dataset(rng, work / "base", 4, 13, 0.05, qp_row=True)
    req = {"workload": workload, "setup_config": str(work / "base" / "config.yaml")}
    if workload == "cli-cold":
        req["expected"] = checks.expected_report(base)
        req["cli_argv"] = ["--config", req["setup_config"], "--out",
                           str(work / "warm-out"), "report"]
        req["sizes"] = base["sizes"]
    elif workload == "report-batch":
        req["ring"], sizes = [], []
        photon_counts = (9, 11, 13, 15, 18, 20, 22, 24)
        for i in range(BATCH_RING):
            d = work / f"chip-{i:02d}"
            truth = gen.write_dataset(rng, d, 4 + i % 2, photon_counts[i // 6 % 8],
                                      (0.02, 0.05, 0.1)[i % 3])
            sizes.append(truth["sizes"])
            req["ring"].append({"config": str(d / "config.yaml"), "out": str(d / "out"),
                                "expected": checks.expected_report(truth)})
        fitted = [s["tls_points_fitted"] for s in sizes]
        req["sizes"] = {
            "ring": BATCH_RING,
            "tls_points_fitted": {"min": min(fitted), "max": max(fitted),
                                  "mean": statistics.fmean(fitted)},
            "xps_samples_in_window": sorted({s["xps_samples_in_window"] for s in sizes}),
        }
    else:
        points = [gen.draw_point(rng) for _ in range(SWEEP_RING)]
        req["ring"] = [{"point": p, "expected": checks.expected_sweep(p)} for p in points]
        req["sizes"] = {"scan_points": SWEEP_RING}
    return req


# ---------------------------------------------------------------------------
# measurement


def cli_loop(req: dict, work: Path, seconds: float, traced: bool) -> dict:
    """cli-cold: a fresh interpreter per operation, timed from spawn to exit.

    With ``traced``, every other operation runs under the benchmark's
    hooks (``worker.py cli``); the tallies are keyed "traced"/"untraced".
    """
    tallies = {False: checks.new_tally(), True: checks.new_tally()}
    peak_kb = 0
    per_op, fired, installed, missing_hooks, spans_out = [], set(), set(), set(), []
    spans_file = work / "cli-spans.json"
    i = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        hooked = traced and i % 2 == 1
        out = work / f"out-{i}"
        args = ["--config", req["setup_config"], "--out", str(out), "report"]
        argv = ([sys.executable, WORKER, "cli", str(spans_file)] if hooked
                else [sys.executable, "-m", "qlb.cli"]) + args
        rc, dt, maxrss = run_child(argv, work / "cli.log", OP_TIMEOUT_S)
        errs = [f"exit code {rc}"] if rc != 0 else []
        if not errs:
            try:
                values, sigmas, errs = checks.report_values(
                    json.loads((out / "report.json").read_text()))
                errs += checks.compare(values, sigmas, req["expected"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                errs = [f"report.json: {type(exc).__name__}: {exc}"]
        if hooked and not errs:
            trace = json.loads(spans_file.read_text())
            if not per_op:
                spans_out = [[0] + s for s in trace["spans"]]
            per_op.append(trace["layers"])
            fired.update(trace["fired"])
            installed.update(trace["installed"])
            missing_hooks.update(trace["missing_hooks"])
        shutil.rmtree(out, ignore_errors=True)
        i += 1
        peak_kb = max(peak_kb, maxrss)
        checks.record(tallies[hooked], dt, errs)
    if not traced:
        return dict(tallies[False], peak_rss_kb=peak_kb)
    tallies[True].update(per_op=per_op, fired=sorted(fired), installed=sorted(installed),
                         missing_hooks=sorted(missing_hooks), spans=spans_out)
    return {"untraced": tallies[False], "traced": tallies[True]}


def latency_summary(latencies_s: list) -> dict:
    """Median and the highest ladder percentile with >= 10 samples beyond it."""
    ordered = sorted(latencies_s)
    n = len(ordered)
    if n == 0:
        return {}
    fits = [q for q in TAIL_LADDER if n * (1.0 - q / 100.0) >= 10.0]
    q = max(fits) if fits else 50.0

    def rank(pct):  # nearest-rank index
        return max(0, math.ceil(pct / 100.0 * n) - 1)

    return {"p50_ms": ordered[rank(50.0)] * 1e3, "tail_ms": ordered[rank(q)] * 1e3,
            "tail_percentile": q, "samples": n, "beyond_tail": n - rank(q) - 1}


def ops_per_s(loop: dict) -> float:
    """Correct operations per second of time spent inside the operations."""
    return (loop["attempted"] - loop["failed"]) / loop["busy_s"] if loop["busy_s"] else 0.0


def import_times(work: Path) -> tuple[dict, list]:
    """Cumulative import times from ``-X importtime`` (median of runs)."""
    samples: dict[str, list] = {}
    for k in range(IMPORTTIME_RUNS):
        log = work / f"importtime-{k}.log"
        rc, _, _ = run_child([sys.executable, "-X", "importtime", "-c", "import qlb.cli"],
                             log, OP_TIMEOUT_S)
        if rc != 0:
            raise BenchError(f"import qlb.cli exited {rc}")
        found = {"import.qlb_ms": 0.0}
        for line in log.read_text().splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            raw = parts[2][1:]
            name, depth = raw.strip(), len(raw) - len(raw.lstrip())
            ms = int(parts[1]) / 1e3
            if depth == 0 and (name == "qlb" or name.startswith("qlb.")):
                found["import.qlb_ms"] += ms  # qlb, then qlb.cli (pipeline, yaml)
            for metric, module in IMPORT_MODULES.items():
                if name == module:
                    found[metric] = ms
        for metric, ms in found.items():
            samples.setdefault(metric, []).append(ms)
    metrics = {m: statistics.median(v) for m, v in samples.items()
               if len(v) == IMPORTTIME_RUNS and v[0] > 0}
    missing = [m for m in ["import.qlb_ms", *IMPORT_MODULES] if m not in metrics]
    return metrics, missing


def measure(workload: str, seconds: float, trace: bool, work: Path, req: dict):
    """Run the workload; return (metrics, units, attempted, failed, details)."""
    request, result = work / "request.json", work / "result.json"
    req = dict(req, seconds=seconds, trace=int(trace))
    request.write_text(json.dumps(req))
    # discarded first set-up: compiles bytecode and fills the page cache,
    # which an installed package has already done
    warm, _ = run_worker("setup", request, result, OP_TIMEOUT_S)
    details = {"context": warm["context"]}

    if trace:
        metrics, missing = import_times(work)
        if workload == "cli-cold":
            loops = cli_loop(req, work, seconds, True)
        else:
            loops, _ = run_worker("loop", request, result, seconds + OP_TIMEOUT_S)
        untraced, traced = loops["untraced"], loops["traced"]
        layers, absent = tracer.summarize(traced["per_op"], set(traced["fired"]),
                                          set(traced["installed"]), CALLED[workload])
        metrics.update(layers)
        if ops_per_s(untraced) and ops_per_s(traced):
            metrics["trace.untraced_ops_per_s"] = ops_per_s(untraced)
            metrics["trace.ops_per_s"] = ops_per_s(traced)
            metrics["trace.overhead_pct"] = (ops_per_s(untraced) / ops_per_s(traced) - 1) * 100
        else:  # too short a run to alternate, or every operation failed
            missing += ["trace.untraced_ops_per_s", "trace.ops_per_s", "trace.overhead_pct"]
        units = {m: unit_of(m) for m in metrics}
        spans_path = ROOT / ".bench_work" / f"spans-{work.name}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["op", "name", "start_s", "end_s", "parent"], "spans": traced["spans"]}))
        details.update(
            missing=missing + absent, missing_hooks=traced["missing_hooks"],
            spans_file=str(spans_path.relative_to(ROOT)),
            not_called=sorted(m for m, src in tracer.METRIC_SOURCES.items()
                              if not any(src.startswith(p) for p in CALLED[workload])),
            errors=(untraced["errors"] + traced["errors"])[:5])
        return (metrics, units, untraced["attempted"] + traced["attempted"],
                untraced["failed"] + traced["failed"], details)

    setup_s = []
    probes = SETUP_RUNS if workload == "cli-cold" else SETUP_RUNS - 1
    for _ in range(probes):
        res, _ = run_worker("setup", request, result, OP_TIMEOUT_S)
        setup_s.append(res["setup_s"])
    if workload == "cli-cold":
        loop = cli_loop(req, work, seconds, False)
        peak_kb = loop["peak_rss_kb"]  # the largest of the CLI children
    else:
        res, peak_kb = run_worker("loop", request, result, seconds + OP_TIMEOUT_S)
        setup_s.append(res["setup_s"])
        loop = res["loop"]
    lat = latency_summary(loop["latencies_s"])
    metrics = {"ops_per_s": ops_per_s(loop),
               "latency_ms.p50": lat.get("p50_ms"),  # None when every operation failed
               "latency_ms.tail": lat.get("tail_ms"),
               "setup_s": statistics.median(setup_s),
               "peak_rss_mb": peak_kb / 1024.0}
    metrics = {m: v for m, v in metrics.items() if v is not None}
    units = {"ops_per_s": "1/s", "latency_ms.p50": "ms", "latency_ms.tail": "ms",
             "setup_s": "s", "peak_rss_mb": "MiB"}
    details.update(tail={k: v for k, v in lat.items() if not k.endswith("_ms")},
                   setup_samples_s=setup_s,
                   fail_ratio=loop["failed"] / max(loop["attempted"], 1),
                   errors=loop["errors"])
    return metrics, units, loop["attempted"], loop["failed"], details


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("ops_per_s"):
        return "1/s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qlb" / "__init__.py").is_file():
        print(f"error: no qlb sources under {ROOT / 'src'}; run from a qlb checkout",
              file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        req = make_inputs(args.workload, args.seed, work)
        metrics, units, attempted, failed, details = measure(
            args.workload, args.seconds, bool(args.trace), work, req)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "sizes": req["sizes"], **details}
    print(json.dumps(details, indent=1, sort_keys=True))
    if not args.trace:
        print(f"fail_ratio: {details['fail_ratio']} ratio "
              f"({failed} of {attempted} operations failed)")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
