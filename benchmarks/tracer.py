"""Span tracing for the qlb benchmark, installed from outside the package.

Each hook replaces a function at the module attribute where its caller
looks the name up (``qlb.tls.fit_tls``, ``propagate`` as bound in
``qlb.budget``, ...), and records a span: name, start, end, parent span,
plus counts read at the boundary (``least_squares`` nfev/njev/status and
residual count, evaluations of the function given to ``propagate``).

A hook whose name no longer exists, or that never fires where the
workload calls the layer, is reported as missing, never as zero.
Pure Python on purpose, like ``checks``.
"""

from __future__ import annotations

import importlib
import time

STAGES = ("tls-fit", "spr-fit", "budget", "qubit", "xps-fit", "kinetics")
XPS_FUNCS = ("load_spectrum", "calibrate_energy", "shirley_background",
             "fit_components", "fit_kinetics", "strohmeier_thickness")
QUBIT_FUNCS = ("predict_inv_q", "predict_q", "surface_fractions", "junction_capacitance",
               "junction_energy_fraction", "solve_barrier_tangent", "three_way_budget")

# (module, attribute, span name); run_stage spans are named per stage
HOOKS = (
    [("qlb.pipeline", "load_config", "pipeline.load_config"),
     ("qlb.pipeline", "run_stage", "pipeline.stage"),
     ("qlb.pipeline", "emit", "pipeline.emit"),
     ("qlb.tls", "fit_tls", "tls.fit_tls"),
     ("qlb.tls", "least_squares", "tls.least_squares"),
     ("qlb.xps", "least_squares", "xps.least_squares"),
     ("qlb.spr", "fit_through_origin", "spr.fit_through_origin"),
     ("qlb.spr", "fit_with_intercept", "spr.fit_with_intercept"),
     ("qlb.budget", "solve_budget", "budget.solve_budget")]
    + [("qlb.xps", f, f"xps.{f}") for f in XPS_FUNCS]
    + [("qlb.qubit", f, f"qubit.{f}") for f in QUBIT_FUNCS]
    + [(m, "propagate", "uncert.propagate") for m in ("qlb.budget", "qlb.qubit", "qlb.xps")]
)


def _metric_sources() -> dict:
    """Per-layer metric name -> the span name whose hook produces it."""
    src = {"pipeline.load_config_ms": "pipeline.load_config",
           "pipeline.emit_ms": "pipeline.emit",
           "tls.fit_tls_ms": "tls.fit_tls",
           "spr.fit_through_origin_ms": "spr.fit_through_origin",
           "spr.fit_with_intercept_ms": "spr.fit_with_intercept",
           "budget.solve_budget_ms": "budget.solve_budget",
           "qubit.chain_ms": "qubit.",
           "uncert.propagate_calls": "uncert.propagate",
           "uncert.propagate_f_evals": "uncert.propagate",
           "uncert.propagate_ms": "uncert.propagate"}
    for s in STAGES:
        src[f"pipeline.stage.{s}_ms"] = src[f"pipeline.stage.{s}.self_ms"] = \
            f"pipeline.stage.{s}"
    for f in XPS_FUNCS:
        src[f"xps.{f}_ms"] = f"xps.{f}"
    for layer in ("tls", "xps"):
        for k in ("nfev", "njev", "residuals", "converged_ratio"):
            src[f"{layer}.{k}"] = f"{layer}.least_squares"
    return src


METRIC_SOURCES = _metric_sources()
COUNT_METRICS = {m for m in METRIC_SOURCES if not m.endswith("_ms")}


class Tracer:
    """Records spans as [name, start, end, parent index, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.installed: set[str] = set()
        self.missing_hooks: list[str] = []
        self._swaps: list[tuple] = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        tracer = self

        if name == "pipeline.stage":
            def wrapper(stage, *args, **kwargs):
                span = tracer._open(f"pipeline.stage.{stage}")
                try:
                    return fn(stage, *args, **kwargs)
                finally:
                    tracer._close(span)
        elif name == "uncert.propagate":
            def wrapper(f, *args, **kwargs):
                span = tracer._open(name)
                counts = span[4] = {"f_evals": 0}

                def counted(*a):
                    counts["f_evals"] += 1
                    return f(*a)
                try:
                    return fn(counted, *args, **kwargs)
                finally:
                    tracer._close(span)
        elif name.endswith(".least_squares"):
            def wrapper(*args, **kwargs):
                span = tracer._open(name)
                try:
                    res = fn(*args, **kwargs)
                finally:
                    tracer._close(span)
                span[4] = {"nfev": res.nfev, "njev": res.njev or 0,
                           "status": res.status, "residuals": len(res.fun)}
                return res
        else:
            def wrapper(*args, **kwargs):
                span = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(span)
        return wrapper

    def install(self) -> None:
        """Wrap every hook that exists; remember the ones that do not."""
        for module_name, attr, name in HOOKS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing_hooks.append(f"{module_name}.{attr}")
                continue
            self._swaps.append((module, attr, fn, self._wrap(fn, name)))
            self.installed.add(name)
        self.enable(True)

    def enable(self, on: bool) -> None:
        """Put the wrappers (or the original functions) in place."""
        for module, attr, original, wrapper in self._swaps:
            setattr(module, attr, wrapper if on else original)

    def take(self) -> list[list]:
        """Return and clear the spans recorded so far (one operation's)."""
        spans, self.spans = self.spans, []
        return spans


def op_layers(spans: list[list]) -> dict:
    """Per-layer totals of one operation's spans (sparse: layers that fired)."""
    out: dict[str, float] = {}
    child_ms = [0.0] * len(spans)
    names = [s[0] for s in spans]
    for i, (name, t0, t1, parent, counts) in enumerate(spans):
        ms = (t1 - t0) * 1e3
        if parent >= 0:
            child_ms[parent] += ms
        if name == "uncert.propagate":
            out["uncert.propagate_calls"] = out.get("uncert.propagate_calls", 0) + 1
            out["uncert.propagate_f_evals"] = (out.get("uncert.propagate_f_evals", 0)
                                               + counts["f_evals"])
            key = "uncert.propagate_ms"
        elif name.endswith(".least_squares"):
            if counts is None:  # the solver raised; the operation fails anyway
                continue
            layer = name.split(".")[0]
            for k in ("nfev", "njev", "residuals"):
                out[f"{layer}.{k}"] = out.get(f"{layer}.{k}", 0) + counts[k]
            out[f"{layer}.fits"] = out.get(f"{layer}.fits", 0) + 1
            out[f"{layer}.converged"] = (out.get(f"{layer}.converged", 0)
                                         + (counts["status"] > 0))
            continue
        elif name.startswith("qubit."):
            if parent >= 0 and names[parent].startswith("qubit."):
                continue
            key = "qubit.chain_ms"
        else:
            key = f"{name}_ms"
        out[key] = out.get(key, 0.0) + ms
    for i, name in enumerate(names):
        if name.startswith("pipeline.stage."):
            key = f"{name}.self_ms"
            out[key] = out.get(key, 0.0) + (spans[i][2] - spans[i][1]) * 1e3 - child_ms[i]
    return out


def _matches(source: str, names) -> bool:
    """Whether span ``source`` (a prefix when it ends in '.') is among ``names``."""
    if source.endswith("."):
        return any(n.startswith(source) for n in names)
    return source in names


def summarize(per_op: list[dict], fired: set, installed: set,
              called: tuple) -> tuple[dict, list]:
    """Per-layer metrics over a traced run, and the list of missing ones.

    Times are medians over operations, counts are means per operation;
    ``*.converged_ratio`` is converged fits over fits (1.0 when no fit ran).
    ``called`` holds the span-name prefixes of the layers the workload
    calls.  A metric is missing when its hook is not installed, or when
    the workload calls its layer but no span of it fired.  A layer the
    workload never calls reads 0 per operation.
    """
    import statistics  # here, not at the top: workers import this module early
    metrics, missing = {}, []
    for metric, source in METRIC_SOURCES.items():
        hook = "pipeline.stage" if source.startswith("pipeline.stage.") else source
        wanted = any(source.startswith(prefix) for prefix in called)
        if not _matches(hook, installed) or (wanted and not _matches(source, fired)):
            missing.append(metric)
        elif metric.endswith("converged_ratio"):
            layer = metric.split(".")[0]
            fits = sum(d.get(f"{layer}.fits", 0) for d in per_op)
            conv = sum(d.get(f"{layer}.converged", 0) for d in per_op)
            metrics[metric] = conv / fits if fits else 1.0
        else:
            values = [d.get(metric, 0.0) for d in per_op]
            metrics[metric] = (statistics.fmean(values) if metric in COUNT_METRICS
                               else statistics.median(values))
    return metrics, missing
