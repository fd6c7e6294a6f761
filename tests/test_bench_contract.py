"""The benchmark's hooks and import layers still find what they trace in the package.

``benchmarks/tracer.py`` wraps module attributes by name, and ``benchmarks/run.py``
times the imports it names; a per-layer metric whose hook or module went away is
reported as missing, and such a run is malformed.  The lists are read from the
benchmark's own files, so a change to them is checked here unedited.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from qlb import pipeline

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def run_py_value(name: str):
    """The literal assigned to ``name`` at the top level of ``benchmarks/run.py``."""
    tree = ast.parse((BENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(name)


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_exists_and_fires_in_a_report(tmp_path):
    tracer = load_tracer()
    hooks = tracer.Tracer()
    hooks.install()
    try:
        config = pipeline.load_config(pipeline.paper_defaults_path())
        pipeline.emit(pipeline.run_report(config), tmp_path)
    finally:
        hooks.enable(False)
    spans = hooks.take()
    _, missing = tracer.summarize([tracer.op_layers(spans)], {s[0] for s in spans},
                                  hooks.installed, run_py_value("CALLED")["report-batch"])
    assert hooks.missing_hooks == []
    assert missing == []


def test_import_of_the_cli_loads_every_timed_module():
    modules = sorted(run_py_value("IMPORT_MODULES").values())
    code = ("import sys, qlb.cli; "
            f"print([m for m in {modules!r} if m not in sys.modules])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(BENCH.parent / "src"), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
