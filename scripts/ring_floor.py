"""Per-chip floors of two qlb source trees on the ``report-batch`` rings.

    python scripts/ring_floor.py PARENT CHANGE

Builds the seed-1 and seed-11 ``report-batch`` rings with PARENT's
``benchmarks/run.make_inputs``.  Per ring, 3 rounds each run one child process per tree,
with that tree's ``src`` on its path, alternating which tree goes first; a child makes 6
passes over the ring, one ``load_config`` + ``run_report`` + ``emit`` per chip.  Prints,
per tree and round, the mean over chips of each chip's fastest pass (ms) for the whole
operation, each ``run_stage``, ``load_config`` and ``emit``, and whether every chip's
TLS and XPS nfev/njev, counted by wrapping ``least_squares`` as bound in ``qlb.tls`` and
``qlb.xps``, are the same in every child.  Exits 1 where they differ.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = (1, 11)
ROUNDS = 3
PASSES = 6
CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import ring_floor; " \
        "ring_floor.child(*sys.argv[2:])"


def child(ring: str, out: str) -> None:
    """``PASSES`` passes over the chips of ``ring``, a JSON list of {config, out}; writes
    to ``out`` {"passes": per pass, per chip {part: ms}, "solves": per chip its
    [module, nfev, njev] per ``least_squares`` call of the first pass}."""
    from qlb import pipeline, tls, xps

    op = {}
    run_stage = pipeline.run_stage

    def timed_stage(stage, *args, **kwargs):
        start = time.perf_counter()
        try:
            return run_stage(stage, *args, **kwargs)
        finally:
            op[f"stage.{stage}"] = (time.perf_counter() - start) * 1e3

    def counted(module):
        solve = module.least_squares

        def wrapper(*args, **kwargs):
            res = solve(*args, **kwargs)
            op.setdefault("solves", []).append([module.__name__, res.nfev, res.njev])
            return res
        return wrapper

    pipeline.run_stage = timed_stage
    tls.least_squares, xps.least_squares = counted(tls), counted(xps)
    chips = json.loads(Path(ring).read_text())
    passes, solves = [], []
    for n in range(PASSES):
        passes.append([])
        for chip in chips:
            op.clear()
            t0 = time.perf_counter()
            config = pipeline.load_config(chip["config"])
            t1 = time.perf_counter()
            report = pipeline.run_report(config)
            t2 = time.perf_counter()
            pipeline.emit(report, chip["out"])
            t3 = time.perf_counter()
            chip_solves = op.pop("solves", [])
            if n == 0:
                solves.append(chip_solves)
            passes[-1].append({"operation": (t3 - t0) * 1e3, "load_config": (t1 - t0) * 1e3,
                               **op, "emit": (t3 - t2) * 1e3})
    Path(out).write_text(json.dumps({"passes": passes, "solves": solves}))


def floor(passes: list) -> dict:
    """{part: mean over chips of the chip's fastest pass}, parts in first-chip order."""
    return {part: statistics.fmean(min(chip[part] for chip in chips)
                                   for chips in zip(*passes))
            for part in passes[0][0]}


def evaluations(solves: list) -> dict:
    """{module: (mean nfev, mean njev) per chip} of one child's ``solves``."""
    per_chip = {}
    for chip in solves:
        for module, nfev, njev in chip:
            per_chip.setdefault(module, []).append((nfev, njev))
    return {module: tuple(sum(c) / len(solves) for c in zip(*counts))
            for module, counts in per_chip.items()}


def run_ring(trees: tuple, make_inputs, seed: int, tmp: Path) -> bool:
    """Every round on ``seed``'s ring, as ``make_inputs`` writes it; prints its table and
    returns whether the per-chip nfev/njev are the same in every child."""
    req = make_inputs("report-batch", seed, tmp / f"seed-{seed}")
    ring = tmp / f"ring-{seed}.json"
    ring.write_text(json.dumps([{"config": c["config"], "out": c["out"]} for c in req["ring"]]))
    floors, solves = ([[] for _ in trees] for _ in range(2))
    for r in range(ROUNDS):
        for k in (0, 1) if r % 2 == 0 else (1, 0):
            out = tmp / f"out-{seed}-{r}-{k}.json"
            subprocess.run([sys.executable, "-c", CHILD, str(HERE), str(ring), str(out)],
                           env={**os.environ, "PYTHONPATH": str(trees[k] / "src"),
                                "PYTHONDONTWRITEBYTECODE": "1"}, check=True)
            result = json.loads(out.read_text())
            floors[k].append(floor(result["passes"]))
            solves[k].append(result["solves"])
    print(f"seed-{seed} ring, {len(req['ring'])} chips: mean over chips of the fastest of "
          f"{PASSES} passes (ms), rounds 1-{ROUNDS}")
    for tree, rounds in zip(trees, floors):
        print(f"  {tree}")
        for part in rounds[0]:
            print(f"    {part:<20}" + "".join(f"{f[part]:9.3f}" for f in rounds))
    same = all(s == solves[0][0] for s in solves[0] + solves[1])
    counts = ", ".join(f"{module} nfev {nfev:.2f} njev {njev:.2f}"
                       for module, (nfev, njev) in evaluations(solves[0][0]).items())
    print(f"  per-chip nfev/njev {'identical' if same else 'DIFFER'} in every child "
          f"(per chip, {trees[0].name}: {counts})")
    return same


def main(parent: str, change: str) -> int:
    trees = (Path(parent).resolve(), Path(change).resolve())
    sys.dont_write_bytecode = True  # the benchmark modules are imported read-only
    sys.path.insert(0, str(trees[0] / "benchmarks"))
    import run
    with tempfile.TemporaryDirectory() as tmp:
        same = [run_ring(trees, run.make_inputs, seed, Path(tmp)) for seed in SEEDS]
    return int(not all(same))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
