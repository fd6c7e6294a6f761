"""Command-line driver for the analysis stages.

Commands run single stages (``tls-fit``, ``spr-fit``, ``budget``,
``qubit``, ``xps-fit``, ``kinetics``) or the full pipeline (``report``).
Exit codes: 0 success, 2 configuration error, 3 dataset error,
4 convergence error, 5 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import pipeline
from .errors import QlbError, StageNotConfigured

EXIT_IO_ERROR = 5


def build_parser() -> argparse.ArgumentParser:
    """One parser: the command is a positional, so the flags go before or after it."""
    parser = argparse.ArgumentParser(
        prog="qlb",
        description="Surface loss budgeting for superconducting resonators and qubits",
    )
    parser.add_argument("command", choices=(*pipeline.STAGES, "report"),
                        help="run one stage, or every configured stage (report)")
    parser.add_argument(
        "--config",
        default=os.environ.get("QLB_CONFIG"),
        help="analysis config file (or set QLB_CONFIG); "
             "defaults to the bundled paper-defaults config",
    )
    parser.add_argument("--out", default="qlb-out", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="random seed (provenance)")
    parser.add_argument("--format", choices=("json", "plot-csv"), default="json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config_path = args.config or pipeline.paper_defaults_path()
    try:
        config = pipeline.load_config(config_path)
        if args.command == "report":
            report = pipeline.run_report(config, seed=args.seed)
        else:
            report = pipeline.run_report(config, stages=(args.command,),
                                          seed=args.seed)
            if report["skipped"]:  # a single requested stage must actually run
                raise StageNotConfigured(report["skipped"][0]["reason"])
        written = pipeline.emit(report, args.out, fmt=args.format)
        if args.format == "plot-csv":
            # always keep the JSON alongside the plot tables
            written += pipeline.emit(report, args.out, fmt="json")
    except QlbError as exc:
        category = type(exc).__name__
        print(f"error [{category}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR

    for w in report["warnings"]:
        print(f"warning: {w}", file=sys.stderr)
    summary = {
        "stages": sorted(report["stages"].keys()),
        "skipped": [s["stage"] for s in report["skipped"]],
        "outputs": [str(p) for p in written],
    }
    print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
