"""Command-line front end.

Subcommands:

* ``run <config>`` — execute the experiment described by a YAML config.
* ``summarize <dir>`` — aggregate an existing results.csv into summary
  statistics (written back as summary.csv and printed).

Every experiment kind, the figure grids (``configs/surfaces.yaml``) and the
finite-difference gradient check (``configs/verify.yaml``) included, runs
through ``run``.

Exit codes: 0 success, 1 a cell's worker ended with no result, 2 config
problems (an output file that cannot be written included), 3 runtime
numerical failure, 4 verification/invariant failure (a ``verify_gradients``
run with a finite-difference error, NaN included, not below its tolerance).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .files import OutputError
from .results import (
    ConfigError,
    NonFiniteGradientError,
    VerificationError,
    WorkerError,
    read_results_csv,
    summarize_rows,
    write_summary_csv,
)

EXIT_OK = 0
EXIT_WORKER = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="adaterm", description="Noise-robust optimizer experiment harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", type=Path)

    p_sum = sub.add_parser("summarize", help="summarize a results directory")
    p_sum.add_argument("directory", type=Path)
    return parser


def _cmd_run(args):
    # Here, so that ``summarize`` loads no numpy.
    from .harness import grid_paths, load_config, run_experiment

    cfg = load_config(args.config)
    count = run_experiment(cfg)
    if cfg.kind == "surfaces":
        print("surfaces: wrote " + ", ".join(map(str, grid_paths(cfg.output_dir, **cfg.args))))
    else:
        print(f"{cfg.kind}: wrote {count} result rows to {cfg.output_dir}")
    return EXIT_OK


def _cmd_summarize(args):
    path = args.directory / "results.csv"
    if not path.exists():
        raise ConfigError(f"No results.csv in {args.directory}")
    summary = summarize_rows(read_results_csv(path))
    write_summary_csv(summary, args.directory / "summary.csv")
    header = f"{'experiment':<24} {'optimizer':<14} {'metric':<20} {'step':>6} {'count':>5} {'mean':>12} {'std':>12} {'median':>12}"
    print(header)
    for rec in summary:
        print(
            f"{rec.experiment:<24} {rec.optimizer:<14} {rec.metric:<20} "
            f"{rec.step:>6} {rec.count:>5} {rec.mean:>12.5g} "
            f"{rec.std:>12.5g} {rec.median:>12.5g}"
        )
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = _cmd_run if args.command == "run" else _cmd_summarize
    try:
        return command(args)
    except (ConfigError, OutputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonFiniteGradientError, FloatingPointError, OverflowError,
            ZeroDivisionError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except WorkerError as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return EXIT_WORKER


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
