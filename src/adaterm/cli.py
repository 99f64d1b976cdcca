"""Command-line front end.

Subcommands:

* ``run <config>`` — execute the experiment described by a YAML config.
* ``summarize <dir>`` — aggregate an existing results.csv into summary
  statistics (written back as summary.csv and printed).
* ``surface <kind> [--out FILE]`` — emit one figure grid as CSV.
* ``verify-gradients [--points N] [--tolerance T] [--seed S]`` — check the
  density gradients against finite differences.

Exit codes: 0 success, 1 a cell's worker ended with no result, 2 config
problems (an output file that cannot be written included), 3 runtime
numerical failure, 4 verification/invariant failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .files import OutputError
from .harness import (
    ConfigError,
    VerificationError,
    WorkerError,
    grid_paths,
    load_config,
    read_results_csv,
    run_experiment,
    run_gradient_verification,
    summarize_rows,
    write_summary_csv,
)
from .surfaces import GRID_KINDS, GridSpec, write_grid_csv
from .tdist import NonFiniteGradientError

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

    p_surf = sub.add_parser("surface", help="emit one figure grid as CSV")
    p_surf.add_argument("kind", choices=GRID_KINDS)
    p_surf.add_argument("--out", type=Path, default=None)

    p_ver = sub.add_parser("verify-gradients", help="finite-difference check")
    p_ver.add_argument("--points", type=int, default=100)
    p_ver.add_argument("--tolerance", type=float, default=1e-5)
    p_ver.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_run(args):
    cfg = load_config(args.config)
    rows = run_experiment(cfg)
    if cfg.kind == "surfaces":
        print("surfaces: wrote " + ", ".join(str(p) for p in grid_paths(cfg)))
    else:
        print(f"{cfg.kind}: wrote {len(rows)} result rows to {cfg.output_dir}")
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


def _cmd_surface(args):
    out = args.out if args.out is not None else Path(f"{args.kind}.csv")
    write_grid_csv(GridSpec(kind=args.kind), out)
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_verify(args):
    report, ok = run_gradient_verification(
        points=args.points, tolerance=args.tolerance, seed=args.seed
    )
    print(f"{'gradient':<10} {'d':>4} {'max rel FD error':>18}")
    for grad_name, d, err in report:
        print(f"{grad_name:<10} {d:>4} {err:>18.3e}")
    if not ok:
        raise VerificationError(
            f"Finite-difference check exceeded tolerance {args.tolerance:g}"
        )
    print("all gradients verified")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "summarize":
            return _cmd_summarize(args)
        if args.command == "surface":
            return _cmd_surface(args)
        if args.command == "verify-gradients":
            return _cmd_verify(args)
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
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
