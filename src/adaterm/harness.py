"""Experiment harness: config files, dispatch, and cells in forked workers.

One YAML config describes one experiment run.  ``load_config`` parses and
checks it into an ``ExperimentConfig`` of the specs (``specs``) that its
run reads.  This module imports no numpy, so a bad config exits before any
numerical module loads or the output directory is made.
``run_experiment`` then imports ``experiments`` and calls the kind's run
that ``_KINDS`` names there.  The cells run in forked workers, one per
usable core, which inherit the draws and send back only their results
(``_map_cells``); with one usable core they run in this process.

The result tables, ``results.csv`` and ``summary.csv``, their rows and
statistics live in ``results`` (no numpy), and are served from here too.
``run_experiment`` streams the rows to ``results.csv`` through a temp file
that is moved into place, so a run that stops part-way leaves the old file
or none, and keeps only each row's value, in its group, for ``summary.csv``.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple, Optional, get_type_hints

from .results import (ConfigError, NonFiniteGradientError, ResultRow, SummaryRow,
                      VerificationError, WorkerError, _group_statistics, _grouped,
                      read_results_csv, summarize_rows, write_results_csv, write_summary_csv)
from .specs import (ALGORITHMS, DEFAULT_LAYER_SIZES, GRID_KINDS, TEST_FUNCTION_NAMES, GridSpec,
                    OnlineConvexSpec, OptimizerConfig, RegressionStreamSpec,
                    _validate_regret_config)

__all__ = [
    "ConfigError",
    "VerificationError",
    "WorkerError",
    "SCHEMA_VERSION",
    "EXPERIMENT_KINDS",
    "ResultRow",
    "SummaryRow",
    "ExperimentConfig",
    "load_config",
    "run_experiment",
    "grid_paths",
    "summarize_rows",
    "write_results_csv",
    "read_results_csv",
    "write_summary_csv",
]

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Validated form of one config file."""

    kind: str
    output_dir: Path
    seed: int = 0
    trials: int = 1
    steps: int = 1000
    record_every: int = 0
    problem: object = None  # what the kind's run takes, built by its parse (see _KINDS)
    optimizers: list = field(default_factory=list)  # (name, OptimizerConfig)
    model_sizes: tuple = ()
    horizon: int = 5000
    dims: tuple = (1, 2, 5, 8)
    noise_ratios: tuple = (0.0,)
    points: int = 100
    tolerance: float = 1e-5


# The optimizer keys every algorithm reads, and those each one reads on
# top.  A key the chosen algorithm never reads is rejected, not ignored.
_SHARED_OPTIMIZER_KEYS = {"name", "algorithm", "alpha", "eps", "lr_schedule",
                          "bias_correction"}
_ALGORITHM_KEYS = {
    "AdaTerm": {"beta", "nu_tilde_min", "nu_tilde_init", "variant", "ablation"},
    "Adam": {"beta1", "beta2"},
    "AdaBelief": {"beta1", "beta2"},
    "TAdam": {"beta1", "beta2", "nu_tilde_min"},
}


def _number(value, kind, what, low=None):
    """``value`` as ``kind`` (int or float), or a ConfigError naming ``what``.

    Booleans are refused, and an int must be written as one, so ``2.5`` is
    not truncated.  A float may come as a string: YAML reads ``1e-5``
    (no decimal point) as one.  A non-finite value, or one below ``low``,
    is refused too.
    """
    try:
        if isinstance(value, bool) or (kind is int and not isinstance(value, int)):
            raise TypeError
        number = kind(value)
    except (TypeError, ValueError):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{what} must be {noun}, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    if low is not None and number < low:
        raise ConfigError(f"{what} must be >= {low}, got {number}")
    return number


def _number_list(value, kind, what, low=None):
    """A non-empty list of numbers, each through ``_number``."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"need non-empty {what}: a non-empty list, got {value!r}")
    return [_number(x, kind, f"{what} entry", low) for x in value]


def _parse_optimizer(section, index):
    if not isinstance(section, dict):
        raise ConfigError(f"optimizers[{index}] must be a mapping")
    algorithm = section.get("algorithm", "AdaTerm")
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"optimizers[{index}]: Unknown algorithm: {algorithm!r}")
    unknown = set(section) - _SHARED_OPTIMIZER_KEYS - _ALGORITHM_KEYS[algorithm]
    if unknown:
        raise ConfigError(
            f"optimizers[{index}]: unknown key(s) {sorted(unknown, key=str)} for {algorithm}"
        )
    cfg = _spec(OptimizerConfig, f"optimizers[{index}]",
                {k: v for k, v in section.items() if k != "name"})
    if not isinstance(name := section.get("name", cfg.algorithm), str):
        raise ConfigError(f"optimizers[{index}]: name must be text, got {name!r}")
    return name, cfg


def _optimizer_list(raw, cfg):
    """Parse the ``optimizers:`` list into ``cfg.optimizers``; names must differ."""
    sections = raw.get("optimizers")
    if not isinstance(sections, list) or not sections:
        raise ConfigError(f"{cfg.kind} experiments need a non-empty optimizers list")
    cfg.optimizers = [_parse_optimizer(s, i) for i, s in enumerate(sections)]
    names = [n for n, _ in cfg.optimizers]
    if len(set(names)) != len(names):
        raise ConfigError(f"Duplicate optimizer names: {names}")


def _distinct(values, what, label=str):
    """``values``, whose labels must differ: two of one label would name one cell."""
    labels = [label(v) for v in values]
    if repeated := [key for key in labels if labels.count(key) > 1]:
        raise ConfigError(f"Duplicate {what}: {repeated[0]} (in {values})")
    return values


def _noise_ratios(problem, cfg):
    """Check the problem's ``noise_ratios`` (default: the field's) into ``cfg``."""
    ratios = _number_list(problem.get("noise_ratios", [*cfg.noise_ratios]), float, "noise_ratios")
    for p in ratios:
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"noise ratio out of [0, 1]: {p}")
    cfg.noise_ratios = tuple(_distinct(ratios, "noise_ratios label", lambda p: f"p={p:g}"))


def load_config(path) -> ExperimentConfig:
    import yaml  # here, so that ``summarize`` never pays its import
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"Cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"Config parse error in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"Config root must be a mapping: {path}")
    if type(version := raw.get("schema_version")) is not int or version != SCHEMA_VERSION:
        raise ConfigError(
            f"Unsupported schema_version {version!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    kind = raw.get("experiment")
    if kind not in EXPERIMENT_KINDS:  # a tuple, so an unhashable kind is just unknown
        raise ConfigError(f"Unknown experiment kind: {kind!r}")
    unknown = set(raw) - {"schema_version", "experiment", "output_dir"} - _KINDS[kind].keys
    if unknown:
        raise ConfigError(f"{kind} configs do not use key(s) {sorted(unknown, key=str)}")

    if not isinstance(out := raw.get("output_dir", "results"), str):
        raise ConfigError(f"output_dir must be a string, got {out!r}")
    cfg = ExperimentConfig(kind=kind, output_dir=Path(out))
    for key, low in (("seed", 0), ("trials", 1), ("steps", 0), ("record_every", 0),
                     ("horizon", 1), ("points", 1)):
        if key in raw:
            setattr(cfg, key, _number(raw[key], int, key, low))
    if "tolerance" in raw:
        cfg.tolerance = _number(raw["tolerance"], float, "tolerance")

    problem = raw.get("problem", {})
    if not isinstance(problem, dict):
        raise ConfigError("problem section must be a mapping")
    _KINDS[kind].parse(raw, dict(problem), cfg)
    return cfg


# The declared field types ``_spec`` checks a config value against; a
# field of any other type (text, a tuple) takes the value as it is.
_FIELD_KINDS = {int: int, float: float, Optional[float]: float, bool: bool}


def _field_value(value, kind, what):
    if kind is bool and not isinstance(value, bool):
        raise ConfigError(f"{what} must be true or false, got {value!r}")
    return _number(value, kind, what) if kind in (int, float) else value


def _spec(cls, what, values, **fixed):
    """``cls(**values, **fixed)``, or a ConfigError naming ``what`` if
    ``values`` is not a mapping, has a key that names no field of ``cls``,
    or the class refuses it.  A value whose
    field is declared an int or a float (optional or not) goes through
    ``_number`` as that type first, and one declared a bool must be one."""
    if not isinstance(values, dict):
        raise ConfigError(f"{what} must be a mapping, got {values!r}")
    hints = get_type_hints(cls)
    kinds = {f.name: _FIELD_KINDS.get(hints[f.name]) for f in fields(cls)}
    if unknown := set(values) - set(kinds):
        raise ConfigError(f"{what}: unknown key(s) {sorted(unknown, key=str)}")
    values = {k: _field_value(v, kinds[k], f"{what}: {k}") for k, v in values.items()}
    try:
        return cls(**values, **fixed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _parse_test_function(raw, problem, cfg: ExperimentConfig):
    _optimizer_list(raw, cfg)
    _noise_ratios(problem, cfg)
    unknown = set(problem) - {"function", "noise_ratios"}
    if unknown:
        raise ConfigError(f"problem: unknown key(s) {sorted(unknown, key=str)}")
    cfg.problem, names = problem.get("function"), sorted(TEST_FUNCTION_NAMES)
    if cfg.problem not in names:
        raise ConfigError(f"Unknown test function: {cfg.problem!r} (choose from {names})")


def _parse_regression(raw, problem, cfg: ExperimentConfig):
    _optimizer_list(raw, cfg)
    _noise_ratios(problem, cfg)
    model = raw.get("model", {})
    if not isinstance(model, dict) or set(model) - {"layer_sizes"}:
        raise ConfigError(f"model must map layer_sizes only, got {model!r}")
    sizes = model.get("layer_sizes", list(DEFAULT_LAYER_SIZES))
    sizes = _number_list(sizes, int, "model.layer_sizes", 1)
    if len(sizes) < 2:
        raise ConfigError(f"model.layer_sizes must list >= 2 sizes, got {sizes!r}")
    if sizes[0] != 1 or sizes[-1] != 1:  # one input x, one output y
        raise ConfigError(f"model.layer_sizes must start and end with 1, got {sizes!r}")
    cfg.model_sizes = tuple(sizes)
    cfg.problem = _spec(RegressionStreamSpec, "problem section",
                        {k: v for k, v in problem.items() if k != "noise_ratios"})


def _parse_regret(raw, problem, cfg: ExperimentConfig):
    section = raw.get("optimizer", {})
    if not isinstance(section, dict):
        raise ConfigError("optimizer section must be a mapping")
    cfg.optimizers = [_parse_optimizer(section, 0)]
    try:
        _validate_regret_config(cfg.optimizers[0][1])
    except ValueError as exc:
        raise ConfigError(f"optimizer: {exc}") from None
    dims = _distinct(_number_list(raw.get("dims", [2]), int, "dims", 1), "dims entry")
    cfg.problem = [_spec(OnlineConvexSpec, "problem section", problem, dim=d) for d in dims]


def grid_paths(cfg: ExperimentConfig):
    """The grid CSVs a surfaces run writes, one per grid spec."""
    return [cfg.output_dir / f"{spec.kind}.csv" for spec in cfg.problem]


def _parse_surfaces(raw, problem, cfg: ExperimentConfig):
    grids = raw.get("grids", list(GRID_KINDS))
    if not isinstance(grids, list) or not grids:
        raise ConfigError("grids must be a non-empty list")
    cfg.problem = []
    for g in grids:  # GridSpec refuses a kind that is not a grid's name
        values = problem.get(g, {}) if isinstance(g, str) else {}
        if isinstance(values, dict) and "d_list" in values:
            values = {**values, "d_list": _number_list(values["d_list"], int,
                                                       f"grid {g}: d_list", 1)}
        cfg.problem.append(_spec(GridSpec, f"grid {g}", values, kind=g))
    unknown = set(problem) - set(grids)
    if unknown:
        raise ConfigError(f"problem: key(s) {sorted(unknown, key=str)} name no listed grid")


def _parse_verify_gradients(raw, problem, cfg: ExperimentConfig):
    dims = _number_list(raw.get("dims", [*cfg.dims]), int, "dims", 1)
    cfg.dims = tuple(_distinct(dims, "dims entry"))
    # A tolerance nothing can exceed checks nothing.  load_config has refused
    # points < 1, seed < 0 and a non-finite tolerance already.
    if not cfg.tolerance > 0.0:
        raise ConfigError(
            f"Gradient check needs 0 < tolerance < inf, got tolerance={cfg.tolerance}"
        )


# ---------------------------------------------------------------------------
# Dispatch: experiment kinds, and cells in forked workers
# ---------------------------------------------------------------------------


def _map_cells(fn, calls):
    """``[fn(*args) for args in calls.values()]``, ``calls`` mapping each cell's
    name to its arguments.  Each call runs in a forked child, at most one per
    usable core, which sends back its pickled result or exception (raised
    again here).  On any failure every child left is killed and reaped first.
    With one usable core, one cell or no ``os.fork``, the calls run here."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(calls), cores if hasattr(os, "fork") else 1)
    if workers <= 1:
        return [fn(*args) for args in calls.values()]
    import pickle
    import select
    import signal

    results, running, todo = {}, {}, list(calls)[::-1]  # running: pipe -> (name, pid)
    try:
        while todo or running:
            while todo and len(running) < workers:
                r, w = os.pipe()
                if (pid := os.fork()) == 0:  # the child leaves by os._exit only, so it
                    try:  # never flushes the parent's stdio or runs its atexit handlers
                        try:
                            out = pickle.dumps((True, fn(*calls[todo[-1]])))
                        except BaseException as exc:
                            out = pickle.dumps((False, exc))
                        with open(w, "wb") as pipe:
                            pipe.write(out)
                        os._exit(0)
                    finally:
                        os._exit(1)
                os.close(w)
                running[open(r, "rb")] = (todo.pop(), pid)
            # A child writes only its whole result, so a readable pipe is read to its end.
            for pipe in select.select(list(running), [], [])[0]:
                name, pid = running[pipe]
                out, status = pipe.read(), os.waitpid(pid, 0)[1]
                del running[pipe]
                pipe.close()
                try:
                    ok, value = pickle.loads(out)
                except Exception:
                    raise WorkerError(f"cell {name} ended with no result (wait status {status}, "
                                      f"exit code {os.waitstatus_to_exitcode(status)})") from None
                if not ok:
                    raise value
                results[name] = value
    finally:
        for pipe, (_, pid) in running.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [results[name] for name in calls]


class _Kind(NamedTuple):
    keys: set
    parse: Callable
    run: str


# One entry per experiment kind: ``keys``, the top-level keys its configs
# read besides schema_version, experiment and output_dir (any other is
# refused); ``parse(raw, problem, cfg)``, its checks, which build from a copy
# of the problem section all that its run reads, so that a bad value exits
# before the output directory is made; ``run``, the name in ``experiments``
# of its ``run(cfg)``, which makes its rows.
_KINDS = {
    "test_function": _Kind({"seed", "trials", "steps", "record_every", "problem", "optimizers"},
                           _parse_test_function, "_run_test_function_experiment"),
    "regression": _Kind({"seed", "trials", "problem", "model", "optimizers"},
                        _parse_regression, "_run_regression_experiment"),
    "regret": _Kind({"seed", "trials", "horizon", "dims", "problem", "optimizer"},
                    _parse_regret, "_run_regret_experiment_kind"),
    "surfaces": _Kind({"problem", "grids"}, _parse_surfaces, "_run_surfaces_experiment"),
    "verify_gradients": _Kind({"seed", "points", "dims", "tolerance"},
                              _parse_verify_gradients, "_run_verify_gradients_experiment"),
}
EXPERIMENT_KINDS = tuple(_KINDS)


def run_experiment(cfg: ExperimentConfig):
    """Execute one experiment; returns the number of result rows written.  The
    rows stream to ``results.csv``, and only their values are kept, for
    ``summary.csv``.  A kind with no rows writes neither table."""
    try:
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"Cannot make output directory {cfg.output_dir}: {exc}") from exc
    from . import experiments  # here, so that a config is checked without numpy

    rows, groups = iter(getattr(experiments, _KINDS[cfg.kind].run)(cfg)), {}
    first = next(rows, None)  # every cell has run, and every check passed, by now
    if first is None:
        return 0
    write_results_csv(_grouped(itertools.chain([first], rows), groups),
                      cfg.output_dir / "results.csv")
    write_summary_csv(_group_statistics(groups), cfg.output_dir / "summary.csv")
    return sum(map(len, groups.values()))


def __getattr__(name):  # the benchmark's span tracer looks these four up here
    if name in ("draw_test_function_noise", "draw_regression_trial", "_batched_forward",
                "_batched_backward"):
        from . import experiments

        return getattr(experiments, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
