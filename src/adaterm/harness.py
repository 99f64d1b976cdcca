"""Experiment harness: config files, dispatch, and cells in forked workers.

One YAML config describes one experiment run.  ``load_config`` parses and
checks it into an ``ExperimentConfig`` whose ``args`` are the keyword
arguments of the kind's run in ``experiments``: the run's signature states
what a kind reads, its parse (``_KINDS``) builds exactly that, and a key no
parse reads is refused.  This module imports no numpy, so a bad config exits
before any numerical module loads or the output directory is made.
``run_experiment`` then imports ``experiments`` and calls the kind's run.
The cells run in forked workers, one per usable core, which inherit their
arguments and send back only their results (``_map_cells``); with one
usable core they run in this process.

The result tables, ``results.csv`` and ``summary.csv``, their rows and
statistics live in ``results`` (no numpy).  ``run_experiment`` streams the
rows to ``results.csv`` through a temp file that is moved into place, so a
run that stops part-way leaves the old file or none, and keeps only each
row's value, in its group, for ``summary.csv``.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple, Optional, get_type_hints

from .results import (ConfigError, WorkerError, _group_statistics, _grouped,
                      write_results_csv, write_summary_csv)
# Not used here: the benchmark's span tracer looks these two up in this module.
from .results import read_results_csv, summarize_rows  # noqa: F401
from .specs import (ALGORITHMS, DEFAULT_LAYER_SIZES, GRID_KINDS, TEST_FUNCTION_NAMES, GridSpec,
                    OnlineConvexSpec, OptimizerConfig, RegressionStreamSpec,
                    _validate_regret_config)

__all__ = ["SCHEMA_VERSION", "EXPERIMENT_KINDS", "ExperimentConfig", "load_config",
           "run_experiment", "grid_paths"]

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class ExperimentConfig:
    """Validated form of one config file: its kind's ``run(output_dir, **args)``."""

    kind: str
    output_dir: Path
    args: dict


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


# The longest text a message shows for one config value.
_SHOWN_CHARS = 100


def _shown(value, form=repr):
    """``form(value)`` for a message when that is short, else the value's
    type and size: the bit length of an int, the length of a string, list or
    mapping.  YAML builds ints of any length from hexadecimal literals, and
    one of more than 4,300 digits, or a list holding one, has no ``repr``."""
    try:
        text = form(value)
    except ValueError:
        text = None
    if text is not None and len(text) <= _SHOWN_CHARS:
        return text
    kind = type(value).__name__
    if isinstance(value, int):
        return f"<{kind} of {value.bit_length()} bits>"
    return f"<{kind} of length {len(value)}>" if hasattr(value, "__len__") else f"<{kind}>"


def _keys(keys):
    """``keys`` sorted by their text, so that mixed types sort, shown as a list."""
    return f"[{', '.join(map(_shown, sorted(keys, key=lambda key: _shown(key, str))))}]"


def _number(value, kind, what, low=None):
    """``value`` as ``kind`` (int or float), or a ConfigError naming ``what``.

    Booleans are refused, and an int must be written as one, so ``2.5`` is
    not truncated.  A float may come as a string: YAML reads ``1e-5``
    (no decimal point) as one.  A non-finite value, an int beyond every
    float, or a value below ``low`` is refused too.
    """
    try:
        if isinstance(value, bool) or (kind is int and not isinstance(value, int)):
            raise TypeError
        number = kind(value)
        finite = math.isfinite(number)
    except (TypeError, ValueError):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{what} must be {noun}, got {_shown(value)}") from None
    except OverflowError:  # its digits may be too many even to print
        raise ConfigError(f"{what} is out of range: an integer of "
                          f"{value.bit_length()} bits") from None
    if not finite:
        raise ConfigError(f"{what} must be finite, got {_shown(value)}")
    if low is not None and number < low:
        raise ConfigError(f"{what} must be >= {low}, got {_shown(number)}")
    return number


def _number_list(value, kind, what, low=None):
    """A non-empty list of numbers, each through ``_number``."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"need non-empty {what}: a non-empty list, got {_shown(value)}")
    return [_number(x, kind, f"{what} entry", low) for x in value]


def _int(raw, key, default, low):
    """The top-level ``key``, popped from ``raw``: an int of at least ``low``."""
    return _number(raw.pop(key, default), int, key, low)


def _seeds(raw):
    """``seed`` and ``trials``: trial i draws from seed + i."""
    return {"seed": _int(raw, "seed", 0, 0), "trials": _int(raw, "trials", 1, 1)}


def _problem(raw):
    """A copy of the ``problem`` section, popped from ``raw``."""
    if not isinstance(problem := raw.pop("problem", {}), dict):
        raise ConfigError("problem section must be a mapping")
    return dict(problem)


def _parse_optimizer(section, index):
    if not isinstance(section, dict):
        raise ConfigError(f"optimizers[{index}] must be a mapping")
    algorithm = section.get("algorithm", "AdaTerm")
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"optimizers[{index}]: Unknown algorithm: {_shown(algorithm)}")
    unknown = set(section) - _SHARED_OPTIMIZER_KEYS - _ALGORITHM_KEYS[algorithm]
    if unknown:
        raise ConfigError(
            f"optimizers[{index}]: unknown key(s) {_keys(unknown)} for {algorithm}"
        )
    cfg = _spec(OptimizerConfig, f"optimizers[{index}]",
                {k: v for k, v in section.items() if k != "name"})
    if not isinstance(name := section.get("name", cfg.algorithm), str):
        raise ConfigError(f"optimizers[{index}]: name must be text, got {_shown(name)}")
    return name, cfg


def _optimizer_list(raw, kind):
    """The ``optimizers:`` list, popped, as (name, OptimizerConfig) pairs; names differ."""
    sections = raw.pop("optimizers", None)
    if not isinstance(sections, list) or not sections:
        raise ConfigError(f"{kind} experiments need a non-empty optimizers list")
    optimizers = [_parse_optimizer(s, i) for i, s in enumerate(sections)]
    names = [n for n, _ in optimizers]
    if len(set(names)) != len(names):
        raise ConfigError(f"Duplicate optimizer names: {names}")
    return optimizers


def _distinct(values, what, label=lambda value: value):
    """``values``, whose labels must differ: two of one label would name one cell."""
    labels = [label(v) for v in values]
    if repeated := [key for key in labels if labels.count(key) > 1]:
        raise ConfigError(f"Duplicate {what}: {_shown(repeated[0], str)} (in {_shown(values)})")
    return values


def _noise_ratios(problem):
    """The problem's ``noise_ratios``, popped (default: noise-free only)."""
    ratios = _number_list(problem.pop("noise_ratios", [0.0]), float, "noise_ratios")
    for p in ratios:
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"noise ratio out of [0, 1]: {p}")
    return tuple(_distinct(ratios, "noise_ratios label", lambda p: f"p={p:g}"))


def load_config(path) -> ExperimentConfig:
    import yaml  # here, so that ``summarize`` never pays its import
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"Cannot read config {path}: {exc}") from exc
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a tag or int YAML cannot build
        raise ConfigError(f"Config parse error in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"Config root must be a mapping: {path}")
    raw = dict(raw)  # each key read is popped: what is left, no kind reads
    if type(version := raw.pop("schema_version", None)) is not int or version != SCHEMA_VERSION:
        raise ConfigError(
            f"Unsupported schema_version {_shown(version)} "
            f"(expected {SCHEMA_VERSION})"
        )
    kind = raw.pop("experiment", None)
    if kind not in EXPERIMENT_KINDS:  # a tuple, so an unhashable kind is just unknown
        raise ConfigError(f"Unknown experiment kind: {_shown(kind)}")
    if not isinstance(out := raw.pop("output_dir", "results"), str):
        raise ConfigError(f"output_dir must be a string, got {_shown(out)}")
    args = _KINDS[kind].parse(raw)
    if raw:
        raise ConfigError(f"{kind} configs do not use key(s) {_keys(raw)}")
    return ExperimentConfig(kind, Path(out), args)


# The declared field types ``_spec`` checks a config value against; a
# field of any other type (text, a tuple) takes the value as it is.
_FIELD_KINDS = {int: int, float: float, Optional[float]: float, bool: bool}


def _field_value(value, kind, what):
    if kind is bool and not isinstance(value, bool):
        raise ConfigError(f"{what} must be true or false, got {_shown(value)}")
    return _number(value, kind, what) if kind in (int, float) else value


def _spec(cls, what, values, **fixed):
    """``cls(**values, **fixed)``, or a ConfigError naming ``what`` if
    ``values`` is not a mapping, has a key that names no field of ``cls``
    or one that ``fixed`` sets, or the class refuses it.  A value whose
    field is declared an int or a float (optional or not) goes through
    ``_number`` as that type first, and one declared a bool must be one."""
    if not isinstance(values, dict):
        raise ConfigError(f"{what} must be a mapping, got {_shown(values)}")
    hints = get_type_hints(cls)
    kinds = {f.name: _FIELD_KINDS.get(hints[f.name]) for f in fields(cls)}
    if unknown := set(values) - set(kinds).difference(fixed):
        raise ConfigError(f"{what}: unknown key(s) {_keys(unknown)}")
    values = {k: _field_value(v, kinds[k], f"{what}: {k}") for k, v in values.items()}
    try:
        return cls(**values, **fixed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _parse_test_function(raw):
    seeds, steps = _seeds(raw), _int(raw, "steps", 1000, 0)
    record_every, problem = _int(raw, "record_every", 0, 0), _problem(raw)
    optimizers, ratios = _optimizer_list(raw, "test_function"), _noise_ratios(problem)
    function, names = problem.pop("function", None), sorted(TEST_FUNCTION_NAMES)
    if problem:
        raise ConfigError(f"problem: unknown key(s) {_keys(problem)}")
    if function not in names:
        raise ConfigError(f"Unknown test function: {_shown(function)} (choose from {names})")
    return dict(seeds, steps=steps, record_every=record_every, function=function,
                noise_ratios=ratios, optimizers=optimizers)


def _parse_regression(raw):
    seeds, problem = _seeds(raw), _problem(raw)
    optimizers, ratios = _optimizer_list(raw, "regression"), _noise_ratios(problem)
    model = raw.pop("model", {})
    if not isinstance(model, dict) or set(model) - {"layer_sizes"}:
        raise ConfigError(f"model must map layer_sizes only, got {_shown(model)}")
    sizes = model.get("layer_sizes", list(DEFAULT_LAYER_SIZES))
    sizes = _number_list(sizes, int, "model.layer_sizes", 1)
    if len(sizes) < 2:
        raise ConfigError(f"model.layer_sizes must list >= 2 sizes, got {_shown(sizes)}")
    if sizes[0] != 1 or sizes[-1] != 1:  # one input x, one output y
        raise ConfigError(f"model.layer_sizes must start and end with 1, got {_shown(sizes)}")
    return dict(seeds, optimizers=optimizers, noise_ratios=ratios, model_sizes=tuple(sizes),
                stream=_spec(RegressionStreamSpec, "problem section", problem))


def _parse_regret(raw):
    seeds, horizon, problem = _seeds(raw), _int(raw, "horizon", 5000, 1), _problem(raw)
    if not isinstance(section := raw.pop("optimizer", {}), dict):
        raise ConfigError("optimizer section must be a mapping")
    optimizer = _parse_optimizer(section, 0)
    try:
        _validate_regret_config(optimizer[1])
    except ValueError as exc:
        raise ConfigError(f"optimizer: {exc}") from None
    dims = _distinct(_number_list(raw.pop("dims", [2]), int, "dims", 1), "dims entry")
    return dict(seeds, horizon=horizon, optimizer=optimizer,
                problems=[_spec(OnlineConvexSpec, "problem section", problem, dim=d)
                          for d in dims])


def grid_paths(output_dir, grids):
    """The grid CSVs a surfaces run writes, one per grid spec."""
    return [output_dir / f"{spec.kind}.csv" for spec in grids]


def _parse_surfaces(raw):
    problem, grids = _problem(raw), raw.pop("grids", list(GRID_KINDS))
    if not isinstance(grids, list) or not grids:
        raise ConfigError("grids must be a non-empty list")
    specs = []
    for g in grids:  # GridSpec refuses a kind that is not a grid's name
        what = f"grid {_shown(g, str)}"
        values = problem.get(g, {}) if isinstance(g, str) else {}
        if isinstance(values, dict) and "d_list" in values:
            values = {**values, "d_list": _number_list(values["d_list"], int,
                                                       f"{what}: d_list", 1)}
        specs.append(_spec(GridSpec, what, values, kind=g))
    if unknown := set(problem) - set(grids):
        raise ConfigError(f"problem: key(s) {_keys(unknown)} name no listed grid")
    return {"grids": specs}


def _parse_verify_gradients(raw):
    seed, points = _int(raw, "seed", 0, 0), _int(raw, "points", 100, 1)
    tolerance = _number(raw.pop("tolerance", 1e-5), float, "tolerance")
    dims = _distinct(_number_list(raw.pop("dims", [1, 2, 5, 8]), int, "dims", 1), "dims entry")
    if not tolerance > 0.0:  # a tolerance nothing can exceed checks nothing
        raise ConfigError(f"Gradient check needs 0 < tolerance < inf, got tolerance={tolerance}")
    return dict(seed=seed, points=points, dims=tuple(dims), tolerance=tolerance)


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
    parse: Callable
    run: str


# One entry per experiment kind: ``parse(raw)``, its checks, which pop every
# top-level key the kind reads from load_config's copy of the config and
# return its run's keyword arguments, so that a bad value exits before the
# output directory is made; ``run``, the name in ``experiments`` of its
# ``run(output_dir, **args)``, which makes its rows.
_KINDS = {
    "test_function": _Kind(_parse_test_function, "_run_test_function_experiment"),
    "regression": _Kind(_parse_regression, "_run_regression_experiment"),
    "regret": _Kind(_parse_regret, "_run_regret_experiment_kind"),
    "surfaces": _Kind(_parse_surfaces, "_run_surfaces_experiment"),
    "verify_gradients": _Kind(_parse_verify_gradients, "_run_verify_gradients_experiment"),
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

    run = getattr(experiments, _KINDS[cfg.kind].run)
    rows, groups = iter(run(cfg.output_dir, **cfg.args)), {}
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
