"""Experiment harness: config files, batched seeded trials, result tables.

One YAML config describes one experiment run.  Trials are independent:
trial i always uses seed ``base_seed + i`` and its own generator.

An experiment draws each trial's randomness once, from
``make_rng(base_seed + i)`` through the draw helpers below (which document
the canonical per-trial draw order), and hands the arrays to every
optimizer's cell; a cell only computes from what it is handed.  The cell
advances all of its trials as one batched array computation (trial axis
leading) through ``optimizers.GroupState``, the same state a regret run
steps with one dimension's seeds on the trial axis; a single model is the
case n = 1.  A test-function cell is one optimizer's pass: its k noise
ratios are stacked on the trial axis (k * n rows, ratio outer) over the
same (n, steps) noise.  A regression experiment draws each trial's model
and stream once, into arrays with the trial axis leading; a regression
cell runs one ratio and makes its labels from those draws.  A single
trial is a cell run on that trial's draws alone (a row slice), and rows
do not depend on how ratios or trials are grouped: any split of the
trials into contiguous batches, and any grouping of the ratios, gives
byte-identical rows.  The cells run in forked workers, one per usable
core, which inherit the draws and send back only their results
(``_map_cells``); with one usable core they run in this process.

Output tables are written to a temp file and moved into place, so a run
that stops part-way leaves the old file or none.

Result files: ``results.csv`` with one row per (experiment id, optimizer,
seed, metric, step, value), plus ``summary.csv`` with count/mean/std
(population)/median per (experiment, optimizer, metric, step).
"""

from __future__ import annotations

import csv
import math
import os
import pickle
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple, Optional, get_type_hints

import numpy as np
import yaml

from .files import write_csv
from .mlp import DEFAULT_LAYER_SIZES, MlpModel, mse_loss, stack_parameters
# Imported under these names because the benchmark's span tracer wraps them here.
from .mlp import backward as _batched_backward, forward as _batched_forward
from .optimizers import ALGORITHMS, GroupState, OptimizerConfig
from .problems import (
    TEST_FUNCTIONS,
    NOISE_HALF_RANGE,
    RegressionStreamSpec,
    OnlineConvexSpec,
    QuadraticSequence,
    apply_coordinate_noise,
    generate_regression_stream,
    true_regression_fn,
)
from .regret import _validate_regret_config
from .regret import run_regret_experiment, sublinearity_ratio, write_regret_csv
from .rng import make_rng
from .surfaces import GRID_KINDS, GridSpec, write_grid_csv
from .tdist import NonFiniteGradientError, grad_m, grad_nu_exact, grad_v, log_density

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
    "run_gradient_verification",
    "summarize_rows",
    "write_results_csv",
    "read_results_csv",
    "write_summary_csv",
]

SCHEMA_VERSION = 1

TEST_X_POINTS = 1001  # fixed evaluation grid for the regression test loss


class ConfigError(Exception):
    """Config file unreadable, schema-invalid, or referencing unknown names."""


class VerificationError(Exception):
    """A verification experiment observed an invariant violation."""


class WorkerError(Exception):
    """A cell's worker process ended without sending back its result."""


class ResultRow(NamedTuple):
    """One row of ``results.csv``; the fields are its columns."""

    experiment: str
    optimizer: str
    seed: int
    metric: str
    step: int
    value: float


class SummaryRow(NamedTuple):
    """One row of ``summary.csv``; the fields are its columns."""

    experiment: str
    optimizer: str
    metric: str
    step: int
    count: int
    mean: float
    std: float
    median: float


def write_results_csv(rows, path):
    write_csv(path, ResultRow._fields, rows)


def read_results_csv(path):
    """The rows of a ``results.csv``, whose columns may come in any order
    beside other columns.  Blank lines are skipped."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            # The last column of a name wins, as with csv.DictReader.
            index = {name: i for i, name in enumerate(next(reader, []))}
            missing = [c for c in ResultRow._fields if c not in index]
            if missing:
                raise ConfigError(f"Not a results file: {path} has no column(s) {missing}")
            e, o, s, m, t, v = (index[c] for c in ResultRow._fields)
            rows = []
            for rec in filter(None, reader):
                try:
                    rows.append(ResultRow(rec[e], rec[o], int(rec[s]), rec[m],
                                          int(rec[t]), float(rec[v])))
                except (IndexError, ValueError):
                    got = ", ".join(repr(rec[i]) if i < len(rec) else "None" for i in (s, t, v))
                    raise ConfigError(
                        f"{path}, line {reader.line_num}: seed and step must be integers "
                        f"and value a number, got {got}"
                    ) from None
            return rows
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"Cannot read results {path}: {exc}") from exc


def summarize_rows(rows):
    """count/mean/std/median per (experiment, optimizer, metric, step).

    Standard deviation is the population estimator.  Returns
    ``SummaryRow``s sorted by group key, ready for the summary CSV.
    """
    if not rows:
        raise ConfigError("No result rows to summarize")
    groups = {}
    for r in rows:
        groups.setdefault((r.experiment, r.optimizer, r.metric, r.step), []).append(
            r.value
        )
    out = []
    for key in sorted(groups):
        vals = np.asarray(groups[key])
        out.append(SummaryRow(*key, vals.size, float(np.mean(vals)),
                              float(np.std(vals)), float(np.median(vals))))
    return out


def write_summary_csv(summary, path):
    write_csv(path, SummaryRow._fields, summary)


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
    problem: dict = field(default_factory=dict)
    optimizers: list = field(default_factory=list)  # (name, OptimizerConfig)
    model_sizes: tuple = ()
    horizon: int = 5000
    dims: tuple = (2,)
    grids: tuple = ()
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
            f"optimizers[{index}]: unknown key(s) {sorted(unknown)} for {algorithm}"
        )
    cfg = _spec(OptimizerConfig, f"optimizers[{index}]",
                {k: v for k, v in section.items() if k != "name"})
    name = section.get("name", cfg.algorithm)
    return str(name), cfg


def _optimizer_list(raw, cfg):
    """Parse the ``optimizers:`` list into ``cfg.optimizers``; names must differ."""
    sections = raw.get("optimizers")
    if not isinstance(sections, list) or not sections:
        raise ConfigError(f"{cfg.kind} experiments need a non-empty optimizers list")
    cfg.optimizers = [_parse_optimizer(s, i) for i, s in enumerate(sections)]
    names = [n for n, _ in cfg.optimizers]
    if len(set(names)) != len(names):
        raise ConfigError(f"Duplicate optimizer names: {names}")


def _noise_ratios(problem):
    """Check the problem's ``noise_ratios`` list (default [0.0]) and store it."""
    ratios = problem.get("noise_ratios", [0.0])
    problem["noise_ratios"] = _number_list(ratios, float, "noise_ratios")
    for p in problem["noise_ratios"]:
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"noise ratio out of [0, 1]: {p}")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"Cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"Config parse error in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"Config root must be a mapping: {path}")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"Unsupported schema_version {raw.get('schema_version')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    kind = raw.get("experiment")
    if kind not in _KINDS:
        raise ConfigError(f"Unknown experiment kind: {kind!r}")
    unknown = set(raw) - {"schema_version", "experiment", "output_dir"} - _KINDS[kind].keys
    if unknown:
        raise ConfigError(f"{kind} configs do not use key(s) {sorted(unknown)}")

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
    cfg.problem = problem
    _KINDS[kind].parse(raw, cfg)
    return cfg


# ---------------------------------------------------------------------------
# Canonical per-trial draws
# ---------------------------------------------------------------------------


def draw_test_function_noise(rng, steps):
    """Canonical per-trial draw order for test-function noise.

    One trigger uniform per step, then one (steps, 2) block of coordinate
    perturbations.  A trial's trajectory depends only on its own draws, so
    it is the same in any batch of trials.
    """
    us = rng.random(steps)
    deltas = rng.uniform(-NOISE_HALF_RANGE, NOISE_HALF_RANGE, size=(steps, 2))
    return us, deltas


def draw_regression_trial(spec: RegressionStreamSpec, sizes, rng):
    """Canonical per-trial draws for regression: model init, then stream.
    Returns the model and the stream's ratio-free (x, u, zeta, f), each
    batch joined in order: u (n_pairs,), the others (n_pairs, 1)."""
    model = MlpModel(sizes, rng)
    return (model, *map(np.concatenate, zip(*generate_regression_stream(spec, rng))))


# ---------------------------------------------------------------------------
# Test-function experiment
# ---------------------------------------------------------------------------


def _error_norm(diff):
    """Euclidean norm over the trailing axis, as a plain sum-reduce.

    Each trial's norm is reduced over its own row only, so it has the same
    bits in a cell of any size.  ``np.linalg.norm`` is not used: its 1-D
    path goes through a BLAS dot product, which may fuse multiply-adds.
    """
    return np.sqrt(np.add.reduce(diff * diff, axis=-1))


def _run_test_function_cell(function, ratios, opt_cfg, us, deltas, record_every=0):
    """One (function, optimizer) cell at every noise ratio in ``ratios``,
    as a single batched run of k * n rows, ratio outer, on the n trials'
    noise draws ``us`` (n, steps) and ``deltas`` (n, steps, 2); a single
    ratio is k = 1 and a single trial is a row slice of the draws.  Every
    ratio shares the draws, since they do not depend on the ratio.

    Returns (final error norms (k, n), final nu_tilde (k, n) or None,
    [(step, error norms (k, n))]).
    """
    for p in ratios:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"Invalid noise probability: {p}")
    tf = TEST_FUNCTIONS[function]
    k, (n, steps) = len(ratios), us.shape
    probs = np.asarray(ratios, dtype=np.float64)[:, None]  # (k, 1): one per row block
    theta = np.tile(np.asarray(tf.start, dtype=np.float64), (k * n, 1))
    grid = theta.reshape(k, n, 2)  # a view: the step updates theta in place
    state = GroupState(opt_cfg, k * n, 2)
    opt_pt = np.asarray(tf.optimum)
    trails = []
    for t in range(1, steps + 1):
        noisy = apply_coordinate_noise(grid, us[:, t - 1], deltas[:, t - 1], probs)
        state.step(theta, tf.grad(noisy).reshape(k * n, 2), t)
        if record_every and t % record_every == 0:
            trails.append((t, _error_norm(grid - opt_pt)))
    final_norm = _error_norm(grid - opt_pt)
    final_nu = state.nu.reshape(k, n) if opt_cfg.algorithm == "AdaTerm" else None
    return final_norm, final_nu, trails


def _parse_test_function(raw, cfg: ExperimentConfig):
    _optimizer_list(raw, cfg)
    _noise_ratios(cfg.problem)
    unknown = set(cfg.problem) - {"function", "noise_ratios"}
    if unknown:
        raise ConfigError(f"problem: unknown key(s) {sorted(unknown)}")
    fn = cfg.problem.get("function")
    if fn not in TEST_FUNCTIONS:
        raise ConfigError(f"Unknown test function: {fn!r} "
                          f"(choose from {sorted(TEST_FUNCTIONS)})")


def _run_test_function_experiment(cfg: ExperimentConfig):
    function = cfg.problem["function"]
    ratios = cfg.problem["noise_ratios"]
    us = np.empty((cfg.trials, cfg.steps))
    deltas = np.empty((cfg.trials, cfg.steps, 2))
    for i in range(cfg.trials):
        us[i], deltas[i] = draw_test_function_noise(make_rng(cfg.seed + i), cfg.steps)
    cells = _map_cells(_run_test_function_cell, {
        f"{function} {name}": (function, ratios, opt_cfg, us, deltas, cfg.record_every)
        for name, opt_cfg in cfg.optimizers})
    rows = []
    for j, p in enumerate(ratios):
        exp_id = f"{function}:p={p:g}"
        for (name, _), (norms, nus, trails) in zip(cfg.optimizers, cells):
            for i in range(cfg.trials):
                seed = cfg.seed + i
                rows.append(
                    ResultRow(exp_id, name, seed, "final_error_norm",
                              cfg.steps, float(norms[j, i]))
                )
                if nus is not None:
                    rows.append(
                        ResultRow(exp_id, name, seed, "final_nu_tilde",
                                  cfg.steps, float(nus[j, i]))
                    )
                for step, vec in trails:
                    rows.append(
                        ResultRow(exp_id, name, seed, "error_norm", step,
                                  float(vec[j, i]))
                    )
    return rows


# ---------------------------------------------------------------------------
# Regression experiment
# ---------------------------------------------------------------------------


def _run_regression_cell(Ws, Bs, X, Y, batch_size, opt_cfg, x_test):
    """One (ratio, optimizer) cell as a single batched run of n trials from
    the stacked parameters ``Ws`` / ``Bs`` on inputs ``X`` and labels ``Y``
    (n, n_pairs, 1), ``batch_size`` pairs per step (the last batch may be
    short); a single trial is a row slice.  The parameters are copied, not
    trained in place, so every optimizer can be handed the same draws.
    Returns each trial's final test MSE against the clean target on
    ``x_test``."""
    Ws, Bs = [W.copy() for W in Ws], [B.copy() for B in Bs]
    n, n_pairs = X.shape[:2]
    states = [GroupState(opt_cfg, n, P[0].size) for P in Ws + Bs]
    for t, lo in enumerate(range(0, n_pairs, batch_size), start=1):
        y_hat, inputs, masks = _batched_forward(Ws, Bs, X[:, lo:lo + batch_size])
        _, delta = mse_loss(y_hat, Y[:, lo:lo + batch_size])
        if not np.all(np.isfinite(delta)):
            raise NonFiniteGradientError(f"Non-finite loss gradient at batch {t}")
        gWs, gBs = _batched_backward(Ws, inputs, masks, delta)
        for state, P, g in zip(states, Ws + Bs, gWs + gBs):
            state.step(P, g.reshape(n, -1), t)

    xt = np.broadcast_to(x_test, (n,) + x_test.shape)
    y_hat, _, _ = _batched_forward(Ws, Bs, xt)
    f = true_regression_fn(x_test[:, 0])[None, :, None]
    return mse_loss(y_hat, np.broadcast_to(f, y_hat.shape))[0]


# The declared field types ``_spec`` checks a config value against; a
# field of any other type (text, a tuple) takes the value as it is.
_FIELD_KINDS = {int: int, float: float, Optional[float]: float, bool: bool}


def _field_value(value, kind, what):
    if kind is bool and not isinstance(value, bool):
        raise ConfigError(f"{what} must be true or false, got {value!r}")
    return _number(value, kind, what) if kind in (int, float) else value


def _spec(cls, what, values, **fixed):
    """``cls(**values, **fixed)``, or a ConfigError naming ``what`` if
    ``values`` is not a mapping or the class refuses it.  A value whose
    field is declared an int or a float (optional or not) goes through
    ``_number`` as that type first, and one declared a bool must be one."""
    if not isinstance(values, dict):
        raise ConfigError(f"{what} must be a mapping, got {values!r}")
    hints = get_type_hints(cls)
    kinds = {f.name: _FIELD_KINDS.get(hints[f.name]) for f in fields(cls)}
    values = {k: _field_value(v, kinds.get(k), f"{what}: {k}") for k, v in values.items()}
    try:
        return cls(**values, **fixed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _regression_spec(cfg: ExperimentConfig):
    """The stream spec: the problem section less its noise ratios."""
    values = {k: v for k, v in cfg.problem.items() if k != "noise_ratios"}
    return _spec(RegressionStreamSpec, "problem section", values)


def _parse_regression(raw, cfg: ExperimentConfig):
    _optimizer_list(raw, cfg)
    _noise_ratios(cfg.problem)
    model = raw.get("model", {})
    if not isinstance(model, dict) or set(model) - {"layer_sizes"}:
        raise ConfigError(f"model must map layer_sizes only, got {model!r}")
    sizes = model.get("layer_sizes", list(DEFAULT_LAYER_SIZES))
    sizes = _number_list(sizes, int, "model.layer_sizes", 1)
    if len(sizes) < 2:
        raise ConfigError(f"model.layer_sizes must list >= 2 sizes, got {sizes!r}")
    cfg.model_sizes = tuple(sizes)
    _regression_spec(cfg)


def _run_regression_experiment(cfg: ExperimentConfig):
    spec = _regression_spec(cfg)
    n, n_pairs = cfg.trials, spec.n_pairs
    X, Z, F = (np.empty((n, n_pairs, 1)) for _ in range(3))
    U = np.empty((n, n_pairs))
    models = [None] * n
    for i in range(n):  # written into row i, so no list of draws is kept
        models[i], X[i], U[i], Z[i], F[i] = draw_regression_trial(
            spec, cfg.model_sizes, make_rng(cfg.seed + i))
    Ws, Bs = stack_parameters(models)
    x_test = np.linspace(0.0, 1.0, TEST_X_POINTS)[:, None]
    n_steps = math.ceil(n_pairs / spec.batch_size)
    cells = {f"regression:p={p:g} {name}": (p, opt_cfg)  # "<experiment id> <optimizer>"
             for p in cfg.problem["noise_ratios"] for name, opt_cfg in cfg.optimizers}
    # Each cell makes its own labels (noise fires where u < p).
    results = _map_cells(lambda p, opt_cfg: _run_regression_cell(
        Ws, Bs, X, apply_coordinate_noise(F, U, Z, p), spec.batch_size, opt_cfg, x_test), cells)
    return [ResultRow(*cell.split(" ", 1), cfg.seed + i, "test_mse", n_steps, float(mses[i]))
            for cell, mses in zip(cells, results) for i in range(n)]


# ---------------------------------------------------------------------------
# Regret, surfaces, gradient verification
# ---------------------------------------------------------------------------


def _regret_specs(cfg: ExperimentConfig):
    """One problem spec per dimension."""
    return [_spec(OnlineConvexSpec, "problem section", cfg.problem, dim=d)
            for d in cfg.dims]


def _parse_regret(raw, cfg: ExperimentConfig):
    section = raw.get("optimizer", {})
    if not isinstance(section, dict):
        raise ConfigError("optimizer section must be a mapping")
    cfg.optimizers = [_parse_optimizer(section, 0)]
    try:
        _validate_regret_config(cfg.optimizers[0][1])
    except ValueError as exc:
        raise ConfigError(f"optimizer: {exc}") from None
    cfg.dims = tuple(_number_list(raw.get("dims", [2]), int, "dims", 1))
    _regret_specs(cfg)


def _run_regret_dimension(cfg: ExperimentConfig, spec: OnlineConvexSpec):
    """One dimension's rows and trace files: every seed in one run."""
    name, opt_cfg = cfg.optimizers[0]
    exp_id = f"regret:d={spec.dim}"
    seeds = range(cfg.seed, cfg.seed + cfg.trials)
    # Passed inline, so the run can free the draws once every round is played.
    reports = run_regret_experiment(
        QuadraticSequence(spec, [make_rng(seed) for seed in seeds], cfg.horizon),
        opt_cfg,
    )
    rows = []
    for seed, rep in zip(seeds, reports):
        ok = bool(np.all(rep.regret_prefix <= rep.bound_rhs_prefix))
        rows.extend(
            [
                ResultRow(exp_id, name, seed, "R_T", rep.T, rep.R_T),
                ResultRow(exp_id, name, seed, "bound_rhs", rep.T,
                          float(rep.bound_rhs_prefix[-1])),
                ResultRow(exp_id, name, seed, "bound_holds_all_prefixes", rep.T,
                          float(ok)),
                ResultRow(exp_id, name, seed, "tau_low", rep.T, rep.underline_tau),
                ResultRow(exp_id, name, seed, "sublinearity_ratio", rep.T,
                          sublinearity_ratio(rep, min(1000, rep.T), rep.T)),
            ]
        )
        write_regret_csv(rep, cfg.output_dir / f"regret_d{spec.dim}_seed{seed}.csv")
    return rows


def _run_regret_experiment_kind(cfg: ExperimentConfig):
    # A cell per dimension: in one process, its reports are freed when it
    # returns, before the next dimension's draws are made.
    cells = {f"regret:d={spec.dim}": (cfg, spec) for spec in _regret_specs(cfg)}
    return [row for rows in _map_cells(_run_regret_dimension, cells) for row in rows]


def grid_paths(cfg: ExperimentConfig):
    """The grid CSVs a surfaces run writes, one per grid kind."""
    return [cfg.output_dir / f"{kind}.csv" for kind in cfg.grids]


def _grid_specs(cfg: ExperimentConfig):
    """One grid spec per grid kind, in ``grid_paths`` order."""
    return [
        _spec(GridSpec, f"grid {kind}", cfg.problem.get(kind, {}), kind=kind)
        for kind in cfg.grids
    ]


def _parse_surfaces(raw, cfg: ExperimentConfig):
    grids = raw.get("grids", list(GRID_KINDS))
    if not isinstance(grids, list) or not grids:
        raise ConfigError("grids must be a non-empty list")
    for g in grids:
        if g not in GRID_KINDS:
            raise ConfigError(f"Unknown grid kind: {g!r}")
        if isinstance(values := cfg.problem.get(g), dict) and "d_list" in values:
            values["d_list"] = _number_list(values["d_list"], int, f"grid {g}: d_list", 1)
    cfg.grids = tuple(grids)
    unknown = set(cfg.problem) - set(grids)
    if unknown:
        raise ConfigError(f"problem: key(s) {sorted(unknown)} name no listed grid")
    _grid_specs(cfg)


def _run_surfaces_experiment(cfg: ExperimentConfig):
    for spec, path in zip(_grid_specs(cfg), grid_paths(cfg)):
        write_grid_csv(spec, path)
    return []


def _fd_log_density(g, m, v, nu, which, index, h):
    def f(x):
        if which == "m":
            m2 = m.copy(); m2[index] = x
            return log_density(g, m2, v, nu)
        if which == "v":
            v2 = v.copy(); v2[index] = x
            return log_density(g, m, v2, nu)
        return log_density(g, m, v, x)

    x0 = {"m": m[index], "v": v[index], "nu": nu}[which]
    return (f(x0 + h) - f(x0 - h)) / (2.0 * h)


def _check_verification_range(points, tolerance, seed):
    """A check with no points, or a tolerance nothing can exceed, checks
    nothing; a negative seed names no generator."""
    if not (points >= 1 and 0.0 < tolerance < math.inf):
        raise ConfigError(
            f"Gradient check needs points >= 1 and 0 < tolerance < inf, "
            f"got points={points}, tolerance={tolerance}"
        )
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def run_gradient_verification(points=100, dims=(1, 2, 5, 8), tolerance=1e-5,
                              seed=0):
    """Check the three density gradients against central finite differences.

    Returns (report_rows, ok).  Each report row is (gradient, d,
    max_rel_err).  Relative error uses max(1, |analytic|) in the
    denominator so roots of the gradient do not blow up the ratio.
    """
    _check_verification_range(points, tolerance, seed)
    rng = make_rng(seed)
    report = []
    ok = True
    for d in dims:
        worst = {"grad_m": 0.0, "grad_v": 0.0, "grad_nu": 0.0}
        for _ in range(points):
            g = rng.normal(size=d)
            m = rng.normal(size=d)
            v = rng.uniform(0.2, 3.0, size=d)
            nu = rng.uniform(0.6, 30.0)
            nu_tilde = nu / d
            gm = grad_m(g, m, v, nu_tilde)
            gv = grad_v(g, m, v, nu_tilde)
            gn = grad_nu_exact(g, m, v, nu)
            for i in range(d):
                h = 1e-6 * max(1.0, abs(m[i]))
                fd = _fd_log_density(g, m, v, nu, "m", i, h)
                worst["grad_m"] = max(
                    worst["grad_m"], abs(fd - gm[i]) / max(1.0, abs(gm[i]))
                )
                h = 1e-6 * max(1.0, abs(v[i]))
                fd = _fd_log_density(g, m, v, nu, "v", i, h)
                worst["grad_v"] = max(
                    worst["grad_v"], abs(fd - gv[i]) / max(1.0, abs(gv[i]))
                )
            h = 1e-6 * max(1.0, abs(nu))
            fd = _fd_log_density(g, m, v, nu, "nu", 0, h)
            worst["grad_nu"] = max(
                worst["grad_nu"], abs(fd - gn) / max(1.0, abs(gn))
            )
        for grad_name, err in worst.items():
            report.append((grad_name, d, err))
            if not err < tolerance:
                ok = False
    return report, ok


def _parse_verify_gradients(raw, cfg: ExperimentConfig):
    cfg.dims = tuple(_number_list(raw.get("dims", [1, 2, 5, 8]), int, "dims", 1))
    _check_verification_range(cfg.points, cfg.tolerance, cfg.seed)


def _run_verify_gradients_experiment(cfg: ExperimentConfig):
    report, ok = run_gradient_verification(
        points=cfg.points, dims=cfg.dims, tolerance=cfg.tolerance, seed=cfg.seed
    )
    rows = [
        ResultRow("verify_gradients", grad_name, cfg.seed, "max_rel_fd_err", d, err)
        for grad_name, d, err in report
    ]
    if not ok:
        worst = max(report, key=lambda r: r[2])
        raise VerificationError(
            f"Gradient check failed: {worst[0]} at d={worst[1]} "
            f"has max relative error {worst[2]:.3e} >= {cfg.tolerance:g}"
        )
    return rows


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
    run: Callable


# One entry per experiment kind: ``keys``, the top-level keys its configs
# read besides schema_version, experiment and output_dir (any other is
# refused, not silently ignored); ``parse(raw, cfg)``, its checks after
# ``load_config``'s shared parsing, ending with its problem specs so that a
# bad problem key exits before the output directory is made; ``run(cfg)``, its rows.
_KINDS = {
    "test_function": _Kind({"seed", "trials", "steps", "record_every", "problem", "optimizers"},
                           _parse_test_function, _run_test_function_experiment),
    "regression": _Kind({"seed", "trials", "problem", "model", "optimizers"},
                        _parse_regression, _run_regression_experiment),
    "regret": _Kind({"seed", "trials", "horizon", "dims", "problem", "optimizer"},
                    _parse_regret, _run_regret_experiment_kind),
    "surfaces": _Kind({"problem", "grids"}, _parse_surfaces, _run_surfaces_experiment),
    "verify_gradients": _Kind({"seed", "points", "dims", "tolerance"},
                              _parse_verify_gradients, _run_verify_gradients_experiment),
}
EXPERIMENT_KINDS = tuple(_KINDS)


def run_experiment(cfg: ExperimentConfig):
    """Execute one experiment; writes results.csv + summary.csv, returns rows."""
    try:
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"Cannot make output directory {cfg.output_dir}: {exc}") from exc
    rows = _KINDS[cfg.kind].run(cfg)
    if rows:
        write_results_csv(rows, cfg.output_dir / "results.csv")
        write_summary_csv(summarize_rows(rows), cfg.output_dir / "summary.csv")
    return rows
