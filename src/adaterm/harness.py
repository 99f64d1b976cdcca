"""Experiment harness: config files, batched seeded trials, result tables.

One YAML config describes one experiment run.  Trials are independent:
trial i always uses seed ``base_seed + i`` and its own generator.

The harness advances all trials of a cell as one batched array
computation (trial axis leading) through ``optimizers.GroupState``, the
same state the optimizer classes hold at n = 1.  A single trial i is the
same cell run with ``lo=i, hi=i + 1``, and any split of a cell's trials
into contiguous batches gives byte-identical rows.  The canonical
per-trial draw order is documented on the draw helpers.

Result files: ``results.csv`` with one row per (experiment id, optimizer,
seed, metric, step, value), plus ``summary.csv`` with count/mean/std
(population)/median per (experiment, optimizer, metric, step).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .mlp import DEFAULT_LAYER_SIZES, MlpModel, mse_loss, stack_parameters
# Imported under these names because the benchmark's span tracer wraps them here.
from .mlp import backward as _batched_backward, forward as _batched_forward
from .optimizers import GroupState, OptimizerConfig
from .problems import (
    TEST_FUNCTIONS,
    NOISE_HALF_RANGE,
    RegressionStreamSpec,
    OnlineConvexSpec,
    apply_coordinate_noise,
    generate_regression_stream,
    true_regression_fn,
)
from .regret import run_regret_experiment, sublinearity_ratio, write_regret_csv
from .rng import make_rng
from .surfaces import GRID_KINDS, GridSpec, write_grid_csv
from .tdist import NonFiniteGradientError, grad_m, grad_nu_exact, grad_v, log_density

__all__ = [
    "ConfigError",
    "VerificationError",
    "SCHEMA_VERSION",
    "EXPERIMENT_KINDS",
    "ResultRow",
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
EXPERIMENT_KINDS = (
    "test_function",
    "regression",
    "regret",
    "surfaces",
    "verify_gradients",
)

TEST_X_POINTS = 1001  # fixed evaluation grid for the regression test loss


class ConfigError(Exception):
    """Config file unreadable, schema-invalid, or referencing unknown names."""


class VerificationError(Exception):
    """A verification experiment observed an invariant violation."""


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    optimizer: str
    seed: int
    metric: str
    step: int
    value: float


def write_results_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "optimizer", "seed", "metric", "step", "value"])
        for r in rows:
            writer.writerow(
                [r.experiment, r.optimizer, r.seed, r.metric, r.step, f"{r.value:.17g}"]
            )


def read_results_csv(path):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "metric" not in reader.fieldnames:
            raise ConfigError(f"Not a results file: {path}")
        for rec in reader:
            rows.append(
                ResultRow(
                    experiment=rec["experiment"],
                    optimizer=rec["optimizer"],
                    seed=int(rec["seed"]),
                    metric=rec["metric"],
                    step=int(rec["step"]),
                    value=float(rec["value"]),
                )
            )
    return rows


def summarize_rows(rows):
    """count/mean/std/median per (experiment, optimizer, metric, step).

    Standard deviation is the population estimator.  Returns dicts sorted
    by group key, ready for the summary CSV.
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
        out.append(
            {
                "experiment": key[0],
                "optimizer": key[1],
                "metric": key[2],
                "step": key[3],
                "count": vals.size,
                "mean": float(np.mean(vals)),
                "std": float(np.std(vals)),
                "median": float(np.median(vals)),
            }
        )
    return out


def write_summary_csv(summary, path):
    cols = ["experiment", "optimizer", "metric", "step", "count", "mean", "std", "median"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for rec in summary:
            writer.writerow(
                [
                    rec[c] if c in ("experiment", "optimizer", "metric")
                    else (rec[c] if c in ("step", "count") else f"{rec[c]:.17g}")
                    for c in cols
                ]
            )


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


_OPTIMIZER_KEYS = {
    "name",
    "algorithm",
    "alpha",
    "beta",
    "beta1",
    "beta2",
    "eps",
    "nu_tilde_min",
    "nu_tilde_init",
    "variant",
    "ablation",
    "lr_schedule",
    "weight_decay",
    "bias_correction",
}


# Top-level keys each experiment kind reads, besides schema_version,
# experiment and output_dir.  Any other key is rejected: a misspelt or
# leftover key would otherwise be silently ignored.
_KIND_KEYS = {
    "test_function": {"seed", "trials", "steps", "record_every", "problem", "optimizers"},
    "regression": {"seed", "trials", "problem", "model", "optimizers"},
    "regret": {"seed", "trials", "horizon", "dims", "problem", "optimizer"},
    "surfaces": {"problem", "grids"},
    "verify_gradients": {"seed", "points", "dims", "tolerance"},
}


def _parse_optimizer(section, index):
    if not isinstance(section, dict):
        raise ConfigError(f"optimizers[{index}] must be a mapping")
    unknown = set(section) - _OPTIMIZER_KEYS
    if unknown:
        raise ConfigError(
            f"optimizers[{index}]: unknown key(s) {sorted(unknown)}"
        )
    kwargs = {k: v for k, v in section.items() if k != "name"}
    try:
        cfg = OptimizerConfig(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"optimizers[{index}]: {exc}") from exc
    name = section.get("name", cfg.algorithm)
    return str(name), cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
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
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"Unknown experiment kind: {kind!r}")
    unknown = set(raw) - {"schema_version", "experiment", "output_dir"} - _KIND_KEYS[kind]
    if unknown:
        raise ConfigError(f"{kind} configs do not use key(s) {sorted(unknown)}")

    cfg = ExperimentConfig(kind=kind, output_dir=Path(raw.get("output_dir", "results")))
    for key in ("seed", "trials", "steps", "record_every", "horizon", "points"):
        if key in raw:
            val = raw[key]
            if not isinstance(val, int) or isinstance(val, bool):
                raise ConfigError(f"{key} must be an integer, got {val!r}")
            setattr(cfg, key, val)
    if cfg.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {cfg.trials}")
    if "tolerance" in raw:
        cfg.tolerance = float(raw["tolerance"])

    problem = raw.get("problem", {})
    if not isinstance(problem, dict):
        raise ConfigError("problem section must be a mapping")
    cfg.problem = problem

    if kind in ("test_function", "regression"):
        sections = raw.get("optimizers")
        if not isinstance(sections, list) or not sections:
            raise ConfigError(f"{kind} experiments need a non-empty optimizers list")
        cfg.optimizers = [_parse_optimizer(s, i) for i, s in enumerate(sections)]
        names = [n for n, _ in cfg.optimizers]
        if len(set(names)) != len(names):
            raise ConfigError(f"Duplicate optimizer names: {names}")
    if kind == "regret":
        section = raw.get("optimizer", {})
        if not isinstance(section, dict):
            raise ConfigError("optimizer section must be a mapping")
        cfg.optimizers = [_parse_optimizer(section, 0)]
        dims = raw.get("dims", problem.get("dims", [2]))
        if not isinstance(dims, list) or not dims:
            raise ConfigError("regret experiments need a non-empty dims list")
        cfg.dims = tuple(int(d) for d in dims)
    if kind == "test_function":
        fn = problem.get("function")
        if fn not in TEST_FUNCTIONS:
            raise ConfigError(
                f"Unknown test function: {fn!r} (choose from {sorted(TEST_FUNCTIONS)})"
            )
        ratios = problem.get("noise_ratios", [0.0])
        if not isinstance(ratios, list) or not ratios:
            raise ConfigError("noise_ratios must be a non-empty list")
        for p in ratios:
            if not 0.0 <= float(p) <= 1.0:
                raise ConfigError(f"noise ratio out of [0, 1]: {p}")
    if kind == "regression":
        sizes = raw.get("model", {}).get("layer_sizes", list(DEFAULT_LAYER_SIZES))
        if not isinstance(sizes, list) or len(sizes) < 2:
            raise ConfigError(f"model.layer_sizes must list >= 2 sizes, got {sizes!r}")
        cfg.model_sizes = tuple(int(s) for s in sizes)
        ratios = problem.get("noise_ratios", [0.0])
        if not isinstance(ratios, list) or not ratios:
            raise ConfigError("noise_ratios must be a non-empty list")
    if kind == "surfaces":
        grids = raw.get("grids", list(GRID_KINDS))
        if not isinstance(grids, list) or not grids:
            raise ConfigError("grids must be a non-empty list")
        for g in grids:
            if g not in GRID_KINDS:
                raise ConfigError(f"Unknown grid kind: {g!r}")
        cfg.grids = tuple(grids)
    if kind == "verify_gradients":
        dims = raw.get("dims", [1, 2, 5, 8])
        if not isinstance(dims, list) or not dims:
            raise ConfigError("verify_gradients needs a non-empty dims list")
        cfg.dims = tuple(int(d) for d in dims)
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
    """Canonical per-trial draws for regression: model init, then stream."""
    model = MlpModel(sizes, rng)
    xs, ys = [], []
    for x, y, _ in generate_regression_stream(spec, rng):
        xs.append(x)
        ys.append(y)
    return model, xs, ys


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


def _run_test_function_cell(function, p, opt_cfg, steps, base_seed, lo, hi,
                            record_every=0):
    """Trials [lo, hi) of one (function, ratio, optimizer) cell as a single
    batched run; a single trial i is ``lo=i, hi=i + 1``.

    Returns (final error norms (n,), final nu_tilde (n,) or None,
    [(step, error norms (n,))]).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Invalid noise probability: {p}")
    tf = TEST_FUNCTIONS[function]
    n = hi - lo
    us = np.empty((n, steps))
    deltas = np.empty((n, steps, 2))
    for i in range(n):
        us[i], deltas[i] = draw_test_function_noise(make_rng(base_seed + lo + i), steps)
    theta = np.tile(np.asarray(tf.start, dtype=np.float64), (n, 1))
    state = GroupState(opt_cfg, n, 2)
    opt_pt = np.asarray(tf.optimum)
    trails = []
    for t in range(1, steps + 1):
        noisy = apply_coordinate_noise(theta, us[:, t - 1], deltas[:, t - 1], p)
        eta = state.direction(tf.grad(noisy), t)
        alpha_t = opt_cfg.learning_rate(t)
        if opt_cfg.weight_decay:
            theta -= alpha_t * opt_cfg.weight_decay * theta
        theta -= alpha_t * eta
        if record_every and t % record_every == 0:
            trails.append((t, _error_norm(theta - opt_pt)))
    final_norm = _error_norm(theta - opt_pt)
    final_nu = state.nu if opt_cfg.algorithm == "AdaTerm" else None
    return final_norm, final_nu, trails


def _run_test_function_experiment(cfg: ExperimentConfig):
    function = cfg.problem["function"]
    ratios = [float(p) for p in cfg.problem.get("noise_ratios", [0.0])]
    rows = []
    for p in ratios:
        exp_id = f"{function}:p={p:g}"
        for name, opt_cfg in cfg.optimizers:
            norms, nus, trails = _run_test_function_cell(
                function, p, opt_cfg, cfg.steps, cfg.seed, 0, cfg.trials,
                cfg.record_every,
            )
            for i in range(cfg.trials):
                seed = cfg.seed + i
                rows.append(
                    ResultRow(exp_id, name, seed, "final_error_norm",
                              cfg.steps, float(norms[i]))
                )
                if nus is not None:
                    rows.append(
                        ResultRow(exp_id, name, seed, "final_nu_tilde",
                                  cfg.steps, float(nus[i]))
                    )
                for step, vec in trails:
                    rows.append(
                        ResultRow(exp_id, name, seed, "error_norm", step, float(vec[i]))
                    )
    return rows


# ---------------------------------------------------------------------------
# Regression experiment
# ---------------------------------------------------------------------------


def _run_regression_cell(spec, sizes, opt_cfg, base_seed, lo, hi, x_test):
    """Trials [lo, hi) of one (ratio, optimizer) cell as a single batched
    run; a single trial i is ``lo=i, hi=i + 1``.  Returns each trial's
    final test MSE against the clean target on ``x_test``."""
    n = hi - lo
    models, data_x, data_y = [], [], []
    for i in range(n):
        model, bx, by = draw_regression_trial(spec, sizes, make_rng(base_seed + lo + i))
        models.append(model)
        data_x.append(bx)
        data_y.append(by)
    Ws, Bs = stack_parameters(models)
    layer_count = len(Ws)
    states = [GroupState(opt_cfg, n, Ws[j][0].size) for j in range(layer_count)]
    states += [GroupState(opt_cfg, n, Bs[j][0].size) for j in range(layer_count)]

    n_batches = len(data_x[0])
    for t in range(1, n_batches + 1):
        x = np.stack([data_x[i][t - 1] for i in range(n)])  # (n, b, 1)
        y = np.stack([data_y[i][t - 1] for i in range(n)])
        y_hat, inputs, masks = _batched_forward(Ws, Bs, x)
        _, delta = mse_loss(y_hat, y)
        if not np.all(np.isfinite(delta)):
            raise NonFiniteGradientError(f"Non-finite loss gradient at batch {t}")
        gWs, gBs = _batched_backward(Ws, inputs, masks, delta)
        alpha_t = opt_cfg.learning_rate(t)
        for j in range(layer_count):
            eta_w = states[j].direction(gWs[j].reshape(n, -1), t)
            eta_b = states[layer_count + j].direction(gBs[j].reshape(n, -1), t)
            if opt_cfg.weight_decay:
                Ws[j] -= alpha_t * opt_cfg.weight_decay * Ws[j]
                Bs[j] -= alpha_t * opt_cfg.weight_decay * Bs[j]
            Ws[j] -= alpha_t * eta_w.reshape(Ws[j].shape)
            Bs[j] -= alpha_t * eta_b.reshape(Bs[j].shape)

    xt = np.broadcast_to(x_test, (n,) + x_test.shape)
    y_hat, _, _ = _batched_forward(Ws, Bs, xt)
    f = true_regression_fn(x_test[:, 0])[None, :, None]
    return mse_loss(y_hat, np.broadcast_to(f, y_hat.shape))[0]


def _run_regression_experiment(cfg: ExperimentConfig):
    ratios = [float(p) for p in cfg.problem.get("noise_ratios", [0.0])]
    base = {k: v for k, v in cfg.problem.items() if k != "noise_ratios"}
    x_test = np.linspace(0.0, 1.0, TEST_X_POINTS)[:, None]
    rows = []
    for p in ratios:
        try:
            spec = RegressionStreamSpec(noise_ratio=p, **base)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"problem section: {exc}") from exc
        exp_id = f"regression:p={p:g}"
        n_steps = math.ceil(spec.n_pairs / spec.batch_size)
        for name, opt_cfg in cfg.optimizers:
            mses = _run_regression_cell(
                spec, cfg.model_sizes, opt_cfg, cfg.seed, 0, cfg.trials, x_test
            )
            for i in range(cfg.trials):
                rows.append(
                    ResultRow(exp_id, name, cfg.seed + i, "test_mse", n_steps,
                              float(mses[i]))
                )
    return rows


# ---------------------------------------------------------------------------
# Regret, surfaces, gradient verification
# ---------------------------------------------------------------------------


def _run_regret_experiment_kind(cfg: ExperimentConfig):
    name, opt_cfg = cfg.optimizers[0]
    base = {k: v for k, v in cfg.problem.items() if k != "dims"}
    specs = []
    for d in cfg.dims:
        try:
            specs.append(OnlineConvexSpec(dim=d, **base))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"problem section: {exc}") from exc
    rows = []
    for spec in specs:
        exp_id = f"regret:d={spec.dim}"
        for seed in range(cfg.seed, cfg.seed + cfg.trials):
            rep = run_regret_experiment(spec, opt_cfg, cfg.horizon, make_rng(seed))
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
            write_regret_csv(
                rep, cfg.output_dir / f"regret_d{spec.dim}_seed{seed}.csv"
            )
    return rows


def grid_paths(cfg: ExperimentConfig):
    """The grid CSVs a surfaces run writes, one per grid kind."""
    return [cfg.output_dir / f"{kind}.csv" for kind in cfg.grids]


def _run_surfaces_experiment(cfg: ExperimentConfig):
    for kind, path in zip(cfg.grids, grid_paths(cfg)):
        try:
            spec = GridSpec(kind=kind, **cfg.problem.get(kind, {}))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"grid {kind}: {exc}") from exc
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


def run_gradient_verification(points=100, dims=(1, 2, 5, 8), tolerance=1e-5,
                              seed=0):
    """Check the three density gradients against central finite differences.

    Returns (report_rows, ok).  Each report row is (gradient, d,
    max_rel_err).  Relative error uses max(1, |analytic|) in the
    denominator so roots of the gradient do not blow up the ratio.
    """
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
# Dispatch
# ---------------------------------------------------------------------------


_RUNNERS = {
    "test_function": _run_test_function_experiment,
    "regression": _run_regression_experiment,
    "regret": _run_regret_experiment_kind,
    "surfaces": _run_surfaces_experiment,
    "verify_gradients": _run_verify_gradients_experiment,
}


def run_experiment(cfg: ExperimentConfig):
    """Execute one experiment; writes results.csv + summary.csv, returns rows."""
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    rows = _RUNNERS[cfg.kind](cfg)
    if rows:
        write_results_csv(rows, cfg.output_dir / "results.csv")
        write_summary_csv(summarize_rows(rows), cfg.output_dir / "summary.csv")
    return rows
