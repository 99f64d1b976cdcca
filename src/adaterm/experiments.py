"""The numerical half of the harness: each kind's run, its canonical
per-trial draws and its cells.  ``harness.run_experiment`` imports this
module once a config has been checked.

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
byte-identical rows.  The cells run in forked workers
(``harness._map_cells``).
"""

from __future__ import annotations

import math

import numpy as np

from .harness import _map_cells, grid_paths
from .mlp import MlpModel, mse_loss, stack_parameters
# Under these names, which the benchmark's span tracer looks up through ``harness``.
from .mlp import backward as _batched_backward, forward as _batched_forward
from .optimizers import GroupState
from .problems import (TEST_FUNCTIONS, NOISE_HALF_RANGE, QuadraticSequence,
                       apply_coordinate_noise, generate_regression_stream, true_regression_fn)
from .regret import run_regret_experiment, sublinearity_ratio, write_regret_csv
from .results import NonFiniteGradientError, ResultRow, VerificationError
from .rng import make_rng
from .surfaces import write_grid_csvs
from .tdist import grad_m, grad_nu_exact, grad_v, log_density

TEST_X_POINTS = 1001  # fixed evaluation grid for the regression test loss


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


def _run_test_function_experiment(cfg: ExperimentConfig):
    function, ratios = cfg.problem, cfg.noise_ratios
    us = np.empty((cfg.trials, cfg.steps))
    deltas = np.empty((cfg.trials, cfg.steps, 2))
    for i in range(cfg.trials):
        us[i], deltas[i] = draw_test_function_noise(make_rng(cfg.seed + i), cfg.steps)
    cells = _map_cells(_run_test_function_cell, {
        f"{function} {name}": (function, ratios, opt_cfg, us, deltas, cfg.record_every)
        for name, opt_cfg in cfg.optimizers})
    seeds = range(cfg.seed, cfg.seed + cfg.trials)
    # One (ratio, optimizer) block at a time: only its (n,) slices become floats.
    for j, p in enumerate(ratios):
        exp_id = f"{function}:p={p:g}"
        for (name, _), (norms, nus, trails) in zip(cfg.optimizers, cells):
            norms, nus = norms[j].tolist(), None if nus is None else nus[j].tolist()
            trails = [(step, vec[j].tolist()) for step, vec in trails]
            for i, seed in enumerate(seeds):
                yield ResultRow(exp_id, name, seed, "final_error_norm", cfg.steps, norms[i])
                if nus is not None:
                    yield ResultRow(exp_id, name, seed, "final_nu_tilde", cfg.steps, nus[i])
                for step, vec in trails:
                    yield ResultRow(exp_id, name, seed, "error_norm", step, vec[i])


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
    ``x_test``, evaluated one trial at a time: the forward pass keeps every
    layer's activations on the whole test grid."""
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

    f = true_regression_fn(x_test[:, 0])[None, :, None]
    mses = np.empty(n)
    for i in range(n):
        W, B = [W[i:i + 1] for W in Ws], [B[i:i + 1] for B in Bs]
        mses[i] = mse_loss(_batched_forward(W, B, x_test[None])[0], f)[0][0]
    return mses


def _run_regression_experiment(cfg: ExperimentConfig):
    spec = cfg.problem
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
             for p in cfg.noise_ratios for name, opt_cfg in cfg.optimizers}
    # Each cell makes its own labels (noise fires where u < p).
    results = _map_cells(lambda p, opt_cfg: _run_regression_cell(
        Ws, Bs, X, apply_coordinate_noise(F, U, Z, p), spec.batch_size, opt_cfg, x_test), cells)
    return [ResultRow(*cell.split(" ", 1), cfg.seed + i, "test_mse", n_steps, float(mses[i]))
            for cell, mses in zip(cells, results) for i in range(n)]


# ---------------------------------------------------------------------------
# Regret, surfaces, gradient verification
# ---------------------------------------------------------------------------


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
    write_regret_csv(reports, [cfg.output_dir / f"regret_d{spec.dim}_seed{s}.csv" for s in seeds])
    return rows


def _run_regret_experiment_kind(cfg: ExperimentConfig):
    # A cell per dimension: in one process, its reports are freed when it
    # returns, before the next dimension's draws are made.
    cells = {f"regret:d={spec.dim}": (cfg, spec) for spec in cfg.problem}
    return [row for rows in _map_cells(_run_regret_dimension, cells) for row in rows]


def _run_surfaces_experiment(cfg: ExperimentConfig):
    write_grid_csvs(cfg.problem, grid_paths(cfg))
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


def _rel_err(fd, exact):
    """Relative error over max(1, |exact|), so that roots of the gradient
    do not blow up the ratio."""
    return abs(fd - exact) / max(1.0, abs(exact))


def _run_verify_gradients_experiment(cfg: ExperimentConfig):
    """Check the three density gradients against central finite differences.

    One row per (gradient, d): the largest relative error (``_rel_err``)
    over ``points`` random draws.  The running maximum keeps a NaN
    (``np.maximum``), so a NaN error fails the check, as any error not
    below the tolerance does.
    """
    rng = make_rng(cfg.seed)
    rows = []
    for d in cfg.dims:
        worst = {"grad_m": 0.0, "grad_v": 0.0, "grad_nu": 0.0}
        for _ in range(cfg.points):
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
                worst["grad_m"] = np.maximum(worst["grad_m"], _rel_err(fd, gm[i]))
                h = 1e-6 * max(1.0, abs(v[i]))
                fd = _fd_log_density(g, m, v, nu, "v", i, h)
                worst["grad_v"] = np.maximum(worst["grad_v"], _rel_err(fd, gv[i]))
            h = 1e-6 * max(1.0, abs(nu))
            fd = _fd_log_density(g, m, v, nu, "nu", 0, h)
            worst["grad_nu"] = np.maximum(worst["grad_nu"], _rel_err(fd, gn))
        rows += [ResultRow("verify_gradients", grad_name, cfg.seed, "max_rel_fd_err", d, err)
                 for grad_name, err in worst.items()]
    # The largest error, a NaN before any number.
    _, grad_name, _, _, d, err = max(rows, key=lambda r: (math.isnan(r.value), r.value))
    if not err < cfg.tolerance:
        raise VerificationError(
            f"Gradient check failed: {grad_name} at d={d} "
            f"has max relative error {err:.3e}, not below {cfg.tolerance:g}"
        )
    return rows
