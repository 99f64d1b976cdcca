"""Output checks for the benchmark's workloads.

Every check reads only the files a run wrote and the workload's config.
Where a number can be recomputed apart from the program, it is: the
Rosenbrock trials of Adam, AdaBelief and AdaTerm-NoRobustness are replayed
from the update equations in plain Python floats, and the regret run's
quadratics and offline optimum are regenerated from the seed.  AdaTerm
itself cannot be replayed bit for bit (``np.log`` and ``math.log`` differ
in the last bit and the trajectory near the optimum amplifies that), so it
is checked against properties the method must have.

``check_output`` returns a list of failure messages; an empty list means
the output passed.
"""

from __future__ import annotations

import csv
import math
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# Summary means and standard deviations are recomputed with math.fsum and
# may differ from the program's pairwise sums in the last bits.
SUMMARY_RTOL = 1e-9
NOISE_HALF_RANGE = 0.1  # uniform(-0.1, 0.1) coordinate perturbation
TEST_X_POINTS = 1001  # regression test grid on [0, 1]


def _rng(seed):
    """The program's documented generator: PCG64 over SeedSequence(seed)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def read_results(path):
    """results.csv as a list of (experiment, optimizer, seed, metric, step,
    value) tuples, in file order."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["experiment", "optimizer", "seed", "metric", "step", "value"]:
            raise ValueError(f"unexpected results.csv header {header}")
        return [(e, o, int(s), m, int(st), float(v)) for e, o, s, m, st, v in reader]


def _median(values):
    xs = sorted(values)
    n = len(xs)
    return xs[n // 2] if n % 2 else (xs[n // 2 - 1] + xs[n // 2]) / 2


def _values(rows, experiment, optimizer, metric):
    return [r[5] for r in rows if r[0] == experiment and r[1] == optimizer and r[3] == metric]


def _optimizer_names(cfg):
    return [(o.get("name", o["algorithm"]), o) for o in cfg["optimizers"]]


# ---------------------------------------------------------------------------
# Row counts
# ---------------------------------------------------------------------------


def expected_keys(cfg):
    """Every (experiment, optimizer, seed, metric, step) key the run must
    write, each exactly once."""
    seeds = range(cfg["seed"], cfg["seed"] + cfg["trials"])
    keys = []
    kind = cfg["experiment"]
    if kind == "test_function":
        steps, every = cfg["steps"], cfg["record_every"]
        for p in cfg["problem"]["noise_ratios"]:
            exp = f"{cfg['problem']['function']}:p={p:g}"
            for name, opt in _optimizer_names(cfg):
                for s in seeds:
                    keys.append((exp, name, s, "final_error_norm", steps))
                    if opt["algorithm"] == "AdaTerm":
                        keys.append((exp, name, s, "final_nu_tilde", steps))
                    keys += [(exp, name, s, "error_norm", t)
                             for t in range(every, steps + 1, every)]
    elif kind == "regression":
        prob = cfg["problem"]
        n_steps = -(-prob["n_pairs"] // prob["batch_size"])
        for p in prob["noise_ratios"]:
            for name, _ in _optimizer_names(cfg):
                keys += [(f"regression:p={p:g}", name, s, "test_mse", n_steps) for s in seeds]
    elif kind == "regret":
        name = cfg["optimizer"].get("name", cfg["optimizer"]["algorithm"])
        T = cfg["horizon"]
        for d in cfg["dims"]:
            for s in seeds:
                keys += [(f"regret:d={d}", name, s, metric, T) for metric in
                         ("R_T", "bound_rhs", "bound_holds_all_prefixes", "tau_low",
                          "sublinearity_ratio")]
    else:
        raise ValueError(f"no row plan for experiment kind {kind!r}")
    return keys


def check_rows(cfg, rows):
    errors = []
    want = Counter(expected_keys(cfg))
    got = Counter(r[:5] for r in rows)
    missing = want - got
    extra = got - want
    if missing:
        errors.append(f"results.csv: {sum(missing.values())} expected row(s) missing, "
                      f"e.g. {next(iter(missing))}")
    if extra:
        errors.append(f"results.csv: {sum(extra.values())} unexpected or duplicate row(s), "
                      f"e.g. {next(iter(extra))}")
    bad = [r for r in rows if not math.isfinite(r[5])]
    if bad:
        errors.append(f"results.csv: {len(bad)} non-finite value(s), e.g. {bad[0]}")
    return errors


# ---------------------------------------------------------------------------
# Summary
# ---------------------------------------------------------------------------


def _close(a, b, scale):
    return abs(a - b) <= SUMMARY_RTOL * scale


def check_summary(rows, path):
    """summary.csv holds one row per (experiment, optimizer, metric, step)
    group of results.csv, with count, mean, population std and median."""
    groups = defaultdict(list)
    for e, o, _, m, st, v in rows:
        groups[(e, o, m, st)].append(v)
    errors = []
    seen = set()
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            key = (rec["experiment"], rec["optimizer"], rec["metric"], int(rec["step"]))
            if key in seen:
                errors.append(f"summary.csv: duplicate group {key}")
                continue
            seen.add(key)
            if key not in groups:
                errors.append(f"summary.csv: group {key} not in results.csv")
                continue
            vals = groups[key]
            n = len(vals)
            count, mean = int(rec["count"]), float(rec["mean"])
            std, median = float(rec["std"]), float(rec["median"])
            if not all(map(math.isfinite, (mean, std, median))):
                errors.append(f"summary.csv: non-finite statistic in {key}")
                continue
            ref_mean = math.fsum(vals) / n
            ref_std = math.sqrt(math.fsum((v - ref_mean) ** 2 for v in vals) / n)
            scale = max(abs(ref_mean), abs(ref_std))
            if count != n:
                errors.append(f"summary.csv: {key} count {count}, results.csv has {n}")
            if not _close(mean, ref_mean, scale):
                errors.append(f"summary.csv: {key} mean {mean!r}, recomputed {ref_mean!r}")
            if not _close(std, ref_std, scale):
                errors.append(f"summary.csv: {key} std {std!r}, recomputed {ref_std!r}")
            if median != _median(vals):
                errors.append(f"summary.csv: {key} median {median!r}, "
                              f"recomputed {_median(vals)!r}")
    missing = set(groups) - seen
    if missing:
        errors.append(f"summary.csv: {len(missing)} group(s) missing, e.g. {min(missing)}")
    return errors


# ---------------------------------------------------------------------------
# Noisy Rosenbrock
# ---------------------------------------------------------------------------


def _rosenbrock_grad(x, y):
    gx = -400.0 * x * (y - x * x) + 2.0 * (x - 1.0)
    gy = 200.0 * (y - x * x)
    return gx, gy


def replay_rosenbrock_trial(opt, p, seed, steps, record_every):
    """Error norms at every ``record_every`` steps of one trial, replayed
    from the update equations with Python floats.  The operations are
    the program's, in the program's order, so the norms match bit for bit.

    Draw order: one trigger uniform per step, then a (steps, 2) block of
    uniform(-0.1, 0.1) perturbations; a step is noisy when its trigger is
    below ``p``.  Start (-2, 2), optimum (1, 1), constant step size.
    Covers Adam, AdaBelief and AdaTerm with the NoRobustness ablation
    (tau pinned at 1 - beta, scale correction eps^2).
    """
    rng = _rng(seed)
    us = rng.random(steps).tolist()
    deltas = rng.uniform(-NOISE_HALF_RANGE, NOISE_HALF_RANGE, size=(steps, 2)).tolist()
    algo, alpha = opt["algorithm"], opt["alpha"]
    b1, b2 = opt.get("beta1", 0.9), opt.get("beta2", 0.999)
    beta = opt.get("beta", 0.9)
    eps = opt.get("eps", 1e-5 if algo == "AdaTerm" else 1e-8)
    x, y = -2.0, 2.0
    m = [0.0, 0.0]
    v = [eps * eps] * 2 if algo == "AdaTerm" else [0.0, 0.0]
    norms = []
    for t in range(1, steps + 1):
        px, py = x, y
        if us[t - 1] < p:
            px, py = x + deltas[t - 1][0], y + deltas[t - 1][1]
        g = _rosenbrock_grad(px, py)
        step = [0.0, 0.0]
        for i in range(2):
            if algo == "AdaTerm":
                dev = g[i] - m[i]  # spread around the previous mean
                m[i] = beta * m[i] + (1.0 - beta) * g[i]
                v[i] = beta * v[i] + (1.0 - beta) * (dev * dev + eps * eps)
                corr = 1.0 - beta**t
                step[i] = (m[i] / corr) / math.sqrt(v[i] / corr)
                continue
            m[i] = b1 * m[i] + (1.0 - b1) * g[i]
            if algo == "Adam":
                v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i]
            else:  # AdaBelief: spread around the fresh mean
                dev = g[i] - m[i]
                v[i] = b2 * v[i] + (1.0 - b2) * (dev * dev)
            mh = m[i] / (1.0 - b1**t)
            vh = v[i] / (1.0 - b2**t)
            step[i] = mh / (math.sqrt(vh) + eps)
        x -= alpha * step[0]
        y -= alpha * step[1]
        if t % record_every == 0:
            dx, dy = x - 1.0, y - 1.0
            norms.append((t, math.sqrt(dx * dx + dy * dy)))
    return norms


def replay_sample(cfg):
    """Trial indices replayed per (ratio, optimizer) cell."""
    n = cfg["trials"]
    return sorted({0, n // 2, n - 1})


def check_rosenbrock(cfg, rows):
    errors = []
    steps, every = cfg["steps"], cfg["record_every"]
    ratios = cfg["problem"]["noise_ratios"]
    exp = {p: f"{cfg['problem']['function']}:p={p:g}" for p in ratios}
    opts = dict(_optimizer_names(cfg))
    by_key = {r[:5]: r[5] for r in rows}

    # The trail's last row is the final error norm.
    for (e, o, s, metric, st), v in by_key.items():
        if metric == "final_error_norm" and by_key.get((e, o, s, "error_norm", st)) != v:
            errors.append(f"{e} {o} seed {s}: last error_norm row differs from "
                          f"final_error_norm {v!r}")
            break

    for name in ("Adam", "AdaBelief", "AdaTerm-NoRobustness"):
        for p in ratios:
            for i in replay_sample(cfg):
                seed = cfg["seed"] + i
                for t, ref in replay_rosenbrock_trial(opts[name], p, seed, steps, every):
                    got = by_key.get((exp[p], name, seed, "error_norm", t))
                    if got != ref:
                        errors.append(f"{exp[p]} {name} seed {seed} step {t}: error norm "
                                      f"{got!r}, replay gives {ref!r}")
                        break

    nu_min = opts["AdaTerm"].get("nu_tilde_min", 1.0)
    for p in ratios:
        nus = _values(rows, exp[p], "AdaTerm", "final_nu_tilde")
        if min(nus) <= nu_min:
            errors.append(f"{exp[p]} AdaTerm: final nu_tilde {min(nus)!r} "
                          f"not above nu_tilde_min {nu_min}")
        norob = opts["AdaTerm-NoRobustness"]
        nu_init = norob.get("nu_tilde_min", 1.0) + norob.get("eps", 1e-5)
        frozen = set(_values(rows, exp[p], "AdaTerm-NoRobustness", "final_nu_tilde"))
        if frozen != {nu_init}:
            errors.append(f"{exp[p]} AdaTerm-NoRobustness: nu_tilde moved from its "
                          f"initial {nu_init!r}: {sorted(frozen)[:3]}")

    def med(p, name):
        return _median(_values(rows, exp[p], name, "final_error_norm"))

    top = max(ratios)
    for other in ("Adam", "AdaTerm-NoRobustness"):
        if not med(top, "AdaTerm") < med(top, other):
            errors.append(f"{exp[top]}: AdaTerm median final error {med(top, 'AdaTerm')!r} "
                          f"not below {other}'s {med(top, other)!r}")
    if 0.0 in ratios and not med(0.0, "AdaTerm") < 0.1:
        errors.append(f"{exp[0.0]}: AdaTerm median final error {med(0.0, 'AdaTerm')!r} "
                      "not below 0.1")
    return errors


# ---------------------------------------------------------------------------
# Heavy-tailed regression
# ---------------------------------------------------------------------------


def clean_target_variance():
    """Population variance of f(x) = x^2 + ln(1 + x) + sin(2 pi x) cos(2 pi x)
    on the 1001-point test grid (about 0.230)."""
    xs = [i / (TEST_X_POINTS - 1) for i in range(TEST_X_POINTS)]
    f = [x * x + math.log1p(x) + math.sin(2 * math.pi * x) * math.cos(2 * math.pi * x)
         for x in xs]
    mean = math.fsum(f) / len(f)
    return math.fsum((v - mean) ** 2 for v in f) / len(f)


def check_regression(cfg, rows):
    errors = []
    bad = [r for r in rows if not r[5] > 0.0]
    if bad:
        errors.append(f"regression: {len(bad)} test_mse value(s) not positive, e.g. {bad[0]}")
    names = [n for n, _ in _optimizer_names(cfg)]
    ratios = cfg["problem"]["noise_ratios"]
    # "Well below" the variance of the clean target: under a quarter of it.
    limit = clean_target_variance() / 4.0
    if 0.0 in ratios:
        for name in names:
            med = _median(_values(rows, "regression:p=0", name, "test_mse"))
            if not med < limit:
                errors.append(f"regression:p=0 {name}: median test_mse {med!r} not below "
                              f"a quarter of the clean target's variance ({limit:.4f})")
    if 1.0 in ratios:
        ada = _median(_values(rows, "regression:p=1", "AdaTerm", "test_mse"))
        adam = _median(_values(rows, "regression:p=1", "Adam", "test_mse"))
        if not ada < adam:
            errors.append(f"regression:p=1: AdaTerm median test_mse {ada!r} not below "
                          f"Adam's {adam!r}")
    return errors


# ---------------------------------------------------------------------------
# Regret bound
# ---------------------------------------------------------------------------


def read_trace(path):
    """A regret trace CSV as a dict of float columns."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["t", "loss", "regret_prefix", "bound_rhs_prefix", "tau_t"]:
            raise ValueError(f"unexpected trace header {header} in {path}")
        cols = list(zip(*[[float(x) for x in rec] for rec in reader]))
    return dict(zip(header, cols))


def offline_losses(seed, dim, T, problem):
    """Per-round loss of the offline optimum, regenerated from the seed.

    Quadratics l_t(x) = 0.5 sum_i A_ti (x_i - C_ti)^2 with A uniform on
    [0.5, 2] capped at grad_bound / (2 B), then C uniform on [-B, B]; the
    optimum of their sum is the A-weighted mean of the centres.
    """
    b = problem["box_halfwidth"]
    rng = _rng(seed)
    A = np.minimum(rng.uniform(0.5, 2.0, size=(T, dim)), problem["grad_bound"] / (2.0 * b))
    C = rng.uniform(-b, b, size=(T, dim))
    A_cols, C_cols = A.T.tolist(), C.T.tolist()
    star = [math.fsum(a * c for a, c in zip(A_cols[i], C_cols[i])) / math.fsum(A_cols[i])
            for i in range(dim)]
    A_rows, C_rows = A.tolist(), C.tolist()
    return [0.5 * math.fsum(a * (s - c) ** 2 for a, s, c in zip(A_rows[t], star, C_rows[t]))
            for t in range(T)]


def sublinearity(regret_prefix, t_low, t_high):
    """max over T in [t_low, t_high] of (R_T / sqrt T) / (R_t_low / sqrt t_low)."""
    norm = [regret_prefix[t - 1] / math.sqrt(t) for t in range(t_low, t_high + 1)]
    return max(norm) / norm[0]


def check_regret(cfg, rows, out_dir):
    errors = []
    T = cfg["horizon"]
    beta = cfg["optimizer"].get("beta", 0.9)
    tau_max = 1.0 - beta
    by_key = {r[:5]: r[5] for r in rows}
    name = cfg["optimizer"].get("name", cfg["optimizer"]["algorithm"])
    for d in cfg["dims"]:
        for seed in range(cfg["seed"], cfg["seed"] + cfg["trials"]):
            where = f"regret:d={d} seed {seed}"

            def reported(metric):
                return by_key.get((f"regret:d={d}", name, seed, metric, T))

            if reported("bound_holds_all_prefixes") != 1.0:
                errors.append(f"{where}: bound_holds_all_prefixes is "
                              f"{reported('bound_holds_all_prefixes')!r}")
            path = Path(out_dir) / f"regret_d{d}_seed{seed}.csv"
            if not path.is_file():
                errors.append(f"{where}: trace {path.name} missing")
                continue
            tr = read_trace(path)
            if list(tr["t"]) != [float(t) for t in range(1, T + 1)]:
                errors.append(f"{where}: trace rows are not t = 1..{T}")
                continue
            below = [t for t, r, b in zip(tr["t"], tr["regret_prefix"],
                                          tr["bound_rhs_prefix"]) if not b >= r]
            if below:
                errors.append(f"{where}: bound below regret at t = {int(below[0])} "
                              f"({len(below)} row(s))")
            bad_tau = [t for t, tau in zip(tr["t"], tr["tau_t"]) if not 0.0 < tau <= tau_max]
            if bad_tau:
                errors.append(f"{where}: tau_t outside (0, 1 - beta] at t = {int(bad_tau[0])}")
            for metric, value in (("R_T", tr["regret_prefix"][-1]),
                                  ("bound_rhs", tr["bound_rhs_prefix"][-1]),
                                  ("tau_low", min(tr["tau_t"]))):
                if reported(metric) != value:
                    errors.append(f"{where}: {metric} {reported(metric)!r} in results.csv, "
                                  f"trace gives {value!r}")
            star = offline_losses(seed, d, T, cfg["problem"])
            prev = 0.0
            for t, (loss, r, ls) in enumerate(zip(tr["loss"], tr["regret_prefix"], star), 1):
                tol = 1e-9 * max(1.0, abs(r), abs(loss))
                if abs((r - prev) - (loss - ls)) > tol:
                    errors.append(f"{where}: regret increment at t = {t} is {r - prev!r}, "
                                  f"loss - loss* is {loss - ls!r}")
                    break
                prev = r
            ratio = sublinearity(tr["regret_prefix"], min(1000, T), T)
            rep = reported("sublinearity_ratio")
            if rep is None or abs(rep - ratio) > 1e-12 * ratio:
                errors.append(f"{where}: sublinearity_ratio {rep!r}, trace gives {ratio!r}")
            if not ratio <= 1.2:
                errors.append(f"{where}: sublinearity_ratio {ratio!r} above 1.2")
    return errors


# ---------------------------------------------------------------------------


def check_output(cfg, out_dir):
    """All checks for one run's output directory."""
    out_dir = Path(out_dir)
    try:
        rows = read_results(out_dir / "results.csv")
        errors = check_rows(cfg, rows)
        errors += check_summary(rows, out_dir / "summary.csv")
        if errors:
            return errors  # the per-workload checks assume complete tables
        kind = cfg["experiment"]
        if kind == "test_function":
            errors += check_rosenbrock(cfg, rows)
        elif kind == "regression":
            errors += check_regression(cfg, rows)
        elif kind == "regret":
            errors += check_regret(cfg, rows, out_dir)
    except (OSError, ValueError, KeyError) as exc:
        errors = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return errors
