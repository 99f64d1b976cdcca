"""End-to-end acceptance checks.

One test (or test group) per numbered criterion; the terminal summary in
conftest.py prints a pass/fail line for each.  The heavy experiment runs
use the shipped configs verbatim, redirected into temporary directories.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from adaterm.harness import load_config, run_experiment
from adaterm.optimizers import (
    GroupState,
    adam_moments,
    adaterm_eta,
    adaterm_moments,
    tadam_moments,
    update_bias_accumulator,
)
from adaterm.problems import QuadraticSequence
from adaterm.regret import run_regret_experiment
from adaterm.results import read_results_csv, summarize_rows
from adaterm.rng import make_rng
from adaterm.specs import GridSpec, OnlineConvexSpec, OptimizerConfig
from adaterm.surfaces import emit_grid
from adaterm.tdist import grad_nu_from_deviation, grad_nu_surrogate_pre

from _golden import PLATEAU_WINDOW_HIGH, PLATEAU_WINDOW_LOW
from _reference import (
    ascent_forms,
    corollary_rhs,
    grad_nu_tilde_surrogate,
    reference_summarize_rows,
    summary_bits,
    theorem_rhs,
)
from _regret_replay import replay_logs

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _median(rows, experiment, optimizer, metric):
    vals = [
        r.value
        for r in rows
        if r.experiment == experiment and r.optimizer == optimizer
        and r.metric == metric
    ]
    assert vals, f"no rows for {experiment}/{optimizer}/{metric}"
    return float(np.median(vals))


def _average_ranks(values):
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size)
    sorted_vals = values[order]
    base = np.arange(1, values.size + 1, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = base[i : j + 1].mean()
        i = j + 1
    return ranks


def _spearman(x, y):
    rx = _average_ranks(x) - (len(x) + 1) / 2.0
    ry = _average_ranks(y) - (len(y) + 1) / 2.0
    return float(np.sum(rx * ry) / math.sqrt(np.sum(rx * rx) * np.sum(ry * ry)))


@pytest.fixture(scope="module")
def rosenbrock_run(tmp_path_factory):
    cfg = load_config(CONFIG_DIR / "rosenbrock.yaml")
    cfg.output_dir = tmp_path_factory.mktemp("rosenbrock")
    t0 = time.perf_counter()
    run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    return read_results_csv(cfg.output_dir / "results.csv"), elapsed


@pytest.fixture(scope="module")
def regression_run(tmp_path_factory):
    cfg = load_config(CONFIG_DIR / "regression.yaml")
    cfg.output_dir = tmp_path_factory.mktemp("regression")
    t0 = time.perf_counter()
    run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    return read_results_csv(cfg.output_dir / "results.csv"), elapsed


@pytest.fixture(scope="module")
def regret_run(tmp_path_factory):
    cfg = load_config(CONFIG_DIR / "regret.yaml")
    cfg.output_dir = tmp_path_factory.mktemp("regret")
    t0 = time.perf_counter()
    run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    return read_results_csv(cfg.output_dir / "results.csv"), elapsed, cfg.args["optimizer"][1]


# --- 1 -----------------------------------------------------------------


def test_criterion_01_gradients_match_finite_differences(tmp_path):
    cfg = load_config(CONFIG_DIR / "verify.yaml")
    cfg.output_dir = tmp_path
    t0 = time.perf_counter()
    assert run_experiment(cfg) == 12
    elapsed = time.perf_counter() - t0
    rows = read_results_csv(cfg.output_dir / "results.csv")
    for row in rows:
        assert row.value < 1e-5, f"{row.optimizer} at d={row.step}: {row.value:.3e}"
    assert elapsed < 5.0


# --- 2 -----------------------------------------------------------------


def test_criterion_02_surrogates_dominate_exact_gradient():
    t0 = time.perf_counter()
    nu_tilde = np.geomspace(0.5, 100.0, 50)[:, None]
    D = np.linspace(0.0, 100.0, 50)[None, :]
    w = (nu_tilde + 1.0) / (nu_tilde + D)
    for d in (1, 10, 100, 10**4):
        nu = nu_tilde * d
        exact = grad_nu_from_deviation(nu, d, D)
        pre = grad_nu_surrogate_pre(nu, d, w)
        tilde = grad_nu_tilde_surrogate(nu_tilde, d, w)
        assert np.min(pre - exact) >= -1e-12
        assert np.min(tilde - d * exact) >= -1e-12
    assert time.perf_counter() - t0 < 10.0


# --- 3 -----------------------------------------------------------------


@pytest.fixture(scope="module")
def dof_curve_grid():
    cols, table = emit_grid(GridSpec(kind="Fig1"))
    assert cols == ["d", "w_mv", "value"]
    return table


def test_criterion_03_d1_curve_signs(dof_curve_grid):
    d1 = dof_curve_grid[dof_curve_grid[:, 0] == 1.0]
    mid = d1[(d1[:, 1] >= 0.5) & (d1[:, 1] <= 2.0)]
    assert mid.shape[0] > 0
    assert np.all(mid[:, 2] > 0.0)
    # 0.05 falls between grid nodes; check the evaluation directly and at
    # the nearest emitted point.
    assert grad_nu_surrogate_pre(1.0, 1, 0.05) < 0.0
    nearest = d1[np.argmin(np.abs(d1[:, 1] - 0.05))]
    assert nearest[2] < 0.0


def test_criterion_03_high_d_curve_negative_below_098(dof_curve_grid):
    hi = dof_curve_grid[dof_curve_grid[:, 0] == 10000.0]
    low_w = hi[hi[:, 1] <= 0.98]
    assert low_w.shape[0] > 0
    assert np.all(low_w[:, 2] < 0.0)
    assert grad_nu_surrogate_pre(1e4, 10**4, 0.98) < 0.0


@pytest.mark.xfail(
    strict=True,
    reason="|value| < 1e-4 does not hold on all of [0.9, 1.1] for d = 1e4; "
    "the flat window is [0.974, 1.027] (see the companion tests)",
)
def test_criterion_03_high_d_plateau_as_stated(dof_curve_grid):
    hi = dof_curve_grid[dof_curve_grid[:, 0] == 10000.0]
    window = hi[(hi[:, 1] >= 0.9) & (hi[:, 1] <= 1.1)]
    assert window.shape[0] > 0
    direct = grad_nu_surrogate_pre(1e4, 10**4, np.array([0.9, 1.1]))
    assert np.all(np.abs(window[:, 2]) < 1e-4)
    assert np.all(np.abs(direct) < 1e-4)


def test_criterion_03_high_d_plateau_measured_window(dof_curve_grid):
    # The window endpoints are the roots of |value| = 1e-4; strictly
    # inside, the magnitude stays below the threshold.
    ends = grad_nu_surrogate_pre(
        1e4, 10**4, np.array([PLATEAU_WINDOW_LOW, PLATEAU_WINDOW_HIGH])
    )
    np.testing.assert_allclose(np.abs(ends), 1e-4, rtol=1e-9)
    dense = np.linspace(PLATEAU_WINDOW_LOW, PLATEAU_WINDOW_HIGH, 2003)[1:-1]
    assert np.all(np.abs(grad_nu_surrogate_pre(1e4, 10**4, dense)) < 1e-4)
    # Just outside the window the magnitude exceeds the threshold again.
    assert abs(grad_nu_surrogate_pre(1e4, 10**4, PLATEAU_WINDOW_LOW - 1e-3)) > 1e-4
    assert abs(grad_nu_surrogate_pre(1e4, 10**4, PLATEAU_WINDOW_HIGH + 1e-3)) > 1e-4
    # The value at w = 1 itself stays below the threshold.
    assert abs(grad_nu_surrogate_pre(1e4, 10**4, 1.0)) < 1e-4
    # The window is narrower than the default grid's log spacing: the
    # emitted nodes bracketing w = 1 both sit outside it, over threshold.
    hi = dof_curve_grid[dof_curve_grid[:, 0] == 10000.0]
    below = hi[hi[:, 1] < 1.0][-1]
    above = hi[hi[:, 1] > 1.0][0]
    assert below[1] < PLATEAU_WINDOW_LOW and abs(below[2]) > 1e-4
    assert above[1] > PLATEAU_WINDOW_HIGH and abs(above[2]) > 1e-4


# --- 4 -----------------------------------------------------------------


def test_criterion_04_update_forms_agree():
    rng = make_rng(0)
    cfg = OptimizerConfig(algorithm="AdaTerm")
    state = GroupState(cfg, 1, 3)
    theta = np.zeros((1, 3))
    worst_m = worst_v = worst_nu = 0.0
    for t in range(1, 10_001):
        g = rng.standard_normal((1, 3)) * 10.0 ** rng.uniform(-3.0, 3.0)
        (asc_m, asc_v, asc_nu), _ = ascent_forms(
            state.m, state.v, state.nu, g, cfg.beta, cfg.eps, cfg.nu_tilde_min
        )
        state.step(theta, g, t)
        m, v, nu = state.m, state.v, float(state.nu[0])
        # m passes through zero, so its relative scale is the pair
        # (|m|, sqrt(v)); v and nu_tilde are bounded away from zero.
        denom_m = np.maximum(np.abs(m), np.sqrt(v))
        worst_m = max(worst_m, float(np.max(np.abs(m - asc_m) / denom_m)))
        worst_v = max(worst_v, float(np.max(np.abs(v - asc_v) / v)))
        worst_nu = max(worst_nu, abs(nu - float(asc_nu[0])) / nu)
    assert worst_m <= 1e-12
    assert worst_v <= 1e-12
    assert worst_nu <= 1e-12


# --- 5 -----------------------------------------------------------------


def test_criterion_05_gaussian_limit_matches_ablation():
    cfg_inf = OptimizerConfig(algorithm="AdaTerm", nu_tilde_min=1e8)
    cfg_abl = OptimizerConfig(algorithm="AdaTerm", ablation="NoRobustness")
    rng = make_rng(0)
    d = 4
    # Gradient scale matched to the fresh v = eps^2 state: unit gradients
    # would start with a huge normalized deviation and leave the
    # Gaussian-limit regime the criterion is about.
    gs = 1e-5 * rng.standard_normal((500, d))
    mA = np.zeros(d)
    vA = np.full(d, cfg_inf.eps * cfg_inf.eps)
    nuA = float(cfg_inf.nu_tilde_init)
    cA = 0.0
    thetaA = np.ones(d)
    mB = mA.copy()
    vB = vA.copy()
    nuB = float(cfg_abl.nu_tilde_init)
    cB = 0.0
    thetaB = np.ones(d)
    one_minus_beta = 1.0 - cfg_inf.beta
    worst_rel = worst_tau = 0.0
    for t in range(1, 501):
        g = gs[t - 1]
        mA, vA, nuA, tauA = adaterm_moments(mA, vA, nuA, g, cfg_inf)
        cA = update_bias_accumulator(cA, tauA)
        thetaA = thetaA - cfg_inf.alpha * adaterm_eta(mA, vA, cA, t, cfg_inf)
        mB, vB, nuB, tauB = adaterm_moments(mB, vB, nuB, g, cfg_abl)
        cB = update_bias_accumulator(cB, tauB)
        thetaB = thetaB - cfg_abl.alpha * adaterm_eta(mB, vB, cB, t, cfg_abl)
        rel = float(np.max(np.abs(thetaA - thetaB))) / float(
            np.max(np.abs(thetaB))
        )
        worst_rel = max(worst_rel, rel)
        worst_tau = max(worst_tau, abs(float(tauA) - one_minus_beta))
    assert worst_rel < 1e-6
    assert worst_tau < 1e-6


# --- 6 -----------------------------------------------------------------


def test_criterion_06_bias_accumulator_closed_form():
    beta = 0.9
    tau = 1.0 - beta
    c = 0.0
    for t in range(1, 201):
        c = update_bias_accumulator(c, tau)
        assert abs(c - (1.0 - beta**t)) <= 1e-14


# --- 7 -----------------------------------------------------------------


def test_criterion_07_rosenbrock_robustness(rosenbrock_run):
    rows, elapsed = rosenbrock_run
    noisy_ada = _median(rows, "Rosenbrock:p=0.15", "AdaTerm", "final_error_norm")
    noisy_adam = _median(rows, "Rosenbrock:p=0.15", "Adam", "final_error_norm")
    assert noisy_ada < noisy_adam
    clean_ada = _median(rows, "Rosenbrock:p=0", "AdaTerm", "final_error_norm")
    clean_adam = _median(rows, "Rosenbrock:p=0", "Adam", "final_error_norm")
    assert clean_ada < 0.1
    assert clean_adam < 0.1
    assert elapsed < 300.0


def test_rosenbrock_summary_has_the_bits_of_numpy(rosenbrock_run):
    """The run's ``summary.csv`` statistics are those of ``np.mean``,
    ``np.std`` and ``np.median`` bit for bit, the medians that criteria 07,
    08 and 13 take included."""
    rows, _ = rosenbrock_run
    assert summary_bits(summarize_rows(rows)) == summary_bits(reference_summarize_rows(rows))


# --- 8 -----------------------------------------------------------------


def test_criterion_08_nu_tracks_noise(rosenbrock_run):
    rows, _ = rosenbrock_run
    ratios = [0.0, 0.01, 0.025, 0.05, 0.10, 0.15]
    medians = [
        _median(rows, f"Rosenbrock:p={p:g}", "AdaTerm", "final_nu_tilde")
        for p in ratios
    ]
    assert _spearman(ratios, medians) <= -0.8


# --- 9 -----------------------------------------------------------------


def test_criterion_09_regression_robustness(regression_run):
    rows, elapsed = regression_run
    for p in (0.4, 0.6, 0.8, 1.0):
        exp = f"regression:p={p:g}"
        ada = _median(rows, exp, "AdaTerm", "test_mse")
        adam = _median(rows, exp, "Adam", "test_mse")
        assert ada < adam, f"p={p}: {ada} vs {adam}"
    heavy = _median(rows, "regression:p=1", "AdaTerm", "test_mse")
    clean = _median(rows, "regression:p=0", "AdaTerm", "test_mse")
    assert heavy <= 3.0 * clean
    assert elapsed < 900.0


# --- 10 ----------------------------------------------------------------


def test_criterion_10_regret_bound(regret_run):
    rows, elapsed, opt_cfg = regret_run
    holds = [r for r in rows if r.metric == "bound_holds_all_prefixes"]
    assert len(holds) == 40  # 20 seeds x 2 dimensions
    assert all(r.value == 1.0 for r in holds)
    ratios = [r for r in rows if r.metric == "sublinearity_ratio"]
    assert len(ratios) == 40
    assert all(r.value <= 1.2 for r in ratios)

    # Gaussian-limit substitution: the general bound with tau pinned at
    # 1 - beta must reproduce the closed form, term by term.
    t0 = time.perf_counter()
    spec = OnlineConvexSpec(dim=2, box_halfwidth=1.0, grad_bound=4.0)
    seq = QuadraticSequence(spec, [make_rng(0)], 5000)
    [report] = run_regret_experiment(seq, opt_cfg)
    assert np.all(report.regret_prefix <= report.bound_rhs_prefix)
    # The logs come from an independent replay that first checks it is
    # the same run, step by step.
    v_log, g_log = replay_logs(seq, opt_cfg, report)
    one_minus_beta = 1.0 - opt_cfg.beta
    pinned = theorem_rhs(
        v_log, g_log, one_minus_beta, one_minus_beta,
        opt_cfg.alpha, opt_cfg.beta, opt_cfg.eps, report.D_diam,
    )
    closed = corollary_rhs(
        v_log, g_log,
        opt_cfg.alpha, opt_cfg.beta, opt_cfg.eps, report.D_diam,
    )
    np.testing.assert_allclose(pinned, closed, rtol=1e-9)
    assert elapsed + (time.perf_counter() - t0) < 120.0


def test_criterion_10_bound_is_vacuous(regret_run):
    # Pinned, not desired: the bound's right-hand side exceeds the regret
    # by more than 40 orders of magnitude on every run, so criterion 10
    # holds trivially.  A change that makes the bound meaningful must
    # update this test on purpose.
    rows, _, _ = regret_run
    value = {(r.experiment, r.seed, r.metric): r.value for r in rows}
    runs = sorted({(r.experiment, r.seed) for r in rows})
    assert len(runs) == 40  # 20 seeds x 2 dimensions
    for exp, seed in runs:
        r_t = value[exp, seed, "R_T"]
        assert r_t > 0.0
        assert math.log10(value[exp, seed, "bound_rhs"] / r_t) > 40.0, (exp, seed)


# --- 11 ----------------------------------------------------------------


def test_criterion_11_variant_sanity():
    rng = make_rng(0)
    cfg_u = OptimizerConfig(algorithm="AdaTerm", variant="Uncentered")
    d = 3
    m = np.zeros(d)
    v = np.full(d, cfg_u.eps * cfg_u.eps)
    nu = float(cfg_u.nu_tilde_init)
    c = 0.0
    worst_eta = 0.0
    for t in range(1, 1001):
        g = rng.standard_normal(d)
        m, v, nu, tau = adaterm_moments(m, v, nu, g, cfg_u)
        c = update_bias_accumulator(c, tau)
        eta = adaterm_eta(m, v, c, t, cfg_u)
        if t > 100:
            worst_eta = max(worst_eta, float(np.max(np.abs(eta))))
    assert worst_eta < 1.0

    cfg_2 = OptimizerConfig(algorithm="AdaTerm", variant="AdaTerm2")
    m = np.zeros(d)
    v = np.full(d, cfg_2.eps * cfg_2.eps)
    nu = float(cfg_2.nu_tilde_init)
    min_v = math.inf
    for _ in range(10_000):
        g = rng.standard_normal(d) * 10.0 ** rng.uniform(-2.0, 2.0)
        m, v, nu, _ = adaterm_moments(m, v, nu, g, cfg_2)
        min_v = min(min_v, float(np.min(v)))
    assert min_v > 0.0


# --- 12 ----------------------------------------------------------------


def test_criterion_12_tadam_attenuates_spikes():
    rng = make_rng(0)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    worst_ratio = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 6))
        mA = np.zeros(d)
        vA = np.zeros(d)
        mT = np.zeros(d)
        vT = np.zeros(d)
        W = beta1 / (1.0 - beta1)
        for g in rng.standard_normal((20, d)):
            mA, vA = adam_moments(mA, vA, g, beta1, beta2)
            mT, vT, W = tadam_moments(mT, vT, W, g, beta1, beta2, float(d), eps)
        spike = 100.0 * rng.standard_normal(d)
        mA2, _ = adam_moments(mA, vA, spike, beta1, beta2)
        mT2, _, _ = tadam_moments(mT, vT, W, spike, beta1, beta2, float(d), eps)
        move_adam = float(np.linalg.norm(mA2 - mA))
        move_tadam = float(np.linalg.norm(mT2 - mT))
        worst_ratio = max(worst_ratio, move_tadam / move_adam)
    assert worst_ratio < 0.1


# --- 13 ----------------------------------------------------------------


def test_criterion_13_ablation_differentiation(rosenbrock_run):
    rows, _ = rosenbrock_run
    noisy_plain = _median(
        rows, "Rosenbrock:p=0.15", "AdaTerm-NoRobustness", "final_error_norm"
    )
    noisy_ada = _median(rows, "Rosenbrock:p=0.15", "AdaTerm", "final_error_norm")
    assert noisy_plain > noisy_ada
    clean_plain = _median(
        rows, "Rosenbrock:p=0", "AdaTerm-NoRobustness", "final_error_norm"
    )
    clean_ada = _median(rows, "Rosenbrock:p=0", "AdaTerm", "final_error_norm")
    assert clean_plain <= clean_ada + 0.05
