"""Online convex runs: projection, the per-prefix bound, and its
Gaussian-limit closed form."""

import math

import numpy as np
import pytest

from adaterm.optimizers import OptimizerConfig, adaterm_eta, adaterm_moments
from adaterm.problems import OnlineConvexSpec, QuadraticSequence
from adaterm.regret import (
    corollary_rhs,
    run_regret_experiment,
    sublinearity_ratio,
    theorem_rhs,
    weighted_projection,
    write_regret_csv,
    young_inequality_check,
)
from adaterm.rng import make_rng


def regret_config(alpha=0.1):
    return OptimizerConfig(
        algorithm="AdaTerm",
        alpha=alpha,
        lr_schedule="InverseSqrt",
        bias_correction=False,
    )


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


def test_projection_identity_inside_box():
    box = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    theta = np.array([0.3, -0.7])
    np.testing.assert_array_equal(
        weighted_projection(theta, box), theta
    )


def test_projection_clamps_outside():
    box = (np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    out = weighted_projection(np.array([5.0, -3.0]), box)
    np.testing.assert_array_equal(out, [1.0, -0.0])


def test_projection_idempotent():
    box = (np.full(3, -0.5), np.full(3, 0.5))
    once = weighted_projection(np.array([2.0, 0.1, -9.0]), box)
    np.testing.assert_array_equal(weighted_projection(once, box), once)


def test_projection_nonexpansive_in_weighted_norm():
    rng = make_rng(4)
    box = (np.full(5, -1.0), np.full(5, 1.0))
    for _ in range(200):
        a = rng.uniform(-3.0, 3.0, 5)
        b = rng.uniform(-3.0, 3.0, 5)
        w = rng.uniform(0.1, 10.0, 5)
        pa = weighted_projection(a, box)
        pb = weighted_projection(b, box)
        before = np.sum(w * (a - b) ** 2)
        after = np.sum(w * (pa - pb) ** 2)
        assert after <= before * (1.0 + 1e-12)


def test_projection_validation():
    ok = np.zeros(2)
    with pytest.raises(ValueError, match="Empty box"):
        weighted_projection(ok, (np.array([]), np.array([])))
    with pytest.raises(ValueError, match="upper bound below"):
        weighted_projection(ok, (np.ones(2), -np.ones(2)))


# ---------------------------------------------------------------------------
# Young's inequality helper
# ---------------------------------------------------------------------------


def test_young_hand_case():
    # 3*2 = 6 against (2/2)*9 + (1/4)*4 = 10.
    assert young_inequality_check(2.0, 3.0, 2.0)


def test_young_equality_case():
    # y = zeta * x makes both sides equal (18 = 9 + 9).
    assert young_inequality_check(2.0, 3.0, 6.0)


def test_young_fuzz():
    rng = make_rng(7)
    zeta = 10.0 ** rng.uniform(-3.0, 3.0, 500)
    x = rng.standard_normal(500) * 10.0 ** rng.uniform(-2.0, 2.0, 500)
    y = rng.standard_normal(500) * 10.0 ** rng.uniform(-2.0, 2.0, 500)
    assert young_inequality_check(zeta, x, y)


def test_young_rejects_nonpositive_zeta():
    with pytest.raises(ValueError):
        young_inequality_check(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        young_inequality_check(np.array([1.0, -2.0]), 1.0, 1.0)


# ---------------------------------------------------------------------------
# Experiment API
# ---------------------------------------------------------------------------


def test_run_rejects_bad_spec_type():
    with pytest.raises(TypeError, match="OnlineConvexSpec"):
        run_regret_experiment({"dim": 2}, regret_config(), 10, make_rng(0))


def test_run_rejects_non_default_optimizer():
    spec = OnlineConvexSpec()
    with pytest.raises(ValueError, match="default AdaTerm"):
        run_regret_experiment(
            spec,
            OptimizerConfig(algorithm="Adam", lr_schedule="InverseSqrt",
                            bias_correction=False),
            10,
            make_rng(0),
        )
    with pytest.raises(ValueError, match="InverseSqrt"):
        run_regret_experiment(
            spec, OptimizerConfig(bias_correction=False), 10, make_rng(0)
        )
    with pytest.raises(ValueError, match="bias_correction"):
        run_regret_experiment(
            spec, OptimizerConfig(lr_schedule="InverseSqrt"), 10, make_rng(0)
        )


def test_run_rejects_bad_horizon_and_missing_sources():
    spec = OnlineConvexSpec()
    with pytest.raises(ValueError, match="horizon"):
        run_regret_experiment(spec, regret_config(), 0, make_rng(0))
    with pytest.raises(ValueError, match="seq or rng"):
        run_regret_experiment(spec, regret_config(), 10)
    short = QuadraticSequence(spec, make_rng(0), 5)
    with pytest.raises(ValueError, match="shorter than horizon"):
        run_regret_experiment(spec, regret_config(), 10, seq=short)


# ---------------------------------------------------------------------------
# Replay and cross-checks
# ---------------------------------------------------------------------------


def test_short_run_replays_exactly():
    spec = OnlineConvexSpec(dim=2)
    cfg = regret_config()
    seq = QuadraticSequence(spec, make_rng(0), 3)
    report = run_regret_experiment(spec, cfg, 3, seq=seq)

    lo, hi = spec.box
    theta_star = seq.offline_optimum(3)
    np.testing.assert_array_equal(report.theta_star, theta_star)

    theta = hi.copy()
    m = np.zeros(2)
    v = np.full(2, cfg.eps * cfg.eps)
    nu = float(cfg.nu_tilde_init)
    regret = 0.0
    for t in range(1, 4):
        loss_t = seq.loss(t - 1, theta)
        g = seq.grad(t - 1, theta)
        regret += loss_t - seq.loss(t - 1, theta_star)
        m, v, nu, tau = adaterm_moments(m, v, nu, g, cfg)
        nu = float(nu)
        eta = adaterm_eta(m, v, 0.0, t, cfg)
        theta = weighted_projection(theta - cfg.learning_rate(t) * eta, (lo, hi))
        assert report.losses[t - 1] == loss_t
        assert report.tau[t - 1] == float(tau)
        assert report.regret_prefix[t - 1] == regret
        np.testing.assert_array_equal(report.v_log[t - 1], v)
        np.testing.assert_array_equal(report.g_log[t - 1], g)
    assert report.R_T == regret
    assert report.G == np.abs(report.g_log).max()


@pytest.fixture(scope="module")
def medium_report():
    spec = OnlineConvexSpec(dim=2)
    return run_regret_experiment(spec, regret_config(), 500, make_rng(0)), spec


def test_report_properties(medium_report):
    report, _ = medium_report
    assert report.T == 500
    assert report.R_T == report.regret_prefix[-1]
    assert report.underline_tau == report.tau.min()
    assert report.tau_T == report.tau[-1]
    assert report.D_diam == 2.0
    assert report.G <= 4.0


def test_bound_holds_at_every_prefix(medium_report):
    report, _ = medium_report
    assert np.all(report.regret_prefix <= report.bound_rhs_prefix)


@pytest.mark.parametrize("t", [2, 57, 400, 500])
def test_prefix_bound_matches_whole_log_evaluation(medium_report, t):
    report, _ = medium_report
    cfg = regret_config()
    rhs = theorem_rhs(
        report.v_log[:t],
        report.g_log[:t],
        float(report.tau[:t].min()),
        float(report.tau[t - 1]),
        cfg.alpha,
        cfg.beta,
        cfg.eps,
        report.D_diam,
    )
    assert rhs.sum() == pytest.approx(report.bound_rhs_prefix[t - 1], rel=1e-9)


def test_final_terms_match_whole_log_evaluation(medium_report):
    report, _ = medium_report
    cfg = regret_config()
    rhs = theorem_rhs(
        report.v_log,
        report.g_log,
        report.underline_tau,
        report.tau_T,
        cfg.alpha,
        cfg.beta,
        cfg.eps,
        report.D_diam,
    )
    np.testing.assert_allclose(report.bound_terms, rhs, rtol=1e-12)


def test_gaussian_limit_substitution_recovers_corollary(medium_report):
    report, _ = medium_report
    cfg = regret_config()
    one_minus_beta = 1.0 - cfg.beta
    pinned = theorem_rhs(
        report.v_log,
        report.g_log,
        one_minus_beta,
        one_minus_beta,
        cfg.alpha,
        cfg.beta,
        cfg.eps,
        report.D_diam,
    )
    closed = corollary_rhs(
        report.v_log, report.g_log, cfg.alpha, cfg.beta, cfg.eps, report.D_diam
    )
    np.testing.assert_allclose(pinned, closed, rtol=1e-9)


def test_sublinearity_ratio_manual(medium_report):
    report, _ = medium_report
    got = sublinearity_ratio(report, t_low=100, t_high=500)
    ts = np.arange(100, 501)
    norm = report.regret_prefix[99:500] / np.sqrt(ts)
    assert got == pytest.approx(float(norm.max() / norm[0]), rel=1e-12)
    with pytest.raises(ValueError, match="shorter than t_low"):
        sublinearity_ratio(report, t_low=1000, t_high=5000)


def test_regret_csv_layout(medium_report, tmp_path):
    report, _ = medium_report
    path = tmp_path / "regret.csv"
    write_regret_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,loss,regret_prefix,bound_rhs_prefix,tau_t"
    assert len(lines) == report.T + 1
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == report.losses[0]
    last = lines[-1].split(",")
    assert int(last[0]) == report.T
    assert float(last[2]) == report.R_T
    assert float(last[4]) == report.tau_T


def test_explicit_comparator_and_start():
    spec = OnlineConvexSpec(dim=2)
    report = run_regret_experiment(
        spec,
        regret_config(),
        50,
        make_rng(1),
        theta_star=np.zeros(2),
        theta_init=np.array([9.0, -9.0]),
    )
    np.testing.assert_array_equal(report.theta_star, np.zeros(2))
    # The start is projected into the box before the first loss.
    assert report.losses[0] == pytest.approx(
        0.5 * np.sum(
            QuadraticSequence(spec, make_rng(1), 50).A[0]
            * (np.array([1.0, -1.0])
               - QuadraticSequence(spec, make_rng(1), 50).C[0]) ** 2
        ),
        rel=1e-15,
    )
