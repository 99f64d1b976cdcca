"""Online convex runs: projection, the per-prefix bound, and its
Gaussian-limit closed form."""

import numpy as np
import pytest

from adaterm.problems import QuadraticSequence
from adaterm.regret import (
    BLOCK,
    run_regret_experiment,
    sublinearity_ratio,
    weighted_projection,
    write_regret_csv,
)
from adaterm.rng import make_rng
from adaterm.specs import OnlineConvexSpec, OptimizerConfig

from _reference import corollary_rhs, theorem_rhs
from _regret_replay import replay_logs


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
# Experiment API
# ---------------------------------------------------------------------------


def test_run_rejects_bad_spec_type():
    with pytest.raises(TypeError, match="QuadraticSequence"):
        run_regret_experiment(OnlineConvexSpec(), regret_config())


def test_run_rejects_non_default_optimizer():
    seq = QuadraticSequence(OnlineConvexSpec(), [make_rng(0)], 10)
    with pytest.raises(ValueError, match="default AdaTerm"):
        run_regret_experiment(
            seq,
            OptimizerConfig(algorithm="Adam", lr_schedule="InverseSqrt",
                            bias_correction=False),
        )
    with pytest.raises(ValueError, match="InverseSqrt"):
        run_regret_experiment(seq, OptimizerConfig(bias_correction=False))
    with pytest.raises(ValueError, match="bias_correction"):
        run_regret_experiment(seq, OptimizerConfig(lr_schedule="InverseSqrt"))


def test_run_horizon_is_sequence_length():
    # A run plays every round of the sequence it is handed; an empty
    # horizon is refused where the sequence is drawn.
    spec = OnlineConvexSpec()
    [report] = run_regret_experiment(
        QuadraticSequence(spec, [make_rng(0)], 7), regret_config()
    )
    assert report.T == 7 and report.losses.shape == (7,)
    with pytest.raises(ValueError, match="horizon"):
        QuadraticSequence(spec, [make_rng(0)], 0)


def test_integer_box_starts_from_float_corner():
    seq = QuadraticSequence(OnlineConvexSpec(box_halfwidth=1), [make_rng(2)], 20)
    same = QuadraticSequence(OnlineConvexSpec(box_halfwidth=1.0), [make_rng(2)], 20)
    [a] = run_regret_experiment(seq, regret_config())
    [b] = run_regret_experiment(same, regret_config())
    assert a.regret_prefix.tobytes() == b.regret_prefix.tobytes()


# ---------------------------------------------------------------------------
# Replay and cross-checks
# ---------------------------------------------------------------------------


def test_short_run_replays_exactly():
    spec = OnlineConvexSpec(dim=2)
    cfg = regret_config()
    seq = QuadraticSequence(spec, [make_rng(0)], 3)
    [report] = run_regret_experiment(seq, cfg)

    np.testing.assert_array_equal(report.theta_star, seq.offline_optimum()[0])
    # The replay asserts the loss, tau and regret prefix of every step.
    v_log, g_log = replay_logs(seq, cfg, report)
    assert report.R_T == report.regret_prefix[-1]
    assert report.G == np.abs(g_log).max()
    rhs = theorem_rhs(v_log, g_log, report.underline_tau, report.tau_T,
                      cfg.alpha, cfg.beta, cfg.eps, report.D_diam)
    np.testing.assert_allclose(report.bound_terms, rhs, rtol=1e-12)


def _report_bytes(report):
    return (
        report.T,
        report.D_diam,
        np.float64(report.G).tobytes(),
        report.theta_star.tobytes(),
        report.losses.tobytes(),
        report.regret_prefix.tobytes(),
        report.bound_rhs_prefix.tobytes(),
        report.tau.tobytes(),
        report.bound_terms.tobytes(),
    )


@pytest.mark.parametrize("dim", [2, 10])
def test_reports_do_not_depend_on_the_batch(dim):
    # Each seed's report from one batched run is bitwise the report of the
    # run on that seed's generator alone, and reversing the generators
    # only reverses the reports.
    spec = OnlineConvexSpec(dim=dim)
    cfg = regret_config()
    seeds = [3, 4, 5]
    seq = QuadraticSequence(spec, [make_rng(s) for s in seeds], 300)
    drawn_a, drawn_c = seq.A.tobytes(), seq.C.tobytes()
    batch = run_regret_experiment(seq, cfg)
    assert seq.A.tobytes() == drawn_a and seq.C.tobytes() == drawn_c
    reverse = run_regret_experiment(
        QuadraticSequence(spec, [make_rng(s) for s in reversed(seeds)], 300), cfg
    )
    assert len(batch) == len(reverse) == 3
    for seed, rep, rev in zip(seeds, batch, reversed(reverse)):
        [own] = run_regret_experiment(
            QuadraticSequence(spec, [make_rng(seed)], 300), cfg
        )
        assert _report_bytes(rep) == _report_bytes(own), seed
        assert _report_bytes(rev) == _report_bytes(own), seed


def test_reports_do_not_depend_on_the_batch_across_blocks():
    # A horizon that crosses two edges of the bound's evaluation blocks and
    # ends five rounds into a third block.
    spec = OnlineConvexSpec(dim=3)
    cfg = regret_config()
    T = 2 * BLOCK + 5
    seeds = [0, 1]
    batch = run_regret_experiment(
        QuadraticSequence(spec, [make_rng(s) for s in seeds], T), cfg
    )
    for seed, rep in zip(seeds, batch):
        [own] = run_regret_experiment(QuadraticSequence(spec, [make_rng(seed)], T), cfg)
        assert rep.T == T
        assert _report_bytes(rep) == _report_bytes(own), seed


def _check_replay_at_horizon(T, dim, seed):
    # The replay asserts every round's loss, tau and regret prefix; G and
    # the final terms then come from the replayed logs.
    cfg = regret_config()
    seq = QuadraticSequence(OnlineConvexSpec(dim=dim), [make_rng(seed)], T)
    [report] = run_regret_experiment(seq, cfg)
    v_log, g_log = replay_logs(seq, cfg, report)
    assert report.G == np.abs(g_log).max()
    rhs = theorem_rhs(v_log, g_log, report.underline_tau, report.tau_T,
                      cfg.alpha, cfg.beta, cfg.eps, report.D_diam)
    np.testing.assert_allclose(report.bound_terms, rhs, rtol=1e-12)
    assert rhs.sum() == pytest.approx(report.bound_rhs_prefix[-1], rel=1e-9)


def test_one_round_past_a_block_replays_exactly():
    # The last block holds a single round.
    _check_replay_at_horizon(BLOCK + 1, dim=2, seed=0)


@pytest.mark.parametrize("blocks", [1, 2])
def test_horizon_on_a_block_edge_replays_exactly(blocks):
    # The last block is full: its G and g^4 carries are the run's last.
    _check_replay_at_horizon(blocks * BLOCK, dim=3, seed=2)


def test_first_round_bound_has_no_g4_term():
    # At eps = 1e-40 the g^4 term's coefficient overflows from round 1 on,
    # where the sum it multiplies is empty: the round-1 bound stays finite.
    cfg = OptimizerConfig(algorithm="AdaTerm", alpha=0.1, lr_schedule="InverseSqrt",
                          bias_correction=False, eps=1e-40, nu_tilde_init=1.5)
    seq = QuadraticSequence(OnlineConvexSpec(dim=2), [make_rng(0)], 3)
    with np.errstate(over="ignore", invalid="ignore"):
        [report] = run_regret_experiment(seq, cfg)
    assert np.isfinite(report.bound_rhs_prefix[0])
    assert np.isinf(report.bound_rhs_prefix[1])


@pytest.fixture(scope="module")
def medium_report():
    spec = OnlineConvexSpec(dim=2)
    cfg = regret_config()
    seq = QuadraticSequence(spec, [make_rng(0)], 500)
    [report] = run_regret_experiment(seq, cfg)
    return report, replay_logs(seq, cfg, report)


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


def _check_prefix_bound(report, v_log, g_log, t):
    cfg = regret_config()
    rhs = theorem_rhs(
        v_log[:t],
        g_log[:t],
        float(report.tau[:t].min()),
        float(report.tau[t - 1]),
        cfg.alpha,
        cfg.beta,
        cfg.eps,
        report.D_diam,
    )
    assert rhs.sum() == pytest.approx(report.bound_rhs_prefix[t - 1], rel=1e-9)


@pytest.mark.parametrize("t", [2, 57, 400, 500])
def test_prefix_bound_matches_whole_log_evaluation(medium_report, t):
    report, (v_log, g_log) = medium_report
    _check_prefix_bound(report, v_log, g_log, t)


@pytest.fixture(scope="module")
def long_report():
    # Eight full blocks and five rounds of a ninth.
    cfg = regret_config()
    seq = QuadraticSequence(OnlineConvexSpec(dim=2), [make_rng(1)], 8 * BLOCK + 5)
    [report] = run_regret_experiment(seq, cfg)
    return report, replay_logs(seq, cfg, report)


@pytest.mark.parametrize("t", [4 * BLOCK, 4 * BLOCK + 1, 8 * BLOCK, 8 * BLOCK + 1, 8 * BLOCK + 5])
def test_prefix_bound_matches_across_block_edges(long_report, t):
    report, (v_log, g_log) = long_report
    _check_prefix_bound(report, v_log, g_log, t)


def test_final_terms_match_across_block_edges(long_report):
    report, (v_log, g_log) = long_report
    cfg = regret_config()
    rhs = theorem_rhs(v_log, g_log, report.underline_tau, report.tau_T,
                      cfg.alpha, cfg.beta, cfg.eps, report.D_diam)
    np.testing.assert_allclose(report.bound_terms, rhs, rtol=1e-12)


def test_final_terms_match_whole_log_evaluation(medium_report):
    report, (v_log, g_log) = medium_report
    cfg = regret_config()
    rhs = theorem_rhs(
        v_log,
        g_log,
        report.underline_tau,
        report.tau_T,
        cfg.alpha,
        cfg.beta,
        cfg.eps,
        report.D_diam,
    )
    np.testing.assert_allclose(report.bound_terms, rhs, rtol=1e-12)


def test_gaussian_limit_substitution_recovers_corollary(medium_report):
    report, (v_log, g_log) = medium_report
    cfg = regret_config()
    one_minus_beta = 1.0 - cfg.beta
    pinned = theorem_rhs(
        v_log,
        g_log,
        one_minus_beta,
        one_minus_beta,
        cfg.alpha,
        cfg.beta,
        cfg.eps,
        report.D_diam,
    )
    closed = corollary_rhs(
        v_log, g_log, cfg.alpha, cfg.beta, cfg.eps, report.D_diam
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
    write_regret_csv([report], [path])
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

