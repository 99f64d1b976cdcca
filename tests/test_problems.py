"""Benchmark surfaces, noise injection, the regression stream, and the
random online quadratics."""

import math

import numpy as np
import pytest

from adaterm.experiments import _run_test_function_cell, draw_test_function_noise
from adaterm.problems import (
    NOISE_HALF_RANGE,
    QuadraticSequence,
    TEST_FUNCTIONS,
    apply_coordinate_noise,
    generate_regression_stream,
    true_regression_fn,
)
from adaterm.rng import make_rng
from adaterm.specs import (TEST_FUNCTION_NAMES, OnlineConvexSpec, OptimizerConfig,
                           RegressionStreamSpec)

from _golden import (
    MICHALEWICZ_FSTAR,
    MICHALEWICZ_XSTAR,
    REGRESSION_F_QUARTER,
)

# One trial (seed 0) over one step: (seeds, steps) for a one-step cell.
ONE_STEP = ([0], 1)


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------


def test_table_is_keyed_by_the_names_a_config_may_give():
    # ``load_config`` checks a function's name against the numpy-free list.
    assert tuple(TEST_FUNCTIONS) == TEST_FUNCTION_NAMES


def test_rosenbrock_basics():
    tf = TEST_FUNCTIONS["Rosenbrock"]
    assert tf.fn(np.array([1.0, 1.0])) == 0.0
    assert np.all(tf.grad(np.array([1.0, 1.0])) == 0.0)
    # f(-2, 2) = 100 (2 - 4)^2 + (-2 - 1)^2 = 409, the fixed start.
    assert tf.fn(np.asarray(tf.start)) == 409.0
    assert tf.start == (-2.0, 2.0)


def test_mccormick_optimum_is_stationary():
    tf = TEST_FUNCTIONS["McCormick"]
    opt = np.asarray(tf.optimum)
    assert np.abs(tf.grad(opt)).max() < 1e-12
    assert tf.fn(opt) == pytest.approx(tf.optimum_value, rel=1e-15)
    assert tf.optimum_value == -math.sqrt(3.0) / 2.0 - math.pi / 3.0


def test_michalewicz_optimum_against_golden():
    tf = TEST_FUNCTIONS["Michalewicz"]
    assert tf.optimum == (MICHALEWICZ_XSTAR, math.pi / 2.0)
    opt = np.asarray(tf.optimum)
    assert np.abs(tf.grad(opt)).max() < 1e-12
    assert tf.fn(opt) == pytest.approx(MICHALEWICZ_FSTAR, rel=1e-14)
    # Locally minimal along both axes.
    for axis in (0, 1):
        for sign in (-1.0, 1.0):
            probe = opt.copy()
            probe[axis] += sign * 1e-3
            assert tf.fn(probe) > tf.fn(opt)


@pytest.mark.parametrize("name", sorted(TEST_FUNCTIONS))
def test_analytic_gradients_match_finite_differences(name):
    tf = TEST_FUNCTIONS[name]
    rng = make_rng(0)
    pts = rng.uniform(-3.0, 3.0, size=(100, 2))
    grads = tf.grad(pts)
    h = 1e-6
    for k in range(100):
        for axis in (0, 1):
            up = pts[k].copy()
            up[axis] += h
            down = pts[k].copy()
            down[axis] -= h
            fd = (tf.fn(up) - tf.fn(down)) / (2.0 * h)
            assert abs(fd - grads[k, axis]) <= 1e-6 * max(1.0, abs(grads[k, axis]))


def test_eval_test_function_batches_and_errors():
    tf = TEST_FUNCTIONS["Rosenbrock"]
    assert tf.fn(np.zeros((4, 3, 2))).shape == (4, 3)
    assert tf.grad(np.zeros((4, 3, 2))).shape == (4, 3, 2)
    with pytest.raises(KeyError, match="Sphere"):
        _run_test_function_cell("Sphere", [0.0], OptimizerConfig(), *ONE_STEP)


# ---------------------------------------------------------------------------
# Coordinate noise
# ---------------------------------------------------------------------------


def test_apply_noise_fires_on_trigger():
    pt = np.array([1.0, 2.0])
    deltas = np.array([0.05, -0.03])
    hit = apply_coordinate_noise(pt, 0.01, deltas, p=0.1)
    np.testing.assert_array_equal(hit, pt + deltas)
    miss = apply_coordinate_noise(pt, 0.5, deltas, p=0.1)
    np.testing.assert_array_equal(miss, pt)
    assert np.array_equal(pt, [1.0, 2.0])  # input untouched either way


def test_apply_noise_broadcasts_over_trials():
    pts = np.zeros((3, 2))
    deltas = np.full((3, 2), 0.1)
    us = np.array([0.0, 0.9, 0.0])
    out = apply_coordinate_noise(pts, us, deltas, p=0.5)
    np.testing.assert_array_equal(out[0], [0.1, 0.1])
    np.testing.assert_array_equal(out[1], [0.0, 0.0])
    np.testing.assert_array_equal(out[2], [0.1, 0.1])


def test_inject_noise_replays_canonical_draw_order():
    pt = np.array([[0.3, -0.4]])
    us, deltas = draw_test_function_noise(make_rng(5), 3)
    # All trigger uniforms first, then the (steps, 2) perturbation block.
    rng = make_rng(5)
    np.testing.assert_array_equal(us, rng.random(3))
    np.testing.assert_array_equal(
        deltas, rng.uniform(-NOISE_HALF_RANGE, NOISE_HALF_RANGE, size=(3, 2))
    )
    for t in range(3):
        got = apply_coordinate_noise(pt, us[t:t + 1], deltas[t:t + 1], 1.0)
        np.testing.assert_array_equal(got, pt + deltas[t])
        # p = 0 never perturbs; the draws are the same whatever p is.
        clean = apply_coordinate_noise(pt, us[t:t + 1], deltas[t:t + 1], 0.0)
        np.testing.assert_array_equal(clean, pt)


def test_inject_noise_rejects_bad_probability():
    for p in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="noise probability"):
            _run_test_function_cell("Rosenbrock", [0.0, p], OptimizerConfig(), *ONE_STEP)


def test_trigger_rate_matches_probability():
    us, deltas = draw_test_function_noise(make_rng(88), 15000)
    noisy = apply_coordinate_noise(np.zeros((15000, 2)), us, deltas, 0.05)
    fired = int(np.count_nonzero(np.any(noisy != 0.0, axis=1)))
    assert 670 <= fired <= 830  # 750 +- ~4 sigma


# ---------------------------------------------------------------------------
# Regression stream
# ---------------------------------------------------------------------------


def test_true_regression_fn_landmarks():
    assert true_regression_fn(0.0) == 0.0
    assert true_regression_fn(0.25) == pytest.approx(REGRESSION_F_QUARTER,
                                                     rel=1e-14)
    # The oscillatory part vanishes at quarter-integers.
    for x in (0.0, 0.25, 0.5, 0.75, 1.0):
        smooth = x * x + np.log1p(x)
        assert true_regression_fn(x) == pytest.approx(smooth, abs=1e-15)


def test_stream_spec_validation():
    with pytest.raises(ValueError):
        RegressionStreamSpec(n_pairs=0)
    with pytest.raises(ValueError):
        RegressionStreamSpec(batch_size=0)
    with pytest.raises(TypeError):
        RegressionStreamSpec(noise_ratio=0.5)  # the plan holds no ratio
    with pytest.raises(ValueError):
        RegressionStreamSpec(x_low=-1.0)
    with pytest.raises(ValueError):
        RegressionStreamSpec(x_low=0.5, x_high=0.5)


def test_stream_shapes_and_partial_final_batch():
    spec = RegressionStreamSpec(n_pairs=25, batch_size=10)
    batches = list(generate_regression_stream(spec, make_rng(0)))
    assert [b[0].shape[0] for b in batches] == [10, 10, 5]
    for x, u, zeta, f in batches:
        b = x.shape[0]
        assert x.shape == zeta.shape == f.shape == (b, 1)
        assert u.shape == (b,)
        assert np.all((0.0 <= x) & (x <= 1.0))
        assert np.all((0.0 <= u) & (u < 1.0))


def test_clean_stream_equals_target():
    spec = RegressionStreamSpec(n_pairs=30, batch_size=7)
    for x, u, zeta, f in generate_regression_stream(spec, make_rng(3)):
        np.testing.assert_array_equal(f, true_regression_fn(x[:, 0])[:, None])
        # Ratio 0 leaves every label clean; ratio 1 puts noise on every one.
        np.testing.assert_array_equal(apply_coordinate_noise(f, u, zeta, 0.0), f)
        noisy = apply_coordinate_noise(f, u, zeta, 1.0)
        np.testing.assert_array_equal(noisy, f + zeta)
        assert np.all(noisy != f)


def test_stream_replays_canonical_draw_order():
    spec = RegressionStreamSpec(n_pairs=10, batch_size=10)
    (x, u, zeta, f), = generate_regression_stream(spec, make_rng(11))
    rng = make_rng(11)
    ex = rng.uniform(0.0, 1.0, size=10)
    eu = rng.random(10)
    z = rng.standard_normal(10)
    chi2 = rng.chisquare(1.0, 10)
    ezeta = 0.05 * z / np.sqrt(chi2 / 1.0)
    ef = true_regression_fn(ex)
    np.testing.assert_array_equal(x[:, 0], ex)
    np.testing.assert_array_equal(u, eu)
    np.testing.assert_array_equal(zeta[:, 0], ezeta)
    np.testing.assert_array_equal(f[:, 0], ef)
    np.testing.assert_array_equal(
        apply_coordinate_noise(f, u, zeta, 0.4)[:, 0], ef + np.where(eu < 0.4, ezeta, 0.0)
    )


def test_stream_noisy_labels_nest_across_ratios():
    """A label noisy at ratio p is noisy at every p' > p, with the same
    noise: one stream serves every ratio."""
    spec = RegressionStreamSpec(n_pairs=500, batch_size=50)
    ratios = [0.0, 0.05, 0.3, 0.31, 0.7, 1.0]
    for x, u, zeta, f in generate_regression_stream(spec, make_rng(13)):
        ys = [apply_coordinate_noise(f, u, zeta, p) for p in ratios]
        noisy = [y != f for y in ys]
        for k in range(len(ratios) - 1):
            assert not np.any(noisy[k] & ~noisy[k + 1])
            np.testing.assert_array_equal(ys[k][noisy[k]], ys[k + 1][noisy[k]])
        assert not noisy[0].any() and noisy[-1].all()


def test_stream_is_deterministic_per_seed():
    spec = RegressionStreamSpec(n_pairs=40, batch_size=10)
    a = list(generate_regression_stream(spec, make_rng(9)))
    b = list(generate_regression_stream(spec, make_rng(9)))
    assert len(a) == len(b) == 4
    for batch_a, batch_b in zip(a, b):
        for da, db in zip(batch_a, batch_b):
            np.testing.assert_array_equal(da, db)


# ---------------------------------------------------------------------------
# Online convex quadratics
# ---------------------------------------------------------------------------


def test_online_spec_box_and_diameter():
    spec = OnlineConvexSpec(dim=3, box_halfwidth=1.5)
    lo, hi = spec.box
    np.testing.assert_array_equal(lo, [-1.5, -1.5, -1.5])
    np.testing.assert_array_equal(hi, [1.5, 1.5, 1.5])
    assert spec.diameter == 3.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dim": 0},
        {"box_halfwidth": 0.0},
        {"grad_bound": -1.0},
        {"curvature_low": 2.0, "curvature_high": 1.0},
    ],
)
def test_online_spec_validation(kwargs):
    with pytest.raises(ValueError):
        OnlineConvexSpec(**kwargs)


def test_quadratic_sequence_coefficient_ranges():
    spec = OnlineConvexSpec(dim=4)
    seq = QuadraticSequence(spec, [make_rng(0)], 500)
    assert len(seq) == 500
    cap = spec.grad_bound / spec.diameter
    assert np.all((spec.curvature_low <= seq.A) & (seq.A <= cap))
    assert np.all(np.abs(seq.C) <= spec.box_halfwidth)
    # Worst-case gradient over the box stays within the stated bound.
    corner = np.full((1, 4), spec.box_halfwidth)
    for t in range(0, 500, 50):
        assert np.abs(seq.grad(t, corner)).max() <= spec.grad_bound


def test_quadratic_sequence_draws_each_trial_from_its_own_generator():
    spec = OnlineConvexSpec(dim=3)
    seq = QuadraticSequence(spec, [make_rng(3), make_rng(4)], 50)
    assert seq.A.shape == seq.C.shape == (2, 50, 3) and len(seq) == 50
    for i, seed in enumerate([3, 4]):
        own = QuadraticSequence(spec, [make_rng(seed)], 50)
        assert seq.A[i].tobytes() == own.A[0].tobytes()
        assert seq.C[i].tobytes() == own.C[0].tobytes()
        assert seq.offline_optimum()[i].tobytes() == own.offline_optimum()[0].tobytes()


def test_quadratic_hand_values():
    seq = QuadraticSequence(OnlineConvexSpec(dim=2), [make_rng(1)], 3)
    seq.A[0] = [[1.0, 2.0], [2.0, 2.0], [3.0, 2.0]]
    seq.C[0] = [[0.0, 0.0], [3.0, 0.0], [-1.0, 0.0]]
    theta = np.array([[1.0, 1.0]])
    assert seq.loss(0, theta)[0] == 0.5 * (1.0 + 2.0)
    np.testing.assert_array_equal(seq.grad(1, theta), [[2.0 * (1.0 - 3.0), 2.0]])
    # A-weighted mean of centers: (1*0 + 2*3 + 3*(-1)) / 6 = 0.5.
    star = seq.offline_optimum()
    assert star.shape == (1, 2)
    assert star[0, 0] == pytest.approx(0.5, rel=1e-15)
    assert star[0, 1] == 0.0


def test_block_of_rounds_matches_round_by_round():
    # A slice of rounds gives, bit for bit, what one call per round gives,
    # for a theta per round and for one theta broadcast over the rounds.
    seq = QuadraticSequence(OnlineConvexSpec(dim=10), [make_rng(5), make_rng(6)], 9)
    thetas = make_rng(7).uniform(-1.0, 1.0, size=(2, 6, 10))
    star = seq.offline_optimum()
    rounds = slice(2, 8)
    losses = seq.loss(rounds, thetas)
    grads = seq.grad(rounds, thetas)
    star_losses = seq.loss(rounds, star[:, None])
    assert losses.shape == star_losses.shape == (2, 6) and grads.shape == (2, 6, 10)
    for j, t in enumerate(range(2, 8)):
        assert losses[:, j].tobytes() == seq.loss(t, thetas[:, j]).tobytes()
        assert grads[:, j].tobytes() == seq.grad(t, thetas[:, j]).tobytes()
        assert star_losses[:, j].tobytes() == seq.loss(t, star).tobytes()


def test_offline_optimum_zero_curvature_guard():
    seq = QuadraticSequence(OnlineConvexSpec(dim=2), [make_rng(2)], 2)
    seq.A[..., 0] = 0.0
    star = seq.offline_optimum()
    assert star[0, 0] == 0.0
    assert np.isfinite(star).all()


def test_sequence_indexing():
    seq = QuadraticSequence(OnlineConvexSpec(dim=2), [make_rng(3)], 4)
    theta = np.array([[0.2, -0.1]])
    diff = theta[0] - seq.C[0, 2]
    assert seq.loss(2, theta)[0] == 0.5 * float(np.sum(seq.A[0, 2] * diff * diff))
    np.testing.assert_array_equal(seq.grad(2, theta)[0], seq.A[0, 2] * diff)
    with pytest.raises(IndexError):
        seq.loss(4, theta)
    with pytest.raises(ValueError):
        QuadraticSequence(OnlineConvexSpec(dim=2), [make_rng(0)], 0)
