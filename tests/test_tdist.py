"""Student's-t density, its gradients, and the stateful online estimator."""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adaterm.special import EPS_FLOAT32, W_NU_BAR_CEIL
from adaterm.tdist import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    NonFiniteGradientError,
    StepDiagnostics,
    TDistState,
    advance_arrays,
    ascent_forms,
    diagnostics_arrays,
    grad_m,
    grad_nu_exact,
    grad_nu_from_deviation,
    grad_nu_surrogate_pre,
    grad_nu_tilde_surrogate,
    grad_v,
    load_state,
    log_density,
    save_state,
    state_from_bytes,
    state_to_bytes,
)

from _golden import (
    ADATERM_STEP1_D1,
    DOF_SURROGATE_ROOT_HIGH,
    DOF_SURROGATE_ROOT_LOW,
    LOG_DENSITY_CAUCHY_MODE,
    PRE_SURROGATE_D1E4_W09,
)

from adaterm.optimizers import GroupState, OptimizerConfig
from adaterm.rng import make_rng


def diagnose(state, g):
    """Diagnostics of one step from ``state``, without advancing it."""
    return diagnostics_arrays(state.m, state.v, state.nu_tilde, g,
                              state.beta, state.eps, state.nu_tilde_min)


def advance(state, g):
    """One estimator step of ``state`` through the array functions."""
    diag = diagnose(state, g)
    m, v, nu = advance_arrays(state.m, state.v, state.nu_tilde, g, diag)
    return replace(state, m=m, v=v, nu_tilde=float(nu), t=state.t + 1), diag


def ascent_step(state, g):
    """``ascent_forms`` at ``state``: the next (m, v, nu_tilde) and the
    step sizes (kappa_m, kappa_v, kappa_dnu)."""
    return ascent_forms(state.m, state.v, state.nu_tilde, g,
                        state.beta, state.eps, state.nu_tilde_min)


# ---------------------------------------------------------------------------
# Density
# ---------------------------------------------------------------------------


def test_cauchy_mode_value():
    # d=1, nu=1, at the mode: the standard Cauchy density is 1/pi.
    got = log_density(np.zeros(1), np.zeros(1), np.ones(1), 1.0)
    assert got == pytest.approx(LOG_DENSITY_CAUCHY_MODE, rel=1e-14)


def test_large_nu_matches_gaussian():
    g = np.array([0.3, -1.2, 0.7])
    m = np.array([0.1, 0.2, -0.4])
    v = np.array([0.5, 1.5, 2.0])
    gauss = -0.5 * np.sum(np.log(2.0 * np.pi * v) + (g - m) ** 2 / v)
    assert log_density(g, m, v, 1e8) == pytest.approx(gauss, abs=1e-6)


def test_density_symmetric_about_location():
    g = np.array([0.7, -0.2])
    m = np.array([0.1, 0.4])
    v = np.array([0.9, 1.3])
    assert log_density(g, m, v, 3.0) == pytest.approx(
        log_density(2.0 * m - g, m, v, 3.0), rel=1e-14
    )


def test_density_argument_validation():
    with pytest.raises(ValueError):
        log_density(np.zeros(2), np.zeros(3), np.ones(2), 1.0)
    with pytest.raises(ValueError):
        log_density(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        log_density(np.zeros(2), np.zeros(2), np.ones(2), 0.0)


# ---------------------------------------------------------------------------
# Gradients: closed forms against their unfactored counterparts
# ---------------------------------------------------------------------------


def test_grad_m_zero_at_location():
    m = np.array([0.3, -0.5])
    assert np.all(grad_m(m.copy(), m, np.ones(2), 2.0) == 0.0)


def test_grad_m_hand_value():
    # d=1, g-m=1, v=1, nu_tilde=1: D=1, w_mv=(1+1)/(1+1)=1, grad = 1.
    got = grad_m(np.array([1.0]), np.array([0.0]), np.array([1.0]), 1.0)
    assert got[0] == 1.0


def test_grad_m_unfactored_identity():
    """w_mv (g-m)/v == (nu+d)/(nu + sum s/v) * (g-m)/v with nu = nu_tilde d."""
    rng = make_rng(0)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        g = rng.normal(size=d)
        m = rng.normal(size=d)
        v = rng.uniform(0.2, 3.0, size=d)
        nt = rng.uniform(0.5, 50.0)
        nu = nt * d
        direct = (nu + d) / (nu + np.sum((g - m) ** 2 / v)) * (g - m) / v
        np.testing.assert_allclose(grad_m(g, m, v, nt), direct, rtol=1e-13)


def test_grad_v_zero_when_spread_matches_scale():
    # s == v per coordinate: both correction terms vanish identically.
    g = np.array([1.0, 2.0])
    m = np.array([0.0, 1.0])
    v = np.array([1.0, 1.0])
    assert np.all(grad_v(g, m, v, 3.0) == 0.0)


def test_grad_v_hand_value():
    # d=1, s=4, v=1, nu_tilde=1: D=4, w=2/5, lead=0.4/4=0.1, terms 3+0 -> 0.3
    got = grad_v(np.array([2.0]), np.array([0.0]), np.array([1.0]), 1.0)
    assert got[0] == pytest.approx(0.3, rel=1e-15)


def test_grad_v_unfactored_identity():
    """Factored form equals -1/(2v) + (nu+d)/2 * (s/v^2)/(nu + sum s/v)."""
    rng = make_rng(1)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        g = rng.normal(size=d)
        m = rng.normal(size=d)
        v = rng.uniform(0.2, 3.0, size=d)
        nt = rng.uniform(0.5, 50.0)
        nu = nt * d
        s = (g - m) ** 2
        direct = -0.5 / v + 0.5 * (nu + d) * (s / v**2) / (nu + np.sum(s / v))
        np.testing.assert_allclose(grad_v(g, m, v, nt), direct, rtol=1e-12,
                                   atol=1e-15)


def test_grad_nu_exact_consistent_with_deviation_form():
    g = np.array([0.4, -0.9, 1.3])
    m = np.array([0.0, 0.1, 0.2])
    v = np.array([0.7, 1.1, 0.4])
    D = float(np.mean((g - m) ** 2 / v))
    assert grad_nu_exact(g, m, v, 4.2) == grad_nu_from_deviation(4.2, 3, D)


def test_grad_nu_vanishes_in_gaussian_limit():
    # At huge nu the density no longer depends on nu.
    val = grad_nu_from_deviation(1e10, 2, 1.0)
    assert abs(val) < 1e-9


# ---------------------------------------------------------------------------
# Surrogate dof gradients
# ---------------------------------------------------------------------------


def test_pre_surrogate_hand_values():
    # nu_tilde=1, w=1: 0.5 (-1 + 1 + 1.5/nu) with nu=1 -> 0.75, nu=1e4 -> 7.5e-5
    assert grad_nu_surrogate_pre(1.0, 1, 1.0) == 0.75
    assert grad_nu_surrogate_pre(1e4, 10000, 1.0) == pytest.approx(7.5e-5, rel=1e-12)
    assert grad_nu_surrogate_pre(1e4, 10000, 0.9) == pytest.approx(
        PRE_SURROGATE_D1E4_W09, rel=1e-12
    )


def test_tilde_surrogate_crossover_roots():
    """At nu_tilde=1, d=1 the sign flips exactly where w - ln w = 2.5."""
    for root in (DOF_SURROGATE_ROOT_LOW, DOF_SURROGATE_ROOT_HIGH):
        assert abs(grad_nu_tilde_surrogate(1.0, 1, root)) < 1e-12
    lo, hi = DOF_SURROGATE_ROOT_LOW, DOF_SURROGATE_ROOT_HIGH
    assert grad_nu_tilde_surrogate(1.0, 1, lo * 0.99) < 0.0
    assert grad_nu_tilde_surrogate(1.0, 1, lo * 1.01) > 0.0
    assert grad_nu_tilde_surrogate(1.0, 1, hi * 0.99) > 0.0
    assert grad_nu_tilde_surrogate(1.0, 1, hi * 1.01) < 0.0


def test_tilde_surrogate_scales_linearly_with_d():
    w = np.geomspace(1e-4, 2.0, 25)
    for nt in (0.7, 1.0, 13.0):
        base = grad_nu_tilde_surrogate(nt, 1, w)
        for d in (2, 10, 10000):
            np.testing.assert_allclose(
                grad_nu_tilde_surrogate(nt, d, w), d * base, rtol=5e-15
            )


def test_surrogate_rejects_nonpositive_arguments():
    with pytest.raises(ValueError):
        grad_nu_surrogate_pre(0.0, 1, 1.0)
    with pytest.raises(ValueError):
        grad_nu_surrogate_pre(1.0, 1, 0.0)
    with pytest.raises(ValueError):
        grad_nu_tilde_surrogate(-1.0, 1, 1.0)
    with pytest.raises(ValueError):
        grad_nu_tilde_surrogate(1.0, 1, -0.5)


def test_surrogate_dominates_exact_spot_check():
    # One interior point of the acceptance grid, checked here for locality.
    nt, D, d = 2.0, 7.0, 10
    w = (nt + 1.0) / (nt + D)
    exact = grad_nu_from_deviation(nt * d, d, D)
    assert grad_nu_surrogate_pre(nt * d, d, w) >= exact
    assert grad_nu_tilde_surrogate(nt, d, w) >= d * exact


# ---------------------------------------------------------------------------
# State lifecycle
# ---------------------------------------------------------------------------


def test_fresh_state_values():
    st_ = TDistState.fresh(3)
    assert np.all(st_.m == 0.0)
    assert np.all(st_.v == 1e-5 * 1e-5)
    assert st_.nu_tilde == 1.0 + 1e-5
    assert st_.t == 0
    assert st_.d == 3


def test_fresh_accepts_nd_shapes():
    st_ = TDistState.fresh((2, 3))
    assert st_.m.shape == (2, 3)
    assert st_.d == 6


@pytest.mark.parametrize(
    "kwargs",
    [
        {"beta": 0.0},
        {"beta": 1.0},
        {"eps": 0.0},
        {"nu_tilde_min": 0.0},
        {"nu_tilde_init": 0.5},  # below nu_tilde_min
    ],
)
def test_fresh_validation(kwargs):
    with pytest.raises(ValueError):
        TDistState.fresh(2, **kwargs)


def test_first_step_matches_golden_trace():
    """Every diagnostic plus the advanced state, against 50-digit replay."""
    st_ = TDistState.fresh(1)
    g = np.array([0.01])  # the frozen trace's input
    diag = diagnose(st_, g)
    for name in (
        "s", "D", "w_mv", "w_mv_bar", "w_nu", "w_nu_bar", "tau_mv",
        "tau_nu", "delta_s", "lam",
    ):
        got = np.asarray(getattr(diag, name)).reshape(-1)[0]
        assert got == pytest.approx(ADATERM_STEP1_D1[name], rel=1e-12), name
    _, kappas = ascent_step(st_, g)
    for name, kappa in zip(("kappa_m", "kappa_v", "kappa_dnu"), kappas):
        got = np.asarray(kappa).reshape(-1)[0]
        assert got == pytest.approx(ADATERM_STEP1_D1[name], rel=1e-12), name
    new, _ = advance(st_, g)
    assert new.m[0] == pytest.approx(ADATERM_STEP1_D1["m1"], rel=1e-12)
    assert new.v[0] == pytest.approx(ADATERM_STEP1_D1["v1"], rel=1e-12)
    assert new.nu_tilde == pytest.approx(ADATERM_STEP1_D1["nu1"], rel=1e-12)
    assert new.t == 1


def test_tau_equals_one_minus_beta_when_gradient_hits_location():
    # g == m gives D = 0, w_mv == w_mv_bar, so tau_mv is exactly 1 - beta.
    st_ = TDistState(m=np.array([0.4]), v=np.array([0.2]), nu_tilde=2.0,
                     t=3, beta=0.9, eps=1e-5, nu_tilde_min=1.0)
    diag = diagnose(st_, np.array([0.4]))
    assert float(diag.tau_mv) == 1.0 - 0.9


def test_w_nu_bar_hits_ceiling_at_small_nu():
    # nu_tilde=1: w_bar=2, 2-ln 2 ~ 1.31, far below the 87.34 ceiling.
    st_ = TDistState(m=np.zeros(1), v=np.ones(1), nu_tilde=1.0,
                     t=0, beta=0.9, eps=1e-5, nu_tilde_min=0.5)
    diag = diagnose(st_, np.ones(1))
    assert float(diag.w_nu_bar) == W_NU_BAR_CEIL


def test_delta_s_floors_at_eps_squared_for_d1():
    # d=1 makes s - D v cancel to rounding noise, always below eps^2.
    st_ = TDistState.fresh(1)
    for g in (0.01, -0.5, 3.0, 40.0):
        diag = diagnose(st_, np.array([g]))
        assert diag.delta_s[0] == st_.eps**2
        st_, _ = advance(st_, np.array([g]))


def test_gaussian_limit_tau_window():
    # Huge nu_tilde with a moderate deviation: tau within 1e-6 of 1 - beta.
    st_ = TDistState(m=np.zeros(3), v=np.ones(3), nu_tilde=1e8,
                     t=5, beta=0.9, eps=1e-5, nu_tilde_min=1e8)
    diag = diagnose(st_, np.array([1.0, -1.0, 0.5]))
    tau = float(diag.tau_mv)
    assert (1.0 - 0.9) * (1.0 - 1e-6) < tau <= 1.0 - 0.9


def test_interpolation_equals_ascent_forms():
    """The two published shapes of the update are the same map.

    m is compared at the location scale max(|m|, sqrt(v)): near a zero
    crossing of m the plain ratio is unbounded for any floating-point
    evaluation of the identity.
    """
    rng = make_rng(5)
    st_ = TDistState.fresh(4)
    for _ in range(300):
        g = rng.normal(size=4) * (10.0 ** rng.uniform(-2, 2))
        (m_asc, v_asc, nu_asc), _ = ascent_step(st_, g)
        st_, _ = advance(st_, g)
        denom_m = np.maximum(np.abs(st_.m), np.sqrt(st_.v))
        assert np.all(np.abs(m_asc - st_.m) <= 1e-12 * denom_m)
        assert np.all(np.abs(v_asc - st_.v) <= 1e-12 * st_.v)
        assert abs(nu_asc - st_.nu_tilde) <= 1e-12 * st_.nu_tilde


def test_scale_never_below_floor_on_long_run():
    rng = make_rng(11)
    st_ = TDistState.fresh(2)
    floor = st_.eps**2 * (1.0 - 1e-12)
    for _ in range(10_000):
        g = rng.normal(size=2) * (10.0 ** rng.uniform(-3, 3))
        st_, _ = advance(st_, g)
        assert np.all(st_.v >= floor)


def test_nu_tilde_decays_under_persistent_outliers():
    """Forcing D = 100 every step drives nu_tilde down monotonically."""
    st_ = TDistState.fresh(1, nu_tilde_init=5.0)
    last = st_.nu_tilde
    for _ in range(50):
        g = st_.m + 10.0 * np.sqrt(st_.v)  # s = 100 v, so D = 100
        st_, _ = advance(st_, g)
        assert st_.nu_tilde < last
        assert st_.nu_tilde > st_.nu_tilde_min
        last = st_.nu_tilde


def test_update_rejects_bad_gradients():
    state = GroupState(OptimizerConfig(algorithm="AdaTerm"), 1, 2)
    theta = np.ones((1, 2))
    with pytest.raises(ValueError):
        state.step(theta, np.zeros((1, 3)), 1)
    with pytest.raises(NonFiniteGradientError):
        state.step(theta, np.array([[1.0, np.nan]]), 1)
    with pytest.raises(NonFiniteGradientError):
        state.step(theta, np.array([[np.inf, 0.0]]), 1)
    assert np.array_equal(theta, np.ones((1, 2)))
    assert np.array_equal(state.m, np.zeros((1, 2)))
    assert issubclass(NonFiniteGradientError, FloatingPointError)


@st.composite
def _state_and_gradient(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    scale = lambda: 10.0 ** draw(st.floats(min_value=-4, max_value=4))
    m = np.array([draw(st.floats(-1, 1)) * scale() for _ in range(d)])
    v = np.array([draw(st.floats(0.1, 1)) * scale() ** 2 for _ in range(d)])
    v = np.maximum(v, 1e-10)
    nu_min = 1.0
    nu = nu_min + draw(st.floats(min_value=1e-5, max_value=1e6))
    g = np.array([draw(st.floats(-1, 1)) * scale() for _ in range(d)])
    state = TDistState(m=m, v=v, nu_tilde=nu, t=1, beta=0.9, eps=1e-5,
                       nu_tilde_min=nu_min)
    return state, g


@given(_state_and_gradient())
@example((
    # (1 - beta) * w_mv / w_mv_bar rounds to 1 ulp above 1 - beta here
    # unless tau_mv is clamped.
    TDistState(m=np.array([0.0]), v=np.array([1.0]), nu_tilde=1.875, t=1,
               beta=0.9, eps=1e-5, nu_tilde_min=1.0),
    np.array([0.0]),
))
@example((
    # w_mv below the float32 floor puts w_nu at the w_nu_bar ceiling, and
    # (1 - beta) * w_nu / w_nu_bar rounds 1 ulp above 1 - beta at this beta
    # unless tau_nu is clamped.
    TDistState(m=np.array([0.0]), v=np.array([1.0]), nu_tilde=1.5, t=1,
               beta=0.537, eps=1e-5, nu_tilde_min=1.0),
    np.array([1e20]),
))
@settings(max_examples=300, deadline=None)
def test_step_invariants(case):
    """Bounds that hold for every reachable state and any finite gradient."""
    state, g = case
    diag = diagnose(state, g)
    tau = float(diag.tau_mv)
    assert 0.0 < tau <= 1.0 - state.beta
    assert 0.0 < float(diag.tau_nu) <= 1.0 - state.beta
    assert float(diag.w_nu) >= 1.0
    assert float(diag.w_nu_bar) >= W_NU_BAR_CEIL
    assert np.all(diag.delta_s >= state.eps**2)
    assert float(diag.lam) > state.nu_tilde_min
    new, _ = advance(state, g)
    assert np.all(new.v >= state.eps**2 * (1.0 - 1e-12))
    assert new.nu_tilde > state.nu_tilde_min


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    st_ = TDistState.fresh(3)
    rng = make_rng(4)
    for _ in range(5):
        st_, _ = advance(st_, rng.normal(size=3))
    back = state_from_bytes(state_to_bytes(st_))
    assert np.array_equal(back.m, st_.m)
    assert np.array_equal(back.v, st_.v)
    assert back.nu_tilde == st_.nu_tilde
    assert back.t == st_.t
    assert (back.beta, back.eps, back.nu_tilde_min) == (
        st_.beta, st_.eps, st_.nu_tilde_min
    )
    path = tmp_path / "state.bin"
    save_state(st_, path)
    assert np.array_equal(load_state(path).m, st_.m)


def test_checkpoint_exact_byte_layout():
    st_ = TDistState(m=np.array([0.25, -1.5]), v=np.array([1.0, 2.0]),
                     nu_tilde=1.5, t=7, beta=0.9, eps=1e-5, nu_tilde_min=1.0)
    want = (
        b"ADTM"
        + bytes([1])
        + struct.pack("<Q", 10)
        + struct.pack("<10d", 2.0, 7.0, 0.9, 1e-5, 1.0, 1.5, 0.25, -1.5, 1.0, 2.0)
    )
    assert state_to_bytes(st_) == want
    assert CHECKPOINT_MAGIC == b"ADTM"
    assert CHECKPOINT_VERSION == 1


def test_checkpoint_rejects_corruption():
    blob = state_to_bytes(TDistState.fresh(2))
    with pytest.raises(ValueError, match="magic"):
        state_from_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError, match="version"):
        state_from_bytes(blob[:4] + bytes([9]) + blob[5:])
    # Claimed count inconsistent with the embedded dimension.
    bad = blob[:5] + struct.pack("<Q", 9) + blob[13:]
    with pytest.raises(ValueError, match="inconsistent"):
        state_from_bytes(bad)
