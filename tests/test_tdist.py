"""Student's-t density, its gradients, and the online estimator's step."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adaterm.results import NonFiniteGradientError
from adaterm.special import W_NU_BAR_CEIL
from adaterm.tdist import (
    advance_arrays,
    diagnostics_arrays,
    grad_m,
    grad_nu_exact,
    grad_nu_from_deviation,
    grad_nu_surrogate_pre,
    grad_v,
    log_density,
)

from _golden import (
    ADATERM_STEP1_D1,
    DOF_SURROGATE_ROOT_HIGH,
    DOF_SURROGATE_ROOT_LOW,
    LOG_DENSITY_CAUCHY_MODE,
    PRE_SURROGATE_D1E4_W09,
)
from _reference import ascent_forms, grad_nu_tilde_surrogate

from adaterm.optimizers import GroupState
from adaterm.rng import make_rng
from adaterm.specs import OptimizerConfig


def fresh(d, **kwargs):
    """The (m, v, nu_tilde) a run starts from: trial 0 of a new GroupState."""
    state = GroupState(OptimizerConfig(**kwargs), 1, d)
    return state.m[0], state.v[0], state.nu[0]


def diagnose(m, v, nu_tilde, g, beta=0.9, eps=1e-5, nu_tilde_min=1.0):
    """Diagnostics of one step from (m, v, nu_tilde), without advancing."""
    return diagnostics_arrays(m, v, nu_tilde, g, beta, eps, nu_tilde_min)


def advance(m, v, nu_tilde, g, **consts):
    """One estimator step through the array functions: the next
    (m, v, nu_tilde) and the step's diagnostics."""
    diag = diagnose(m, v, nu_tilde, g, **consts)
    return advance_arrays(m, v, nu_tilde, g, diag), diag


def ascent_step(m, v, nu_tilde, g, beta=0.9, eps=1e-5, nu_tilde_min=1.0):
    """``ascent_forms`` at (m, v, nu_tilde): the next (m, v, nu_tilde) and
    the step sizes (kappa_m, kappa_v, kappa_dnu)."""
    return ascent_forms(m, v, nu_tilde, g, beta, eps, nu_tilde_min)


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
# Estimator steps from the state runs start from
# ---------------------------------------------------------------------------


def test_fresh_state_values():
    state = GroupState(OptimizerConfig(), 1, 3)
    assert state.m.shape == state.v.shape == (1, 3)
    assert np.all(state.m == 0.0)
    assert np.all(state.v == 1e-5 * 1e-5)
    assert np.all(state.nu == 1.0 + 1e-5)
    assert np.all(state.c == 0.0)


def test_fresh_accepts_nd_shapes():
    """n trials of a d-element group: (n, d) moments, (n,) per-trial scalars."""
    state = GroupState(OptimizerConfig(), 2, 3)
    assert state.m.shape == state.v.shape == (2, 3)
    assert state.nu.shape == state.c.shape == (2,)


def test_first_step_matches_golden_trace():
    """Every diagnostic plus the advanced state, against 50-digit replay."""
    m, v, nu = fresh(1)
    g = np.array([0.01])  # the frozen trace's input
    diag = diagnose(m, v, nu, g)
    for name in (
        "s", "D", "w_mv", "w_mv_bar", "w_nu", "w_nu_bar", "tau_mv",
        "tau_nu", "delta_s", "lam",
    ):
        got = np.asarray(getattr(diag, name)).reshape(-1)[0]
        assert got == pytest.approx(ADATERM_STEP1_D1[name], rel=1e-12), name
    _, kappas = ascent_step(m, v, nu, g)
    for name, kappa in zip(("kappa_m", "kappa_v", "kappa_dnu"), kappas):
        got = np.asarray(kappa).reshape(-1)[0]
        assert got == pytest.approx(ADATERM_STEP1_D1[name], rel=1e-12), name
    (m1, v1, nu1), _ = advance(m, v, nu, g)
    assert m1[0] == pytest.approx(ADATERM_STEP1_D1["m1"], rel=1e-12)
    assert v1[0] == pytest.approx(ADATERM_STEP1_D1["v1"], rel=1e-12)
    assert nu1 == pytest.approx(ADATERM_STEP1_D1["nu1"], rel=1e-12)


def test_tau_equals_one_minus_beta_when_gradient_hits_location():
    # g == m gives D = 0, w_mv == w_mv_bar, so tau_mv is exactly 1 - beta.
    diag = diagnose(np.array([0.4]), np.array([0.2]), 2.0, np.array([0.4]))
    assert float(diag.tau_mv) == 1.0 - 0.9


def test_w_nu_bar_hits_ceiling_at_small_nu():
    # nu_tilde=1: w_bar=2, 2-ln 2 ~ 1.31, far below the 87.34 ceiling.
    diag = diagnose(np.zeros(1), np.ones(1), 1.0, np.ones(1), nu_tilde_min=0.5)
    assert float(diag.w_nu_bar) == W_NU_BAR_CEIL


def test_delta_s_floors_at_eps_squared_for_d1():
    # d=1 makes s - D v cancel to rounding noise, always below eps^2.
    m, v, nu = fresh(1)
    for g in (0.01, -0.5, 3.0, 40.0):
        diag = diagnose(m, v, nu, np.array([g]))
        assert diag.delta_s[0] == 1e-5**2
        (m, v, nu), _ = advance(m, v, nu, np.array([g]))


def test_gaussian_limit_tau_window():
    # Huge nu_tilde with a moderate deviation: tau within 1e-6 of 1 - beta.
    diag = diagnose(np.zeros(3), np.ones(3), 1e8, np.array([1.0, -1.0, 0.5]),
                    nu_tilde_min=1e8)
    tau = float(diag.tau_mv)
    assert (1.0 - 0.9) * (1.0 - 1e-6) < tau <= 1.0 - 0.9


def test_interpolation_equals_ascent_forms():
    """The two published shapes of the update are the same map.

    m is compared at the location scale max(|m|, sqrt(v)): near a zero
    crossing of m the plain ratio is unbounded for any floating-point
    evaluation of the identity.
    """
    rng = make_rng(5)
    m, v, nu = fresh(4)
    for _ in range(300):
        g = rng.normal(size=4) * (10.0 ** rng.uniform(-2, 2))
        (m_asc, v_asc, nu_asc), _ = ascent_step(m, v, nu, g)
        (m, v, nu), _ = advance(m, v, nu, g)
        denom_m = np.maximum(np.abs(m), np.sqrt(v))
        assert np.all(np.abs(m_asc - m) <= 1e-12 * denom_m)
        assert np.all(np.abs(v_asc - v) <= 1e-12 * v)
        assert abs(nu_asc - nu) <= 1e-12 * nu


def test_scale_never_below_floor_on_long_run():
    rng = make_rng(11)
    m, v, nu = fresh(2)
    floor = 1e-5**2 * (1.0 - 1e-12)
    for _ in range(10_000):
        g = rng.normal(size=2) * (10.0 ** rng.uniform(-3, 3))
        (m, v, nu), _ = advance(m, v, nu, g)
        assert np.all(v >= floor)


def test_nu_tilde_decays_under_persistent_outliers():
    """Forcing D = 100 every step drives nu_tilde down monotonically."""
    m, v, nu = fresh(1, nu_tilde_init=5.0)
    last = nu
    for _ in range(50):
        g = m + 10.0 * np.sqrt(v)  # s = 100 v, so D = 100
        (m, v, nu), _ = advance(m, v, nu, g)
        assert nu < last
        assert nu > 1.0
        last = nu


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
    """(m, v, nu_tilde, g, beta) at eps = 1e-5 and nu_tilde_min = 1."""
    d = draw(st.integers(min_value=1, max_value=4))
    scale = lambda: 10.0 ** draw(st.floats(min_value=-4, max_value=4))
    m = np.array([draw(st.floats(-1, 1)) * scale() for _ in range(d)])
    v = np.array([draw(st.floats(0.1, 1)) * scale() ** 2 for _ in range(d)])
    v = np.maximum(v, 1e-10)
    nu = 1.0 + draw(st.floats(min_value=1e-5, max_value=1e6))
    g = np.array([draw(st.floats(-1, 1)) * scale() for _ in range(d)])
    return m, v, nu, g, 0.9


@given(_state_and_gradient())
@example((
    # (1 - beta) * w_mv / w_mv_bar rounds to 1 ulp above 1 - beta here
    # unless tau_mv is clamped.
    np.array([0.0]), np.array([1.0]), 1.875, np.array([0.0]), 0.9,
))
@example((
    # w_mv below the float32 floor puts w_nu at the w_nu_bar ceiling, and
    # (1 - beta) * w_nu / w_nu_bar rounds 1 ulp above 1 - beta at this beta
    # unless tau_nu is clamped.
    np.array([0.0]), np.array([1.0]), 1.5, np.array([1e20]), 0.537,
))
@settings(max_examples=300, deadline=None)
def test_step_invariants(case):
    """Bounds that hold for every reachable state and any finite gradient."""
    m, v, nu, g, beta = case
    eps, nu_tilde_min = 1e-5, 1.0
    diag = diagnose(m, v, nu, g, beta=beta)
    tau = float(diag.tau_mv)
    assert 0.0 < tau <= 1.0 - beta
    assert 0.0 < float(diag.tau_nu) <= 1.0 - beta
    assert float(diag.w_nu) >= 1.0
    assert float(diag.w_nu_bar) >= W_NU_BAR_CEIL
    assert np.all(diag.delta_s >= eps**2)
    assert float(diag.lam) > nu_tilde_min
    (_, v1, nu1), _ = advance(m, v, nu, g, beta=beta)
    assert np.all(v1 >= eps**2 * (1.0 - 1e-12))
    assert nu1 > nu_tilde_min
