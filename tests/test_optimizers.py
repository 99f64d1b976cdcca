"""Optimizer suite: configuration, frozen step traces, variants and
ablations.  Every test drives the one optimizer interface, ``GroupState``;
a single model is an n = 1 state stepped directly, with parameters and
gradients shaped (1, d) and per-trial scalars (1,)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaterm.optimizers import (
    GroupState,
    adam_eta,
    adam_moments,
    adabelief_moments,
    adaterm_eta,
    adaterm_moments,
    tadam_moments,
    update_bias_accumulator,
)
from adaterm.results import NonFiniteGradientError
from adaterm.rng import make_rng
from adaterm.specs import ABLATIONS, ALGORITHMS, LR_SCHEDULES, VARIANTS, OptimizerConfig

from _golden import (
    ADABELIEF_TRACE_D2,
    ADAM_TRACE_D2,
    ADATERM_STEP1_D1,
    ADATERM_TRACE_D2,
    ALT_SCALE_TRACE_D1,
    TMOMENTUM_TRACE_D2,
)


def _model(cfg, theta0):
    """An n = 1 state and its (1, d) parameters, a copy of ``theta0``."""
    theta = np.array(theta0, dtype=np.float64).reshape(1, -1)
    return GroupState(cfg, 1, theta.shape[1]), theta


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_default_eps_depends_on_algorithm():
    assert OptimizerConfig(algorithm="AdaTerm").eps == 1e-5
    for algo in ("Adam", "AdaBelief", "TAdam"):
        assert OptimizerConfig(algorithm=algo).eps == 1e-8


def test_nu_tilde_init_defaults_above_floor():
    cfg = OptimizerConfig(algorithm="AdaTerm", nu_tilde_min=2.0)
    assert cfg.nu_tilde_init == 2.0 + 1e-5


def test_enum_tuples_are_frozen():
    assert ALGORITHMS == ("AdaTerm", "Adam", "AdaBelief", "TAdam")
    assert VARIANTS == ("Default", "Uncentered", "AdaBias", "UncenteredAdaBias",
                        "AdaTerm2")
    assert ABLATIONS == ("None", "NoAdaptiveness", "NoRobustness")
    assert LR_SCHEDULES == ("Constant", "InverseSqrt")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"algorithm": "SGD"},
        {"alpha": 0.0},
        {"beta": 1.0},
        {"beta1": 0.0},
        {"beta2": 1.5},
        {"eps": -1e-8},
        {"nu_tilde_min": 0.0},
        {"nu_tilde_min": 2.0, "nu_tilde_init": 1.0},
        {"variant": "Fancy"},
        {"ablation": "NoNothing"},
        {"lr_schedule": "Cosine"},
        {"beta": 0.0},
        {"eps": 0.0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        OptimizerConfig(**kwargs)


def test_learning_rate_schedules():
    cfg = OptimizerConfig(alpha=0.2)
    assert cfg.learning_rate(1) == 0.2
    assert cfg.learning_rate(100) == 0.2
    cfg = OptimizerConfig(alpha=0.2, lr_schedule="InverseSqrt")
    assert cfg.learning_rate(1) == 0.2
    assert cfg.learning_rate(4) == pytest.approx(0.1, rel=1e-15)


# ---------------------------------------------------------------------------
# Frozen traces
# ---------------------------------------------------------------------------


def test_adaterm_first_step_against_golden():
    cfg = OptimizerConfig(algorithm="AdaTerm", alpha=1e-3)
    st, theta = _model(cfg, [0.5])
    st.step(theta, np.array([[0.01]]), 1)
    G = ADATERM_STEP1_D1
    assert st.m[0, 0] == pytest.approx(G["m1"], rel=1e-12)
    assert st.v[0, 0] == pytest.approx(G["v1"], rel=1e-12)
    assert st.nu[0] == pytest.approx(G["nu1"], rel=1e-12)
    assert st.c[0] == pytest.approx(G["c1"], rel=1e-12)
    assert theta[0, 0] == pytest.approx(G["theta1"], rel=1e-12)


def test_eta_variants_against_golden():
    G = ADATERM_STEP1_D1
    m = np.array([G["m1"]])
    v = np.array([G["v1"]])
    for variant, key in (
        ("Default", "eta_default"),
        ("Uncentered", "eta_uncentered"),
        ("AdaBias", "eta_adabias"),
    ):
        cfg = OptimizerConfig(algorithm="AdaTerm", variant=variant)
        eta = adaterm_eta(m, v, G["c1"], 1, cfg)
        assert eta[0] == pytest.approx(G[key], rel=1e-12), variant


def test_alternative_scale_rule_against_golden():
    """Two steps of the always-positive v target.

    Step one coincides with the default rule exactly (both reduce to the
    same expression at v = eps^2); step two is where the recurrences part.
    """
    cfg = OptimizerConfig(algorithm="AdaTerm", variant="AdaTerm2")
    G = ALT_SCALE_TRACE_D1
    m = np.zeros(1)
    v = np.full(1, cfg.eps * cfg.eps)
    nu = cfg.nu_tilde_init
    assert ADATERM_STEP1_D1["v1_alt_scale_rule"] == ADATERM_STEP1_D1["v1"]
    for k, g in enumerate(G["grads"]):
        m, v, nu, _ = adaterm_moments(m, v, nu, np.array([g]), cfg)
        assert m[0] == pytest.approx(G["ms"][k], rel=1e-12)
        assert v[0] == pytest.approx(G["vs"][k], rel=1e-12)
        assert float(nu) == pytest.approx(G["nus"][k], rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_alternative_scale_rule_steps_m_and_nu_as_default(seed):
    """AdaTerm2 changes only the v update: on any batched state, one step's
    m and nu are Default's bit for bit."""
    rng = make_rng(seed)
    n, d = 7, 5
    default = OptimizerConfig(algorithm="AdaTerm")
    alt = OptimizerConfig(algorithm="AdaTerm", variant="AdaTerm2")
    m = rng.normal(size=(n, d))
    v = default.eps**2 + rng.exponential(size=(n, d))
    nu = default.nu_tilde_min + rng.exponential(10.0, size=n)
    g = rng.standard_cauchy(size=(n, d))
    m_d, v_d, nu_d, tau_d = adaterm_moments(m, v, nu, g, default)
    m_a, v_a, nu_a, tau_a = adaterm_moments(m, v, nu, g, alt)
    assert m_a.tobytes() == m_d.tobytes()
    assert nu_a.tobytes() == nu_d.tobytes()
    assert tau_a.tobytes() == tau_d.tobytes()
    assert not np.array_equal(v_a, v_d)


def test_adaterm_three_step_trace():
    G = ADATERM_TRACE_D2
    cfg = OptimizerConfig(algorithm="AdaTerm", alpha=1e-3)
    st, theta = _model(cfg, G["theta0"])
    for k, g in enumerate(G["grads"]):
        st.step(theta, np.array([g]), k + 1)
        np.testing.assert_allclose(theta[0], G["thetas"][k], rtol=1e-12)
    np.testing.assert_allclose(st.m[0], G["m3"], rtol=1e-12)
    np.testing.assert_allclose(st.v[0], G["v3"], rtol=1e-12)
    assert st.nu[0] == pytest.approx(G["nu3"], rel=1e-12)
    assert st.c[0] == pytest.approx(G["c3"], rel=1e-12)


@pytest.mark.parametrize(
    "algo,trace",
    [("Adam", ADAM_TRACE_D2), ("AdaBelief", ADABELIEF_TRACE_D2)],
    ids=["adam", "adabelief"],
)
def test_adam_family_trace(algo, trace):
    cfg = OptimizerConfig(algorithm=algo, alpha=1e-3)
    st, theta = _model(cfg, trace["theta0"])
    for k, g in enumerate(trace["grads"]):
        st.step(theta, np.array([g]), k + 1)
        np.testing.assert_allclose(st.m[0], trace["ms"][k], rtol=1e-12)
        np.testing.assert_allclose(st.v[0], trace["vs"][k], rtol=1e-12)
        np.testing.assert_allclose(theta[0], trace["thetas"][k], rtol=1e-12)


def test_t_momentum_trace():
    G = TMOMENTUM_TRACE_D2
    m = np.zeros(2)
    v = np.zeros(2)
    W = 0.9 / (1.0 - 0.9)
    for k, g in enumerate(G["grads"]):
        m, v, W = tadam_moments(m, v, W, np.array(g), 0.9, 0.999, 2.0, 1e-8)
        np.testing.assert_allclose(m, G["ms"][k], rtol=1e-12)
        np.testing.assert_allclose(v, G["vs"][k], rtol=1e-12)
        assert W == pytest.approx(G["Ws"][k], rel=1e-12)


def test_tadam_class_matches_functional_rule():
    cfg = OptimizerConfig(algorithm="TAdam", alpha=1e-3)
    st, theta = _model(cfg, np.zeros(2))
    assert st.W[0] == 0.9 / (1.0 - 0.9)
    G = TMOMENTUM_TRACE_D2
    for k, g in enumerate(G["grads"]):
        st.step(theta, np.array([g]), k + 1)
    np.testing.assert_allclose(st.m[0], G["ms"][-1], rtol=1e-12)
    np.testing.assert_allclose(st.v[0], G["vs"][-1], rtol=1e-12)
    assert st.W[0] == pytest.approx(G["Ws"][-1], rel=1e-12)


# ---------------------------------------------------------------------------
# Behavioral properties
# ---------------------------------------------------------------------------


def test_adam_first_step_direction():
    # Bias corrections cancel at t=1: eta = g / (|g| + eps).
    cfg = OptimizerConfig(algorithm="Adam", alpha=1.0)
    st, theta = _model(cfg, np.zeros(1))
    st.step(theta, np.array([[0.3]]), 1)
    want = 0.3 / (0.3 + 1e-8)
    assert theta[0, 0] == pytest.approx(-want, rel=1e-12)


def test_adam_constant_gradient_approaches_sign():
    m = np.zeros(1)
    v = np.zeros(1)
    g = np.array([-0.7])
    for t in range(1, 2001):
        m, v = adam_moments(m, v, g, 0.9, 0.999)
    eta = adam_eta(m, v, 2000, 0.9, 0.999, 1e-8)
    assert eta[0] == pytest.approx(-1.0, abs=1e-3)


def test_adabelief_constant_gradient_spread_collapses():
    """(g - m_t)^2 = beta1^{2t} g^2 while cancellation allows; the variance
    estimate then decays and the corrected direction keeps growing."""
    c = 1.7
    m = np.zeros(1)
    v = np.zeros(1)
    checkpoints = {}
    for t in range(1, 2001):
        m, v = adabelief_moments(m, v, np.array([c]), 0.9, 0.999)
        if t <= 100:
            want = (0.9**t * c) ** 2
            assert (c - m[0]) ** 2 == pytest.approx(want, rel=1e-9), t
        if t in (200, 2000):
            eta = adam_eta(m, v, t, 0.9, 0.999, 1e-8)
            checkpoints[t] = (v[0], abs(eta[0]))
    assert checkpoints[2000][0] < checkpoints[200][0]
    assert checkpoints[2000][1] > checkpoints[200][1]


def test_tadam_inlier_weight_reduces_to_adam():
    # phi == d makes w = 1; with W_0 = beta1/(1-beta1) the first-moment
    # fraction is then exactly 1 - beta1.
    v = np.ones(2)
    g = np.sqrt(v + 1e-8)
    m, _, _ = tadam_moments(np.zeros(2), v, 0.9 / (1.0 - 0.9), g,
                            0.9, 0.999, 2.0, 1e-8)
    assert m[0] / g[0] == 1.0 - 0.9


def test_tadam_tracks_adam_on_clean_stream():
    g = np.array([[1.0, -0.5, 2.0]])
    ot, tt = _model(OptimizerConfig(algorithm="TAdam"), np.zeros(3))
    oa, ta = _model(OptimizerConfig(algorithm="Adam"), np.zeros(3))
    for t in range(1, 101):
        ot.step(tt, g, t)
        oa.step(ta, g, t)
    mt, ma = ot.m, oa.m
    assert np.linalg.norm(mt - ma) < 1e-3 * np.linalg.norm(ma)


def test_tadam_attenuates_spike():
    rng = make_rng(4)
    base = rng.normal(size=3)
    ot, tt = _model(OptimizerConfig(algorithm="TAdam"), np.zeros(3))
    oa, ta = _model(OptimizerConfig(algorithm="Adam"), np.zeros(3))
    for t in range(1, 51):
        g = (base + 0.01 * rng.normal(size=3))[None]
        ot.step(tt, g, t)
        oa.step(ta, g, t)
    spike = 100.0 * np.abs(base).max() * np.ones((1, 3))
    mt0 = ot.m.copy()
    ma0 = oa.m.copy()
    ot.step(tt, spike, 51)
    oa.step(ta, spike, 51)
    moved_t = np.linalg.norm(ot.m - mt0)
    moved_a = np.linalg.norm(oa.m - ma0)
    assert moved_t < 0.1 * moved_a


def test_norobustness_is_plain_gaussian_ema():
    cfg = OptimizerConfig(algorithm="AdaTerm", ablation="NoRobustness")
    m = np.zeros(3)
    v = np.full(3, cfg.eps**2)
    nu = cfg.nu_tilde_init
    m_ref = m.copy()
    v_ref = v.copy()
    rng = make_rng(6)
    one_minus = 1.0 - 0.9  # not the literal 0.1: a different float64
    for _ in range(30):
        g = rng.normal(size=3)
        m, v, nu, tau = adaterm_moments(m, v, nu, g, cfg)
        s = (g - m_ref) ** 2
        m_ref = 0.9 * m_ref + one_minus * g
        v_ref = 0.9 * v_ref + one_minus * (s + cfg.eps * cfg.eps)
        assert np.array_equal(m, m_ref)
        assert np.array_equal(v, v_ref)
        assert float(tau) == 1.0 - 0.9
    assert nu == cfg.nu_tilde_init  # dof untouched in the Gaussian limit


def test_norobustness_direction_aligns_with_adabelief():
    """Same EMAs, slightly different variance definition: directions agree
    to cosine > 0.99 once both estimators have burned in."""
    d = 20
    rng = make_rng(1)
    base = rng.normal(size=d)
    onr, tnr = _model(OptimizerConfig(algorithm="AdaTerm", ablation="NoRobustness"),
                      np.zeros(d))
    oab, tab = _model(OptimizerConfig(algorithm="AdaBelief", beta1=0.9, beta2=0.9),
                      np.zeros(d))
    for t in range(1, 301):
        g = (base + rng.normal(size=d))[None]
        before_nr = tnr[0].copy()
        before_ab = tab[0].copy()
        onr.step(tnr, g, t)
        oab.step(tab, g, t)
        if t <= 50:
            continue
        step_nr = tnr[0] - before_nr
        step_ab = tab[0] - before_ab
        cos = step_nr @ step_ab / (
            np.linalg.norm(step_nr) * np.linalg.norm(step_ab)
        )
        assert cos > 0.99, (t, cos)


def test_noadaptiveness_freezes_dof():
    cfg = OptimizerConfig(algorithm="AdaTerm", ablation="NoAdaptiveness",
                          nu_tilde_init=100.0)
    st, theta = _model(cfg, np.zeros(2))
    rng = make_rng(8)
    for t in range(1, 26):
        st.step(theta, rng.normal(size=(1, 2)) * 10.0, t)
    assert st.nu[0] == 100.0


def test_large_init_decays_under_outliers():
    cfg = OptimizerConfig(algorithm="AdaTerm", nu_tilde_init=100.0)
    st, theta = _model(cfg, np.zeros(1))
    rng = make_rng(9)
    for t in range(1, 201):
        st.step(theta, rng.normal(size=(1, 1)) * (10.0 ** rng.uniform(-2, 2)), t)
    assert 1.0 < st.nu[0] < 100.0


def test_bias_accumulator_closed_form_short():
    c = 0.0
    for t in range(1, 51):
        c = update_bias_accumulator(c, 1.0 - 0.9)
        assert c == pytest.approx(1.0 - 0.9**t, abs=1e-15)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_zero_gradient_leaves_parameters(algo):
    st, theta = _model(OptimizerConfig(algorithm=algo), [0.4, -0.7])
    for t in range(1, 4):
        st.step(theta, np.zeros((1, 2)), t)
    np.testing.assert_array_equal(theta, [[0.4, -0.7]])


def test_uncentered_direction_is_bounded():
    cfg = OptimizerConfig(algorithm="AdaTerm", variant="Uncentered")
    m = np.zeros(4)
    v = np.full(4, cfg.eps**2)
    nu = cfg.nu_tilde_init
    c = 0.0
    rng = make_rng(3)
    for t in range(1, 301):
        g = rng.normal(size=4) * (10.0 ** rng.uniform(-3, 3))
        m, v, nu, tau = adaterm_moments(m, v, nu, g, cfg)
        c = update_bias_accumulator(c, tau)
        eta = adaterm_eta(m, v, c, t, cfg)
        if t > 50:
            assert np.all(np.abs(eta) < 1.0)


# Every algorithm, plus the AdaTerm variants and ablations that take their
# own path through the update rules.
_STEP_CONFIGS = [{"algorithm": a} for a in ALGORITHMS] + [
    {"variant": "AdaBias"}, {"variant": "AdaTerm2"},
    {"ablation": "NoRobustness"}, {"ablation": "NoAdaptiveness"},
]


@given(
    kwargs=st.sampled_from(_STEP_CONFIGS),
    n=st.integers(1, 3),
    d=st.integers(1, 4),
    warmup=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_step_leaves_its_inputs_unchanged(kwargs, n, d, warmup, seed):
    """A step writes neither into the gradient nor into any state array a
    caller read before it: a buffer an update rule reuses is its own."""
    state = GroupState(OptimizerConfig(**kwargs), n, d)
    values = np.zeros((n, d))
    rng = make_rng(seed)
    for t in range(1, warmup + 1):
        state.step(values, rng.normal(size=(n, d)), t)
    g = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    held = {name: getattr(state, name)
            for name in ("m", "v", "nu", "c", "W") if hasattr(state, name)}
    before = {name: array.copy() for name, array in held.items()}
    g_before = g.copy()
    state.step(values, g, warmup + 1)
    assert np.array_equal(g, g_before)
    for name, array in held.items():
        assert np.array_equal(array, before[name]), name


# ---------------------------------------------------------------------------
# Step contract
# ---------------------------------------------------------------------------


def test_step_error_paths():
    st, theta = _model(OptimizerConfig(algorithm="Adam"), np.zeros(2))
    with pytest.raises(ValueError, match="shape"):
        st.step(theta, np.zeros((1, 3)), 1)
    with pytest.raises(NonFiniteGradientError):
        st.step(theta, np.array([[np.nan, 0.0]]), 1)
