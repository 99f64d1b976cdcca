"""Optimizer suite: configuration, frozen step traces, variants, ablations,
and the group-driving loop.  Each optimizer class holds one n = 1
GroupState per parameter group: arrays (1, d), per-trial scalars (1,)."""

import numpy as np
import pytest

from adaterm.mlp import MlpModel
from adaterm.optimizers import (
    ABLATIONS,
    ALGORITHMS,
    LR_SCHEDULES,
    VARIANTS,
    AdaBelief,
    Adam,
    AdaTerm,
    OptimizerConfig,
    ParamGroup,
    TAdam,
    adam_eta,
    adam_moments,
    adabelief_moments,
    adaterm_eta,
    adaterm_moments,
    make_optimizer,
    make_param_groups,
    tadam_moments,
    update_bias_accumulator,
)
from adaterm.rng import make_rng
from adaterm.tdist import NonFiniteGradientError

from _golden import (
    ADABELIEF_TRACE_D2,
    ADAM_TRACE_D2,
    ADATERM_STEP1_D1,
    ADATERM_TRACE_D2,
    ALT_SCALE_TRACE_D1,
    TMOMENTUM_TRACE_D2,
)


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
        {"weight_decay": -0.1},
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
    opt = AdaTerm(np.array([0.5]), cfg)
    opt.step([np.array([0.01])])
    G = ADATERM_STEP1_D1
    st = opt.groups[0].state
    assert st.m[0, 0] == pytest.approx(G["m1"], rel=1e-12)
    assert st.v[0, 0] == pytest.approx(G["v1"], rel=1e-12)
    assert st.nu[0] == pytest.approx(G["nu1"], rel=1e-12)
    assert st.c[0] == pytest.approx(G["c1"], rel=1e-12)
    assert opt.groups[0].values[0] == pytest.approx(G["theta1"], rel=1e-12)


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


def test_adaterm_three_step_trace():
    G = ADATERM_TRACE_D2
    cfg = OptimizerConfig(algorithm="AdaTerm", alpha=1e-3)
    opt = AdaTerm(np.array(G["theta0"]), cfg)
    for k, g in enumerate(G["grads"]):
        opt.step([np.array(g)])
        np.testing.assert_allclose(opt.groups[0].values, G["thetas"][k],
                                   rtol=1e-12)
    st = opt.groups[0].state
    np.testing.assert_allclose(st.m[0], G["m3"], rtol=1e-12)
    np.testing.assert_allclose(st.v[0], G["v3"], rtol=1e-12)
    assert st.nu[0] == pytest.approx(G["nu3"], rel=1e-12)
    assert st.c[0] == pytest.approx(G["c3"], rel=1e-12)


@pytest.mark.parametrize(
    "cls,algo,trace",
    [(Adam, "Adam", ADAM_TRACE_D2), (AdaBelief, "AdaBelief", ADABELIEF_TRACE_D2)],
    ids=["adam", "adabelief"],
)
def test_adam_family_trace(cls, algo, trace):
    cfg = OptimizerConfig(algorithm=algo, alpha=1e-3)
    opt = cls(np.array(trace["theta0"]), cfg)
    for k, g in enumerate(trace["grads"]):
        opt.step([np.array(g)])
        st = opt.groups[0].state
        np.testing.assert_allclose(st.m[0], trace["ms"][k], rtol=1e-12)
        np.testing.assert_allclose(st.v[0], trace["vs"][k], rtol=1e-12)
        np.testing.assert_allclose(opt.groups[0].values, trace["thetas"][k],
                                   rtol=1e-12)


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
    opt = TAdam(np.zeros(2), cfg)
    assert opt.groups[0].state.W[0] == 0.9 / (1.0 - 0.9)
    G = TMOMENTUM_TRACE_D2
    for g in G["grads"]:
        opt.step([np.array(g)])
    st = opt.groups[0].state
    np.testing.assert_allclose(st.m[0], G["ms"][-1], rtol=1e-12)
    np.testing.assert_allclose(st.v[0], G["vs"][-1], rtol=1e-12)
    assert st.W[0] == pytest.approx(G["Ws"][-1], rel=1e-12)


# ---------------------------------------------------------------------------
# Behavioral properties
# ---------------------------------------------------------------------------


def test_adam_first_step_direction():
    # Bias corrections cancel at t=1: eta = g / (|g| + eps).
    cfg = OptimizerConfig(algorithm="Adam", alpha=1.0)
    opt = Adam(np.zeros(1), cfg)
    opt.step([np.array([0.3])])
    want = 0.3 / (0.3 + 1e-8)
    assert opt.groups[0].values[0] == pytest.approx(-want, rel=1e-12)


def test_adam_constant_gradient_approaches_sign():
    m = np.zeros(1)
    v = np.zeros(1)
    g = np.array([-0.7])
    for t in range(1, 2001):
        m, v = adam_moments(m, v, g, 0.9, 0.999)
    eta = adam_eta(m, v, 2000, 0.9, 0.999, 1e-8)
    assert eta[0] == pytest.approx(-1.0, abs=1e-3)


def test_adabelief_without_centering_is_adam():
    theta_b = theta_a = np.array([0.3, -0.2])
    mb = vb = ma = va = np.zeros(2)
    rng = make_rng(2)
    for t in range(1, 51):
        g = rng.normal(size=2)
        mb, vb = adabelief_moments(mb, vb, g, 0.9, 0.999, centered=False)
        ma, va = adam_moments(ma, va, g, 0.9, 0.999)
        theta_b = theta_b - 1e-3 * adam_eta(mb, vb, t, 0.9, 0.999, 1e-8)
        theta_a = theta_a - 1e-3 * adam_eta(ma, va, t, 0.9, 0.999, 1e-8)
        assert np.array_equal(theta_b, theta_a)


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
    g = np.array([1.0, -0.5, 2.0])
    ot = TAdam(np.zeros(3), OptimizerConfig(algorithm="TAdam"))
    oa = Adam(np.zeros(3), OptimizerConfig(algorithm="Adam"))
    for _ in range(100):
        ot.step([g])
        oa.step([g])
    mt, ma = ot.groups[0].state.m, oa.groups[0].state.m
    assert np.linalg.norm(mt - ma) < 1e-3 * np.linalg.norm(ma)


def test_tadam_attenuates_spike():
    rng = make_rng(4)
    base = rng.normal(size=3)
    ot = TAdam(np.zeros(3), OptimizerConfig(algorithm="TAdam"))
    oa = Adam(np.zeros(3), OptimizerConfig(algorithm="Adam"))
    for _ in range(50):
        g = base + 0.01 * rng.normal(size=3)
        ot.step([g])
        oa.step([g])
    spike = 100.0 * np.abs(base).max() * np.ones(3)
    mt0 = ot.groups[0].state.m.copy()
    ma0 = oa.groups[0].state.m.copy()
    ot.step([spike])
    oa.step([spike])
    moved_t = np.linalg.norm(ot.groups[0].state.m - mt0)
    moved_a = np.linalg.norm(oa.groups[0].state.m - ma0)
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
    onr = AdaTerm(np.zeros(d), OptimizerConfig(algorithm="AdaTerm",
                                               ablation="NoRobustness"))
    oab = AdaBelief(np.zeros(d), OptimizerConfig(algorithm="AdaBelief",
                                                 beta1=0.9, beta2=0.9))
    for t in range(1, 301):
        g = base + rng.normal(size=d)
        before_nr = onr.groups[0].values.copy()
        before_ab = oab.groups[0].values.copy()
        onr.step([g])
        oab.step([g])
        if t <= 50:
            continue
        step_nr = onr.groups[0].values - before_nr
        step_ab = oab.groups[0].values - before_ab
        cos = step_nr @ step_ab / (
            np.linalg.norm(step_nr) * np.linalg.norm(step_ab)
        )
        assert cos > 0.99, (t, cos)


def test_noadaptiveness_freezes_dof():
    cfg = OptimizerConfig(algorithm="AdaTerm", ablation="NoAdaptiveness",
                          nu_tilde_init=100.0)
    opt = AdaTerm(np.zeros(2), cfg)
    rng = make_rng(8)
    for _ in range(25):
        opt.step([rng.normal(size=2) * 10.0])
    assert opt.groups[0].state.nu[0] == 100.0


def test_large_init_decays_under_outliers():
    cfg = OptimizerConfig(algorithm="AdaTerm", nu_tilde_init=100.0)
    opt = AdaTerm(np.zeros(1), cfg)
    rng = make_rng(9)
    for _ in range(200):
        opt.step([rng.normal(size=1) * (10.0 ** rng.uniform(-2, 2))])
    assert 1.0 < opt.groups[0].state.nu[0] < 100.0


def test_bias_accumulator_closed_form_short():
    c = 0.0
    for t in range(1, 51):
        c = update_bias_accumulator(c, 1.0 - 0.9)
        assert c == pytest.approx(1.0 - 0.9**t, abs=1e-15)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_zero_gradient_leaves_parameters(algo):
    opt = make_optimizer(np.array([0.4, -0.7]), OptimizerConfig(algorithm=algo))
    for _ in range(3):
        opt.step([np.zeros(2)])
    np.testing.assert_array_equal(opt.groups[0].values, [0.4, -0.7])


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


# ---------------------------------------------------------------------------
# Group handling
# ---------------------------------------------------------------------------


def test_groups_are_independent_of_order_and_names():
    def run(names, order):
        groups = [ParamGroup(name=n, values=np.array([0.1 * (i + 1)]))
                  for i, n in enumerate(names)]
        opt = AdaTerm([groups[i] for i in order], OptimizerConfig(alpha=0.01))
        rng = make_rng(12)
        for _ in range(20):
            gs = {n: rng.normal(size=1) for n in names}
            opt.step(gs)
        return {g.name: g.values.copy() for g in opt.groups}

    a = run(["p", "q"], [0, 1])
    b = run(["x", "y"], [1, 0])
    assert np.array_equal(a["p"], b["x"])
    assert np.array_equal(a["q"], b["y"])


def test_gradient_input_forms_agree():
    def run(feed):
        g1 = ParamGroup(name="a", values=np.array([0.5]))
        g2 = ParamGroup(name="b", values=np.array([[1.0, 2.0]]))
        opt = Adam([g1, g2], OptimizerConfig(algorithm="Adam", alpha=0.1))
        for k in range(5):
            ga = np.array([0.1 * k - 0.2])
            gb = np.array([[0.3, -0.1 * k]])
            if feed == "list":
                opt.step([ga, gb])
            elif feed == "dict":
                opt.step({"b": gb, "a": ga})
            else:
                g1.grad = ga
                g2.grad = gb
                opt.step()
        return g1.values.copy(), g2.values.copy()

    want = run("list")
    for feed in ("dict", "slot"):
        got = run(feed)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


def test_step_error_paths():
    opt = Adam(np.zeros(2), OptimizerConfig(algorithm="Adam"))
    with pytest.raises(ValueError, match="Missing gradient"):
        opt.step([None])
    with pytest.raises(ValueError, match="shape"):
        opt.step([np.zeros(3)])
    with pytest.raises(NonFiniteGradientError):
        opt.step([np.array([np.nan, 0.0])])
    # A rejected gradient is caught before weight decay moves the values.
    decayed = Adam(np.ones(2), OptimizerConfig(algorithm="Adam", weight_decay=0.5))
    with pytest.raises(NonFiniteGradientError):
        decayed.step([np.array([np.inf, 0.0])])
    np.testing.assert_array_equal(decayed.groups[0].values, [1.0, 1.0])
    with pytest.raises(ValueError, match="Duplicate"):
        Adam([ParamGroup("a", np.zeros(1)), ParamGroup("a", np.zeros(1))],
             OptimizerConfig(algorithm="Adam"))
    with pytest.raises(ValueError, match="needs algorithm='Adam'"):
        Adam(np.zeros(1), OptimizerConfig(algorithm="AdaTerm"))


def test_weight_decay_applies_before_direction():
    cfg = OptimizerConfig(algorithm="Adam", alpha=0.1, weight_decay=0.5)
    opt = Adam(np.array([1.0]), cfg)
    opt.step([np.zeros(1)])  # zero gradient isolates the decay term
    assert opt.groups[0].values[0] == 1.0 - 0.1 * 0.5 * 1.0


def test_nu_tilde_property_reports_by_name():
    model = MlpModel((1, 3, 1), make_rng(0))
    opt = AdaTerm(make_param_groups(model), OptimizerConfig())
    nus = opt.nu_tilde
    assert set(nus) == {"layer0.weight", "layer0.bias",
                        "layer1.weight", "layer1.bias"}
    assert all(val == pytest.approx(1.0 + 1e-5) for val in nus.values())


def test_make_param_groups_layout():
    model = MlpModel((1, 50, 50, 50, 50, 1), make_rng(0))
    groups = make_param_groups(model)
    assert [g.name for g in groups] == [
        f"layer{i}.{kind}" for i in range(5) for kind in ("weight", "bias")
    ]
    assert [g.d for g in groups] == [50, 50, 2500, 50, 2500, 50, 2500, 50, 50, 1]
    total = sum(w.size for w in model.weights) + sum(b.size for b in model.biases)
    assert sum(g.d for g in groups) == total
    # Groups hold views of the live parameters, not copies.
    assert groups[0].values is model.weights[0]


def test_make_param_groups_empty_model():
    assert make_param_groups(MlpModel((4,))) == []


def test_make_optimizer_dispatch():
    for algo, cls in (("AdaTerm", AdaTerm), ("Adam", Adam),
                      ("AdaBelief", AdaBelief), ("TAdam", TAdam)):
        opt = make_optimizer(np.zeros(1), OptimizerConfig(algorithm=algo))
        assert type(opt) is cls
