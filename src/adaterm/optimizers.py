"""Gradient optimizers: AdaTerm, Adam, AdaBelief and t-Adam.

AdaTerm is the Student's-t estimator with adaptive interpolation factors,
plus its variants and ablations.  Optimizers never evaluate losses;
gradients are supplied by the caller, so analytic test functions and
backprop share the same code path.

The update rules are written as pure array functions with optional leading
batch axes (shapes (..., d)).  ``GroupState(cfg, n, d).step(values, g, t)``
is the package's one optimizer interface and the only place the rules are
driven: it advances one parameter group of n independent trials, trial
axis leading, and applies the learning-rate schedule to the parameters.
The experiment harness advances a whole cell of trials in one vectorized
call, the regret loop all of one dimension's seeds; a single model is the
case n = 1.  ``GroupState`` is the package's one state layout.
"""

from __future__ import annotations

import numpy as np

from .specs import ABLATIONS, ALGORITHMS, LR_SCHEDULES, VARIANTS, OptimizerConfig
from .tdist import NonFiniteGradientError, advance_arrays, diagnostics_arrays

__all__ = [
    "ALGORITHMS",
    "VARIANTS",
    "ABLATIONS",
    "LR_SCHEDULES",
    "OptimizerConfig",
    "GroupState",
]

# ---------------------------------------------------------------------------
# Pure batched update rules
# ---------------------------------------------------------------------------


def adaterm_moments(m, v, nu_tilde, g, cfg: OptimizerConfig):
    """One AdaTerm estimation step on (..., d) arrays.

    Returns (m, v, nu_tilde, tau_mv); tau_mv feeds the adaptive bias
    correction.  Handles ablations and the alternative scale rule.
    """
    beta, eps = cfg.beta, cfg.eps
    if cfg.ablation == "NoRobustness":
        # Exact Gaussian limit: w_mv pinned at its ceiling, so tau = 1-beta
        # and the scale correction collapses to the eps^2 floor.
        s = (g - m) ** 2
        m_new = beta * m + (1.0 - beta) * g
        v_new = beta * v + (1.0 - beta) * (s + eps * eps)
        tau = np.broadcast_to(np.float64(1.0 - beta), np.shape(nu_tilde))
        return m_new, v_new, nu_tilde, tau

    diag = diagnostics_arrays(m, v, nu_tilde, g, beta, eps, cfg.nu_tilde_min)
    if cfg.variant == "AdaTerm2":
        # Alternative scale rule: the clipped correction is replaced by an
        # always-positive target w_mv * s + eps^2.
        tau_v = (1.0 - beta) / diag.w_mv_bar
        m_new = (
            (1.0 - diag.tau_mv[..., None]) * m + diag.tau_mv[..., None] * g
        )
        v_new = (1.0 - tau_v[..., None]) * v + tau_v[..., None] * (
            diag.w_mv[..., None] * diag.s + eps * eps
        )
        nu_new = (1.0 - diag.tau_nu) * nu_tilde + diag.tau_nu * diag.lam
    else:
        m_new, v_new, nu_new = advance_arrays(m, v, nu_tilde, g, diag)
    if cfg.ablation == "NoAdaptiveness":
        nu_new = nu_tilde
    return m_new, v_new, nu_new, diag.tau_mv


def adaterm_eta(m, v, c, t, cfg: OptimizerConfig):
    """Update direction for the selected AdaTerm variant.

    ``c`` is the adaptive bias-correction accumulator (AdaBias variants);
    ``t`` the 1-based step count.  No eps in the denominator: v >= eps^2 by
    construction.
    """
    if cfg.variant in ("Uncentered", "UncenteredAdaBias"):
        denom_sq = v + m * m
    else:
        denom_sq = v
    if not cfg.bias_correction:
        return m / np.sqrt(denom_sq)
    if cfg.variant in ("AdaBias", "UncenteredAdaBias"):
        corr = np.asarray(c)[..., None]
    else:
        corr = 1.0 - cfg.beta**t
    return (m / corr) / np.sqrt(denom_sq / corr)


def update_bias_accumulator(c, tau):
    """Adaptive bias correction: c_t = (1 - tau_t) c_{t-1} + tau_t.

    With tau held at 1 - beta this reproduces the closed form 1 - beta^t.
    """
    return (1.0 - tau) * c + tau


def adam_moments(m, v, g, beta1, beta2):
    m_new = beta1 * m + (1.0 - beta1) * g
    v_new = beta2 * v + (1.0 - beta2) * g * g
    return m_new, v_new


def adam_eta(m, v, t, beta1, beta2, eps, bias_correction=True):
    """Adam's direction with eps added outside the square root."""
    if bias_correction:
        m = m / (1.0 - beta1**t)
        v = v / (1.0 - beta2**t)
    return m / (np.sqrt(v) + eps)


def adabelief_moments(m, v, g, beta1, beta2):
    """AdaBelief: the second moment tracks (g - m_t)^2 with the fresh m."""
    m_new = beta1 * m + (1.0 - beta1) * g
    v_new = beta2 * v + (1.0 - beta2) * (g - m_new) ** 2
    return m_new, v_new


def tadam_moments(m, v, W, g, beta1, beta2, nu, eps):
    """t-momentum first moment with a decaying weight sum W, plain EMA second
    moment.  The robustness weight shrinks when the incoming gradient sits
    far outside the current (m, v) model."""
    d = g.shape[-1]
    phi = np.sum((g - m) ** 2 / (v + eps), axis=-1)
    w = (nu + d) / (nu + phi)
    frac = (w / (W + w))[..., None]
    m_new = (1.0 - frac) * m + frac * g
    W_new = (2.0 * beta1 - 1.0) / beta1 * W + w
    v_new = beta2 * v + (1.0 - beta2) * g * g
    return m_new, v_new, W_new


# ---------------------------------------------------------------------------
# One group's state for n trials: the one optimizer interface
# ---------------------------------------------------------------------------


class GroupState:
    """State of one parameter group for n independent trials.

    Arrays are shaped (n, d) with the trial axis leading; per-trial scalars
    (nu_tilde, the bias accumulator c, t-Adam's weight sum W) are shaped
    (n,).  ``tau`` is the last AdaTerm step's tau_mv, (n,).  Every run
    steps its parameters through ``step``: the harness a whole cell of
    trials at once, the regret loop all of one dimension's seeds at once.
    A single model is the case n = 1: values and gradients shaped (1, d).
    """

    def __init__(self, cfg: OptimizerConfig, n, d):
        self.cfg = cfg
        self.m = np.zeros((n, d))
        algo = cfg.algorithm
        if algo == "AdaTerm":
            self.v = np.full((n, d), cfg.eps * cfg.eps)
            self.nu = np.full(n, cfg.nu_tilde_init)
            self.c = np.zeros(n)  # adaptive bias-correction accumulator
        else:
            self.v = np.zeros((n, d))
            if algo == "TAdam":
                # W_0 = beta1/(1-beta1): the effective sample count under
                # which the first step's weight reduces to Adam's 1-beta1
                # for an inlier.
                self.W = np.full(n, cfg.beta1 / (1.0 - cfg.beta1))

    def step(self, values, g, t):
        """Advance the state by the (n, d) gradient ``g`` at 1-based step
        ``t``, then update ``values`` in place: the step along the update
        direction at the scheduled learning rate.  ``values`` holds the
        group's n * d numbers in any shape with the trial axis leading.  A
        rejected gradient changes nothing.
        """
        cfg = self.cfg
        if g.shape != self.m.shape:
            raise ValueError(f"Gradient shape {g.shape} is not the state's {self.m.shape}")
        if not np.isfinite(g).all():
            raise NonFiniteGradientError(f"Non-finite gradient at step {t}")
        if cfg.algorithm == "AdaTerm":
            self.m, self.v, self.nu, self.tau = adaterm_moments(
                self.m, self.v, self.nu, g, cfg
            )
            self.c = update_bias_accumulator(self.c, self.tau)
            eta = adaterm_eta(self.m, self.v, self.c, t, cfg)
        else:
            if cfg.algorithm == "Adam":
                self.m, self.v = adam_moments(self.m, self.v, g, cfg.beta1, cfg.beta2)
            elif cfg.algorithm == "AdaBelief":
                self.m, self.v = adabelief_moments(self.m, self.v, g, cfg.beta1, cfg.beta2)
            else:
                self.m, self.v, self.W = tadam_moments(
                    self.m, self.v, self.W, g,
                    cfg.beta1, cfg.beta2, cfg.nu_tilde_min * g.shape[-1], cfg.eps,
                )
            eta = adam_eta(
                self.m, self.v, t, cfg.beta1, cfg.beta2, cfg.eps, cfg.bias_correction
            )
        alpha_t = cfg.learning_rate(t)
        values -= alpha_t * eta.reshape(values.shape)

