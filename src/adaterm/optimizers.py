"""Gradient optimizers over named parameter groups.

Four algorithms share one driving loop: AdaTerm (the Student's-t estimator
with adaptive interpolation factors, plus its variants and ablations), Adam,
AdaBelief and t-Adam.  Optimizers never evaluate losses; gradients are
supplied by the caller, so analytic test functions and backprop share the
same code path.

The update rules are written as pure array functions with optional leading
batch axes (shapes (..., d)).  ``GroupState`` steps them for one parameter
group of n independent trials, trial axis leading, so the experiment
harness advances a whole cell of trials in one vectorized call.  The
optimizer classes are the n = 1 case, one state per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tdist import NonFiniteGradientError, advance_arrays, diagnostics_arrays

__all__ = [
    "ALGORITHMS",
    "VARIANTS",
    "ABLATIONS",
    "LR_SCHEDULES",
    "OptimizerConfig",
    "ParamGroup",
    "make_param_groups",
    "make_optimizer",
    "GroupState",
    "AdaTerm",
    "Adam",
    "AdaBelief",
    "TAdam",
]

ALGORITHMS = ("AdaTerm", "Adam", "AdaBelief", "TAdam")
VARIANTS = ("Default", "Uncentered", "AdaBias", "UncenteredAdaBias", "AdaTerm2")
ABLATIONS = ("None", "NoAdaptiveness", "NoRobustness")
LR_SCHEDULES = ("Constant", "InverseSqrt")

_DEFAULT_EPS = {"AdaTerm": 1e-5, "Adam": 1e-8, "AdaBelief": 1e-8, "TAdam": 1e-8}


@dataclass
class OptimizerConfig:
    """Hyper-parameters for any optimizer in the suite.

    Args:
        algorithm: one of AdaTerm, Adam, AdaBelief, TAdam.
        alpha: learning rate (default 1e-3).
        beta: AdaTerm's single smoothness in (0, 1), default 0.9.
        beta1, beta2: Adam-family moment factors, defaults 0.9 / 0.999.
        eps: numerical floor; defaults to 1e-5 for AdaTerm and 1e-8 for the
            Adam family when left as None.
        nu_tilde_min: lower bound of the normalized degrees of freedom.
        nu_tilde_init: initial nu_tilde; defaults to nu_tilde_min + eps
            (the large-init ablation sets 100).
        variant: AdaTerm update-direction variant.
        ablation: NoAdaptiveness freezes nu_tilde at its initial value;
            NoRobustness forces the exact Gaussian limit (tau = 1 - beta,
            delta_s = eps^2).
        lr_schedule: Constant, or InverseSqrt (alpha_t = alpha / sqrt(t)).
        weight_decay: decoupled additive decay applied before the step.
        bias_correction: divide the moments by their warm-up corrections
            (disabled for regret runs).
    """

    algorithm: str = "AdaTerm"
    alpha: float = 1e-3
    beta: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: Optional[float] = None
    nu_tilde_min: float = 1.0
    nu_tilde_init: Optional[float] = None
    variant: str = "Default"
    ablation: str = "None"
    lr_schedule: str = "Constant"
    weight_decay: float = 0.0
    bias_correction: bool = True

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"Unknown algorithm: {self.algorithm!r}")
        if not self.alpha > 0.0:
            raise ValueError(f"Invalid learning rate: {self.alpha}")
        for name in ("beta", "beta1", "beta2"):
            b = getattr(self, name)
            if not 0.0 < b < 1.0:
                raise ValueError(f"Invalid {name} (must be in (0, 1)): {b}")
        if self.eps is None:
            self.eps = _DEFAULT_EPS[self.algorithm]
        if not self.eps > 0.0:
            raise ValueError(f"Invalid eps: {self.eps}")
        if not self.nu_tilde_min > 0.0:
            raise ValueError(f"Invalid nu_tilde_min: {self.nu_tilde_min}")
        if self.nu_tilde_init is None:
            self.nu_tilde_init = self.nu_tilde_min + self.eps
        if not self.nu_tilde_init > self.nu_tilde_min:
            raise ValueError(
                f"Invalid nu_tilde_init (must exceed nu_tilde_min): {self.nu_tilde_init}"
            )
        if self.variant not in VARIANTS:
            raise ValueError(f"Unknown variant: {self.variant!r}")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"Unknown ablation: {self.ablation!r}")
        if self.lr_schedule not in LR_SCHEDULES:
            raise ValueError(f"Unknown lr_schedule: {self.lr_schedule!r}")
        if self.weight_decay < 0.0:
            raise ValueError(f"Invalid weight_decay: {self.weight_decay}")

    def learning_rate(self, t: int) -> float:
        if self.lr_schedule == "InverseSqrt":
            return self.alpha / np.sqrt(t)
        return self.alpha


@dataclass
class ParamGroup:
    """A named parameter subset with its gradient slot and optimizer state."""

    name: str
    values: np.ndarray
    grad: Optional[np.ndarray] = None
    state: object = None

    @property
    def d(self) -> int:
        return self.values.size


def make_param_groups(model) -> list[ParamGroup]:
    """One group per weight matrix and one per bias vector, in layer order."""
    groups = []
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        groups.append(ParamGroup(name=f"layer{i}.weight", values=w))
        groups.append(ParamGroup(name=f"layer{i}.bias", values=b))
    return groups


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


def adabelief_moments(m, v, g, beta1, beta2, centered=True):
    """AdaBelief: the second moment tracks (g - m_t)^2 with the fresh m.

    ``centered=False`` is a diagnostic mode that degrades the estimate to
    g^2, making the optimizer coincide with Adam exactly.
    """
    m_new = beta1 * m + (1.0 - beta1) * g
    spread = (g - m_new) ** 2 if centered else g * g
    v_new = beta2 * v + (1.0 - beta2) * spread
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
# One group's state for n trials, and the n = 1 optimizer classes
# ---------------------------------------------------------------------------


class GroupState:
    """State of one parameter group for n independent trials.

    Arrays are shaped (n, d) with the trial axis leading; per-trial scalars
    (nu_tilde, the bias accumulator c, t-Adam's weight sum W) are shaped
    (n,).  The harness steps whole cells of trials through it, and the
    optimizer classes below hold one n = 1 state per parameter group.
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

    def direction(self, g, t):
        """Advance the state by the (n, d) gradient ``g`` at 1-based step
        ``t`` and return the (n, d) update direction."""
        cfg = self.cfg
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"Non-finite gradient at step {t}")
        if cfg.algorithm == "AdaTerm":
            self.m, self.v, self.nu, tau = adaterm_moments(
                self.m, self.v, self.nu, g, cfg
            )
            self.c = update_bias_accumulator(self.c, tau)
            return adaterm_eta(self.m, self.v, self.c, t, cfg)
        if cfg.algorithm == "Adam":
            self.m, self.v = adam_moments(self.m, self.v, g, cfg.beta1, cfg.beta2)
        elif cfg.algorithm == "AdaBelief":
            self.m, self.v = adabelief_moments(
                self.m, self.v, g, cfg.beta1, cfg.beta2
            )
        else:
            self.m, self.v, self.W = tadam_moments(
                self.m, self.v, self.W, g,
                cfg.beta1, cfg.beta2, cfg.nu_tilde_min * g.shape[-1], cfg.eps,
            )
        return adam_eta(
            self.m, self.v, t, cfg.beta1, cfg.beta2, cfg.eps, cfg.bias_correction
        )


class GradientOptimizer:
    """Steps named parameter groups, each through its own n = 1 GroupState.

    Subclasses name the algorithm they run; the config must agree.  Groups
    are independent: reordering or renaming them never changes any single
    group's trajectory.
    """

    algorithm = None

    def __init__(self, groups, cfg: OptimizerConfig):
        if cfg.algorithm != self.algorithm:
            raise ValueError(
                f"{type(self).__name__} needs algorithm={self.algorithm!r}, "
                f"got {cfg.algorithm!r}"
            )
        if isinstance(groups, np.ndarray):
            groups = [ParamGroup(name="theta", values=groups)]
        self.groups = list(groups)
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise ValueError(f"Duplicate group names: {names}")
        self.cfg = cfg
        self.t = 0
        for group in self.groups:
            group.state = GroupState(cfg, 1, group.d)

    def step(self, grads=None):
        """Advance every group one step.

        ``grads`` may be a sequence aligned with the groups, a name-keyed
        mapping, or None to use each group's ``grad`` slot.  The direction
        is computed before weight decay touches the values, so a rejected
        gradient leaves its group's parameters unchanged.
        """
        if grads is None:
            grads = [g.grad for g in self.groups]
        elif isinstance(grads, dict):
            grads = [grads[g.name] for g in self.groups]
        self.t += 1
        alpha_t = self.cfg.learning_rate(self.t)
        wd = self.cfg.weight_decay
        for group, grad in zip(self.groups, grads):
            if grad is None:
                raise ValueError(f"Missing gradient for group {group.name!r}")
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != group.values.shape:
                raise ValueError(
                    f"Gradient shape {grad.shape} does not match group "
                    f"{group.name!r} shape {group.values.shape}"
                )
            eta = group.state.direction(grad.reshape(1, -1), self.t)
            if wd:
                group.values -= alpha_t * wd * group.values
            group.values -= alpha_t * eta.reshape(group.values.shape)


class AdaTerm(GradientOptimizer):
    """Noise-robust optimizer: Student's-t moment estimation per group."""

    algorithm = "AdaTerm"

    @property
    def nu_tilde(self):
        """Per-group nu_tilde values, by group name."""
        return {g.name: float(g.state.nu[0]) for g in self.groups}


class Adam(GradientOptimizer):
    algorithm = "Adam"


class AdaBelief(GradientOptimizer):
    """Adam skeleton tracking the spread (g - m)^2 instead of g^2."""

    algorithm = "AdaBelief"


class TAdam(GradientOptimizer):
    """Adam with a Student's-t first moment (fixed nu = d by default)."""

    algorithm = "TAdam"


_CLASSES = {"AdaTerm": AdaTerm, "Adam": Adam, "AdaBelief": AdaBelief, "TAdam": TAdam}


def make_optimizer(groups, cfg: OptimizerConfig) -> GradientOptimizer:
    return _CLASSES[cfg.algorithm](groups, cfg)
