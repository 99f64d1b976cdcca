"""Online maximum-likelihood estimation of a diagonal Student's-t model.

This is the statistical core of the package.  The estimator tracks the
location ``m``, squared-scale ``v`` and dimension-normalized degrees of
freedom ``nu_tilde`` of the gradient distribution for one parameter group.
``diagnostics_arrays`` and ``advance_arrays`` advance all three by
gradient ascent on the log-likelihood, with adaptive step sizes that
collapse to EMA-style interpolations:

    m_t  = (1 - tau_mv) m_{t-1}  + tau_mv g_t
    v_t  = (1 - tau_mv) v_{t-1}  + tau_mv (s + delta_s)
    nu_t = (1 - tau_nu) nu_{t-1} + tau_nu lambda

where tau_mv = (1 - beta) w_mv / w_mv_bar shrinks automatically for
statistical outliers (small robustness weight w_mv).  Since w_mv <= w_mv_bar,
tau_mv <= 1 - beta, and likewise tau_nu <= 1 - beta.  Both factors are
clamped at 1 - beta, so the bounds hold exactly in floating point rather
than to within a rounding.  The tests' ``_reference.ascent_forms`` writes
the same step in its gradient-ascent form, as the reference the
interpolations are tested against.  The one-shot density and gradient
functions exist so the update rules can be verified against finite
differences and analytic bounds, independently of any optimizer.

``weights`` and ``dof_step`` are the one copy of the weight formulas (floor
and ceiling included) and of the nu_tilde step: the estimator, ``grad_m``,
``grad_v``, the figure grids and the tests' ascent forms all call them.

All array functions accept leading batch axes: shapes (..., d) for vectors
and (...) for per-group scalars, reducing over the trailing axis only.
They hold no state: the arrays live in ``optimizers.GroupState``, the one
state class of the package, which steps them for every run (test
functions, regression and regret alike).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import EPS_FLOAT32, W_NU_BAR_CEIL, digamma

__all__ = [
    "StepDiagnostics",
    "log_density",
    "grad_m",
    "grad_v",
    "grad_nu_exact",
    "grad_nu_from_deviation",
    "grad_nu_surrogate_pre",
    "interpolation_factor",
]


# ---------------------------------------------------------------------------
# One-shot density and gradients (verification surface)
# ---------------------------------------------------------------------------


def _check_density_args(g, m, v, nu):
    g = np.asarray(g, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if g.shape != m.shape or g.shape != v.shape:
        raise ValueError(
            f"Shape mismatch: g {g.shape}, m {m.shape}, v {v.shape}"
        )
    if np.any(v <= 0.0):
        raise ValueError("Scale v must be strictly positive")
    if not nu > 0.0:
        raise ValueError(f"Invalid degrees of freedom (must be > 0): {nu}")
    return g, m, v


def log_density(g, m, v, nu):
    """Log of the diagonal multivariate Student's-t density T(g | m, v, nu).

    Log-gamma formulation, safe for very large d and nu.
    """
    g, m, v = _check_density_args(g, m, v, nu)
    d = g.size
    dev = np.sum((g - m) ** 2 / v)
    return (
        math.lgamma((nu + d) / 2.0)
        - math.lgamma(nu / 2.0)
        - 0.5 * d * math.log(nu * math.pi)
        - 0.5 * float(np.sum(np.log(v)))
        - 0.5 * (nu + d) * math.log1p(dev / nu)
    )


def grad_m(g, m, v, nu_tilde):
    """Gradient of log_density w.r.t. m, in the factored form w_mv (g - m) / v.

    Note the absence of a 1/2: differentiating the squared deviation
    contributes a factor 2 that cancels it.  The published step size kappa_m
    carries a compensating factor 2 (it was calibrated against the
    half-gradient convention), so the resulting update rule is unchanged;
    see ``ascent_forms`` in the tests' ``_reference.py``.
    """
    g, m, v = _check_density_args(g, m, v, nu_tilde)
    s = (g - m) ** 2
    w_mv = weights(nu_tilde, float(np.mean(s / v)))[0]
    return w_mv * (g - m) / v


def grad_v(g, m, v, nu_tilde):
    """Gradient of log_density w.r.t. v, in the factored form

        w_mv nu_tilde / (2 v^2 (nu_tilde + 1)) { (s - v) + (s - D v) / nu_tilde }.
    """
    g, m, v = _check_density_args(g, m, v, nu_tilde)
    s = (g - m) ** 2
    D = float(np.mean(s / v))
    w_mv = weights(nu_tilde, D)[0]
    lead = w_mv * nu_tilde / (2.0 * v * v * (nu_tilde + 1.0))
    return lead * ((s - v) + (s - D * v) / nu_tilde)


def grad_nu_from_deviation(nu, d, D):
    """Gradient of log_density w.r.t. nu, parameterized by the deviation D.

    The density depends on (g, m, v) only through D = (1/d) sum s_i / v_i,
    which makes this form convenient for grid evaluation.
    """
    half_ratio = 0.5 * (digamma((nu + d) / 2.0) - digamma(nu / 2.0))
    return (
        half_ratio
        - d / (2.0 * nu)
        - 0.5 * np.log1p(d * D / nu)
        - 0.5 * (nu + d) * (1.0 / (nu + d * D) - 1.0 / nu)
    )


def grad_nu_exact(g, m, v, nu):
    """Gradient of log_density w.r.t. nu (exact, uses digamma)."""
    g, m, v = _check_density_args(g, m, v, nu)
    d = g.size
    D = float(np.mean((g - m) ** 2 / v))
    return float(grad_nu_from_deviation(nu, d, D))


def grad_nu_surrogate_pre(nu, d, w_mv):
    """Upper bound on grad_nu_exact before the dimension fix:

        (1/2) { -w_nu + 1 + (nu_tilde + 2) / (nu_tilde + 1) * 1 / nu }

    with nu_tilde = nu / d and w_nu = w_mv - ln w_mv.  Kept for the
    surrogate-vs-exact inequality tests and the dimension-sweep grid.
    """
    nu = np.asarray(nu, dtype=np.float64)
    w = np.asarray(w_mv, dtype=np.float64)
    if np.any(nu <= 0.0) or np.any(w <= 0.0):
        raise ValueError("nu and w_mv must be strictly positive")
    nu_tilde = nu / d
    w_nu = w - np.log(w)
    out = 0.5 * (-w_nu + 1.0 + (nu_tilde + 2.0) / (nu_tilde + 1.0) / nu)
    return out if out.ndim else float(out)


def _dof_gradient(nu_tilde, d, w_nu):
    return w_nu * (0.5 * d) * (
        -1.0 + ((nu_tilde + 2.0) / (nu_tilde + 1.0) + nu_tilde) / (nu_tilde * w_nu)
    )


# ---------------------------------------------------------------------------
# Batched estimator step
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepDiagnostics:
    """All intermediate quantities of one update, evaluated at the
    pre-update state (the update order matters: s, D, the weights and the
    step sizes all use m_{t-1}, v_{t-1}, nu_{t-1})."""

    s: np.ndarray
    D: np.ndarray
    w_mv: np.ndarray
    w_mv_bar: np.ndarray
    w_nu: np.ndarray
    w_nu_bar: np.ndarray
    tau_mv: np.ndarray
    tau_nu: np.ndarray
    delta_s: np.ndarray
    lam: np.ndarray


def interpolation_factor(beta, w, w_bar):
    """(1 - beta) * w / w_bar for w <= w_bar, clamped at 1 - beta.

    The product and quotient round twice and can land 1 ulp above
    1 - beta (tau_mv at D = 0; tau_nu at the float32 floor for some beta),
    so the clamp is what makes the bound exact.
    """
    return np.minimum((1.0 - beta) * w / w_bar, 1.0 - beta)


def weights(nu_tilde, D):
    """(w_mv, w_mv_bar, w_nu, w_nu_bar) at (nu_tilde, D), elementwise.

    The float32 floor on w_mv inside w_nu mirrors the underflow limit that
    motivates the ceiling W_NU_BAR_CEIL; it keeps tau_nu <= 1 - beta for
    arbitrarily extreme deviations.
    """
    w_mv = (nu_tilde + 1.0) / (nu_tilde + D)
    w_mv_bar = (nu_tilde + 1.0) / nu_tilde
    w_floored = np.maximum(w_mv, EPS_FLOAT32)
    w_nu = w_floored - np.log(w_floored)
    w_nu_bar = np.maximum(w_mv_bar - np.log(w_mv_bar), W_NU_BAR_CEIL)
    return w_mv, w_mv_bar, w_nu, w_nu_bar


def dof_step(nu_tilde, w_nu, w_nu_bar, d, beta, nu_tilde_min):
    """(kappa_dnu, g_nu) of the nu_tilde ascent step in dimension d, from
    the w_nu and w_nu_bar of ``weights``.  The increment kappa_dnu * g_nu is
    dimension-free: the d in the step size cancels the d in g_nu."""
    kappa_dnu = 2.0 * (nu_tilde - nu_tilde_min) * (1.0 - beta) / (d * w_nu_bar)
    return kappa_dnu, _dof_gradient(nu_tilde, d, w_nu)


def diagnostics_arrays(m, v, nu_tilde, g, beta, eps, nu_tilde_min):
    """Batched diagnostics: m, v, g shaped (..., d); nu_tilde shaped (...)."""
    nu_tilde = np.asarray(nu_tilde, dtype=np.float64)
    s = (g - m) ** 2
    D = np.add.reduce(s / v, axis=-1) / s.shape[-1]  # np.mean's reduce and divide
    w_mv, w_mv_bar, w_nu, w_nu_bar = weights(nu_tilde, D)
    tau_mv = interpolation_factor(beta, w_mv, w_mv_bar)
    tau_nu = interpolation_factor(beta, w_nu, w_nu_bar)
    delta_s = np.maximum(
        eps * eps, (s - D[..., None] * v) / nu_tilde[..., None]
    )
    dnu = nu_tilde - nu_tilde_min
    lam = (
        ((nu_tilde + 2.0) / (nu_tilde + 1.0) + nu_tilde)
        * dnu
        / (nu_tilde * w_nu)
        + nu_tilde_min
        + eps
    )
    return StepDiagnostics(
        s=s,
        D=D,
        w_mv=w_mv,
        w_mv_bar=w_mv_bar,
        w_nu=w_nu,
        w_nu_bar=w_nu_bar,
        tau_mv=tau_mv,
        tau_nu=tau_nu,
        delta_s=delta_s,
        lam=lam,
    )


def advance_arrays(m, v, nu_tilde, g, diag):
    """Apply the interpolation updates given precomputed diagnostics."""
    tau = diag.tau_mv[..., None]
    m_new = (1.0 - tau) * m + tau * g
    v_new = (1.0 - tau) * v + tau * (diag.s + diag.delta_s)
    nu_new = (1.0 - diag.tau_nu) * nu_tilde + diag.tau_nu * diag.lam
    return m_new, v_new, nu_new
