"""Online convex regret runs and empirical evaluation of the convergence
bound.

The driver replays the noise-robust optimizer (no bias correction, step
size alpha/sqrt(t), weighted projection onto the box) against a sequence
of random strongly-convex quadratics, accumulates the regret against the
offline optimum, and evaluates every term of the bound's right-hand side
from logged quantities only: v_t, g_t, tau_t, the domain diameter and the
step-size schedule.  The bound must dominate the regret at every prefix.

Bound structure (four terms, evaluated at horizon T):

  1.  D_diam^2 sqrt(T) / (4 tau_T alpha) * sum_i v_{T,i}^{1/2}
  2.  (tau_low^2 + 1 - (beta + tau_low)) / (2 tau_low^2)
        * sum_{t<T} D_diam^2/alpha_t * sum_i v_{t,i}^{1/2}
  3.  (1-beta)^2 alpha / (eps tau_low^2 sqrt(T))
        * sum_{k<T} (1 - tau_low)^{T-k} sum_i g_{k,i}^2
  4.  (tau_low(1-tau_low) + (1-beta)) / (2 tau_low^2)
        * (1-beta)^2 alpha / (eps tau_low^2)
        * sqrt(1 + ln(T-1)) * sum_i ||g^2_{1:T-1,i}||_2

with tau_low = min_t tau_t and tau_T the final step's tau.  In the
Gaussian limit (nu_tilde_min -> infinity) tau_low -> 1 - beta and the
four terms collapse to the non-robust closed form checked by
``corollary_rhs``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .optimizers import OptimizerConfig, adaterm_eta, adaterm_moments
from .problems import OnlineConvexSpec, QuadraticSequence

__all__ = [
    "RegretReport",
    "weighted_projection",
    "young_inequality_check",
    "run_regret_experiment",
    "theorem_rhs",
    "corollary_rhs",
    "sublinearity_ratio",
    "write_regret_csv",
]


def weighted_projection(theta, box):
    """Project theta onto an axis-aligned box under a diagonal metric.

    For a diagonal metric the weighted distance separates per coordinate,
    so the minimizer is the plain clamp whatever the positive weights are;
    they do not enter the arithmetic and are not passed.  The operation is
    therefore exact and non-expansive in every such weighted norm.
    """
    lo, hi = box
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if lo.size == 0 or hi.size == 0:
        raise ValueError("Empty box")
    if np.any(hi < lo):
        raise ValueError("Empty box: upper bound below lower bound")
    return np.clip(np.asarray(theta, dtype=np.float64), lo, hi)


def young_inequality_check(zeta, x, y):
    """xy <= (zeta/2) x^2 + (1/(2 zeta)) y^2 for zeta > 0.

    Accepts scalars or arrays; returns True only if the inequality holds
    everywhere.  It always should: the gap is (sqrt(zeta) x - y/sqrt(zeta))^2 / 2.
    """
    zeta = np.asarray(zeta, dtype=np.float64)
    if not np.all(zeta > 0.0):
        raise ValueError("zeta must be positive")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return bool(np.all(x * y <= 0.5 * zeta * x * x + 0.5 / zeta * y * y))


@dataclass(frozen=True)
class RegretReport:
    """Everything observed during one regret run.

    ``bound_terms`` holds the four summands at the final horizon;
    ``regret_prefix`` and ``bound_rhs_prefix`` are the running comparison
    the acceptance property quantifies over.  ``G`` is the largest
    observed sup-norm gradient, ``D_diam`` the box diameter.
    """

    T: int
    D_diam: float
    G: float
    theta_star: np.ndarray
    losses: np.ndarray
    regret_prefix: np.ndarray
    bound_rhs_prefix: np.ndarray
    tau: np.ndarray
    bound_terms: np.ndarray
    v_log: np.ndarray
    g_log: np.ndarray

    @property
    def R_T(self) -> float:
        return float(self.regret_prefix[-1])

    @property
    def underline_tau(self) -> float:
        return float(np.min(self.tau))

    @property
    def tau_T(self) -> float:
        return float(self.tau[-1])


def _coeff_term2(tau_low, beta):
    return (tau_low * tau_low + 1.0 - (beta + tau_low)) / (2.0 * tau_low * tau_low)


def _coeff_term4(tau_low, beta, alpha, eps):
    lead = (tau_low * (1.0 - tau_low) + (1.0 - beta)) / (2.0 * tau_low * tau_low)
    return lead * (1.0 - beta) ** 2 * alpha / (eps * tau_low * tau_low)


def _validate_regret_config(cfg: OptimizerConfig):
    if cfg.algorithm != "AdaTerm" or cfg.variant != "Default":
        raise ValueError(
            "Regret runs cover the default AdaTerm update only "
            f"(got algorithm={cfg.algorithm!r}, variant={cfg.variant!r})"
        )
    if cfg.lr_schedule != "InverseSqrt":
        raise ValueError("Regret runs require the InverseSqrt step-size schedule")
    if cfg.bias_correction:
        raise ValueError("Regret runs require bias_correction=False")


def run_regret_experiment(
    spec: OnlineConvexSpec,
    cfg: OptimizerConfig,
    T: int,
    rng=None,
    *,
    seq: QuadraticSequence | None = None,
    theta_star=None,
    theta_init=None,
) -> RegretReport:
    """Run T online rounds and evaluate the bound at every prefix.

    The loss sequence is drawn from ``spec`` unless ``seq`` is given; the
    comparator defaults to the closed-form offline optimum of the summed
    losses (the strongest fixed comparator).
    """
    if not isinstance(spec, OnlineConvexSpec):
        raise TypeError(f"Expected OnlineConvexSpec, got {type(spec).__name__}")
    _validate_regret_config(cfg)
    if T < 1:
        raise ValueError(f"Invalid horizon: {T}")
    if seq is None:
        if rng is None:
            raise ValueError("Either seq or rng must be provided")
        seq = QuadraticSequence(spec, rng, T)
    if len(seq) < T:
        raise ValueError(f"Loss sequence shorter than horizon: {len(seq)} < {T}")
    d = spec.dim
    lo, hi = spec.box
    D_diam = spec.diameter
    theta_star = (
        seq.offline_optimum(T) if theta_star is None
        else np.asarray(theta_star, dtype=np.float64)
    )
    # Default start: the upper box corner, far from any weighted mean of
    # the centers.  A start near the comparator would make the early regret
    # negligible and the normalized-regret criterion vacuous.
    theta = (
        hi.copy() if theta_init is None
        else np.asarray(theta_init, dtype=np.float64).copy()
    )
    theta = weighted_projection(theta, (lo, hi))

    alpha, beta, eps = cfg.alpha, cfg.beta, cfg.eps
    m = np.zeros(d)
    v = np.full(d, eps * eps)
    nu_tilde = float(cfg.nu_tilde_init)

    losses = np.empty(T)
    regret_prefix = np.empty(T)
    bound_rhs_prefix = np.empty(T)
    tau_log = np.empty(T)
    v_log = np.empty((T, d))
    g_log = np.empty((T, d))
    g2_step = np.empty(T)  # sum_i g_{t,i}^2 per step, feeds the geometric term

    G = 0.0
    regret = 0.0
    tau_low = math.inf
    geo = 0.0  # sum_{k<T} (1 - tau_low)^{T-k} g2_step[k] at the current prefix
    sv_past = 0.0  # sum_{t<T} sqrt(t) * sum_i v_{t,i}^{1/2}
    g4_past = np.zeros(d)  # sum_{t<T} g_{t,i}^4

    for t in range(1, T + 1):
        loss_t = seq.loss(t - 1, theta)
        g = seq.grad(t - 1, theta)
        loss_star = seq.loss(t - 1, theta_star)
        G = max(G, float(np.max(np.abs(g))))
        regret += loss_t - loss_star

        m, v, nu_tilde, tau_t = adaterm_moments(m, v, nu_tilde, g, cfg)
        nu_tilde = float(nu_tilde)
        tau_t = float(tau_t)
        alpha_t = cfg.learning_rate(t)
        eta = adaterm_eta(m, v, 0.0, t, cfg)
        theta = weighted_projection(theta - alpha_t * eta, (lo, hi))

        losses[t - 1] = loss_t
        regret_prefix[t - 1] = regret
        tau_log[t - 1] = tau_t
        v_log[t - 1] = v
        g_log[t - 1] = g

        # Prefix bound at horizon t.  The geometric term depends on the
        # running minimum tau_low: while it is unchanged a one-step
        # recurrence extends the sum; when a new minimum appears the sum is
        # rebuilt from the stored per-step g^2 totals.
        if tau_t < tau_low:
            tau_low = tau_t
            if t > 1:
                ks = np.arange(1, t)
                geo = float(
                    np.sum((1.0 - tau_low) ** (t - ks) * g2_step[: t - 1])
                )
        elif t > 1:
            geo = (1.0 - tau_low) * (geo + g2_step[t - 2])
        g2_step[t - 1] = float(np.sum(g * g))

        sqrt_t = math.sqrt(t)
        term1 = D_diam**2 * sqrt_t / (4.0 * tau_t * alpha) * float(np.sum(np.sqrt(v)))
        term2 = _coeff_term2(tau_low, beta) * D_diam**2 / alpha * sv_past
        term3 = (1.0 - beta) ** 2 * alpha / (eps * tau_low**2 * sqrt_t) * geo
        if t >= 2:
            term4 = (
                _coeff_term4(tau_low, beta, alpha, eps)
                * math.sqrt(1.0 + math.log(t - 1))
                * float(np.sum(np.sqrt(g4_past)))
            )
        else:
            term4 = 0.0
        bound_rhs_prefix[t - 1] = term1 + term2 + term3 + term4

        sv_past += sqrt_t * float(np.sum(np.sqrt(v)))
        g4_past += g**4

    final_terms = np.array([term1, term2, term3, term4])
    return RegretReport(
        T=T,
        D_diam=D_diam,
        G=G,
        theta_star=theta_star,
        losses=losses,
        regret_prefix=regret_prefix,
        bound_rhs_prefix=bound_rhs_prefix,
        tau=tau_log,
        bound_terms=final_terms,
        v_log=v_log,
        g_log=g_log,
    )


def theorem_rhs(v_log, g_log, tau_low, tau_T, alpha, beta, eps, D_diam):
    """The four bound terms at the final horizon, from full logs.

    Independent (vectorized, whole-horizon) evaluation of the same
    quantity the run loop accumulates incrementally; also the entry point
    for the Gaussian-limit substitution check.
    """
    v_log = np.asarray(v_log, dtype=np.float64)
    g_log = np.asarray(g_log, dtype=np.float64)
    T = v_log.shape[0]
    sqrt_v = np.sqrt(v_log)
    term1 = D_diam**2 * math.sqrt(T) / (4.0 * tau_T * alpha) * float(np.sum(sqrt_v[-1]))
    ts = np.arange(1, T)
    sv_past = float(np.sum(np.sqrt(ts) * np.sum(sqrt_v[:-1], axis=1)))
    term2 = _coeff_term2(tau_low, beta) * D_diam**2 / alpha * sv_past
    g2 = np.sum(g_log * g_log, axis=1)
    geo = float(np.sum((1.0 - tau_low) ** (T - ts) * g2[: T - 1]))
    term3 = (1.0 - beta) ** 2 * alpha / (eps * tau_low**2 * math.sqrt(T)) * geo
    if T >= 2:
        norms = float(np.sum(np.sqrt(np.sum(g_log[: T - 1] ** 4, axis=0))))
        term4 = (
            _coeff_term4(tau_low, beta, alpha, eps)
            * math.sqrt(1.0 + math.log(T - 1))
            * norms
        )
    else:
        term4 = 0.0
    return np.array([term1, term2, term3, term4])


def corollary_rhs(v_log, g_log, alpha, beta, eps, D_diam):
    """The Gaussian-limit closed form of the bound (tau pinned at 1 - beta)."""
    v_log = np.asarray(v_log, dtype=np.float64)
    g_log = np.asarray(g_log, dtype=np.float64)
    T = v_log.shape[0]
    sqrt_v = np.sqrt(v_log)
    term1 = (
        D_diam**2 * math.sqrt(T) / (4.0 * (1.0 - beta) * alpha)
        * float(np.sum(sqrt_v[-1]))
    )
    ts = np.arange(1, T)
    term2 = 0.5 * D_diam**2 / alpha * float(
        np.sum(np.sqrt(ts) * np.sum(sqrt_v[:-1], axis=1))
    )
    g2 = np.sum(g_log * g_log, axis=1)
    term3 = alpha / (eps * math.sqrt(T)) * float(
        np.sum(beta ** (T - ts) * g2[: T - 1])
    )
    if T >= 2:
        norms = float(np.sum(np.sqrt(np.sum(g_log[: T - 1] ** 4, axis=0))))
        term4 = (
            (1.0 + beta) * alpha * math.sqrt(1.0 + math.log(T - 1))
            / (2.0 * (1.0 - beta) * eps) * norms
        )
    else:
        term4 = 0.0
    return np.array([term1, term2, term3, term4])


def sublinearity_ratio(report: RegretReport, t_low=1000, t_high=5000):
    """max over T in [t_low, t_high] of (R_T/sqrt(T)) / (R_{t_low}/sqrt(t_low)).

    A ratio near or below 1 means the normalized regret stopped growing.
    """
    hi = min(t_high, report.T)
    if hi < t_low:
        raise ValueError(f"Horizon {report.T} shorter than t_low={t_low}")
    ts = np.arange(t_low, hi + 1)
    norm = report.regret_prefix[t_low - 1 : hi] / np.sqrt(ts)
    return float(np.max(norm) / norm[0])


def write_regret_csv(report: RegretReport, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "loss", "regret_prefix", "bound_rhs_prefix", "tau_t"])
        for i in range(report.T):
            writer.writerow(
                [
                    i + 1,
                    f"{report.losses[i]:.17g}",
                    f"{report.regret_prefix[i]:.17g}",
                    f"{report.bound_rhs_prefix[i]:.17g}",
                    f"{report.tau[i]:.17g}",
                ]
            )
