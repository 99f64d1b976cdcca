"""Online convex regret runs and empirical evaluation of the convergence
bound.

A run is handed its loss sequence: the experiment draws a
``problems.QuadraticSequence`` with one generator per trial, and the run
plays all of its rounds, so the horizon is the sequence's length.  It
steps the noise-robust optimizer for every trial at once through one
``optimizers.GroupState`` with the trial axis leading, the same state
every other run steps (no bias correction, no weight decay, step size
alpha/sqrt(t)), followed by the weighted projection onto the box.  It
plays each trial's sequence of random strongly-convex quadratics,
accumulates the regret against the offline optimum, and evaluates every
term of the bound's right-hand side from observed quantities only: v_t,
g_t, tau_t, the domain diameter and the step-size schedule.  The bound
must dominate the regret at every prefix.  Every quantity is computed row
by row, so a trial's report does not depend on which trials share its
run.

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

import math
from dataclasses import dataclass

import numpy as np

from .files import write_csv
from .optimizers import GroupState, OptimizerConfig
from .problems import QuadraticSequence

__all__ = [
    "RegretReport",
    "weighted_projection",
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


@dataclass(frozen=True)
class RegretReport:
    """Everything observed during one trial's regret run.

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
    if cfg.weight_decay:
        raise ValueError("Regret runs require weight_decay=0: the bound assumes none")


def run_regret_experiment(seq: QuadraticSequence, cfg: OptimizerConfig):
    """Play every round of ``seq`` for all of its trials at once and
    evaluate each trial's bound at every prefix.

    Returns one ``RegretReport`` per trial, in the order of the sequence's
    generators.  The horizon T is ``len(seq)``.  The comparator is the
    closed-form offline optimum of the summed losses (the strongest fixed
    comparator).
    """
    if not isinstance(seq, QuadraticSequence):
        raise TypeError(f"Expected QuadraticSequence, got {type(seq).__name__}")
    _validate_regret_config(cfg)
    spec = seq.spec
    T = len(seq)
    n = seq.A.shape[0]
    d = spec.dim
    lo, hi = spec.box
    D_diam = spec.diameter
    theta_star = seq.offline_optimum()
    # The comparator is fixed: its losses once, a trial and 1024 rounds at a time.
    star_losses = np.empty((n, T))
    for A, C, star, out in zip(seq.A, seq.C, theta_star, star_losses):
        for k in range(0, T, 1024):  # small blocks: a (T, d) temporary raises peak RSS
            diff = star - C[k:k + 1024]
            out[k:k + 1024] = 0.5 * np.sum(A[k:k + 1024] * diff * diff, axis=1)
    # Start at the upper box corner, far from any weighted mean of the
    # centers.  A start near the comparator would make the early regret
    # negligible and the normalized-regret criterion vacuous.  The start is
    # a float copy: an integer box_halfwidth gives an integer box.
    theta = np.tile(hi.astype(np.float64), (n, 1))

    alpha, beta, eps = cfg.alpha, cfg.beta, cfg.eps
    state = GroupState(cfg, n, d)

    losses = np.empty((n, T))
    regret_prefix = np.empty((n, T))
    bound_rhs_prefix = np.empty((n, T))
    tau_log = np.empty((n, T))
    g2_step = np.empty((n, T))  # sum_i g_{t,i}^2 per step, feeds the geometric term

    G = np.zeros(n)
    regret = np.zeros(n)
    tau_low = np.full(n, math.inf)
    geo = np.zeros(n)  # sum_{k<T} (1 - tau_low)^{T-k} g2_step[k] at the current prefix
    sv_past = np.zeros(n)  # sum_{t<T} sqrt(t) * sum_i v_{t,i}^{1/2}
    g4_past = np.zeros((n, d))  # sum_{t<T} g_{t,i}^4

    for t in range(1, T + 1):
        loss_t = seq.loss(t - 1, theta)
        g = seq.grad(t - 1, theta)
        G = np.maximum(G, np.max(np.abs(g), axis=1))
        regret += loss_t - star_losses[:, t - 1]

        state.step(theta, g, t)
        theta = weighted_projection(theta, (lo, hi))
        tau_t = state.tau
        v = state.v

        losses[:, t - 1] = loss_t
        regret_prefix[:, t - 1] = regret
        tau_log[:, t - 1] = tau_t

        # Prefix bound at horizon t.  The geometric term depends on the
        # running minimum tau_low: while it is unchanged a one-step
        # recurrence extends the sum; in the rows where a new minimum
        # appears the sum is rebuilt from the stored per-step g^2 totals.
        if t > 1:
            geo = (1.0 - tau_low) * (geo + g2_step[:, t - 2])
        low = np.flatnonzero(tau_t < tau_low)
        if low.size:
            tau_low[low] = tau_t[low]
            if t > 1:
                ks = np.arange(1, t)
                geo[low] = np.sum(
                    (1.0 - tau_low[low, None]) ** (t - ks) * g2_step[low, : t - 1],
                    axis=1,
                )
        g2_step[:, t - 1] = np.sum(g * g, axis=1)

        sqrt_t = math.sqrt(t)
        sum_sqrt_v = np.sum(np.sqrt(v), axis=1)
        term1 = D_diam**2 * sqrt_t / (4.0 * tau_t * alpha) * sum_sqrt_v
        term2 = _coeff_term2(tau_low, beta) * D_diam**2 / alpha * sv_past
        term3 = (1.0 - beta) ** 2 * alpha / (eps * tau_low**2 * sqrt_t) * geo
        if t >= 2:
            term4 = (
                _coeff_term4(tau_low, beta, alpha, eps)
                * math.sqrt(1.0 + math.log(t - 1))
                * np.sum(np.sqrt(g4_past), axis=1)
            )
        else:
            term4 = np.zeros(n)
        bound_rhs_prefix[:, t - 1] = term1 + term2 + term3 + term4

        sv_past += sqrt_t * sum_sqrt_v
        g4_past += g**4

    final_terms = np.stack([term1, term2, term3, term4], axis=1)
    return [
        RegretReport(
            T=T,
            D_diam=D_diam,
            G=float(G[i]),
            theta_star=theta_star[i],
            losses=losses[i],
            regret_prefix=regret_prefix[i],
            bound_rhs_prefix=bound_rhs_prefix[i],
            tau=tau_log[i],
            bound_terms=final_terms[i],
        )
        for i in range(n)
    ]


def theorem_rhs(v_log, g_log, tau_low, tau_T, alpha, beta, eps, D_diam):
    """The four bound terms at the final horizon, from one trial's full
    (T, d) logs of v and g.

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
    # Columns zipped strictly: an array shorter than T raises, not a short file.
    columns = (report.losses, report.regret_prefix, report.bound_rhs_prefix, report.tau)
    write_csv(
        path,
        ["t", "loss", "regret_prefix", "bound_rhs_prefix", "tau_t"],
        zip(range(1, report.T + 1), *(c.tolist() for c in columns), strict=True),
    )
