"""Whole-horizon reference forms of the regret bound, for tests that check
a run's incrementally accumulated bound terms against them."""

import math

import numpy as np

from adaterm.regret import _coeff_term2, _coeff_term4


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
