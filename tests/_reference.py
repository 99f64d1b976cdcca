"""Reference forms that only tests call: the whole-horizon regret bound,
which tests check a run's incrementally accumulated bound terms against;
the dimension-fixed surrogate dof gradient as a function of w_mv; the
gradient-ascent form of the estimator's step, which its interpolation
updates must agree with; the per-cell ``csv.writer`` table writer, which
``files.write_csv`` must match byte for byte; and the summary statistics
through ``np.mean``, ``np.std`` and ``np.median``, whose bits
``results.summarize_rows`` must match."""

import csv
import math

import numpy as np

from adaterm.results import ConfigError, SummaryRow
from adaterm.regret import _coeff_term2, _coeff_term4
from adaterm.tdist import _dof_gradient, diagnostics_arrays, dof_step


def reference_write_csv(path, header, rows):
    """Write ``header`` and ``rows`` to ``path``: each float (numpy
    ``float64`` included) as ``f"{x:.17g}"``, which reads back to the same
    bits, and any other cell as ``csv`` writes it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [f"{x:.17g}" if isinstance(x, float) else x for x in row] for row in rows
        )


def reference_summarize_rows(rows):
    """count/mean/std/median per (experiment, optimizer, metric, step).

    Standard deviation is the population estimator.  Returns
    ``SummaryRow``s sorted by group key, ready for the summary CSV.
    """
    if not rows:
        raise ConfigError("No result rows to summarize")
    groups = {}
    for r in rows:
        groups.setdefault((r.experiment, r.optimizer, r.metric, r.step), []).append(
            r.value
        )
    out = []
    for key in sorted(groups):
        vals = np.asarray(groups[key])
        out.append(SummaryRow(*key, vals.size, float(np.mean(vals)),
                              float(np.std(vals)), float(np.median(vals))))
    return out


def summary_bits(summary):
    """Each summary row with its floats as ``float.hex``, so that -0.0 and
    0.0 differ and a NaN equals a NaN."""
    return [tuple(x.hex() if isinstance(x, float) else x for x in rec) for rec in summary]


def grad_nu_tilde_surrogate(nu_tilde, d, w_mv):
    """The dimension-fixed surrogate gradient g_nu used by the state update:

        w_nu (d/2) { -1 + ((nu_tilde + 2)/(nu_tilde + 1) + nu_tilde)
                          / (nu_tilde w_nu) }.
    """
    nt = np.asarray(nu_tilde, dtype=np.float64)
    w = np.asarray(w_mv, dtype=np.float64)
    if np.any(nt <= 0.0) or np.any(w <= 0.0):
        raise ValueError("nu_tilde and w_mv must be strictly positive")
    out = _dof_gradient(nt, d, w - np.log(w))
    return out if out.ndim else float(out)


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


def ascent_forms(m, v, nu_tilde, g, beta, eps, nu_tilde_min):
    """The gradient-ascent forms of the three updates: the reference the
    interpolation updates are tested against.

    Takes the arguments of ``diagnostics_arrays`` and returns
    ((m, v, nu_tilde), (kappa_m, kappa_v, kappa_dnu)): the next state
    computed as state + kappa * gradient instead of by interpolation, and
    the step sizes.  Conventions: kappa_m pairs with the half-gradient
    grad_m/2 (see grad_m); the v gradient is evaluated with the clipped
    delta_s in place of the raw correction; the nu_tilde ascent carries the
    tau_nu * eps floor term that keeps nu_tilde - nu_tilde_min positive.
    """
    nu_tilde = np.asarray(nu_tilde, dtype=np.float64)
    diag = diagnostics_arrays(m, v, nu_tilde, g, beta, eps, nu_tilde_min)
    d = g.shape[-1]
    w_mv, nt = diag.w_mv[..., None], nu_tilde[..., None]
    kappa_m = 2.0 * v * (1.0 - beta) / diag.w_mv_bar[..., None]
    kappa_v = 2.0 * v * v * (1.0 - beta)
    kappa_dnu, g_nu = dof_step(nu_tilde, diag.w_nu, diag.w_nu_bar, d, beta, nu_tilde_min)
    m_asc = m + kappa_m * (w_mv * (g - m) / (2.0 * v))
    g_v_clipped = (
        w_mv * nt / (2.0 * v * v * (nt + 1.0)) * ((diag.s + diag.delta_s) - v)
    )
    v_asc = v + kappa_v * g_v_clipped
    nu_asc = nu_tilde + kappa_dnu * g_nu + diag.tau_nu * eps
    return (m_asc, v_asc, nu_asc), (kappa_m, kappa_v, kappa_dnu)
