"""An independent n = 1 replay of a regret run, for tests that need the
per-step logs of v and g that a run does not keep."""

import numpy as np

from adaterm.optimizers import adaterm_eta, adaterm_moments
from adaterm.regret import weighted_projection


def replay_logs(seq, cfg, report):
    """Replay the single-trial run on ``seq`` behind ``report`` from the
    pure update rules and the projection, without ``GroupState``.

    Every step's loss, tau and regret prefix must equal the report's
    exactly, so the logs come from the same run; only then are its (T, d)
    logs of v and g returned.
    """
    assert seq.A.shape[0] == 1, "the replay covers a single trial"
    T, d = len(seq), seq.spec.dim
    lo, hi = seq.spec.box
    theta_star = seq.offline_optimum()
    theta = hi.astype(np.float64)
    m = np.zeros(d)
    v = np.full(d, cfg.eps * cfg.eps)
    nu = float(cfg.nu_tilde_init)
    regret = 0.0
    v_log = np.empty((T, d))
    g_log = np.empty((T, d))
    for t in range(1, T + 1):
        loss_t = float(seq.loss(t - 1, theta[None])[0])
        g = seq.grad(t - 1, theta[None])[0]
        regret += loss_t - float(seq.loss(t - 1, theta_star)[0])
        m, v, nu, tau = adaterm_moments(m, v, nu, g, cfg)
        nu = float(nu)
        eta = adaterm_eta(m, v, 0.0, t, cfg)
        theta = weighted_projection(theta - cfg.learning_rate(t) * eta, (lo, hi))
        assert report.losses[t - 1] == loss_t, t
        assert report.tau[t - 1] == float(tau), t
        assert report.regret_prefix[t - 1] == regret, t
        v_log[t - 1] = v
        g_log[t - 1] = g
    return v_log, g_log
