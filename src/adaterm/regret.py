"""Online convex regret runs and empirical evaluation of the convergence
bound.

A run is handed a ``problems.QuadraticSequence`` with one generator per
trial and plays all of its rounds, so the horizon T is the sequence's
length.  It steps the noise-robust optimizer for every trial at once
through one ``optimizers.GroupState`` (no bias correction, step size
alpha/sqrt(t)), then clamps onto the box.  It plays in blocks of
``BLOCK`` = 256 rounds: a round only takes the gradient, steps, clamps and
writes theta, g and v into the block's (trials, BLOCK, d) buffers, and
after each block the buffers are reduced into (trials, T) logs of the
loss, the comparator's loss, tau_t and the per-round sums over the
coordinates of g_t^2, v_t^{1/2} and (sum_{s<t} g_s^4)^{1/2}.  Then it
frees the draws and, in blocks of the same size, evaluates the regret
against the offline optimum and every term of the bound at every prefix,
from observed quantities only.  Each running quantity (the largest
gradient, the past g^4, the minima and sums of the bound) is a sequential
scan carried across the block edges, so every prefix has the bits of a
round-by-round accumulation; and every quantity is computed row by row,
so a trial's report does not depend on which trials share its run.  The
bound must dominate the regret at every prefix.

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
four terms collapse to the non-robust closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .files import write_csvs
from .optimizers import GroupState, OptimizerConfig
from .problems import QuadraticSequence
from .specs import _validate_regret_config

__all__ = [
    "RegretReport",
    "weighted_projection",
    "run_regret_experiment",
    "sublinearity_ratio",
    "write_regret_csv",
]

# Rounds per block of play, of the comparator's losses and of the bound's
# evaluation.
BLOCK = 256


def _checked_box(box):
    """The box's (lo, hi) as float arrays, or a ValueError if it is empty."""
    lo, hi = box
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if lo.size == 0 or hi.size == 0:
        raise ValueError("Empty box")
    if np.any(hi < lo):
        raise ValueError("Empty box: upper bound below lower bound")
    return lo, hi


def weighted_projection(theta, box):
    """Project theta onto an axis-aligned box under a diagonal metric.

    For a diagonal metric the weighted distance separates per coordinate,
    so the minimizer is the plain clamp whatever the positive weights are;
    they do not enter the arithmetic and are not passed.  The operation is
    therefore exact and non-expansive in every such weighted norm.
    """
    return np.clip(np.asarray(theta, dtype=np.float64), *_checked_box(box))


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


def _geometric_sums(g2, lows, k0, total):
    """One trial's sum_{k<t} (1 - tau_low)^{t-k} g2[k] at the rounds t > k0
    of a block, from the sum ``total`` and tau_low ``lows[0]`` at round k0
    and the block's running minima ``lows[1:]``.  A one-step recurrence
    extends the sum; a new minimum rebuilds it from ``g2`` (g2[0] = 0)."""
    sums = []
    for t, prev, low, g2_prev in zip(range(k0 + 1, k0 + len(lows)), lows, lows[1:],
                                     g2[k0:k0 + len(lows) - 1].tolist()):
        total = (1.0 - prev) * (total + g2_prev)
        if low < prev:
            total = float(np.sum((1.0 - low) ** (t - np.arange(1, t)) * g2[1:t]))
        sums.append(total)
    return sums


def _sqrt_past_g4_sums(g, g4_past):
    """For each round t of a block of gradients ``g`` (n, b, d), the sum over
    the coordinates of (sum_{s<t} g_s^4)^{1/2}, shaped (n, b), and the new
    carry; ``g4_past`` is the sum over the rounds before the block.  The
    exclusive scan makes the same sequential adds as ``g4_past += g**4``
    after each round.  Its (n, b, d) temporaries die with the call, so they
    do not add to the next block's peak."""
    g4 = g**4
    past = np.concatenate([g4_past[:, None], g4[:, :-1]], axis=1)
    np.cumsum(past, axis=1, out=past)
    return np.sum(np.sqrt(past), axis=-1), past[:, -1] + g4[:, -1]


def run_regret_experiment(seq: QuadraticSequence, cfg: OptimizerConfig):
    """Play every round of ``seq`` for all of its trials at once, then
    evaluate each trial's bound at every prefix.

    Returns one ``RegretReport`` per trial, in the order of the sequence's
    generators.  The horizon T is ``len(seq)``.  The comparator is the
    closed-form offline optimum of the summed losses (the strongest fixed
    comparator).
    """
    if not isinstance(seq, QuadraticSequence):
        raise TypeError(f"Expected QuadraticSequence, got {type(seq).__name__}")
    _validate_regret_config(cfg)
    n, T, d = seq.A.shape
    lo, hi = _checked_box(seq.spec.box)
    D_diam = seq.spec.diameter
    theta_star = seq.offline_optimum()
    # Start at the upper box corner, far from any weighted mean of the
    # centers.  A start near the comparator would make the early regret
    # negligible and the normalized-regret criterion vacuous.  ``hi`` is a
    # float array even for an integer box_halfwidth.
    theta = np.tile(hi, (n, 1))
    state = GroupState(cfg, n, d)

    # Play a block of rounds at a time.  A round only steps, clamps, writes
    # its theta (before the step), g and v into the block's buffers and its
    # tau into the log; the other per-round logs the bound reads are reduced
    # from the buffers after the block.
    losses = np.empty((n, T))
    star_losses = np.empty((n, T))
    tau_log = np.empty((n, T))
    g2_step = np.zeros((n, T + 1))  # round t's sum of g^2 in column t
    sqrt_v_sum = np.empty((n, T))
    sqrt_g4_sum = np.empty((n, T))
    G = np.zeros(n)
    g4_past = np.zeros((n, d))
    thetas, gs, vs = (np.empty((n, BLOCK, d)) for _ in range(3))
    for k0 in range(0, T, BLOCK):
        k1 = min(k0 + BLOCK, T)
        for j, t in enumerate(range(k0 + 1, k1 + 1)):
            thetas[:, j] = theta
            g = seq.grad(t - 1, theta)
            state.step(theta, g, t)
            theta.clip(lo, hi, out=theta)  # weighted_projection on a checked box
            gs[:, j] = g
            vs[:, j] = state.v
            tau_log[:, t - 1] = state.tau
        b = k1 - k0
        rounds, g, v = slice(k0, k1), gs[:, :b], vs[:, :b]
        losses[:, rounds] = seq.loss(rounds, thetas[:, :b])
        star_losses[:, rounds] = seq.loss(rounds, theta_star[:, None])
        G = np.maximum(G, np.max(np.abs(g), axis=(1, 2)))
        g2_step[:, k0 + 1:k1 + 1] = np.sum(g * g, axis=-1)
        sqrt_v_sum[:, rounds] = np.sum(np.sqrt(v), axis=-1)
        sqrt_g4_sum[:, rounds], g4_past = _sqrt_past_g4_sums(g, g4_past)
    # The evaluation reads only the logs: free the (n, T, d) draws for its
    # temporaries.
    del seq

    # Evaluate, a block of rounds at a time, each running quantity carried
    # across the block edges.
    regret_prefix = np.subtract(losses, star_losses, out=star_losses)
    np.cumsum(regret_prefix, axis=1, out=regret_prefix)
    # A block of the g^4 log is read only by its own terms: the bound overwrites it.
    bound_rhs_prefix = sqrt_g4_sum
    alpha, beta, eps = cfg.alpha, cfg.beta, cfg.eps
    # tau_1 stands for tau_low before round 1: it leaves the minima unchanged
    # and, with g2 zero there, gives the empty sum 0 at round 1.
    low_carry, sv_carry, geo = tau_log[:, 0], np.zeros(n), [0.0] * n
    for k0 in range(0, T, BLOCK):
        k1 = min(k0 + BLOCK, T)
        # Scalars from math: np.log and math.log can differ in the last bit.
        sqrt_t = np.array([math.sqrt(t) for t in range(k0 + 1, k1 + 1)])
        log_t = np.array([math.sqrt(1.0 + math.log(t - 1)) if t > 1 else 0.0
                          for t in range(k0 + 1, k1 + 1)])
        tau = tau_log[:, k0:k1]
        lows = np.concatenate([low_carry[:, None], tau], axis=1)
        np.minimum.accumulate(lows, axis=1, out=lows)
        tau_low = lows[:, 1:]
        y = sqrt_t * sqrt_v_sum[:, k0:k1]
        sv_past = np.concatenate([sv_carry[:, None], y[:, :-1]], axis=1)
        np.cumsum(sv_past, axis=1, out=sv_past)
        geo_block = np.empty_like(tau)  # filled row by row: one trial's float list at a time
        for i, total in enumerate(geo):
            geo_block[i] = _geometric_sums(g2_step[i], lows[i].tolist(), k0, total)
        term1 = D_diam**2 * sqrt_t / (4.0 * tau * alpha) * sqrt_v_sum[:, k0:k1]
        term2 = _coeff_term2(tau_low, beta) * D_diam**2 / alpha * sv_past
        term3 = (1.0 - beta) ** 2 * alpha / (eps * tau_low**2 * sqrt_t) * geo_block
        term4 = _coeff_term4(tau_low, beta, alpha, eps) * log_t * sqrt_g4_sum[:, k0:k1]
        if k0 == 0:
            term4[:, 0] = 0.0  # the sum over rounds before round 1 is empty
        bound = np.add(term1, term2, out=bound_rhs_prefix[:, k0:k1])
        bound += term3
        bound += term4
        low_carry, sv_carry = lows[:, -1], sv_past[:, -1] + y[:, -1]
        geo = geo_block[:, -1].tolist()

    final_terms = np.stack([term[:, -1] for term in (term1, term2, term3, term4)], axis=1)
    return [RegretReport(T=T, D_diam=D_diam, G=float(G[i]), theta_star=theta_star[i],
                         losses=losses[i], regret_prefix=regret_prefix[i],
                         bound_rhs_prefix=bound_rhs_prefix[i], tau=tau_log[i],
                         bound_terms=final_terms[i])
            for i in range(n)]


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


def _trace_rows(report: RegretReport):
    # A generator, so only the trace being written is held as Python floats;
    # zipped strictly, so an array shorter than T raises, not a short file.
    columns = (report.losses, report.regret_prefix, report.bound_rhs_prefix, report.tau)
    yield from zip(range(1, report.T + 1), *(c.tolist() for c in columns), strict=True)


def write_regret_csv(reports, paths):
    """Each report's trace at its path, as one output (``files.write_csvs``)."""
    header = ["t", "loss", "regret_prefix", "bound_rhs_prefix", "tau_t"]
    write_csvs([(path, header, _trace_rows(report), (int,) + (float,) * 4)
                for report, path in zip(reports, paths, strict=True)])
