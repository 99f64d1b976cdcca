"""Problem generators: 2-D test functions with analytic gradients and
coordinate noise, the noisy scalar-regression stream, and random online
convex quadratics for the regret checker.

Test-function evaluation is vectorized over leading axes (points shaped
(..., 2)) so that many seeded trials can be advanced as one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import sample_student_t
from .specs import OnlineConvexSpec, RegressionStreamSpec

__all__ = [
    "TEST_FUNCTIONS",
    "TestFunction",
    "apply_coordinate_noise",
    "true_regression_fn",
    "generate_regression_stream",
    "QuadraticSequence",
]

NOISE_HALF_RANGE = 0.1


# ---------------------------------------------------------------------------
# 2-D test functions
# ---------------------------------------------------------------------------


def _rosenbrock(pt):
    x, y = pt[..., 0], pt[..., 1]
    return 100.0 * (y - x * x) ** 2 + (x - 1.0) ** 2


def _pair(pt):
    """An empty (..., 2) array for the gradient at the points ``pt``."""
    return np.empty((*pt.shape[:-1], 2), np.result_type(pt, 1.0))


def _rosenbrock_grad(pt):
    x, y = pt[..., 0], pt[..., 1]
    g, r = _pair(pt), y - x * x
    g[..., 0] = -400.0 * x * r + 2.0 * (x - 1.0)
    g[..., 1] = 200.0 * r
    return g


def _mccormick(pt):
    x, y = pt[..., 0], pt[..., 1]
    return np.sin(x + y) + (x - y) ** 2 - 1.5 * x + 2.5 * y + 1.0


def _mccormick_grad(pt):
    x, y = pt[..., 0], pt[..., 1]
    c, g = np.cos(x + y), _pair(pt)
    g[..., 0] = c + 2.0 * (x - y) - 1.5
    g[..., 1] = c - 2.0 * (x - y) + 2.5
    return g


def _michalewicz(pt):
    # sin^20 via exact integer powers: the base sin(x^2/pi) can be negative
    # and a log/exp shortcut would lose its sign.
    x, y = pt[..., 0], pt[..., 1]
    return -np.sin(x) * np.sin(x * x / np.pi) ** 20 - np.sin(y) * np.sin(
        2.0 * y * y / np.pi
    ) ** 20


def _michalewicz_grad(pt):
    x, y = pt[..., 0], pt[..., 1]
    g = _pair(pt)
    ax = x * x / np.pi
    g[..., 0] = -(
        np.cos(x) * np.sin(ax) ** 20
        + np.sin(x) * 20.0 * np.sin(ax) ** 19 * np.cos(ax) * (2.0 * x / np.pi)
    )
    ay = 2.0 * y * y / np.pi
    g[..., 1] = -(
        np.cos(y) * np.sin(ay) ** 20
        + np.sin(y) * 20.0 * np.sin(ay) ** 19 * np.cos(ay) * (4.0 * y / np.pi)
    )
    return g


@dataclass(frozen=True)
class TestFunction:
    """A benchmark surface with its fixed start point and reference optimum.

    Optima: Rosenbrock's is exact; McCormick's follows from the stationarity
    system (cos(x+y) = -1/2, x-y = 1); Michalewicz's x-coordinate is the
    numerically-refined stationary point near 2.2029 (y* = pi/2 is exact).
    """

    name: str
    fn: callable
    grad: callable
    start: tuple
    optimum: tuple
    optimum_value: float


# Keyed by ``specs.TEST_FUNCTION_NAMES``, the names a config may give.
TEST_FUNCTIONS = {
    "Rosenbrock": TestFunction(
        "Rosenbrock", _rosenbrock, _rosenbrock_grad,
        start=(-2.0, 2.0), optimum=(1.0, 1.0), optimum_value=0.0,
    ),
    "McCormick": TestFunction(
        "McCormick", _mccormick, _mccormick_grad,
        start=(4.0, -3.0),
        optimum=(0.5 - math.pi / 3.0, -0.5 - math.pi / 3.0),
        optimum_value=-math.sqrt(3.0) / 2.0 - math.pi / 3.0,
    ),
    "Michalewicz": TestFunction(
        "Michalewicz", _michalewicz, _michalewicz_grad,
        start=(1.0, 1.0),
        optimum=(2.2029055201726093, math.pi / 2.0),
        optimum_value=-1.8013034100985525,
    ),
}


def apply_coordinate_noise(point, trigger_u, deltas, p):
    """Shared noise semantics: when the trigger fires (u < p) every
    coordinate receives its independent perturbation.  The caller's point is
    never mutated; a noisy copy is returned.  A test function perturbs the
    point at which a gradient is evaluated (not the stored iterate), a
    regression experiment its clean labels."""
    pt = np.asarray(point, dtype=np.float64)
    fire = np.asarray(trigger_u) < p
    return pt + np.where(np.asarray(fire)[..., None], deltas, 0.0)


# ---------------------------------------------------------------------------
# Noisy regression stream
# ---------------------------------------------------------------------------


def true_regression_fn(x):
    """f(x) = x^2 + ln(x + 1) + sin(2 pi x) cos(2 pi x)."""
    x = np.asarray(x, dtype=np.float64)
    return x * x + np.log1p(x) + np.sin(2.0 * np.pi * x) * np.cos(2.0 * np.pi * x)


def generate_regression_stream(spec: RegressionStreamSpec, rng):
    """Yield each batch's ratio-free draws (x, u, zeta, f): the trigger
    uniforms u shaped (batch,), x, zeta and the clean f(x) shaped (batch,
    1); the last batch is short when batch_size does not divide n_pairs.

    Draw order per batch is fixed (x, then the trigger uniforms, then the
    noise magnitudes) so a seed pins the whole stream.
    """
    produced = 0
    while produced < spec.n_pairs:
        b = min(spec.batch_size, spec.n_pairs - produced)
        x = rng.uniform(spec.x_low, spec.x_high, size=b)
        u = rng.random(b)
        zeta = sample_student_t(rng, spec.noise_nu, 0.0, spec.noise_scale, size=b)
        f = true_regression_fn(x)
        produced += b
        yield x.reshape(-1, 1), u, zeta.reshape(-1, 1), f.reshape(-1, 1)


# ---------------------------------------------------------------------------
# Online convex quadratics
# ---------------------------------------------------------------------------


class QuadraticSequence:
    """T random strongly-convex quadratics l_t(x) = 0.5 (x-c_t)' A_t (x-c_t)
    for each of n trials, one generator per trial.

    Trial i draws its curvatures and then its centers from ``rngs[i]``, so
    a trial's sequence does not depend on the others; ``[make_rng(seed)]``
    is a single trial.  The coefficients are stored as (n, T, d) arrays,
    trial axis leading.  Round t's losses and gradients are ``loss(t,
    theta)`` and ``grad(t, theta)`` for theta shaped (n, d); a slice of
    rounds in place of t evaluates a block of rounds at once.  The raw
    coefficient arrays stay accessible for the closed-form offline optimum.
    """

    def __init__(self, spec: OnlineConvexSpec, rngs, T: int):
        if T < 1:
            raise ValueError(f"Invalid horizon: {T}")
        rngs = list(rngs)
        self.spec = spec
        cap = spec.grad_bound / spec.diameter
        b = spec.box_halfwidth
        shape = (len(rngs), T, spec.dim)
        self.A = np.empty(shape)
        self.C = np.empty(shape)
        # Each draw is written into its trial's row as it is made, so only
        # one trial's (T, d) temporary is alive at a time.
        for i, rng in enumerate(rngs):
            a = rng.uniform(spec.curvature_low, spec.curvature_high, size=(T, spec.dim))
            np.minimum(a, cap, out=self.A[i])
            self.C[i] = rng.uniform(-b, b, size=(T, spec.dim))

    def __len__(self):
        return self.A.shape[1]

    def loss(self, t, theta):
        """Every trial's loss of round t (0-based index), shaped (n,).  For
        a slice of k rounds, theta is shaped (n, k, d) (or broadcasts to it)
        and the losses are shaped (n, k), each with the bits of its round's
        own call."""
        diff = theta - self.C[:, t]
        return 0.5 * np.sum(self.A[:, t] * diff * diff, axis=-1)

    def grad(self, t, theta):
        """Every trial's gradient of round t, shaped (n, d); for a slice of
        rounds, shaped like the losses' operand, (n, k, d)."""
        return self.A[:, t] * (theta - self.C[:, t])

    def offline_optimum(self):
        """Each trial's argmin of its summed losses, shaped (n, d): the
        A-weighted mean of the centers (coordinate-wise, hence inside the
        box).  A coordinate with zero total curvature is flat; any point
        minimizes it, so 0 is returned.  Trials are solved one at a time,
        so no (n, T, d) temporary is made."""
        out = np.empty((self.A.shape[0], self.A.shape[2]))
        for A, C, star in zip(self.A, self.C, out):
            total = np.sum(A, axis=0)
            flat = total == 0.0
            mean = np.sum(A * C, axis=0) / np.where(flat, 1.0, total)
            star[...] = np.where(flat, 0.0, mean)
        return out
