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

from .rng import sample_bernoulli_mask, sample_student_t

__all__ = [
    "TEST_FUNCTIONS",
    "TestFunction",
    "apply_coordinate_noise",
    "RegressionStreamSpec",
    "true_regression_fn",
    "generate_regression_stream",
    "OnlineConvexSpec",
    "QuadraticSequence",
]

NOISE_HALF_RANGE = 0.1


# ---------------------------------------------------------------------------
# 2-D test functions
# ---------------------------------------------------------------------------


def _rosenbrock(pt):
    x, y = pt[..., 0], pt[..., 1]
    return 100.0 * (y - x * x) ** 2 + (x - 1.0) ** 2


def _rosenbrock_grad(pt):
    x, y = pt[..., 0], pt[..., 1]
    gx = -400.0 * x * (y - x * x) + 2.0 * (x - 1.0)
    gy = 200.0 * (y - x * x)
    return np.stack([gx, gy], axis=-1)


def _mccormick(pt):
    x, y = pt[..., 0], pt[..., 1]
    return np.sin(x + y) + (x - y) ** 2 - 1.5 * x + 2.5 * y + 1.0


def _mccormick_grad(pt):
    x, y = pt[..., 0], pt[..., 1]
    c = np.cos(x + y)
    gx = c + 2.0 * (x - y) - 1.5
    gy = c - 2.0 * (x - y) + 2.5
    return np.stack([gx, gy], axis=-1)


def _michalewicz(pt):
    # sin^20 via exact integer powers: the base sin(x^2/pi) can be negative
    # and a log/exp shortcut would lose its sign.
    x, y = pt[..., 0], pt[..., 1]
    return -np.sin(x) * np.sin(x * x / np.pi) ** 20 - np.sin(y) * np.sin(
        2.0 * y * y / np.pi
    ) ** 20


def _michalewicz_grad(pt):
    x, y = pt[..., 0], pt[..., 1]
    ax = x * x / np.pi
    gx = -(
        np.cos(x) * np.sin(ax) ** 20
        + np.sin(x) * 20.0 * np.sin(ax) ** 19 * np.cos(ax) * (2.0 * x / np.pi)
    )
    ay = 2.0 * y * y / np.pi
    gy = -(
        np.cos(y) * np.sin(ay) ** 20
        + np.sin(y) * 20.0 * np.sin(ay) ** 19 * np.cos(ay) * (4.0 * y / np.pi)
    )
    return np.stack([gx, gy], axis=-1)


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
    never mutated; a noisy copy is returned.  The perturbation is
    transient: it applies to the point at which a gradient is evaluated,
    not to the stored iterate."""
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


@dataclass(frozen=True)
class RegressionStreamSpec:
    """Sampling plan for the scalar regression task.

    y = f(x) + zeta * Bern(noise_ratio) with zeta drawn from a Student's t
    with one degree of freedom (Cauchy), location 0 and scale 0.05.  x is
    uniform on [x_low, x_high]; the lower bound must exceed -1 so ln(x + 1)
    stays defined.
    """

    n_pairs: int = 40000
    batch_size: int = 10
    noise_ratio: float = 0.0
    x_low: float = 0.0
    x_high: float = 1.0
    noise_nu: float = 1.0
    noise_scale: float = 0.05

    def __post_init__(self):
        if self.n_pairs < 1 or self.batch_size < 1:
            raise ValueError(
                f"Invalid stream sizes: n_pairs={self.n_pairs}, batch_size={self.batch_size}"
            )
        if not 0.0 <= self.noise_ratio <= 1.0:
            raise ValueError(f"Invalid noise_ratio: {self.noise_ratio}")
        if self.x_low <= -1.0:
            raise ValueError(
                f"x_low must exceed -1 to keep ln(x + 1) defined: {self.x_low}"
            )
        if self.x_high <= self.x_low:
            raise ValueError(f"Empty input domain: [{self.x_low}, {self.x_high}]")


def generate_regression_stream(spec: RegressionStreamSpec, rng):
    """Yield (x_batch, y_batch, clean_f_batch), each shaped (batch, 1).

    Draw order per batch is fixed (x, then the Bernoulli mask, then the
    noise magnitudes) so a seed pins the whole stream.
    """
    produced = 0
    while produced < spec.n_pairs:
        b = min(spec.batch_size, spec.n_pairs - produced)
        x = rng.uniform(spec.x_low, spec.x_high, size=b)
        mask = sample_bernoulli_mask(rng, b, spec.noise_ratio)
        zeta = sample_student_t(rng, spec.noise_nu, 0.0, spec.noise_scale, size=b)
        f = true_regression_fn(x)
        y = f + np.where(mask, zeta, 0.0)
        produced += b
        yield x.reshape(-1, 1), y.reshape(-1, 1), f.reshape(-1, 1)


# ---------------------------------------------------------------------------
# Online convex quadratics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OnlineConvexSpec:
    """Random per-step quadratics on a box domain [-B, B]^d.

    Curvatures are clipped so that gradients stay within grad_bound over the
    whole box (|grad_i| <= a_i * 2B).
    """

    dim: int = 2
    box_halfwidth: float = 1.0
    grad_bound: float = 4.0
    curvature_low: float = 0.5
    curvature_high: float = 2.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"Invalid dimension: {self.dim}")
        for name in ("box_halfwidth", "grad_bound", "curvature_low", "curvature_high"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"Invalid {name}: {getattr(self, name)}")
        if self.curvature_high < self.curvature_low:
            raise ValueError("curvature_high must be >= curvature_low")

    @property
    def box(self):
        b = self.box_halfwidth
        lo = np.full(self.dim, -b)
        hi = np.full(self.dim, b)
        return lo, hi

    @property
    def diameter(self) -> float:
        """Sup-norm diameter of the box."""
        return 2.0 * self.box_halfwidth


class QuadraticSequence:
    """T random strongly-convex quadratics l_t(x) = 0.5 (x-c_t)' A_t (x-c_t).

    Round t's loss and gradient are ``loss(t, theta)`` and ``grad(t,
    theta)``; the raw coefficient arrays stay accessible for the
    closed-form offline optimum.
    """

    def __init__(self, spec: OnlineConvexSpec, rng, T: int):
        if T < 1:
            raise ValueError(f"Invalid horizon: {T}")
        self.spec = spec
        cap = spec.grad_bound / spec.diameter
        a = rng.uniform(spec.curvature_low, spec.curvature_high, size=(T, spec.dim))
        self.A = np.minimum(a, cap)
        b = spec.box_halfwidth
        self.C = rng.uniform(-b, b, size=(T, spec.dim))

    def __len__(self):
        return self.A.shape[0]

    def loss(self, t, theta):
        """Loss of round t (0-based index)."""
        diff = theta - self.C[t]
        return 0.5 * float(np.sum(self.A[t] * diff * diff))

    def grad(self, t, theta):
        return self.A[t] * (theta - self.C[t])

    def offline_optimum(self, upto=None):
        """argmin of the summed losses: the A-weighted mean of the centers
        (coordinate-wise, hence inside the box).  A coordinate with zero
        total curvature is flat; any point minimizes it, so 0 is returned."""
        A = self.A[:upto]
        C = self.C[:upto]
        total = np.sum(A, axis=0)
        flat = total == 0.0
        return np.where(flat, 0.0, np.sum(A * C, axis=0) / np.where(flat, 1.0, total))

    def summed_loss(self, theta):
        diff = theta[None, :] - self.C
        return 0.5 * float(np.sum(self.A * diff * diff))
