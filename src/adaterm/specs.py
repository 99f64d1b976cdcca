"""The specs a config is parsed into, and the names they may take: the
optimizer's hyper-parameters, the regression stream, the online convex
problem and the figure grids.  This module imports no numpy, so a config is
parsed and checked before any numerical module loads.  These names live here
only: the numerical modules import what they use of them from this module.
The methods that return arrays import numpy when they are called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["ALGORITHMS", "VARIANTS", "ABLATIONS", "LR_SCHEDULES", "OptimizerConfig",
           "TEST_FUNCTION_NAMES", "DEFAULT_LAYER_SIZES", "RegressionStreamSpec",
           "OnlineConvexSpec", "GRID_KINDS", "GridSpec"]

ALGORITHMS = ("AdaTerm", "Adam", "AdaBelief", "TAdam")
VARIANTS = ("Default", "Uncentered", "AdaBias", "UncenteredAdaBias", "AdaTerm2")
ABLATIONS = ("None", "NoAdaptiveness", "NoRobustness")
LR_SCHEDULES = ("Constant", "InverseSqrt")

_DEFAULT_EPS = {"AdaTerm": 1e-5, "Adam": 1e-8, "AdaBelief": 1e-8, "TAdam": 1e-8}

# The keys of ``problems.TEST_FUNCTIONS``, the 2-D surfaces a config may name.
TEST_FUNCTION_NAMES = ("Rosenbrock", "McCormick", "Michalewicz")

DEFAULT_LAYER_SIZES = (1, 50, 50, 50, 50, 50, 1)

GRID_KINDS = ("Fig1", "TauSurface", "DofIncrementSurface")


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
            if not self.nu_tilde_init > self.nu_tilde_min:  # the default, so say what made it
                raise ValueError("nu_tilde_min + eps rounds to nu_tilde_min: "
                                 f"nu_tilde_min={self.nu_tilde_min}, eps={self.eps}")
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

    def learning_rate(self, t: int) -> float:
        if self.lr_schedule == "InverseSqrt":
            return self.alpha / math.sqrt(t)
        return self.alpha


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


@dataclass(frozen=True)
class RegressionStreamSpec:
    """Sampling plan for the scalar regression task.

    At noise ratio p the labels are y = f(x) + zeta * [u < p], u uniform on
    [0, 1) and zeta a Student's t with one degree of freedom (Cauchy),
    location 0 and scale 0.05.  No draw depends on p, so the plan holds no
    ratio and one stream serves every ratio.  x is uniform on [x_low,
    x_high]; x_low must exceed -1 so ln(x + 1) stays defined.
    """

    n_pairs: int = 40000
    batch_size: int = 10
    x_low: float = 0.0
    x_high: float = 1.0
    noise_nu: float = 1.0
    noise_scale: float = 0.05

    def __post_init__(self):
        if self.n_pairs < 1 or self.batch_size < 1:
            raise ValueError(
                f"Invalid stream sizes: n_pairs={self.n_pairs}, batch_size={self.batch_size}"
            )
        if self.x_low <= -1.0:
            raise ValueError(
                f"x_low must exceed -1 to keep ln(x + 1) defined: {self.x_low}"
            )
        if self.x_high <= self.x_low:
            raise ValueError(f"Empty input domain: [{self.x_low}, {self.x_high}]")
        for name in ("noise_nu", "noise_scale"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"Invalid {name} (must be > 0): {getattr(self, name)}")


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
        import numpy as np
        b = self.box_halfwidth
        lo = np.full(self.dim, -b)
        hi = np.full(self.dim, b)
        return lo, hi

    @property
    def diameter(self) -> float:
        """Sup-norm diameter of the box."""
        return 2.0 * self.box_halfwidth


@dataclass(frozen=True)
class GridSpec:
    """Axis layout for one grid kind.

    The w axis is log-spaced (small w_mv is where the interesting sign
    structure lives), the nu_tilde axis likewise; the D axis is linear so
    it can start at zero.
    """

    kind: str = "Fig1"
    w_low: float = 1e-6
    w_high: float = 2.0
    n_w: int = 201
    d_list: tuple = (1, 10, 100, 1000, 10000)
    nu_low: float = 1.0
    nu_high: float = 100.0
    n_nu: int = 101
    D_low: float = 0.0
    D_high: float = 100.0
    n_D: int = 101
    beta: float = 0.9
    nu_tilde_min: float = 1.0

    def __post_init__(self):
        if self.kind not in GRID_KINDS:
            raise ValueError(f"Unknown grid kind: {self.kind!r}")
        for n in (self.n_w, self.n_nu, self.n_D):
            if n < 2:
                raise ValueError(f"Grid resolution must be >= 2, got {n}")
        if not 0.0 < self.w_low < self.w_high:
            raise ValueError(f"Invalid w range: [{self.w_low}, {self.w_high}]")
        if not 0.0 < self.nu_low < self.nu_high:
            raise ValueError(f"Invalid nu range: [{self.nu_low}, {self.nu_high}]")
        if not 0.0 <= self.D_low < self.D_high:
            raise ValueError(f"Invalid D range: [{self.D_low}, {self.D_high}]")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"Invalid beta: {self.beta}")
        if len(self.d_list) == 0 or any(d < 1 for d in self.d_list):
            raise ValueError(f"Invalid dimension list: {self.d_list}")

    def w_axis(self):
        import numpy as np
        return np.geomspace(self.w_low, self.w_high, self.n_w)

    def nu_axis(self):
        import numpy as np
        return np.geomspace(self.nu_low, self.nu_high, self.n_nu)

    def D_axis(self):
        import numpy as np
        return np.linspace(self.D_low, self.D_high, self.n_D)
