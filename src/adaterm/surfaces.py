"""Numeric grids behind the explanatory figures.

Three grid kinds, all emitted as CSV tables rather than plots:

* ``Fig1`` — the pre-dimension-fix surrogate gradient of the degrees of
  freedom against w_mv, one curve per dimension (with nu = d).  Shows how
  the raw surrogate collapses toward zero as d grows.
* ``TauSurface`` — the adaptive interpolation factor tau_mv over the
  (nu_tilde, D) plane.
* ``DofIncrementSurface`` — the signed increment kappa_dnu * g_nu over the
  same plane: positive where the estimator raises nu_tilde (gradients look
  Gaussian), negative where it lowers it (outliers detected).  The product
  kappa_dnu * g_nu is dimension-free: the d in the step size cancels the d
  in the surrogate gradient.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .special import EPS_FLOAT32, W_NU_BAR_CEIL
from .tdist import (
    grad_nu_surrogate_pre,
    grad_nu_tilde_surrogate,
    interpolation_factor,
)

__all__ = ["GRID_KINDS", "GridSpec", "emit_grid", "write_grid_csv"]

GRID_KINDS = ("Fig1", "TauSurface", "DofIncrementSurface")


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
        return np.geomspace(self.w_low, self.w_high, self.n_w)

    def nu_axis(self):
        return np.geomspace(self.nu_low, self.nu_high, self.n_nu)

    def D_axis(self):
        return np.linspace(self.D_low, self.D_high, self.n_D)


def _w_mv(nu_tilde, D):
    return (nu_tilde + 1.0) / (nu_tilde + D)


def tau_mv_of(nu_tilde, D, beta):
    """tau_mv as a function of (nu_tilde, D): (1-beta) w_mv / w_mv_bar."""
    w = _w_mv(nu_tilde, D)
    w_bar = (nu_tilde + 1.0) / nu_tilde
    return interpolation_factor(beta, w, w_bar)


def dof_increment_of(nu_tilde, D, beta, nu_tilde_min):
    """kappa_dnu * g_nu at (nu_tilde, D); dimension-free (evaluated at d=1).

    Uses the same floors as the estimator: w_mv floored at the float32
    epsilon inside w_nu, and the ceiling on w_nu_bar.
    """
    nu_tilde = np.asarray(nu_tilde, dtype=np.float64)
    D = np.asarray(D, dtype=np.float64)
    w = np.maximum(_w_mv(nu_tilde, D), EPS_FLOAT32)
    w_bar = (nu_tilde + 1.0) / nu_tilde
    w_nu_bar = np.maximum(w_bar - np.log(w_bar), W_NU_BAR_CEIL)
    dnu = nu_tilde - nu_tilde_min
    kappa = 2.0 * dnu * (1.0 - beta) / w_nu_bar
    return kappa * grad_nu_tilde_surrogate(nu_tilde, 1, w)


def emit_grid(spec: GridSpec):
    """Evaluate the grid; returns (column names, rows as a float array).

    Row order is row-major over the axes in column order (outer axis
    first), so files diff cleanly.
    """
    if spec.kind == "Fig1":
        w = spec.w_axis()
        rows = []
        for d in spec.d_list:
            vals = grad_nu_surrogate_pre(float(d), d, w)
            rows.append(
                np.column_stack([np.full(w.shape, float(d)), w, vals])
            )
        return ["d", "w_mv", "value"], np.concatenate(rows, axis=0)

    nu = spec.nu_axis()
    D = spec.D_axis()
    nu_g, D_g = np.meshgrid(nu, D, indexing="ij")
    if spec.kind == "TauSurface":
        vals = tau_mv_of(nu_g, D_g, spec.beta)
        name = "tau_mv"
    else:
        vals = dof_increment_of(nu_g, D_g, spec.beta, spec.nu_tilde_min)
        name = "increment"
    table = np.column_stack([nu_g.ravel(), D_g.ravel(), vals.ravel()])
    return ["nu_tilde", "D", name], table


def write_grid_csv(spec: GridSpec, path):
    columns, table = emit_grid(spec)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in table:
            writer.writerow([f"{x:.17g}" for x in row])
