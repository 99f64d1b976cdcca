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
  in the surrogate gradient, so the surface is evaluated at d = 1.

The surfaces restate no formula: they call ``tdist.weights`` and
``tdist.dof_step``, the functions the estimator steps with.
"""

from __future__ import annotations

import numpy as np

from .files import write_csvs
from .specs import GRID_KINDS, GridSpec
from .tdist import dof_step, grad_nu_surrogate_pre, interpolation_factor, weights

__all__ = ["GRID_KINDS", "GridSpec", "emit_grid", "write_grid_csvs"]


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
    w_mv, w_mv_bar, w_nu, w_nu_bar = weights(nu_g, D_g)
    if spec.kind == "TauSurface":
        vals = interpolation_factor(spec.beta, w_mv, w_mv_bar)
        name = "tau_mv"
    else:
        kappa_dnu, g_nu = dof_step(nu_g, w_nu, w_nu_bar, 1, spec.beta, spec.nu_tilde_min)
        vals = kappa_dnu * g_nu
        name = "increment"
    table = np.column_stack([nu_g.ravel(), D_g.ravel(), vals.ravel()])
    return ["nu_tilde", "D", name], table


def write_grid_csvs(specs, paths):
    """Write the grid of each of ``specs`` to the matching path as one
    output: every grid is emitted first, and no file changes unless all of
    them are written (``files.write_csvs``)."""
    tables = []
    for spec, path in zip(specs, paths):
        header, table = emit_grid(spec)
        tables.append((path, header, table.tolist(), (float,) * len(header)))
    write_csvs(tables)
