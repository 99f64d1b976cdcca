"""Grid emission for the dof-surrogate curves and the (nu_tilde, D)
surfaces."""

import numpy as np
import pytest

from adaterm.special import EPS_FLOAT32, W_NU_BAR_CEIL
from adaterm.specs import GRID_KINDS, GridSpec
from adaterm.surfaces import emit_grid, write_grid_csvs
from adaterm.tdist import (
    diagnostics_arrays,
    dof_step,
    grad_nu_surrogate_pre,
    interpolation_factor,
    weights,
)

from _reference import grad_nu_tilde_surrogate


def test_grid_kinds_frozen():
    assert GRID_KINDS == ("Fig1", "TauSurface", "DofIncrementSurface")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "Fig2"},
        {"n_w": 1},
        {"n_nu": 0},
        {"n_D": 1},
        {"w_low": 0.0},
        {"w_low": 2.0, "w_high": 1.0},
        {"nu_low": 0.0},
        {"D_low": -1.0},
        {"D_low": 5.0, "D_high": 5.0},
        {"beta": 1.0},
        {"d_list": ()},
        {"d_list": (1, 0)},
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        GridSpec(**kwargs)


def test_axes_layout():
    spec = GridSpec()
    w = spec.w_axis()
    assert w.shape == (201,)
    assert w[0] == 1e-6 and w[-1] == 2.0
    np.testing.assert_allclose(w[1:] / w[:-1], w[1] / w[0], rtol=1e-12)
    nu = spec.nu_axis()
    assert nu[0] == 1.0 and nu[-1] == 100.0 and nu.shape == (101,)
    D = spec.D_axis()
    assert D[0] == 0.0 and D[-1] == 100.0 and D.shape == (101,)
    np.testing.assert_allclose(np.diff(D), 1.0, rtol=1e-12)


def test_fig1_rows_match_surrogate():
    spec = GridSpec(kind="Fig1", w_low=0.5, w_high=2.0, n_w=3, d_list=(1, 10000))
    cols, table = emit_grid(spec)
    assert cols == ["d", "w_mv", "value"]
    assert table.shape == (6, 3)
    # d blocks come in list order, w varying fastest.
    np.testing.assert_array_equal(table[:, 0], [1, 1, 1, 10000, 10000, 10000])
    np.testing.assert_array_equal(table[:3, 1], [0.5, 1.0, 2.0])
    for d, w, val in table:
        assert val == grad_nu_surrogate_pre(float(d), int(d), w)
    # Hand value at nu = d = 1, w = 1: 0.5 * (-1 + 1 + 3/2).
    assert table[1, 2] == pytest.approx(0.75, rel=1e-15)


def test_tau_surface_values():
    spec = GridSpec(kind="TauSurface", n_nu=4, n_D=5)
    cols, table = emit_grid(spec)
    assert cols == ["nu_tilde", "D", "tau_mv"]
    assert table.shape == (20, 3)
    one_minus_beta = 1.0 - spec.beta
    at_zero = table[table[:, 1] == 0.0, 2]
    assert at_zero.shape == (4,)
    np.testing.assert_allclose(at_zero, one_minus_beta, rtol=1e-15)
    assert np.all((0.0 < table[:, 2]) & (table[:, 2] <= one_minus_beta * (1 + 1e-15)))
    # Monotone in D at fixed nu_tilde: more deviation, smaller tau.
    first_block = table[:5, 2]
    assert np.all(np.diff(first_block) < 0.0)


def test_tau_surface_is_the_estimators_tau():
    # At D = r^2 the estimator sees exactly that deviation from m = 0,
    # v = 1, g = r, so the grid row must be its tau_mv bit for bit.
    spec = GridSpec(kind="TauSurface")
    _, table = emit_grid(spec)
    nu, D = spec.nu_axis(), spec.D_axis()
    tau = table[:, 2].reshape(nu.size, D.size)
    roots = np.arange(11.0)
    cols = (roots * roots).astype(int)
    assert np.array_equal(D[cols], roots * roots)
    shape = (nu.size, roots.size, 1)
    diag = diagnostics_arrays(
        np.zeros(shape), np.ones(shape),
        np.broadcast_to(nu[:, None], shape[:2]),
        np.broadcast_to(roots[None, :, None], shape),
        spec.beta, 1e-5, spec.nu_tilde_min,
    )
    np.testing.assert_array_equal(tau[:, cols], diag.tau_mv)


def test_tau_mv_of_hand_value():
    # nu=1, D=3: w = 2/4, w_bar = 2, tau = 0.1 * 0.25.
    w_mv, w_mv_bar, _, _ = weights(1.0, 3.0)
    assert interpolation_factor(0.9, w_mv, w_mv_bar) == pytest.approx(0.025, rel=1e-14)


def _increment(nu_tilde, D, beta, nu_tilde_min):
    """kappa_dnu * g_nu at (nu_tilde, D) in dimension 1, as the grid has it."""
    _, _, w_nu, w_nu_bar = weights(nu_tilde, D)
    kappa_dnu, g_nu = dof_step(nu_tilde, w_nu, w_nu_bar, 1, beta, nu_tilde_min)
    return kappa_dnu * g_nu


def test_dof_increment_sign_structure():
    # At the lower dof bound the increment is pinned to zero for any D.
    assert _increment(1.0, 0.0, 0.9, 1.0) == 0.0
    assert _increment(1.0, 37.0, 0.9, 1.0) == 0.0
    # Above the bound: grows when gradients agree with the current scale,
    # shrinks under large normalized deviation.
    assert _increment(1.5, 0.0, 0.9, 1.0) > 0.0
    assert _increment(1.5, 100.0, 0.9, 1.0) < 0.0


def test_dof_increment_is_dimension_free():
    nu, D, beta, nu_min = 2.5, 7.0, 0.9, 1.0
    ref = _increment(nu, D, beta, nu_min)
    w = max((nu + 1.0) / (nu + D), EPS_FLOAT32)
    w_bar = (nu + 1.0) / nu
    w_nu_bar = max(w_bar - np.log(w_bar), W_NU_BAR_CEIL)
    for d in (1, 7, 50):
        kappa = 2.0 * (nu - nu_min) * (1.0 - beta) / (d * w_nu_bar)
        assert kappa * grad_nu_tilde_surrogate(nu, d, w) == pytest.approx(
            ref, rel=1e-12
        )


def test_surface_row_order_outer_axis_first():
    spec = GridSpec(kind="DofIncrementSurface", n_nu=2, n_D=3)
    cols, table = emit_grid(spec)
    assert cols == ["nu_tilde", "D", "increment"]
    nu = spec.nu_axis()
    D = spec.D_axis()
    np.testing.assert_array_equal(table[:, 0], np.repeat(nu, 3))
    np.testing.assert_array_equal(table[:, 1], np.tile(D, 2))


def test_csv_round_trip_is_exact(tmp_path):
    spec = GridSpec(kind="TauSurface", n_nu=3, n_D=4)
    path = tmp_path / "tau.csv"
    write_grid_csvs([spec], [path])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "nu_tilde,D,tau_mv"
    _, table = emit_grid(spec)
    assert len(lines) == table.shape[0] + 1
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(back, table)
