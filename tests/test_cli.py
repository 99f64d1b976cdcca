"""Command-line behavior: exit codes, output files, error reporting."""

import subprocess
import sys

import pytest

from adaterm.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_NUMERICAL, EXIT_OK, main

SMALL_RUN = """\
schema_version: 1
experiment: test_function
output_dir: {out}
trials: 2
steps: 30
problem:
  function: Rosenbrock
  noise_ratios: [0.0]
optimizers:
  - {{algorithm: AdaTerm, alpha: 0.01}}
"""

BLOWUP_RUN = """\
schema_version: 1
experiment: test_function
output_dir: {out}
trials: 1
steps: 5
problem:
  function: Rosenbrock
  noise_ratios: [0.0]
optimizers:
  - {{algorithm: Adam, alpha: 1.0e+150}}
"""

SMALL_REGRET = """\
schema_version: 1
experiment: regret
output_dir: {out}
trials: 1
horizon: 60
dims: [2]
problem:
  box_halfwidth: 1.0
  grad_bound: 4.0
optimizer:
  algorithm: AdaTerm
  alpha: 0.1
  lr_schedule: InverseSqrt
  bias_correction: false
"""


SMALL_REGRESSION = """\
schema_version: 1
experiment: regression
output_dir: {out}
trials: 1
problem:
  n_pairs: 20
  noise_ratios: [0.0]
model:
  layer_sizes: [1, 4, 1]
optimizers:
  - {{algorithm: Adam}}
"""

SMALL_SURFACES = """\
schema_version: 1
experiment: surfaces
output_dir: {out}
grids: [Fig1, TauSurface]
problem:
  TauSurface: {{n_nu: 3, n_D: 4}}
"""


def write_config(tmp_path, template, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(template.format(out=tmp_path / "out"))
    return path


def test_verify_gradients_ok(capsys):
    assert main(["verify-gradients", "--points", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "all gradients verified" in out
    for name in ("grad_m", "grad_v", "grad_nu"):
        assert name in out


def test_verify_gradients_impossible_tolerance(capsys):
    code = main(["verify-gradients", "--points", "3", "--tolerance", "1e-30"])
    assert code == EXIT_INVARIANT
    assert "verification failure" in capsys.readouterr().err


def test_run_small_experiment(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_RUN)
    assert main(["run", str(cfg)]) == EXIT_OK
    assert "wrote" in capsys.readouterr().out
    assert (tmp_path / "out" / "results.csv").exists()
    assert (tmp_path / "out" / "summary.csv").exists()


@pytest.mark.parametrize(
    "template, old, new, key",
    [
        (SMALL_RUN, "trials: 2", "trails: 50", "trails"),
        (SMALL_RUN, "steps: 30", "steps: 30\nworkers: 4", "workers"),
        (SMALL_REGRESSION, "trials: 1", "trials: 1\nsteps: 10", "steps"),
    ],
    ids=["misspelt-trials", "workers", "steps-in-regression"],
)
def test_run_rejects_unused_top_level_key(tmp_path, capsys, template, old, new, key):
    cfg = write_config(tmp_path, template.replace(old, new))
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"['{key}']" in err
    assert not (tmp_path / "out").exists()


def test_run_surfaces_reports_grid_files(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_SURFACES)
    assert main(["run", str(cfg)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "result rows" not in out
    for kind in ("Fig1", "TauSurface"):
        path = tmp_path / "out" / f"{kind}.csv"
        assert path.exists()
        assert str(path) in out


def test_run_missing_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.yaml")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_run_bad_optimizer_key(tmp_path, capsys):
    text = SMALL_RUN.replace("alpha: 0.01", "alpha: 0.01, rho: 2")
    cfg = write_config(tmp_path, text)
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "rho" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow")
def test_run_numerical_blowup(tmp_path, capsys):
    cfg = write_config(tmp_path, BLOWUP_RUN)
    assert main(["run", str(cfg)]) == EXIT_NUMERICAL
    assert "numerical error" in capsys.readouterr().err


def test_summarize_directory(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_RUN)
    assert main(["run", str(cfg)]) == EXIT_OK
    out_dir = tmp_path / "out"
    (out_dir / "summary.csv").unlink()
    assert main(["summarize", str(out_dir)]) == EXIT_OK
    assert (out_dir / "summary.csv").exists()
    printed = capsys.readouterr().out
    assert "final_error_norm" in printed
    assert "median" in printed


def test_summarize_missing_results(tmp_path, capsys):
    assert main(["summarize", str(tmp_path)]) == EXIT_CONFIG
    assert "No results.csv" in capsys.readouterr().err


def test_surface_explicit_out(tmp_path):
    out = tmp_path / "tau.csv"
    assert main(["surface", "TauSurface", "--out", str(out)]) == EXIT_OK
    assert out.read_text().startswith("nu_tilde,D,tau_mv")


def test_surface_default_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["surface", "Fig1"]) == EXIT_OK
    assert (tmp_path / "Fig1.csv").read_text().startswith("d,w_mv,value")


def test_regret_alias_enforces_kind(tmp_path, capsys):
    wrong = write_config(tmp_path, SMALL_RUN)
    assert main(["regret", str(wrong)]) == EXIT_CONFIG
    assert "Expected a regret config" in capsys.readouterr().err


def test_regret_alias_runs(tmp_path):
    cfg = write_config(tmp_path, SMALL_REGRET)
    assert main(["regret", str(cfg)]) == EXIT_OK
    assert (tmp_path / "out" / "regret_d2_seed0.csv").exists()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "adaterm", "verify-gradients", "--points", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert "all gradients verified" in proc.stdout


def test_module_entry_rejects_unknown_command():
    proc = subprocess.run(
        [sys.executable, "-m", "adaterm", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
