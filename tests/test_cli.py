"""Command-line behavior: exit codes, output files, error reporting."""

import subprocess
import sys
from pathlib import Path

import pytest

from adaterm import experiments
from adaterm.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_NUMERICAL, EXIT_OK, main
from adaterm.harness import EXPERIMENT_KINDS, load_config, run_experiment
from adaterm.results import VerificationError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

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

SMALL_VERIFY = """\
schema_version: 1
experiment: verify_gradients
output_dir: {out}
points: 2
dims: [1]
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


def test_verify_gradients_ok(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_VERIFY)
    assert main(["run", str(cfg)]) == EXIT_OK
    assert "verify_gradients: wrote 3 result rows" in capsys.readouterr().out
    results = (tmp_path / "out" / "results.csv").read_text()
    for name in ("grad_m", "grad_v", "grad_nu"):
        assert f"verify_gradients,{name},0,max_rel_fd_err,1," in results


def test_verify_gradients_impossible_tolerance(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_VERIFY + "tolerance: 1.0e-30\n")
    assert main(["run", str(cfg)]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert err.startswith("verification failure: ") and err.count("\n") == 1
    assert not (tmp_path / "out" / "results.csv").exists()


def test_verify_gradients_fails_on_nan_gradient(tmp_path, capsys, monkeypatch):
    """A NaN gradient has a NaN error, which is not below any tolerance."""
    monkeypatch.setattr(experiments, "grad_nu_exact", lambda g, m, v, nu: float("nan"))
    cfg = write_config(tmp_path, SMALL_VERIFY.replace("dims: [1]", "dims: [1, 2]"))
    with pytest.raises(VerificationError, match="grad_nu at d=1 has max relative error nan"):
        run_experiment(load_config(cfg))
    assert main(["run", str(cfg)]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert err.startswith("verification failure: ") and err.count("\n") == 1
    assert not (tmp_path / "out" / "results.csv").exists()


@pytest.mark.parametrize(
    "old, new",
    [("points: 2", "points: -3"), ("points: 2", "points: 0"),
     ("points: 2", "points: 2\ntolerance: .inf"), ("points: 2", "points: 2\ntolerance: .nan"),
     ("points: 2", "points: 2\ntolerance: 0"), ("points: 2", "points: 2\nseed: -1")],
    ids=["negative-points", "zero-points", "infinite-tolerance", "nan-tolerance",
         "zero-tolerance", "negative-seed"],
)
def test_verify_gradients_rejects_vacuous_check(tmp_path, capsys, old, new):
    cfg = write_config(tmp_path, SMALL_VERIFY.replace(old, new))
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "verify_gradients: wrote" not in captured.out
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["surface", "verify-gradients"])
def test_removed_subcommands_exit_2(capsys, command):
    """Figure grids and the gradient check run through ``run`` only."""
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == EXIT_CONFIG
    assert "invalid choice" in capsys.readouterr().err


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
        (SMALL_SURFACES, "grids:", "seed: 0\ngrids:", "seed"),
        (SMALL_VERIFY, "points: 2", "points: 2\noptimizers: [{{algorithm: Adam}}]",
         "optimizers"),
        (SMALL_RUN, "trials: 2", "trials: 2\nmodel: {{layer_sizes: [1, 4, 1]}}", "model"),
        # Regret reads only the singular optimizer section for now.
        (SMALL_REGRET, "trials: 1", "trials: 1\noptimizers: [{{algorithm: AdaTerm}}]",
         "optimizers"),
    ],
    ids=["misspelt-trials", "workers", "steps-in-regression", "seed-in-surfaces",
         "optimizers-in-verify", "model-in-test-function", "optimizers-in-regret"],
)
def test_run_rejects_unused_top_level_key(tmp_path, capsys, template, old, new, key):
    cfg = write_config(tmp_path, template.replace(old, new))
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"['{key}']" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "template, old, new, fragment",
    [
        (SMALL_VERIFY, "points: 2", "points: 2\ntolerance: abc",
         "tolerance must be a number, got 'abc'"),
        (SMALL_RUN, "[0.0]", "[abc]", "noise_ratios entry must be a number"),
        (SMALL_REGRESSION, "[0.0]", "[abc]", "noise_ratios entry must be a number"),
        (SMALL_REGRET, "dims: [2]", "dims: [two]", "dims entry must be an integer"),
        (SMALL_REGRESSION, "[1, 4, 1]", "[1, a, 1]",
         "model.layer_sizes entry must be an integer"),
        (SMALL_RUN, "noise_ratios: [0.0]", "noise_ratio: [0.1]", "['noise_ratio']"),
        (SMALL_REGRET, "  bias_correction: false\n", "", "bias_correction=False"),
        (SMALL_REGRET, "algorithm: AdaTerm", "algorithm: Adam", "algorithm='Adam'"),
        (SMALL_REGRET, "alpha: 0.1", "alpha: 0.1\n  variant: Uncentered",
         "variant='Uncentered'"),
        (SMALL_REGRET, "InverseSqrt", "Constant", "InverseSqrt"),
        (SMALL_REGRET, "alpha: 0.1", "alpha: 0.1\n  weight_decay: 0.5",
         "unknown key(s) ['weight_decay'] for AdaTerm"),
        (SMALL_RUN, "steps: 30", "steps: -5", "steps must be >= 0, got -5"),
        (SMALL_RUN, "steps: 30", "steps: 30\nrecord_every: -1",
         "record_every must be >= 0, got -1"),
        (SMALL_RUN, "trials: 2", "trials: 2\nseed: -1", "seed must be >= 0, got -1"),
        (SMALL_VERIFY, "points: 2", "points: -1", "points must be >= 1, got -1"),
        (SMALL_VERIFY, "dims: [1]", "dims: [1, 0]", "dims entry must be >= 1, got 0"),
        (SMALL_REGRET, "horizon: 60", "horizon: 0", "horizon must be >= 1, got 0"),
        (SMALL_REGRET, "dims: [2]", "dims: [0]", "dims entry must be >= 1, got 0"),
        (SMALL_REGRESSION, "[1, 4, 1]", "[1, 0, 1]",
         "model.layer_sizes entry must be >= 1, got 0"),
        (SMALL_VERIFY, "points: 2", "points: 0", "points must be >= 1, got 0"),
        (SMALL_VERIFY, "points: 2", "points: 2\ntolerance: .inf",
         "tolerance must be finite"),
        (SMALL_VERIFY, "points: 2", "points: 2\ntolerance: 0", "0 < tolerance < inf"),
        (SMALL_VERIFY, "points: 2", "points: 2\ntolerance: .nan",
         "tolerance must be finite"),
        (SMALL_RUN, "alpha: 0.01", "alpha: .inf", "alpha must be finite"),
        (SMALL_RUN, "alpha: 0.01", "alpha: 0.01, eps: .inf", "eps must be finite"),
        (SMALL_RUN, "alpha: 0.01", "alpha: 0.01, nu_tilde_init: .inf",
         "nu_tilde_init must be finite"),
        (SMALL_RUN, "alpha: 0.01", "alpha: 0.01, bias_correction: \"false\"",
         "bias_correction must be true or false, got 'false'"),
        (SMALL_RUN, "alpha: 0.01", "alpha: 0.01, beta1: 0.1",
         "unknown key(s) ['beta1'] for AdaTerm"),
        (SMALL_REGRESSION, "{{algorithm: Adam}}", "{{algorithm: Adam, beta: 0.5}}",
         "unknown key(s) ['beta'] for Adam"),
        (SMALL_REGRET, "alpha: 0.1", "alpha: 0.1\n  beta2: 0.9",
         "unknown key(s) ['beta2'] for AdaTerm"),
        (SMALL_REGRESSION, "n_pairs: 20", "n_pairs: 25.5",
         "n_pairs must be an integer, got 25.5"),
        (SMALL_REGRESSION, "n_pairs: 20", "n_pairs: true",
         "n_pairs must be an integer, got True"),
        (SMALL_REGRESSION, "n_pairs: 20", "n_pairs: 20\n  batch_size: 2.5",
         "batch_size must be an integer, got 2.5"),
        (SMALL_SURFACES, "n_nu: 3", "n_nu: 2.5", "n_nu must be an integer, got 2.5"),
        (SMALL_REGRET, "box_halfwidth: 1.0", "box_halfwidth: .inf",
         "box_halfwidth must be finite"),
        (SMALL_RUN, "output_dir: {out}", "output_dir: [a, b]",
         "output_dir must be a string, got ['a', 'b']"),
        (SMALL_SURFACES, "{{n_nu: 3, n_D: 4}}", "5", "grid TauSurface must be a mapping"),
        (SMALL_SURFACES, "problem:", "problem:\n  Fig1: {{d_list: [2.5]}}",
         "grid Fig1: d_list entry must be an integer, got 2.5"),
        (SMALL_SURFACES, "problem:", "problem:\n  Fig1: {{d_list: [true]}}",
         "grid Fig1: d_list entry must be an integer, got True"),
        (SMALL_SURFACES, "problem:", "problem:\n  Fig1: {{d_list: [.inf]}}",
         "grid Fig1: d_list entry must be an integer, got inf"),
        # Two ratios of one label, or one dimension twice, would name one cell.
        (SMALL_RUN, "[0.0]", "[0.1, 0.1000001]", "Duplicate noise_ratios label: p=0.1"),
        (SMALL_REGRESSION, "[0.0]", "[0.1, 0.1000001]",
         "Duplicate noise_ratios label: p=0.1"),
        (SMALL_REGRET, "dims: [2]", "dims: [2, 2]", "Duplicate dims entry: 2"),
        (SMALL_VERIFY, "dims: [1]", "dims: [1, 1]", "Duplicate dims entry: 1"),
        (SMALL_SURFACES, "TauSurface]", "[TauSurface]]", "Unknown grid kind: ['TauSurface']"),
        # A name that is not hashable is unknown, and mixed key types still sort.
        (SMALL_RUN, "experiment: test_function", "experiment: [a]",
         "Unknown experiment kind: ['a']"),
        (SMALL_RUN, "function: Rosenbrock", "function: [a]", "Unknown test function: ['a']"),
        (SMALL_RUN, "trials: 2", "trials: 2\n1: 2\nbogus: 3",
         "test_function configs do not use key(s) [1, 'bogus']"),
        (SMALL_RUN, "noise_ratios: [0.0]", "noise_ratios: [0.0]\n  1: 2\n  bogus: 3",
         "problem: unknown key(s) [1, 'bogus']"),
        (SMALL_REGRESSION, "{{algorithm: Adam}}", "{{algorithm: Adam, 1: 2, bogus: 3}}",
         "optimizers[0]: unknown key(s) [1, 'bogus'] for Adam"),
        (SMALL_SURFACES, "n_D: 4}}", "n_D: 4}}\n  1: 2\n  bogus: 3",
         "problem: key(s) [1, 'bogus'] name no listed grid"),
        (SMALL_REGRESSION, "n_pairs: 20", "n_pairs: 20\n  1: 2\n  bogus: 3",
         "problem section: unknown key(s) [1, 'bogus']"),
        # An optimizer's name labels its rows, so it must be text.
        (SMALL_RUN, "{{algorithm: AdaTerm", "{{name: [a], algorithm: AdaTerm",
         "optimizers[0]: name must be text, got ['a']"),
        (SMALL_RUN, "{{algorithm: AdaTerm", "{{name: null, algorithm: AdaTerm",
         "optimizers[0]: name must be text, got None"),
        (SMALL_RUN, "{{algorithm: AdaTerm", "{{name: -0.0, algorithm: AdaTerm",
         "optimizers[0]: name must be text, got -0.0"),
        # The stream's Student's t needs positive degrees of freedom and scale.
        (SMALL_REGRESSION, "n_pairs: 20", "n_pairs: 20\n  noise_nu: 0",
         "problem section: Invalid noise_nu (must be > 0): 0.0"),
        (SMALL_REGRESSION, "n_pairs: 20", "n_pairs: 20\n  noise_nu: -1",
         "problem section: Invalid noise_nu (must be > 0): -1.0"),
        (SMALL_REGRESSION, "n_pairs: 20", "n_pairs: 20\n  noise_scale: -0.05",
         "problem section: Invalid noise_scale (must be > 0): -0.05"),
        # The regression task has one input and one output.
        (SMALL_REGRESSION, "[1, 4, 1]", "[2, 3, 1]",
         "model.layer_sizes must start and end with 1, got [2, 3, 1]"),
        (SMALL_REGRESSION, "[1, 4, 1]", "[1, 3, 2]",
         "model.layer_sizes must start and end with 1, got [1, 3, 2]"),
        # A key that the parse sets itself is not the config's to set.
        (SMALL_REGRET, "grad_bound: 4.0", "grad_bound: 4.0\n  dim: 3",
         "problem section: unknown key(s) ['dim']"),
        (SMALL_SURFACES, "problem:", "problem:\n  Fig1: {{kind: TauSurface}}",
         "grid Fig1: unknown key(s) ['kind']"),
        # The default nu_tilde_init, nu_tilde_min + eps, must exceed nu_tilde_min.
        (SMALL_RUN, "alpha: 0.01", "eps: 1.0e-300",
         "nu_tilde_min + eps rounds to nu_tilde_min: nu_tilde_min=1.0, eps=1e-300"),
        (SMALL_RUN, "alpha: 0.01", "nu_tilde_min: 1.0e+17",
         "nu_tilde_min + eps rounds to nu_tilde_min: nu_tilde_min=1e+17, eps=1e-05"),
        # Values YAML cannot build (a bad tag, an int past Python's digit
        # limit), written as text: yaml.dump cannot write them.
        (SMALL_RUN, "trials: 2", "trials: !!int x", "Config parse error in "),
        (SMALL_RUN, "alpha: 0.01", "alpha: !!float x", "Config parse error in "),
        (SMALL_RUN, "trials: 2", "trials: 1" + "0" * 4999, "Config parse error in "),
        # An int too large for a float, where a float is read.
        (SMALL_RUN, "alpha: 0.01", "alpha: 1" + "0" * 399,
         "alpha is out of range: an integer of 1326 bits"),
        (SMALL_REGRESSION, "n_pairs: 20", "n_pairs: 20\n  x_high: 1" + "0" * 399,
         "problem section: x_high is out of range"),
        # A value too long to print (YAML builds a hexadecimal int past the
        # digit limit) is shown by its type and size.
        (SMALL_RUN, "schema_version: 1", "schema_version: 0x1" + "0" * 5000,
         "Unsupported schema_version <int of 20001 bits> (expected 1)"),
        (SMALL_RUN, "experiment: test_function", "experiment: 0x1" + "0" * 5000,
         "Unknown experiment kind: <int of 20001 bits>"),
        (SMALL_RUN, "alpha: 0.01", "alpha: [0x1" + "0" * 5000 + "]",
         "optimizers[0]: alpha must be a number, got <list of length 1>"),
        (SMALL_RUN, "trials: 2", "trials: 2\n? 0x1" + "0" * 5000 + "\n: 1\nbogus: 3",
         "test_function configs do not use key(s) [<int of 20001 bits>, 'bogus']"),
    ],
    ids=["tolerance", "testfn-ratio", "regression-ratio", "dims", "layer-sizes",
         "misspelt-noise-ratios", "regret-bias-correction", "regret-algorithm",
         "regret-variant", "regret-schedule", "regret-weight-decay",
         "negative-steps", "negative-record-every", "negative-seed", "negative-points",
         "verify-dims-below-1", "horizon-below-1", "regret-dims-below-1",
         "layer-size-below-1", "zero-points", "infinite-tolerance", "zero-tolerance",
         "nan-tolerance",
         "infinite-alpha", "infinite-eps", "infinite-nu-tilde-init",
         "bias-correction-string", "adaterm-beta1", "adam-beta", "regret-beta2",
         "fractional-n-pairs", "bool-n-pairs", "fractional-batch-size",
         "fractional-grid-resolution", "infinite-box", "output-dir-list",
         "grid-not-mapping", "fractional-d-list", "bool-d-list", "infinite-d-list",
         "testfn-repeated-ratio-label", "regression-repeated-ratio-label",
         "regret-repeated-dim", "verify-repeated-dim", "grid-not-a-name",
         "kind-list", "function-list", "top-level-mixed-keys", "problem-mixed-keys",
         "optimizer-mixed-keys", "surfaces-problem-mixed-keys", "spec-mixed-keys",
         "name-list", "name-null", "name-number", "zero-noise-nu", "negative-noise-nu",
         "negative-noise-scale", "layer-sizes-input-2", "layer-sizes-output-2",
         "regret-problem-dim", "grid-kind", "tiny-eps", "huge-nu-tilde-min",
         "int-tag", "float-tag", "5000-digit-trials", "400-digit-alpha", "400-digit-x-high",
         "hex-schema-version", "hex-experiment", "hex-alpha-list", "hex-key"],
)
def test_run_rejects_bad_value(tmp_path, capsys, template, old, new, fragment):
    cfg = write_config(tmp_path, template.replace(old, new))
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert fragment in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "template, old, new, key",
    [
        (SMALL_REGRESSION, "n_pairs: 20", "n_pairs: 20\n  bogus: 1", "bogus"),
        (SMALL_REGRET, "grad_bound: 4.0", "grad_bound: 4.0\n  bogus: 1", "bogus"),
        (SMALL_SURFACES, "n_D: 4", "n_D: 4, bogus: 1", "bogus"),
        (SMALL_SURFACES, "  TauSurface:", "  bogus: {{n_nu: 3}}\n  TauSurface:",
         "bogus"),
        # Regret dimensions are the top-level dims only.
        (SMALL_REGRET, "grad_bound: 4.0", "grad_bound: 4.0\n  dims: [3]", "dims"),
        # Regression ratios are the problem's noise_ratios list only.
        (SMALL_REGRESSION, "n_pairs: 20", "n_pairs: 20\n  noise_ratio: 0.5", "noise_ratio"),
    ],
    ids=["regression", "regret", "surfaces", "surfaces-unlisted-grid",
         "regret-problem-dims", "regression-noise-ratio"],
)
def test_run_rejects_bad_problem_key(tmp_path, capsys, template, old, new, key):
    cfg = write_config(tmp_path, template.replace(old, new))
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"'{key}'" in err
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


def test_run_reads_exponent_floats(tmp_path):
    """YAML reads an exponent with no decimal point (``1e-3``) as a string;
    optimizer values take it as the number it spells."""
    out = {}
    for spelling in ("0.001", "1e-3"):
        text = SMALL_RUN.replace("alpha: 0.01", f"alpha: {spelling}, eps: 1e-5")
        cfg = write_config(tmp_path, text.replace("{out}", f"{{out}}-{spelling}"))
        assert main(["run", str(cfg)]) == EXIT_OK
        out[spelling] = (tmp_path / f"out-{spelling}" / "results.csv").read_bytes()
    assert out["1e-3"] == out["0.001"]


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


GOOD_RESULTS = "experiment,optimizer,seed,metric,step,value\ne,o,0,m,10,0.5\n"


@pytest.mark.parametrize(
    "old, new, fragment",
    [
        (",value", "", "['value']"),
        ("e,o,0,", "e,o,zero,", "line 2"),
        (",10,", ",ten,", "line 2"),
        (",0.5", ",half", "line 2"),
        (",0.5", "", "line 2"),
    ],
    ids=["missing-column", "seed", "step", "value", "short-row"],
)
def test_summarize_rejects_malformed_results(tmp_path, capsys, old, new, fragment):
    (tmp_path / "results.csv").write_text(GOOD_RESULTS.replace(old, new))
    assert main(["summarize", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert fragment in err
    assert not (tmp_path / "summary.csv").exists()


def test_summarize_imports_neither_yaml_nor_numpy_ma(tmp_path):
    """``summarize`` reads no config, and its medians need no masked arrays."""
    (tmp_path / "results.csv").write_text(GOOD_RESULTS)
    code = ("import sys\n"
            "from adaterm.cli import main\n"
            f"status = main(['summarize', {str(tmp_path)!r}])\n"
            "print(status, sorted({'yaml', 'numpy.ma'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == "0 []", proc.stderr
    assert (tmp_path / "summary.csv").exists()


def _last_line_in_fresh_python(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_summarize_loads_no_numpy(tmp_path):
    """``summarize`` parses a CSV and computes four statistics: the numpy
    that ``run`` needs is not loaded, and the table has ``run``'s bytes."""
    cfg = write_config(tmp_path, SMALL_RUN)
    assert main(["run", str(cfg)]) == EXIT_OK
    written = (tmp_path / "out" / "summary.csv").read_bytes()
    code = ("import sys\n"
            "import adaterm.cli\n"
            f"status = adaterm.cli.main(['summarize', {str(tmp_path / 'out')!r}])\n"
            "print(status, 'numpy' in sys.modules)\n")
    assert _last_line_in_fresh_python(code) == "0 False"
    assert (tmp_path / "out" / "summary.csv").read_bytes() == written


def test_import_adaterm_loads_no_numpy():
    code = "import sys\nimport adaterm\nprint('numpy' in sys.modules)\n"
    assert _last_line_in_fresh_python(code) == "False"


def test_load_config_loads_no_numpy():
    """A config is parsed and checked before any numerical module loads."""
    code = ("import sys\n"
            "from pathlib import Path\n"
            "import adaterm.harness as harness\n"
            f"paths = sorted(Path({str(CONFIG_DIR)!r}).glob('*.yaml'))\n"
            "kinds = sorted({harness.load_config(path).kind for path in paths})\n"
            "print(kinds, 'numpy' in sys.modules)\n")
    # The shipped configs cover every kind.
    assert _last_line_in_fresh_python(code) == f"{sorted(EXPERIMENT_KINDS)} False"


def test_bad_config_exits_2_without_loading_numpy(tmp_path):
    """A bad config of every kind exits 2 before numpy loads."""
    bad = [(SMALL_RUN, "steps: 30", "steps: -5"),
           (SMALL_REGRESSION, "[1, 4, 1]", "[1, 0, 1]"),
           (SMALL_REGRET, "horizon: 60", "horizon: 0"),
           (SMALL_SURFACES, "n_D: 4", "n_D: 1"),
           (SMALL_VERIFY, "points: 2", "points: 0")]
    paths = [str(write_config(tmp_path, template.replace(old, new), f"bad{i}.yaml"))
             for i, (template, old, new) in enumerate(bad)]
    code = ("import sys\n"
            "import adaterm.cli\n"
            f"statuses = [adaterm.cli.main(['run', path]) for path in {paths!r}]\n"
            "print(statuses, 'numpy' in sys.modules)\n")
    assert _last_line_in_fresh_python(code) == f"{[EXIT_CONFIG] * len(bad)} False"
    assert not (tmp_path / "out").exists()


def test_package_serves_the_optimizer_names():
    code = ("from adaterm import GroupState, OptimizerConfig\n"
            "import adaterm.optimizers as o\n"
            "print(GroupState is o.GroupState and OptimizerConfig is o.OptimizerConfig)\n")
    assert _last_line_in_fresh_python(code) == "True"


def _one_config_error(capsys, path):
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert str(path) in err


def test_run_rejects_non_utf8_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_bytes(b"experiment: \xff\n")
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    _one_config_error(capsys, cfg)


@pytest.mark.parametrize("out", ["taken", "taken/out"], ids=["is-a-file", "under-a-file"])
def test_run_rejects_unmakeable_output_dir(tmp_path, capsys, out):
    (tmp_path / "taken").write_text("a file\n")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(SMALL_RUN.format(out=tmp_path / out))
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    _one_config_error(capsys, tmp_path / out)
    assert (tmp_path / "taken").read_text() == "a file\n"


@pytest.mark.parametrize("kind", ["not-utf8", "directory"])
def test_summarize_rejects_unreadable_results(tmp_path, capsys, kind):
    results = tmp_path / "results.csv"
    if kind == "directory":
        results.mkdir()
    else:
        results.write_bytes(GOOD_RESULTS.encode() + b"e,o,1,m,10,\xff\n")
    assert main(["summarize", str(tmp_path)]) == EXIT_CONFIG
    _one_config_error(capsys, results)
    assert not (tmp_path / "summary.csv").exists()


def _no_temp_files(directory):
    return [p.name for p in directory.iterdir() if p.name.endswith(".tmp")] == []


def test_summarize_rejects_unwritable_summary(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_RUN)
    assert main(["run", str(cfg)]) == EXIT_OK
    out_dir = tmp_path / "out"
    results = (out_dir / "results.csv").read_bytes()
    (out_dir / "summary.csv").unlink()
    (out_dir / "summary.csv").mkdir()
    capsys.readouterr()
    assert main(["summarize", str(out_dir)]) == EXIT_CONFIG
    _one_config_error(capsys, out_dir / "summary.csv")
    assert (out_dir / "summary.csv").is_dir()
    assert (out_dir / "results.csv").read_bytes() == results
    assert _no_temp_files(out_dir)


@pytest.mark.parametrize(
    "template, blocked",
    [(SMALL_RUN, "results.csv"), (SMALL_REGRET, "regret_d2_seed0.csv"),
     (SMALL_SURFACES, "TauSurface.csv")],
    ids=["results", "regret-trace", "surfaces-grid"],
)
def test_run_rejects_unwritable_output_file(tmp_path, capsys, template, blocked):
    out_dir = tmp_path / "out"
    (out_dir / blocked).mkdir(parents=True)
    (out_dir / "summary.csv").write_text("old summary\n")
    cfg = write_config(tmp_path, template)
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    _one_config_error(capsys, out_dir / blocked)
    assert (out_dir / blocked).is_dir()
    assert (out_dir / "summary.csv").read_text() == "old summary\n"
    assert _no_temp_files(out_dir)


def test_failed_surfaces_run_writes_no_grid(tmp_path, capsys):
    """Every grid is written to its temp file before any is moved into
    place, so a grid that cannot be written leaves none of the others."""
    out_dir = tmp_path / "out"
    (out_dir / "TauSurface.csv").mkdir(parents=True)
    cfg = write_config(tmp_path, SMALL_SURFACES)
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    _one_config_error(capsys, out_dir / "TauSurface.csv")
    assert not (out_dir / "Fig1.csv").exists()
    assert _no_temp_files(out_dir)


def test_failed_regret_run_writes_no_trace(tmp_path, capsys):
    """Every seed's trace of a dimension is written to its temp file before
    any is moved into place, so a trace that cannot be written leaves none
    of the others."""
    out_dir = tmp_path / "out"
    (out_dir / "regret_d2_seed1.csv").mkdir(parents=True)
    cfg = write_config(tmp_path, SMALL_REGRET.replace("trials: 1", "trials: 2"))
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    _one_config_error(capsys, out_dir / "regret_d2_seed1.csv")
    assert not (out_dir / "regret_d2_seed0.csv").exists()
    assert _no_temp_files(out_dir)


def test_surfaces_run_with_a_repeated_grid(tmp_path):
    """A grid listed twice is written once, as its last listing leaves it."""
    cfg = write_config(tmp_path, SMALL_SURFACES.replace("[Fig1, TauSurface]", "[Fig1, Fig1]")
                       .replace("  TauSurface: {{n_nu: 3, n_D: 4}}", "  Fig1: {{d_list: [1, 2]}}"))
    assert main(["run", str(cfg)]) == EXIT_OK
    out_dir = tmp_path / "out"
    assert sorted(p.name for p in out_dir.iterdir()) == ["Fig1.csv"]
    assert (out_dir / "Fig1.csv").read_bytes().startswith(b"d,w_mv,value\r\n1,")


def test_surface_explicit_out(tmp_path):
    cfg = write_config(tmp_path, SMALL_SURFACES)
    assert main(["run", str(cfg)]) == EXIT_OK
    assert (tmp_path / "out" / "TauSurface.csv").read_text().startswith("nu_tilde,D,tau_mv")


def test_surface_default_name(tmp_path, monkeypatch):
    """A relative output_dir resolves against the working directory."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("schema_version: 1\nexperiment: surfaces\noutput_dir: .\ngrids: [Fig1]\n")
    assert main(["run", str(cfg)]) == EXIT_OK
    assert (tmp_path / "Fig1.csv").read_text().startswith("d,w_mv,value")


def test_regret_alias_runs(tmp_path):
    cfg = write_config(tmp_path, SMALL_REGRET)
    assert main(["run", str(cfg)]) == EXIT_OK
    assert (tmp_path / "out" / "regret_d2_seed0.csv").exists()


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, SMALL_REGRET)
    proc = subprocess.run(
        [sys.executable, "-m", "adaterm", "run", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert "regret: wrote" in proc.stdout
    assert (tmp_path / "out" / "regret_d2_seed0.csv").exists()


def test_module_entry_rejects_unknown_command():
    proc = subprocess.run(
        [sys.executable, "-m", "adaterm", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
