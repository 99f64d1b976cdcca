"""Tests of the benchmark's output checks.

Each workload is run once through the CLI at seed 0.  The real output must
pass every check, and each check must fail on a copy of it with one
deliberate fault.

    python3 -m pytest benchmark/test_checks.py
"""

from __future__ import annotations

import csv
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def real_output(tmp_path_factory):
    """name -> (config, output dir) of one real run, made on first use."""
    made = {}

    def get(name):
        if name not in made:
            base = tmp_path_factory.mktemp(name)
            cfg = workloads.make_config(name, 0, base / "out")
            workloads.write_config(cfg, base / "config.yaml")
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
            subprocess.run([sys.executable, "-m", "adaterm", "run", str(base / "config.yaml")],
                           check=True, env=env, cwd=ROOT, capture_output=True)
            made[name] = (cfg, base / "out")
        return made[name]

    return get


def _copy(real_output, name, tmp_path):
    cfg, out = real_output(name)
    shutil.copytree(out, tmp_path / "out")
    return cfg, tmp_path / "out"


def _edit_csv(path, edit):
    """Rewrite a CSV file through ``edit(list of records) -> list``."""
    with open(path, newline="") as fh:
        recs = list(csv.reader(fh))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(edit(recs))


def _set_value(recs, match, new_value):
    """Set the value column of the first results.csv record for which
    ``match(record)`` holds."""
    for rec in recs[1:]:
        if match(rec):
            rec[5] = repr(new_value(float(rec[5])))
            return recs
    raise AssertionError("no matching record")


def _one_ulp_up(x):
    return math.nextafter(x, math.inf)


WORKLOADS = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_real_output_passes(real_output, name):
    cfg, out = real_output(name)
    assert checks.check_output(cfg, out) == []


@pytest.mark.parametrize("name", WORKLOADS)
def test_dropped_row_fails(real_output, name, tmp_path):
    cfg, out = _copy(real_output, name, tmp_path)
    _edit_csv(out / "results.csv", lambda recs: recs[:3] + recs[4:])
    errors = checks.check_output(cfg, out)
    assert any("expected row(s) missing" in e for e in errors)


@pytest.mark.parametrize("name", WORKLOADS)
def test_duplicated_row_fails(real_output, name, tmp_path):
    cfg, out = _copy(real_output, name, tmp_path)
    _edit_csv(out / "results.csv", lambda recs: recs + [recs[-1]])
    errors = checks.check_output(cfg, out)
    assert any("unexpected or duplicate" in e for e in errors)


@pytest.mark.parametrize("name", WORKLOADS)
def test_edited_summary_fails(real_output, name, tmp_path):
    cfg, out = _copy(real_output, name, tmp_path)

    def edit(recs):
        recs[1][5] = repr(float(recs[1][5]) * 1.001)  # the mean column
        return recs

    _edit_csv(out / "summary.csv", edit)
    errors = checks.check_output(cfg, out)
    assert any(e.startswith("summary.csv") and " mean " in e for e in errors)


@pytest.mark.parametrize("name", WORKLOADS)
def test_changed_value_fails_summary(real_output, name, tmp_path):
    cfg, out = _copy(real_output, name, tmp_path)
    _edit_csv(out / "results.csv", lambda recs: _set_value(recs, lambda r: True,
                                                             lambda v: v * 1.5 + 1.0))
    errors = checks.check_output(cfg, out)
    assert any(e.startswith("summary.csv") for e in errors)


def _rows(out):
    return checks.read_results(out / "results.csv")


def test_rosenbrock_replay_catches_one_ulp(real_output, tmp_path):
    cfg, out = _copy(real_output, "testfn-rosenbrock", tmp_path)
    seed = cfg["seed"] + checks.replay_sample(cfg)[-1]
    _edit_csv(out / "results.csv", lambda recs: _set_value(
        recs, lambda r: r[1] == "AdaBelief" and r[2] == str(seed) and r[3] == "error_norm",
        _one_ulp_up))
    errors = checks.check_rosenbrock(cfg, _rows(out))
    assert any("AdaBelief" in e and "replay gives" in e for e in errors)


def test_rosenbrock_trail_must_end_at_final_error(real_output, tmp_path):
    cfg, out = _copy(real_output, "testfn-rosenbrock", tmp_path)
    _edit_csv(out / "results.csv", lambda recs: _set_value(
        recs, lambda r: r[1] == "TAdam" and r[3] == "final_error_norm", _one_ulp_up))
    errors = checks.check_rosenbrock(cfg, _rows(out))
    assert any("last error_norm row differs" in e for e in errors)


def test_rosenbrock_adaterm_properties(real_output, tmp_path):
    cfg, out = _copy(real_output, "testfn-rosenbrock", tmp_path)
    top = f"Rosenbrock:p={max(cfg['problem']['noise_ratios']):g}"

    def edit(recs):
        for r in recs[1:]:
            if r[0] == top and r[1] == "AdaTerm" and r[3] == "final_error_norm":
                r[5] = "10.0"
            if r[0] == "Rosenbrock:p=0" and r[1] == "AdaTerm" and r[3] == "final_nu_tilde":
                r[5] = "1.0"
        return recs

    _edit_csv(out / "results.csv", edit)
    errors = checks.check_rosenbrock(cfg, _rows(out))
    assert any("not below Adam's" in e for e in errors)
    assert any("not below AdaTerm-NoRobustness's" in e for e in errors)
    assert any("not above nu_tilde_min" in e for e in errors)


def test_regression_properties(real_output, tmp_path):
    cfg, out = _copy(real_output, "regression-mlp", tmp_path)

    def edit(recs):
        for r in recs[1:]:
            if r[0] == "regression:p=1" and r[1] == "AdaTerm":
                r[5] = "1.0"
            if r[0] == "regression:p=0" and r[1] == "Adam":
                r[5] = "0.25"
        return _set_value(recs, lambda r: r[0] == "regression:p=0", lambda v: -v)

    _edit_csv(out / "results.csv", edit)
    errors = checks.check_regression(cfg, _rows(out))
    assert any("not positive" in e for e in errors)
    assert any("not below Adam's" in e for e in errors)
    assert any("clean target's variance" in e for e in errors)


def test_clean_target_variance():
    assert round(checks.clean_target_variance(), 3) == 0.230


def _edit_trace(out, edit):
    path = sorted(out.glob("regret_d2_seed*.csv"))[0]
    _edit_csv(path, edit)


def test_regret_bound_below_regret_fails(real_output, tmp_path):
    cfg, out = _copy(real_output, "regret-bound", tmp_path)

    def edit(recs):
        recs[100][3] = repr(float(recs[100][2]) * 0.5)  # bound_rhs_prefix < regret
        return recs

    _edit_trace(out, edit)
    errors = checks.check_regret(cfg, _rows(out), out)
    assert any("bound below regret at t = 100" in e for e in errors)


def test_regret_changed_loss_fails(real_output, tmp_path):
    cfg, out = _copy(real_output, "regret-bound", tmp_path)

    def edit(recs):
        recs[200][1] = repr(float(recs[200][1]) + 1e-3)
        return recs

    _edit_trace(out, edit)
    errors = checks.check_regret(cfg, _rows(out), out)
    assert any("regret increment at t = 200" in e for e in errors)


def test_regret_tau_and_last_row(real_output, tmp_path):
    cfg, out = _copy(real_output, "regret-bound", tmp_path)

    def edit(recs):
        recs[50][4] = "0.2"  # above 1 - beta
        return recs

    _edit_trace(out, edit)
    _edit_csv(out / "results.csv", lambda recs: _set_value(
        recs, lambda r: r[0] == "regret:d=10" and r[3] == "R_T", _one_ulp_up))
    errors = checks.check_regret(cfg, _rows(out), out)
    assert any("tau_t outside" in e for e in errors)
    assert any("R_T" in e and "trace gives" in e for e in errors)


def test_regret_dropped_trace_row_fails(real_output, tmp_path):
    cfg, out = _copy(real_output, "regret-bound", tmp_path)
    _edit_trace(out, lambda recs: recs[:-1])
    errors = checks.check_regret(cfg, _rows(out), out)
    assert any("trace rows are not" in e for e in errors)
