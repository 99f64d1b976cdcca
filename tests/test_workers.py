"""Cells in forked workers: the same bytes as in one process, every
failure reported as the in-process run reports it, and no child process
left behind on any path."""

import os
import re
import select
import signal
import subprocess
import sys
import time

import pytest

from adaterm import experiments
from adaterm.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_WORKER, main
from adaterm.harness import WorkerError, _map_cells

TEST_FUNCTION = """\
schema_version: 1
experiment: test_function
output_dir: {out}
trials: 3
steps: 60
record_every: 20
problem:
  function: Rosenbrock
  noise_ratios: [0.0, 0.1]
optimizers:
  - {{algorithm: AdaTerm, alpha: 0.01}}
  - {{algorithm: Adam, alpha: 0.01}}
  - {{algorithm: TAdam, alpha: 0.01}}
"""

REGRESSION = """\
schema_version: 1
experiment: regression
output_dir: {out}
trials: 2
problem:
  n_pairs: 40
  noise_ratios: [0.0, 0.5]
model:
  layer_sizes: [1, 4, 1]
optimizers:
  - {{algorithm: AdaTerm}}
  - {{algorithm: Adam}}
"""

REGRET = """\
schema_version: 1
experiment: regret
output_dir: {out}
trials: 2
horizon: 60
dims: [2, 3]
problem:
  box_halfwidth: 1.0
  grad_bound: 4.0
optimizer:
  algorithm: AdaTerm
  alpha: 0.1
  lr_schedule: InverseSqrt
  bias_correction: false
"""

# Adam at this step size overflows at its first steps, in the second cell.
BLOWUP = TEST_FUNCTION.replace("{{algorithm: Adam, alpha: 0.01}}",
                               "{{algorithm: Adam, alpha: 1.0e+150}}")


def _cores(monkeypatch, n):
    """Make the map see ``n`` usable cores, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _count_forks(monkeypatch):
    """A list that gets one entry per child the parent forks."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _run(tmp_path, template, name="out"):
    cfg = tmp_path / f"{name}.yaml"
    cfg.write_text(template.format(out=tmp_path / name))
    return main(["run", str(cfg)])


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("template, cells", [(TEST_FUNCTION, 3), (REGRESSION, 4), (REGRET, 2)],
                         ids=["test_function", "regression", "regret"])
def test_forked_cells_write_the_in_process_bytes(tmp_path, monkeypatch, template, cells):
    _cores(monkeypatch, 1)
    assert _run(tmp_path, template, "serial") == EXIT_OK
    _cores(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    assert _run(tmp_path, template, "forked") == EXIT_OK
    assert len(forks) == cells
    serial, forked = _files(tmp_path / "serial"), _files(tmp_path / "forked")
    assert forked == serial
    if template is REGRET:
        assert len(serial) == 2 + 2 * 2  # results, summary and a trace per (dim, seed)
    _no_child_left()


@pytest.mark.parametrize("setup", ["one-core", "one-cell", "no-fork"])
def test_one_worker_runs_in_process(monkeypatch, setup):
    _cores(monkeypatch, 1 if setup == "one-core" else 2)
    if setup == "no-fork":
        monkeypatch.delattr(os, "fork")
    else:
        forks = _count_forks(monkeypatch)
    calls = {"a": (1,)} if setup == "one-cell" else {"a": (1,), "b": (2,)}
    assert _map_cells(lambda x: (x, os.getpid()), calls) == [
        (x, os.getpid()) for (x,) in calls.values()]
    if setup != "no-fork":
        assert forks == []


def test_results_come_back_in_call_order(monkeypatch):
    _cores(monkeypatch, 2)
    # The first cell ends last, so results arrive out of order.
    calls = {"slow": (0.3, "first"), "fast": (0.0, "second"), "next": (0.0, "third")}
    assert _map_cells(lambda wait, tag: time.sleep(wait) or tag, calls) == [
        "first", "second", "third"]
    _no_child_left()


def test_child_exception_is_raised_again(monkeypatch):
    _cores(monkeypatch, 2)

    def cell(x):
        if x == 2:
            raise ValueError(f"bad cell {x}")
        time.sleep(30)

    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="^bad cell 2$"):
        _map_cells(cell, {"a": (1,), "b": (2,), "c": (3,)})
    assert time.perf_counter() - t0 < 10  # the sleeping cell was killed, not awaited
    _no_child_left()


def test_interrupt_kills_and_reaps_the_children(monkeypatch):
    _cores(monkeypatch, 2)

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(select, "select", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _map_cells(time.sleep, {"a": (30,), "b": (30,)})
    _no_child_left()


def test_nan_cell_exits_3(tmp_path, monkeypatch, capsys):
    _cores(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    assert _run(tmp_path, BLOWUP) == EXIT_NUMERICAL
    assert forks
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1
    assert not (tmp_path / "out" / "results.csv").exists()
    _no_child_left()


def test_trace_path_that_is_a_directory_exits_2(tmp_path, monkeypatch, capsys):
    _cores(monkeypatch, 2)
    blocked = tmp_path / "out" / "regret_d3_seed1.csv"
    blocked.mkdir(parents=True)
    assert _run(tmp_path, REGRET) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: Cannot write {blocked}: ") and err.count("\n") == 1
    assert not (tmp_path / "out" / "results.csv").exists()
    _no_child_left()


def test_killed_child_is_one_line_error(tmp_path, monkeypatch, capsys):
    _cores(monkeypatch, 2)
    parent, run_cell = os.getpid(), experiments._run_regression_cell

    def adam_killed(Ws, Bs, X, Y, batch_size, opt_cfg, x_test):
        if os.getpid() != parent and opt_cfg.algorithm == "Adam":
            os.kill(os.getpid(), signal.SIGKILL)
        return run_cell(Ws, Bs, X, Y, batch_size, opt_cfg, x_test)

    monkeypatch.setattr(experiments, "_run_regression_cell", adam_killed)
    assert _run(tmp_path, REGRESSION) == EXIT_WORKER
    kill = int(signal.SIGKILL)
    assert re.fullmatch(rf"worker error: cell regression:p=(0|0\.5) Adam ended with no result "
                        rf"\(wait status {kill}, exit code -{kill}\)\n",
                        capsys.readouterr().err)
    assert not (tmp_path / "out" / "results.csv").exists()
    _no_child_left()


def test_worker_error_names_the_cell(monkeypatch):
    _cores(monkeypatch, 2)
    with pytest.raises(WorkerError, match=r"^cell b ended with no result \(wait status \d+, "
                                          r"exit code 7\)$"):
        _map_cells(lambda code: os._exit(code) if code else "ok", {"a": (0,), "b": (7,)})
    _no_child_left()


def test_children_never_flush_the_parents_stdio_or_run_its_atexit_handlers():
    # Stdout to a pipe is block-buffered, so "before" is still in the
    # buffer when the children are forked.
    code = ("import atexit, os\n"
            "from adaterm.harness import _map_cells\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "atexit.register(print, 'atexit')\n"
            "print('before')\n"
            "print(_map_cells(lambda x: x, {'a': (1,), 'b': (2,)}))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "before\n[1, 2]\natexit\n", "")
