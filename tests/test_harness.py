"""Config parsing, result tables, and the batch-layout independence the
harness is built around: a cell's rows do not depend on how its trials are
split into batches, a single trial (n = 1) included."""

import ast
import copy
import inspect
import itertools
import math
import os
import random
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from adaterm import experiments, harness
from adaterm.experiments import (
    TEST_X_POINTS,
    _noise_blocks,
    _run_regression_cell,
    _run_test_function_cell,
    draw_regression_trial,
    draw_test_function_noise,
)
from adaterm.files import write_csv
from adaterm.harness import ExperimentConfig, load_config, run_experiment
from adaterm.mlp import MlpModel, backward, forward, mse_loss, stack_parameters
from adaterm.optimizers import GroupState
from adaterm.problems import (
    NOISE_HALF_RANGE,
    TEST_FUNCTIONS,
    QuadraticSequence,
    apply_coordinate_noise,
    generate_regression_stream,
    true_regression_fn,
)
from adaterm.regret import run_regret_experiment, write_regret_csv
from adaterm.results import (
    ConfigError,
    ResultRow,
    VerificationError,
    read_results_csv,
    summarize_rows,
    write_results_csv,
    write_summary_csv,
)
from adaterm.rng import make_rng
from adaterm.specs import (ALGORITHMS, GridSpec, OnlineConvexSpec, OptimizerConfig,
                           RegressionStreamSpec)
from adaterm.surfaces import write_grid_csvs

from _reference import reference_summarize_rows, summary_bits

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_cfg(tmp_path, text, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


VALID_TEST_FUNCTION = """\
schema_version: 1
experiment: test_function
output_dir: out
seed: 3
trials: 4
steps: 100
record_every: 10
problem:
  function: Rosenbrock
  noise_ratios: [0.0, 0.1]
optimizers:
  - {algorithm: AdaTerm, alpha: 0.01}
  - {name: Adam-small, algorithm: Adam, alpha: 0.001}
"""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def test_load_valid_test_function_config(tmp_path):
    cfg = load_config(write_cfg(tmp_path, VALID_TEST_FUNCTION))
    assert cfg.kind == "test_function"
    assert cfg.output_dir == Path("out")
    args = cfg.args
    assert (args["seed"], args["trials"], args["steps"]) == (3, 4, 100)
    assert args["record_every"] == 10
    assert [n for n, _ in args["optimizers"]] == ["AdaTerm", "Adam-small"]
    assert args["optimizers"][0][1].alpha == 0.01
    assert args["noise_ratios"] == (0.0, 0.1)


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.yaml")))
def test_shipped_configs_parse(name):
    cfg = load_config(CONFIG_DIR / name)
    assert cfg.kind in (
        "test_function", "regression", "regret", "surfaces", "verify_gradients"
    )
    # What each run reads is built at load time.
    if name == "rosenbrock.yaml":
        assert cfg.args["function"] == "Rosenbrock"
        assert cfg.args["noise_ratios"] == (0.0, 0.01, 0.025, 0.05, 0.10, 0.15)
    elif name == "regression.yaml":
        assert cfg.args["stream"] == RegressionStreamSpec(n_pairs=8000, batch_size=10)
        assert cfg.args["noise_ratios"] == (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    elif name == "regret.yaml":
        assert cfg.args["problems"] == [
            OnlineConvexSpec(dim=d, box_halfwidth=1.0, grad_bound=4.0) for d in (2, 10)]
    elif name == "surfaces.yaml":
        assert cfg.args["grids"] == [GridSpec(kind=kind)
                                     for kind in ("Fig1", "TauSurface", "DofIncrementSurface")]
    else:
        assert name == "verify.yaml" and cfg.args["dims"] == (1, 2, 5, 8)


# The keys each kind needs, every optional one left out.
MINIMAL_CONFIGS = {
    "test_function": "problem: {function: Rosenbrock}\noptimizers: [{algorithm: Adam}]\n",
    "regression": "optimizers: [{algorithm: Adam}]\n",
    "regret": "optimizer: {lr_schedule: InverseSqrt, bias_correction: false}\n",
    "surfaces": "",
    "verify_gradients": "",
}


@pytest.mark.parametrize(
    "source", [*sorted(p.name for p in CONFIG_DIR.glob("*.yaml")), *MINIMAL_CONFIGS])
def test_each_parse_builds_exactly_its_runs_arguments(tmp_path, source):
    """A kind's run states what it reads as keyword-only parameters with no
    defaults, and its parse builds exactly those, so drift shows here and
    not once a run has made its output directory."""
    assert set(MINIMAL_CONFIGS) == set(harness.EXPERIMENT_KINDS)
    path = CONFIG_DIR / source if source.endswith(".yaml") else write_cfg(
        tmp_path, f"schema_version: 1\nexperiment: {source}\n{MINIMAL_CONFIGS[source]}")
    cfg = load_config(path)
    output_dir, *params = inspect.signature(
        getattr(experiments, harness._KINDS[cfg.kind].run)).parameters.values()
    assert output_dir.name == "output_dir" and output_dir.kind is output_dir.POSITIONAL_OR_KEYWORD
    assert all(p.kind is p.KEYWORD_ONLY and p.default is p.empty for p in params)
    assert set(cfg.args) == {p.name for p in params}
    with pytest.raises(AttributeError):  # a stale field is refused, not quietly added
        cfg.trials = 3


# Each value of a shipped config, at any depth, is replaced by each of these
# in turn (``float("nan")`` is YAML's ``.nan``; ``"1e-5"`` is how YAML reads
# an unquoted 1e-5).
BAD_VALUES = [None, "x", [], {}, -1, 0, 1.5, True, 1e300, -1e300, [None], [0], ["x"],
              {"a": 1}, float("nan"), 2**70, 10**400, "1e-5", [1, 1]]


def _value_paths(node, path=()):
    """The key path of every value under ``node``, containers included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield (*path, key)
        yield from _value_paths(value, (*path, key))


def test_parsing_fails_only_with_config_error(tmp_path):
    """Any one bad value in a shipped config loads or raises ConfigError,
    never another exception."""
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)  # libyaml's, if there: quicker
    path = tmp_path / "mutated.yaml"
    for shipped in sorted(CONFIG_DIR.glob("*.yaml")):
        doc = yaml.safe_load(shipped.read_text())
        for where in _value_paths(doc):
            for bad in BAD_VALUES:
                mutated = copy.deepcopy(doc)
                node = mutated
                for key in where[:-1]:
                    node = node[key]
                node[where[-1]] = bad
                path.write_text(yaml.dump(mutated, Dumper=dumper))
                try:
                    load_config(path)
                except ConfigError:
                    pass
                except Exception as exc:
                    pytest.fail(f"{shipped.name} {where} = {bad!r}: {exc!r}")


def test_messages_show_a_long_value_by_its_type_and_size():
    assert harness._shown([1, "a"]) == "[1, 'a']"
    assert harness._shown("a", str) == "a"
    assert harness._shown("x" * 101) == "<str of length 101>"
    assert harness._shown(-(10**200)) == "<int of 665 bits>"
    assert harness._shown({"a": [16**5000]}) == "<dict of length 1>"
    assert harness._keys(["b", 2**20000, 1]) == "[1, <int of 20001 bits>, 'b']"


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="Cannot read config"):
        load_config(tmp_path / "nope.yaml")


def test_yaml_syntax_error(tmp_path):
    with pytest.raises(ConfigError, match="parse error"):
        load_config(write_cfg(tmp_path, "a: [unclosed"))


def test_non_mapping_root(tmp_path):
    with pytest.raises(ConfigError, match="root must be a mapping"):
        load_config(write_cfg(tmp_path, "- just\n- a list\n"))


# A bool and a float equal 1 in Python, but only the int 1 is version 1.
@pytest.mark.parametrize("version", ["2", "true", "1.0"])
def test_wrong_schema_version(tmp_path, version):
    text = VALID_TEST_FUNCTION.replace("schema_version: 1", f"schema_version: {version}")
    with pytest.raises(ConfigError, match="Unsupported schema_version"):
        load_config(write_cfg(tmp_path, text))


def test_unknown_experiment_kind(tmp_path):
    text = VALID_TEST_FUNCTION.replace(
        "experiment: test_function", "experiment: banana"
    )
    with pytest.raises(ConfigError, match="Unknown experiment kind: 'banana'"):
        load_config(write_cfg(tmp_path, text))


def test_non_integer_counts(tmp_path):
    text = VALID_TEST_FUNCTION.replace("trials: 4", "trials: 4.5")
    with pytest.raises(ConfigError, match="trials must be an integer"):
        load_config(write_cfg(tmp_path, text))
    text = VALID_TEST_FUNCTION.replace("steps: 100", "steps: true")
    with pytest.raises(ConfigError, match="steps must be an integer"):
        load_config(write_cfg(tmp_path, text))


def test_count_lower_bounds(tmp_path):
    text = VALID_TEST_FUNCTION.replace("trials: 4", "trials: 0")
    with pytest.raises(ConfigError, match="trials must be >= 1"):
        load_config(write_cfg(tmp_path, text))


def test_unknown_optimizer_key_is_named(tmp_path):
    text = VALID_TEST_FUNCTION.replace("alpha: 0.01", "alpha: 0.01, momentum: 0.9")
    with pytest.raises(ConfigError, match=r"unknown key\(s\) \['momentum'\]"):
        load_config(write_cfg(tmp_path, text))


def test_bad_optimizer_value_is_config_error(tmp_path):
    text = VALID_TEST_FUNCTION.replace("alpha: 0.01", "alpha: -1.0")
    with pytest.raises(ConfigError, match="optimizers\\[0\\]"):
        load_config(write_cfg(tmp_path, text))


def test_duplicate_optimizer_names(tmp_path):
    text = VALID_TEST_FUNCTION.replace("name: Adam-small, algorithm: Adam",
                                       "name: AdaTerm, algorithm: Adam")
    with pytest.raises(ConfigError, match="Duplicate optimizer names"):
        load_config(write_cfg(tmp_path, text))


def test_missing_optimizers_list(tmp_path):
    text = VALID_TEST_FUNCTION.split("optimizers:")[0]
    with pytest.raises(ConfigError, match="non-empty optimizers list"):
        load_config(write_cfg(tmp_path, text))


def test_unknown_test_function(tmp_path):
    text = VALID_TEST_FUNCTION.replace("function: Rosenbrock", "function: Sphere")
    with pytest.raises(ConfigError, match="Unknown test function: 'Sphere'"):
        load_config(write_cfg(tmp_path, text))


def test_noise_ratio_bounds(tmp_path):
    text = VALID_TEST_FUNCTION.replace("[0.0, 0.1]", "[0.0, 1.5]")
    with pytest.raises(ConfigError, match="noise ratio out of"):
        load_config(write_cfg(tmp_path, text))
    text = VALID_TEST_FUNCTION.replace("[0.0, 0.1]", "[]")
    with pytest.raises(ConfigError, match="non-empty list"):
        load_config(write_cfg(tmp_path, text))


def test_regression_layer_sizes_validation(tmp_path):
    text = """\
schema_version: 1
experiment: regression
problem: {noise_ratios: [0.0]}
model: {layer_sizes: [5]}
optimizers:
  - {algorithm: Adam}
"""
    with pytest.raises(ConfigError, match="layer_sizes"):
        load_config(write_cfg(tmp_path, text))


def test_regret_dims_validation(tmp_path):
    text = """\
schema_version: 1
experiment: regret
dims: []
optimizer: {algorithm: AdaTerm, alpha: 0.1, lr_schedule: InverseSqrt,
            bias_correction: false}
"""
    with pytest.raises(ConfigError, match="non-empty dims"):
        load_config(write_cfg(tmp_path, text))


def test_surfaces_grid_validation(tmp_path):
    text = """\
schema_version: 1
experiment: surfaces
grids: [Fig7]
"""
    with pytest.raises(ConfigError, match="Unknown grid kind: 'Fig7'"):
        load_config(write_cfg(tmp_path, text))


# ---------------------------------------------------------------------------
# Result tables
# ---------------------------------------------------------------------------


def test_results_csv_round_trip_is_exact(tmp_path):
    rows = [
        ResultRow("exp:p=0.1", "AdaTerm", 0, "final_error_norm", 100, 0.1),
        ResultRow("exp:p=0.1", "Adam", 7, "final_error_norm", 100, 1e-300),
        ResultRow("exp:p=0.1", "Adam", 8, "test_mse", 4, 12345.678901234567),
    ]
    path = tmp_path / "results.csv"
    write_results_csv(rows, path)
    assert read_results_csv(path) == rows


def test_read_skips_blank_lines(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text(
        "experiment,optimizer,seed,metric,step,value\n"
        "e,o,0,m,10,0.5\n"
        "\n"
        "e,o,1,m,10,1.5\n"
    )
    assert read_results_csv(path) == [
        ResultRow("e", "o", 0, "m", 10, 0.5),
        ResultRow("e", "o", 1, "m", 10, 1.5),
    ]


def test_read_accepts_extra_columns_in_any_order(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text("value,note,step,metric,seed,optimizer,experiment\n0.25,x,3,m,2,o,e\n")
    assert read_results_csv(path) == [ResultRow("e", "o", 2, "m", 3, 0.25)]


def test_read_error_names_the_line_of_the_file(tmp_path):
    """A quoted newline and a blank line each count as a line of the file."""
    path = tmp_path / "results.csv"
    path.write_text(
        "experiment,optimizer,seed,metric,step,value\n"
        'e,"two\nlines",0,m,10,0.5\n'
        "\n"
        "e,o,zero,m,10,0.5\n"
    )
    with pytest.raises(ConfigError) as info:
        read_results_csv(path)
    assert str(info.value) == (
        f"{path}, line 5: seed and step must be integers and value a number, "
        "got 'zero', '10', '0.5'"
    )


def test_read_rejects_foreign_csv(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError, match="Not a results file"):
        read_results_csv(path)


def test_summarize_population_std():
    rows = [
        ResultRow("e", "o", s, "m", 1, v) for s, v in enumerate([1.0, 2.0, 3.0])
    ]
    (rec,) = summarize_rows(rows)
    assert rec.count == 3
    assert rec.mean == 2.0
    assert rec.median == 2.0
    assert rec.std == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-15)


def test_summarize_groups_and_sorts():
    rows = [
        ResultRow("b", "o", 0, "m", 1, 5.0),
        ResultRow("a", "o", 0, "m", 1, 1.0),
        ResultRow("a", "o", 1, "m", 1, 3.0),
    ]
    out = summarize_rows(rows)
    assert [rec.experiment for rec in out] == ["a", "b"]
    assert out[0].count == 2 and out[0].mean == 2.0
    assert out[1].std == 0.0


def test_summarize_empty_raises():
    with pytest.raises(ConfigError, match="No result rows"):
        summarize_rows([])


_EDGE_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                sys.float_info.max, -sys.float_info.max, 1.0, -2.5, 0.1, 1e300, -1e-300]


def _edge_group(rng, size):
    """``size`` values of one of the kinds that test a statistic's bits."""
    kind = rng.randrange(5)
    if kind == 0:
        return [math.nan] * size
    if kind == 1:
        return [math.inf, -math.inf] + [rng.choice(_EDGE_VALUES) for _ in range(size)]
    if kind == 2:
        return [rng.choice([0.0, -0.0]) for _ in range(size)]
    if kind == 3:
        return [rng.choice(_EDGE_VALUES) for _ in range(size)]
    return [rng.choice(_EDGE_VALUES) if rng.random() < 0.1 else rng.lognormvariate(0.0, 3.0)
            for _ in range(size)]


_PAIRWISE_EDGE_SIZES = [7, 8, 9, 127, 128, 129, 136, 255, 256, 257, 1000, 8200]


@pytest.mark.parametrize("seed", range(8))
def test_summarize_rows_has_the_bits_of_numpy(seed):
    """Mean, population std and median have the bits of ``np.mean``,
    ``np.std`` and ``np.median``: over singletons, even and odd groups,
    NaN, +-inf, +-0.0, subnormal and the largest floats, rows shuffled."""
    rng = random.Random(seed)
    groups = [_edge_group(rng, rng.choice([1, 1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 101, 130]))
              for _ in range(80)]
    # numpy sums in blocks of 8 up to 128 values, and splits larger arrays in
    # two: each size next to those edges, as an edge group, as finite values
    # of both signs, whose sums round at every addition, and as -0.0 only,
    # whose sum numpy gives as +0.0.
    for size in _PAIRWISE_EDGE_SIZES:
        groups += [_edge_group(rng, size),
                   [rng.choice([-1.0, 1.0]) * rng.lognormvariate(0.0, 3.0) for _ in range(size)],
                   [-0.0] * size]
    rows = []
    for group, values in enumerate(groups):
        rows += [ResultRow(f"e{group % 3}", "o", trial, f"m{group}", group % 4, v)
                 for trial, v in enumerate(values)]
    rng.shuffle(rows)
    with np.errstate(all="ignore"):
        assert summary_bits(summarize_rows(rows)) == summary_bits(reference_summarize_rows(rows))


class _Interrupted(Exception):
    pass


def _rows_then_interrupt(row, count=5000):
    """``count`` copies of ``row``, then an interruption: enough rows that
    the writer has flushed part of the table before it stops."""
    for _ in range(count):
        yield row
    raise _Interrupted


def _write_interrupted_results(path, monkeypatch):
    write_results_csv(_rows_then_interrupt(ResultRow("e", "o", 0, "m", 1, 0.5)), path)


def _write_interrupted_summary(path, monkeypatch):
    (rec,) = summarize_rows([ResultRow("e", "o", 0, "m", 1, 0.5)])
    write_summary_csv(_rows_then_interrupt(rec), path)


def _write_interrupted_regret(path, monkeypatch):
    # The arrays are shorter than T, so the strict column zip stops the
    # writer part-way with a ValueError.
    short = np.zeros(4000)
    report = SimpleNamespace(T=5000, losses=short, regret_prefix=short,
                             bound_rhs_prefix=short, tau=short)
    write_regret_csv([report], [path])


def _write_interrupted_table(path, monkeypatch):
    # Two whole chunks have reached the temp file when the rows stop.
    write_csv(path, ["v"], _rows_then_interrupt((0.5,), 3000), (float,))


def _write_interrupted_grid(path, monkeypatch):
    # A grid table whose rows, as lists, stop with an interruption.
    table = SimpleNamespace(tolist=lambda: _rows_then_interrupt([0.5, 1.5]))
    monkeypatch.setattr("adaterm.surfaces.emit_grid", lambda spec: (["a", "b"], table))
    write_grid_csvs([GridSpec(kind="Fig1")], [path])


@pytest.mark.parametrize("old", [None, "old table\n"], ids=["no-old-file", "old-file"])
@pytest.mark.parametrize(
    "write, error",
    [
        (_write_interrupted_results, _Interrupted),
        (_write_interrupted_summary, _Interrupted),
        (_write_interrupted_regret, ValueError),
        (_write_interrupted_grid, _Interrupted),
        (_write_interrupted_table, _Interrupted),
    ],
    ids=["results", "summary", "regret-trace", "grid", "table"],
)
def test_interrupted_write_leaves_old_file_or_none(tmp_path, monkeypatch, write, error,
                                                   old):
    path = tmp_path / "table.csv"
    if old is not None:
        path.write_text(old)
    with pytest.raises(error):
        write(path, monkeypatch)
    if old is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == old


def test_summary_csv_layout(tmp_path):
    rows = [ResultRow("e", "o", 0, "m", 10, 0.5)]
    path = tmp_path / "summary.csv"
    write_summary_csv(summarize_rows(rows), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "experiment,optimizer,metric,step,count,mean,std,median"
    assert lines[1] == "e,o,m,10,1,0.5,0,0.5"


# ---------------------------------------------------------------------------
# Canonical draws
# ---------------------------------------------------------------------------


def test_noise_draw_order():
    us, deltas = draw_test_function_noise(make_rng(42), 17)
    rng = make_rng(42)
    np.testing.assert_array_equal(us, rng.random(17))
    np.testing.assert_array_equal(
        deltas, rng.uniform(-NOISE_HALF_RANGE, NOISE_HALF_RANGE, size=(17, 2))
    )


@pytest.mark.parametrize("steps", [1, 255, 257, 600])
def test_noise_blocks_join_into_the_canonical_draws(steps):
    # Blocks of at most 256 steps, from two generators per trial, one of them
    # advanced past the trigger uniforms.
    seeds = [0, 7, 123456]
    blocks = [(us.copy(), deltas.copy()) for us, deltas in _noise_blocks(seeds, steps)]
    assert [us.shape[1] for us, _ in blocks] == [min(256, steps - t0)
                                                 for t0 in range(0, steps, 256)]
    want = [draw_test_function_noise(make_rng(s), steps) for s in seeds]
    assert (np.concatenate([us for us, _ in blocks], axis=1).tobytes()
            == np.stack([us for us, _ in want]).tobytes())
    assert (np.concatenate([deltas for _, deltas in blocks], axis=1).tobytes()
            == np.stack([deltas for _, deltas in want]).tobytes())


def test_regression_draw_order():
    spec = RegressionStreamSpec(n_pairs=25, batch_size=10)
    model, *draws = draw_regression_trial(spec, (1, 4, 1), make_rng(6))
    rng = make_rng(6)
    ref_model = MlpModel((1, 4, 1), rng)
    for a, b in zip(model.weights, ref_model.weights):
        np.testing.assert_array_equal(a, b)
    # Then the stream's batches (x, u, zeta, f), the short last one included.
    ref_batches = list(generate_regression_stream(spec, rng))
    assert [len(b[0]) for b in ref_batches] == [10, 10, 5]
    assert [d.shape for d in draws] == [(25, 1), (25,), (25, 1), (25, 1)]
    for drawn, ref in zip(draws, zip(*ref_batches)):
        np.testing.assert_array_equal(drawn, np.concatenate(ref))


# ---------------------------------------------------------------------------
# Batch-layout independence
# ---------------------------------------------------------------------------

EQUIV_CONFIGS = [
    ("adaterm", dict(algorithm="AdaTerm", alpha=0.01)),
    ("adaterm-adabias", dict(algorithm="AdaTerm", alpha=0.01, variant="AdaBias")),
    ("adaterm-norobust",
     dict(algorithm="AdaTerm", alpha=0.01, ablation="NoRobustness")),
    ("adam", dict(algorithm="Adam", alpha=0.01)),
    ("adabelief", dict(algorithm="AdaBelief", alpha=0.01)),
    ("tadam", dict(algorithm="TAdam", alpha=0.01)),
]


@pytest.mark.parametrize("label, kwargs", EQUIV_CONFIGS, ids=[c[0] for c in EQUIV_CONFIGS])
def test_cell_steps_on_the_canonical_draws(label, kwargs):
    """Over 300 steps, across a block edge, the cell's final points are
    those of a plain step loop on each trial's draw_test_function_noise."""
    cfg, seeds, steps, p = OptimizerConfig(**kwargs), [5, 6], 300, 0.15
    draws = [draw_test_function_noise(make_rng(s), steps) for s in seeds]
    us, deltas = np.stack([u for u, _ in draws]), np.stack([d for _, d in draws])
    tf = TEST_FUNCTIONS["Rosenbrock"]
    theta = np.tile(np.asarray(tf.start), (len(seeds), 1))
    state = GroupState(cfg, len(seeds), 2)
    for t in range(1, steps + 1):
        noisy = apply_coordinate_noise(theta, us[:, t - 1], deltas[:, t - 1], p)
        state.step(theta, tf.grad(noisy), t)
    norms, _, _ = _run_test_function_cell("Rosenbrock", [p], cfg, seeds, steps)
    want = np.sqrt(np.add.reduce((theta - np.asarray(tf.optimum)) ** 2, axis=-1))
    assert norms[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("label, kwargs", EQUIV_CONFIGS, ids=[c[0] for c in EQUIV_CONFIGS])
def test_batched_cell_matches_sequential_trials(label, kwargs):
    cfg = OptimizerConfig(**kwargs)
    steps, n = 200, 3
    norms, nus, trails = _run_test_function_cell(
        "Rosenbrock", [0.05], cfg, range(n), steps, record_every=50
    )
    assert [s for s, _ in trails] == [50, 100, 150, 200]
    for i in range(n):
        # Trial i alone, on the draws of its own generator make_rng(i).
        norm1, nu1, trail1 = _run_test_function_cell(
            "Rosenbrock", [0.05], cfg, [i], steps, record_every=50
        )
        assert norm1[0, 0] == norms[0, i]
        if cfg.algorithm == "AdaTerm":
            assert nu1[0, 0] == nus[0, i]
        else:
            assert nu1 is None and nus is None
        for (s_one, e_one), (s_bat, vec) in zip(trail1, trails):
            assert s_one == s_bat
            assert e_one[0, 0] == vec[0, i]


@pytest.mark.parametrize("label, kwargs", EQUIV_CONFIGS, ids=[c[0] for c in EQUIV_CONFIGS])
def test_stacked_ratios_match_one_cell_per_ratio(label, kwargs):
    cfg = OptimizerConfig(**kwargs)
    ratios, seeds = [0.0, 0.05, 1.0], range(4, 7)
    norms, nus, trails = _run_test_function_cell(
        "Rosenbrock", ratios, cfg, seeds, 120, record_every=40
    )
    assert norms.shape == (3, 3)
    assert [s for s, _ in trails] == [40, 80, 120]
    for j, p in enumerate(ratios):
        norm1, nu1, trail1 = _run_test_function_cell(
            "Rosenbrock", [p], cfg, seeds, 120, record_every=40
        )
        assert norm1[0].tobytes() == norms[j].tobytes()
        if cfg.algorithm == "AdaTerm":
            assert nu1[0].tobytes() == nus[j].tobytes()
        else:
            assert nu1 is None and nus is None
        for (s_one, e_one), (s_bat, vec) in zip(trail1, trails):
            assert s_one == s_bat
            assert e_one[0].tobytes() == vec[j].tobytes()


def regression_draws(spec, sizes, seeds, p):
    """The cell inputs (Ws, Bs, X, Y) of the given trials at noise ratio p,
    each trial drawn from its own generator as a regression experiment
    draws it."""
    models, xs, us, zetas, fs = zip(
        *(draw_regression_trial(spec, sizes, make_rng(s)) for s in seeds))
    Y = apply_coordinate_noise(np.stack(fs), np.stack(us), np.stack(zetas), p)
    return (*stack_parameters(models), np.stack(xs), Y)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_batched_regression_matches_sequential(algo):
    cfg = OptimizerConfig(algorithm=algo)
    spec = RegressionStreamSpec(n_pairs=40, batch_size=10)
    sizes = (1, 8, 1)
    x_test = np.linspace(0.0, 1.0, 101)[:, None]
    Ws, Bs, X, Y = regression_draws(spec, sizes, [7, 8, 9], 0.2)
    before = [a.tobytes() for a in (*Ws, *Bs, X, Y)]
    mses = _run_regression_cell(Ws, Bs, X, Y, 10, cfg, x_test)
    for i in range(3):
        # Trial i alone, on the draws of its own generator make_rng(7 + i).
        one = _run_regression_cell(*regression_draws(spec, sizes, [7 + i], 0.2), 10,
                                   cfg, x_test)
        assert one[0] == mses[i]
        # ... which is also a row slice of the batched draws.
        rows = [W[i:i + 1] for W in Ws], [B[i:i + 1] for B in Bs], X[i:i + 1], Y[i:i + 1]
        assert _run_regression_cell(*rows, 10, cfg, x_test)[0] == mses[i]
    # The cell trains copies and keeps the draws' bytes, so the next
    # optimizer is handed the same draws.
    assert [a.tobytes() for a in (*Ws, *Bs, X, Y)] == before
    assert _run_regression_cell(Ws, Bs, X, Y, 10, cfg, x_test).tobytes() == mses.tobytes()


def test_regression_cell_trains_the_short_final_batch():
    """n_pairs = 25 at batch size 10 trains on 10, 10 and then 5 pairs: the
    cell gives each trial the final test MSE of an independent n = 1 loop
    over the stream's own batches."""
    spec = RegressionStreamSpec(n_pairs=25, batch_size=10)
    sizes, p, seeds = (1, 6, 1), 0.5, [3, 4]
    cfg = OptimizerConfig(algorithm="AdaTerm")
    x_test = np.linspace(0.0, 1.0, 51)[:, None]
    mses = _run_regression_cell(*regression_draws(spec, sizes, seeds, p), 10, cfg, x_test)
    f_test = true_regression_fn(x_test)[None]
    for i, seed in enumerate(seeds):
        rng = make_rng(seed)
        Ws, Bs = stack_parameters([MlpModel(sizes, rng)])
        states = [GroupState(cfg, 1, P.size) for P in Ws + Bs]
        batch_sizes = []
        for t, (x, u, zeta, f) in enumerate(generate_regression_stream(spec, rng), start=1):
            y = f + np.where(u[:, None] < p, zeta, 0.0)
            y_hat, inputs, masks = forward(Ws, Bs, x[None])
            _, delta = mse_loss(y_hat, y[None])
            gWs, gBs = backward(Ws, inputs, masks, delta)
            for state, P, g in zip(states, Ws + Bs, gWs + gBs):
                state.step(P, g.reshape(1, -1), t)
            batch_sizes.append(len(x))
        assert batch_sizes == [10, 10, 5]
        y_hat, _, _ = forward(Ws, Bs, x_test[None])
        assert mse_loss(y_hat, f_test)[0][0] == mses[i]


@settings(max_examples=40, deadline=None)
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    ratios=st.lists(st.sampled_from([0.0, 0.05, 0.15]), min_size=1, max_size=3),
    base_seed=st.integers(0, 1000),
    n=st.integers(1, 6),
    steps=st.integers(1, 60),
    data=st.data(),
)
def test_any_contiguous_split_gives_identical_rows(algorithm, ratios, base_seed, n,
                                                   steps, data):
    cuts = data.draw(st.sets(st.integers(1, n - 1)) if n > 1 else st.just(set()))
    record_every = data.draw(st.integers(0, steps))
    bounds = [0, *sorted(cuts), n]
    cfg = OptimizerConfig(algorithm=algorithm, alpha=0.01)
    seeds = range(base_seed, base_seed + n)

    def cell(lo, hi):
        return _run_test_function_cell(
            "Rosenbrock", ratios, cfg, seeds[lo:hi], steps, record_every
        )

    # Trials are the inner axis of each (k, n) result.
    norms, nus, trails = cell(0, n)
    parts = [cell(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    assert np.concatenate([q[0] for q in parts], axis=1).tobytes() == norms.tobytes()
    if nus is None:
        assert all(q[1] is None for q in parts)
    else:
        assert np.concatenate([q[1] for q in parts], axis=1).tobytes() == nus.tobytes()
    for k, (step, vec) in enumerate(trails):
        assert all(q[2][k][0] == step for q in parts)
        assert (np.concatenate([q[2][k][1] for q in parts], axis=1).tobytes()
                == vec.tobytes())


def test_rerun_is_byte_identical(tmp_path):
    for sub in ("a", "b"):
        cfg = load_config(write_cfg(tmp_path, VALID_TEST_FUNCTION))
        cfg.output_dir = tmp_path / sub
        cfg.args.update(trials=3, steps=40)
        run_experiment(cfg)
    assert (tmp_path / "a" / "results.csv").read_bytes() == (
        tmp_path / "b" / "results.csv"
    ).read_bytes()
    assert (tmp_path / "a" / "summary.csv").read_bytes() == (
        tmp_path / "b" / "summary.csv"
    ).read_bytes()


def test_run_experiment_writes_tables_and_fans_out_seeds(tmp_path):
    cfg = load_config(write_cfg(tmp_path, VALID_TEST_FUNCTION))
    cfg.output_dir = tmp_path / "out"
    cfg.args.update(trials=3, steps=40, record_every=0)
    count = run_experiment(cfg)
    rows = read_results_csv(cfg.output_dir / "results.csv")
    assert count == len(rows)
    assert (cfg.output_dir / "summary.csv").exists()
    adaterm_rows = [
        r for r in rows
        if r.optimizer == "AdaTerm" and r.experiment == "Rosenbrock:p=0"
        and r.metric == "final_error_norm"
    ]
    assert [r.seed for r in adaterm_rows] == [3, 4, 5]  # base seed + trial index
    # Each trial's row is a one-trial cell on the draws of its own seed alone.
    for p in cfg.args["noise_ratios"]:
        for name, opt_cfg in cfg.args["optimizers"]:
            got = [r.value for r in rows if r.optimizer == name
                   and r.experiment == f"Rosenbrock:p={p:g}"
                   and r.metric == "final_error_norm"]
            want = [float(_run_test_function_cell("Rosenbrock", [p], opt_cfg, [seed],
                                                  cfg.args["steps"])[0][0, 0])
                    for seed in (3, 4, 5)]
            assert got == want
    kinds = {r.metric for r in rows}
    assert kinds == {"final_error_norm", "final_nu_tilde"}


def test_run_experiment_streams_its_rows(tmp_path):
    """A run keeps one value per row, not the rows: its traced peak in this
    process stays below half of what reading its results.csv back takes."""
    cfg = load_config(write_cfg(tmp_path, VALID_TEST_FUNCTION))
    cfg.output_dir = tmp_path / "out"
    cfg.args.update(trials=20, steps=300, record_every=1)
    tracemalloc.start()
    try:
        count = run_experiment(cfg)
        run_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        rows = read_results_csv(cfg.output_dir / "results.csv")
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Per ratio, optimizer and trial: 300 error norms and the final one, and
    # AdaTerm's final nu_tilde.
    assert count == len(rows) == 2 * 20 * (2 * 301 + 1)
    assert run_peak < read_peak / 2, (run_peak, read_peak)


def test_test_function_memory_does_not_grow_with_steps(tmp_path, monkeypatch):
    """A test-function cell draws its noise 256 steps at a time, so no
    (trials, steps) array is held: in one process, a 20-trial run's traced
    peak grows by less than one (trials, 256) block of draws (24 bytes per
    trial-step) from 512 to 2048 steps."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # cells run here

    def peak(steps):
        cfg = load_config(write_cfg(tmp_path, VALID_TEST_FUNCTION))
        cfg.output_dir = tmp_path / f"out-{steps}"
        cfg.args.update(trials=20, steps=steps, record_every=0)
        tracemalloc.start()
        try:
            run_experiment(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(512)  # the first run loads modules and fills caches
    small, large = peak(512), peak(2048)
    assert large - small < 20 * 256 * 24, (small, large)


def test_run_that_fails_while_rows_stream_keeps_the_old_tables(tmp_path, monkeypatch):
    cfg = load_config(write_cfg(tmp_path, VALID_TEST_FUNCTION))
    cfg.output_dir = tmp_path / "out"
    cfg.args["trials"] = 30  # 1380 rows: more than one chunk reaches the temp file
    run_experiment(cfg)
    before = {p.name: p.read_bytes() for p in cfg.output_dir.iterdir()}
    name = harness._KINDS["test_function"].run
    run = getattr(experiments, name)

    def failing(output_dir, **args):
        yield from itertools.islice(run(output_dir, **args), 1100)
        raise RuntimeError("stopped")

    monkeypatch.setattr(experiments, name, failing)
    cfg.args["seed"] = 9
    with pytest.raises(RuntimeError, match="stopped"):
        run_experiment(cfg)
    assert {p.name: p.read_bytes() for p in cfg.output_dir.iterdir()} == before


# ---------------------------------------------------------------------------
# Other experiment kinds
# ---------------------------------------------------------------------------


def test_regret_experiment_kind(tmp_path):
    cfg = ExperimentConfig(kind="regret", output_dir=tmp_path / "regret", args=dict(
        seed=0,
        trials=2,
        horizon=60,
        optimizer=(
            "AdaTerm",
            OptimizerConfig(
                algorithm="AdaTerm",
                alpha=0.1,
                lr_schedule="InverseSqrt",
                bias_correction=False,
            ),
        ),
        problems=[OnlineConvexSpec(dim=2, box_halfwidth=1.0, grad_bound=4.0)],
    ))
    run_experiment(cfg)
    rows = read_results_csv(cfg.output_dir / "results.csv")
    metrics = {r.metric for r in rows}
    assert metrics == {
        "R_T", "bound_rhs", "bound_holds_all_prefixes", "tau_low",
        "sublinearity_ratio",
    }
    holds = [r for r in rows if r.metric == "bound_holds_all_prefixes"]
    assert len(holds) == 2 and all(r.value == 1.0 for r in holds)
    assert (cfg.output_dir / "regret_d2_seed0.csv").exists()
    assert (cfg.output_dir / "regret_d2_seed1.csv").exists()
    # Seed 1's run is a run on the sequence drawn from make_rng(1) alone.
    seq = QuadraticSequence(cfg.args["problems"][0], [make_rng(1)], 60)
    [own] = run_regret_experiment(seq, cfg.args["optimizer"][1])
    assert [r.value for r in rows if r.metric == "R_T"][1] == own.R_T


def test_regret_experiment_runs_once_per_dimension(tmp_path, monkeypatch):
    # Every seed of a dimension shares one batched run: a per-seed loop
    # would call the run trials times per dimension.  Dimensions may run in
    # forked workers, so each call is recorded as a file, not in a list.
    calls_dir = tmp_path / "calls"
    calls_dir.mkdir()

    def counted(seq, opt_cfg):
        (calls_dir / f"{os.getpid()}-{time.perf_counter_ns()}").write_text(repr(seq.A.shape))
        return run_regret_experiment(seq, opt_cfg)

    monkeypatch.setattr(experiments, "run_regret_experiment", counted)
    cfg = ExperimentConfig(kind="regret", output_dir=tmp_path / "regret", args=dict(
        seed=4,
        trials=3,
        horizon=20,
        optimizer=(
            "AdaTerm",
            OptimizerConfig(
                algorithm="AdaTerm",
                alpha=0.1,
                lr_schedule="InverseSqrt",
                bias_correction=False,
            ),
        ),
        problems=[OnlineConvexSpec(dim=d, box_halfwidth=1.0, grad_bound=4.0) for d in (2, 5)],
    ))
    run_experiment(cfg)
    rows = read_results_csv(cfg.output_dir / "results.csv")
    calls = [ast.literal_eval(p.read_text()) for p in calls_dir.iterdir()]
    assert sorted(calls, key=lambda shape: shape[2]) == [(3, 20, 2), (3, 20, 5)]
    assert [(r.experiment, r.seed) for r in rows if r.metric == "R_T"] == [
        ("regret:d=2", 4), ("regret:d=2", 5), ("regret:d=2", 6),
        ("regret:d=5", 4), ("regret:d=5", 5), ("regret:d=5", 6),
    ]


def test_surfaces_experiment_writes_grids(tmp_path):
    cfg = ExperimentConfig(
        kind="surfaces",
        output_dir=tmp_path / "grids",
        args={"grids": [GridSpec(kind="TauSurface", n_nu=3, n_D=4)]},
    )
    assert run_experiment(cfg) == 0
    assert (cfg.output_dir / "TauSurface.csv").exists()
    assert not (cfg.output_dir / "results.csv").exists()


def test_shipped_surfaces_config_writes_three_grids(tmp_path):
    cfg = load_config(CONFIG_DIR / "surfaces.yaml")
    cfg.output_dir = tmp_path
    assert run_experiment(cfg) == 0
    headers = {path.name: path.read_text().partition("\n")[0]
               for path in tmp_path.iterdir()}
    assert headers == {"Fig1.csv": "d,w_mv,value",
                       "TauSurface.csv": "nu_tilde,D,tau_mv",
                       "DofIncrementSurface.csv": "nu_tilde,D,increment"}


def test_gradient_verification_passes_at_default_tolerance(tmp_path):
    cfg = ExperimentConfig(kind="verify_gradients", output_dir=tmp_path / "verify",
                           args=dict(points=20, dims=(1, 3), seed=0, tolerance=1e-5))
    run_experiment(cfg)
    rows = read_results_csv(cfg.output_dir / "results.csv")
    assert [(r.optimizer, r.step) for r in rows] == [
        ("grad_m", 1), ("grad_v", 1), ("grad_nu", 1),
        ("grad_m", 3), ("grad_v", 3), ("grad_nu", 3),
    ]
    assert all(r.value < 1e-5 for r in rows)


def test_gradient_verification_detects_impossible_tolerance(tmp_path):
    cfg = ExperimentConfig(kind="verify_gradients", output_dir=tmp_path / "verify",
                           args=dict(seed=0, points=5, dims=(1,), tolerance=1e-30))
    with pytest.raises(VerificationError):
        run_experiment(cfg)
    cfg = ExperimentConfig(
        kind="verify_gradients",
        output_dir=tmp_path / "verify",
        args=dict(seed=0, points=5, dims=(1, 2), tolerance=1e-30),
    )
    with pytest.raises(VerificationError, match="max relative error"):
        run_experiment(cfg)


def test_verify_gradients_experiment_rows(tmp_path):
    cfg = ExperimentConfig(
        kind="verify_gradients",
        output_dir=tmp_path / "verify",
        args=dict(seed=0, points=10, dims=(1, 2), tolerance=1e-4),
    )
    assert run_experiment(cfg) == 6
    rows = read_results_csv(cfg.output_dir / "results.csv")
    assert {r.optimizer for r in rows} == {"grad_m", "grad_v", "grad_nu"}
    assert all(r.metric == "max_rel_fd_err" for r in rows)
    assert (cfg.output_dir / "results.csv").exists()
    # A loaded config without dims runs the default dims, which only its
    # parse states: a config built by hand states its own.
    loaded = load_config(write_cfg(tmp_path, "schema_version: 1\n"
                                   "experiment: verify_gradients\npoints: 1\n"))
    loaded.output_dir = tmp_path / "loaded"
    run_experiment(loaded)
    steps = [r.step for r in read_results_csv(loaded.output_dir / "results.csv")]
    assert steps == [d for d in (1, 2, 5, 8) for _ in range(3)]
