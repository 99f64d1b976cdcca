"""The benchmark's workloads: shipped experiment configs at a size that runs
in seconds.

Each workload keeps the problem and optimizer sections of one file in
``configs/`` and changes only the sizes.  The sections are copied here, not
read from ``configs/`` at run time, so that an edit of a shipped config does
not silently change what the benchmark measures.

``workers`` is left at its default of 1.  The shipped configs set 4, but on a
2-core machine the thread fan-out measures contention for the interpreter
lock, not the program.
"""

from __future__ import annotations

import copy
import json

ROSENBROCK_RATIOS = [0.0, 0.01, 0.025, 0.05, 0.10, 0.15]

# Problem and optimizer sections of configs/rosenbrock.yaml; 1500 steps
# instead of 15000 (AdaTerm's median final error at ratio 0 is ~3e-3 there,
# against ~0.7 at 1000 steps), with the error-norm trails written.
_ROSENBROCK = {
    "schema_version": 1,
    "experiment": "test_function",
    "trials": 100,
    "steps": 1500,
    "record_every": 100,
    "problem": {"function": "Rosenbrock", "noise_ratios": ROSENBROCK_RATIOS},
    "optimizers": [
        {"algorithm": "AdaTerm", "alpha": 0.01},
        {"algorithm": "Adam", "alpha": 0.01},
        {"algorithm": "AdaBelief", "alpha": 0.01},
        {"algorithm": "TAdam", "alpha": 0.01},
        {
            "name": "AdaTerm-NoRobustness",
            "algorithm": "AdaTerm",
            "alpha": 0.01,
            "ablation": "NoRobustness",
        },
    ],
}

# configs/regression.yaml with noise ratios 0 and 1 only and 8 trials
# instead of 50.  The full 800-batch stream is kept.  With 8 trials the
# ratio-1 check (AdaTerm's median below Adam's) failed on about 1 in 7000
# resampled seed windows of a 30-trial run; with 3 trials, 1 in 140.
_REGRESSION = {
    "schema_version": 1,
    "experiment": "regression",
    "trials": 8,
    "problem": {"n_pairs": 8000, "batch_size": 10, "noise_ratios": [0.0, 1.0]},
    "model": {"layer_sizes": [1, 50, 50, 50, 50, 50, 1]},
    "optimizers": [{"algorithm": "AdaTerm"}, {"algorithm": "Adam"}],
}

# configs/regret.yaml with 3 seeds per dimension instead of 20.
_REGRET = {
    "schema_version": 1,
    "experiment": "regret",
    "trials": 3,
    "horizon": 5000,
    "dims": [2, 10],
    "problem": {"box_halfwidth": 1.0, "grad_bound": 4.0},
    "optimizer": {
        "algorithm": "AdaTerm",
        "alpha": 0.1,
        "lr_schedule": "InverseSqrt",
        "bias_correction": False,
    },
}

WORKLOADS = {
    "testfn-rosenbrock": _ROSENBROCK,
    "regression-mlp": _REGRESSION,
    "regret-bound": _REGRET,
}

# Pairs of a set-up probe and a summarize command after each run, so that
# the short commands take about a third of each round on a 2-core VM.  They
# are spread over the rounds rather than made back to back, because a
# shared host's speed shifts in phases of one to tens of seconds.
SHORT_PAIRS = {
    "testfn-rosenbrock": 3,
    "regression-mlp": 8,
    "regret-bound": 5,
}


def make_config(name, seed, output_dir):
    """The config of workload ``name`` for base seed ``seed``, as a dict."""
    cfg = copy.deepcopy(WORKLOADS[name])
    cfg["seed"] = int(seed)
    cfg["output_dir"] = str(output_dir)
    return cfg


def write_config(cfg, path):
    """Write ``cfg`` as YAML.  JSON is a subset of YAML, so the program's
    YAML loader reads it and the benchmark needs no YAML writer."""
    path.write_text(json.dumps(cfg, indent=2) + "\n")
