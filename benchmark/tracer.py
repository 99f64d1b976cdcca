"""Per-layer tracing for the benchmark.

Run as a script, this wraps the program's public functions and then runs
one ``adaterm`` command in the same process::

    python3 benchmark/tracer.py SPANS.npz run CONFIG
    python3 benchmark/tracer.py SPANS.npz summarize OUTPUT_DIR

Each function below is wrapped at every name through which the program
calls it (``harness.adaterm_moments``, ``regret.adaterm_moments``,
``cli.run_experiment``, ...).  Each call records a span: name, start, end
and the enclosing span.  Spans are kept in memory and written to SPANS.npz
when the command ends.  ``span_totals`` turns a spans file into call counts
and self times (span time minus the time of its child spans).

A name that no longer exists is reported as not measured; the command
still runs.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from array import array

import numpy as np

# metric prefix -> (module, attribute) where the function is defined.  A
# dotted attribute is a method, wrapped on its class.
FUNCTIONS = {
    "tdist.diagnostics_arrays": ("adaterm.tdist", "diagnostics_arrays"),
    "tdist.advance_arrays": ("adaterm.tdist", "advance_arrays"),
    "optimizers.adaterm_moments": ("adaterm.optimizers", "adaterm_moments"),
    "optimizers.adaterm_eta": ("adaterm.optimizers", "adaterm_eta"),
    "optimizers.update_bias_accumulator": ("adaterm.optimizers", "update_bias_accumulator"),
    "optimizers.adam_moments": ("adaterm.optimizers", "adam_moments"),
    "optimizers.adabelief_moments": ("adaterm.optimizers", "adabelief_moments"),
    "optimizers.tadam_moments": ("adaterm.optimizers", "tadam_moments"),
    "optimizers.adam_eta": ("adaterm.optimizers", "adam_eta"),
    "problems.grad": ("adaterm.problems", "TEST_FUNCTIONS"),
    "problems.apply_coordinate_noise": ("adaterm.problems", "apply_coordinate_noise"),
    "problems.generate_regression_stream": ("adaterm.problems", "generate_regression_stream"),
    "problems.QuadraticSequence.loss": ("adaterm.problems", "QuadraticSequence.loss"),
    "problems.QuadraticSequence.grad": ("adaterm.problems", "QuadraticSequence.grad"),
    "rng.make_rng": ("adaterm.rng", "make_rng"),
    "rng.sample_student_t": ("adaterm.rng", "sample_student_t"),
    "rng.sample_bernoulli_mask": ("adaterm.rng", "sample_bernoulli_mask"),
    "mlp.MlpModel.init": ("adaterm.mlp", "MlpModel.__init__"),
    "mlp.batched_forward": ("adaterm.harness", "_batched_forward"),
    "mlp.batched_backward": ("adaterm.harness", "_batched_backward"),
    "harness.draw_test_function_noise": ("adaterm.harness", "draw_test_function_noise"),
    "harness.draw_regression_trial": ("adaterm.harness", "draw_regression_trial"),
    "harness.write_results_csv": ("adaterm.harness", "write_results_csv"),
    "harness.summarize_rows": ("adaterm.harness", "summarize_rows"),
    "harness.write_summary_csv": ("adaterm.harness", "write_summary_csv"),
    "harness.read_results_csv": ("adaterm.harness", "read_results_csv"),
    "harness.run_experiment": ("adaterm.harness", "run_experiment"),
    "regret.run_regret_experiment": ("adaterm.regret", "run_regret_experiment"),
    "regret.weighted_projection": ("adaterm.regret", "weighted_projection"),
    "regret.write_regret_csv": ("adaterm.regret", "write_regret_csv"),
}
NAMES = list(FUNCTIONS)
DISCARDED = -1  # name id of a span dropped after the call (exhausted generator)


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.found = [False] * len(NAMES)
        self.downweighted = 0  # trial-steps with tau_mv < (1 - beta) / 2

    def wrap(self, fn, nid):
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def wrap_generator(self, fn, nid):
        """One span per item drawn from the generator ``fn`` returns."""
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = len(name_id)
                name_id.append(nid)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(i)
                start.append(clock())
                try:
                    item = next(it)
                except StopIteration:
                    name_id[i] = DISCARDED
                    return
                finally:
                    end[i] = clock()
                    stack.pop()
                yield item

        return traced

    def count_downweighted(self, fn):
        """Count, outside the span, the trial-steps whose diagnostics show
        tau_mv below half its ceiling 1 - beta."""

        @functools.wraps(fn)
        def counted(m, v, nu_tilde, g, beta, *args, **kwargs):
            diag = fn(m, v, nu_tilde, g, beta, *args, **kwargs)
            self.downweighted += int(np.count_nonzero(diag.tau_mv < (1.0 - beta) / 2.0))
            return diag

        return counted

    def install(self):
        """Wrap every function of FUNCTIONS that exists."""
        modules = [m for name, m in sys.modules.items()
                   if name == "adaterm" or name.startswith("adaterm.")]
        for nid, metric in enumerate(NAMES):
            mod_name, attr = FUNCTIONS[metric]
            try:
                mod = importlib.import_module(mod_name)
                owner_name, _, leaf = attr.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                continue
            self.found[nid] = True
            if metric == "problems.grad":
                # The harness calls TEST_FUNCTIONS[name].grad.
                for key, tf in original.items():
                    original[key] = dataclasses.replace(tf, grad=self.wrap(tf.grad, nid))
                continue
            if metric == "problems.generate_regression_stream":
                wrapped = self.wrap_generator(original, nid)
            else:
                wrapped = self.wrap(original, nid)
            if metric == "tdist.diagnostics_arrays":
                wrapped = self.count_downweighted(wrapped)
            if owner_name:
                setattr(owner, leaf, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def save(self, path):
        np.savez(
            path,
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            found=np.array(self.found),
            names=np.array(NAMES),
            downweighted=np.int64(self.downweighted),
        )


def span_totals(path):
    """{metric: (calls, self seconds)} for every found name, plus the span
    count, the downweighted count and the total self time, from one spans
    file."""
    with np.load(path) as z:
        nid, par = z["name_id"], z["parent"]
        dur = z["end"] - z["start"]
        names, found = list(z["names"]), z["found"]
        downweighted = int(z["downweighted"])
    kept = nid != DISCARDED
    child = np.zeros_like(dur)
    has_parent = kept & (par >= 0)
    np.add.at(child, par[has_parent], dur[has_parent])
    self_s = dur - child
    totals = {}
    for k, name in enumerate(names):
        if found[k]:
            mask = nid == k
            totals[str(name)] = (int(np.count_nonzero(mask)), float(np.sum(self_s[mask])))
    return {
        "functions": totals,
        "spans": int(np.count_nonzero(kept)),
        "downweighted": downweighted if found[NAMES.index("tdist.diagnostics_arrays")] else None,
        "self_s": float(np.sum(self_s[kept])),
    }


def main(argv):
    spans_path, command = argv[0], argv[1:]
    import adaterm.cli

    tracer = Tracer()
    tracer.install()
    try:
        return adaterm.cli.main(command)
    finally:
        tracer.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
