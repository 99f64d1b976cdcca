"""Every function the benchmark's span tracer wraps still exists where the
tracer looks it up.  A name it cannot resolve is reported as not measured
(``null``), so a rename in the program would otherwise go unnoticed until
a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


def _tracer_functions():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FUNCTIONS


FUNCTIONS = _tracer_functions()


@pytest.mark.parametrize("metric", sorted(FUNCTIONS))
def test_traced_name_resolves(metric):
    mod_name, attr = FUNCTIONS[metric]
    owner = importlib.import_module(mod_name)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{metric}: {mod_name}.{attr} is gone"
        owner = getattr(owner, part)
    if metric == "problems.grad":
        # The tracer wraps the grad of every entry of the TEST_FUNCTIONS table.
        assert owner and all(callable(tf.grad) for tf in owner.values())
    else:
        assert callable(owner)
