"""Noise-robust stochastic-gradient optimization via online Student's-t
moment estimation, with baseline optimizers, problem generators, an
experiment harness and verifiers for the gradient derivations and the
regret bound.

The optimizer's names load on first use: its specs from ``specs``, and
``GroupState`` from ``optimizers`` (and numpy), so that ``import adaterm``
and ``adaterm summarize`` load neither."""

from .results import NonFiniteGradientError

__version__ = "0.1.0"

_SPEC_NAMES = ("ALGORITHMS", "VARIANTS", "ABLATIONS", "LR_SCHEDULES", "OptimizerConfig")

__all__ = [*_SPEC_NAMES, "GroupState", "NonFiniteGradientError", "__version__"]


def __getattr__(name):
    if name in _SPEC_NAMES:
        from . import specs as module
    elif name == "GroupState":
        from . import optimizers as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
