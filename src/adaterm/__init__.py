"""Noise-robust stochastic-gradient optimization via online Student's-t
moment estimation, with baseline optimizers, problem generators, an
experiment harness and verifiers for the gradient derivations and the
regret bound.

The optimizer names below load ``optimizers`` (and numpy) on first use,
so that ``import adaterm`` and ``adaterm summarize`` load no numpy."""

from .results import NonFiniteGradientError

__version__ = "0.1.0"

_OPTIMIZER_NAMES = ("ALGORITHMS", "VARIANTS", "ABLATIONS", "LR_SCHEDULES",
                    "OptimizerConfig", "GroupState")

__all__ = [*_OPTIMIZER_NAMES, "NonFiniteGradientError", "__version__"]


def __getattr__(name):
    if name in _OPTIMIZER_NAMES:
        from . import optimizers

        return getattr(optimizers, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
