"""Noise-robust stochastic-gradient optimization via online Student's-t
moment estimation, with baseline optimizers, problem generators, an
experiment harness and verifiers for the gradient derivations and the
regret bound."""

from .optimizers import (
    ABLATIONS,
    ALGORITHMS,
    LR_SCHEDULES,
    VARIANTS,
    GroupState,
    OptimizerConfig,
)
from .tdist import NonFiniteGradientError

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "VARIANTS",
    "ABLATIONS",
    "LR_SCHEDULES",
    "OptimizerConfig",
    "GroupState",
    "NonFiniteGradientError",
    "__version__",
]
