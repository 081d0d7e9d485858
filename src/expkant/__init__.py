"""Nonlinear exponential Kantorovich sampling operators: series
evaluation, kernel admissibility audits, moduli of continuity and
smoothness, Mellin-Orlicz modulars, and a config-driven experiment CLI.
"""

from . import backend
from .core import (EvaluationError, ExpKantError, KernelProfile,
                   NonlinearKernel, PhiFunction, PhiPair, PreconditionError,
                   ResponseFamily, SamplingScheme, Signal, SlopeFunction,
                   ValidationError, difference_signal, make_builtin_profile,
                   make_response)
from .mellin import mellin_derivative, voronovskaja_experiment
from .modular import (check_H, log_smoothness, make_phi, modular_error,
                      modular_lipschitz_check, power_pair)
from .moduli import log_modulus
from .moments import (check_chi4, check_chi4_star, check_e3_1, check_L3,
                      discrete_moment, moment_value, partition_bounds,
                      tail_sum)
from .operator import eval_kantorovich, eval_on_log_grid, sup_error
from .ratefit import RateFit, fit_loglog
from .signals import make_signal

__version__ = "0.1.0"

__all__ = [
    "EvaluationError", "ExpKantError", "KernelProfile", "NonlinearKernel",
    "PhiFunction", "PhiPair", "PreconditionError", "RateFit",
    "ResponseFamily", "SamplingScheme", "Signal", "SlopeFunction",
    "ValidationError", "backend", "check_H",
    "check_chi4", "check_chi4_star", "check_e3_1", "check_L3",
    "difference_signal", "discrete_moment", "eval_kantorovich",
    "eval_on_log_grid", "fit_loglog", "log_modulus", "log_smoothness",
    "make_builtin_profile", "make_phi", "make_response", "make_signal",
    "mellin_derivative",
    "modular_error", "modular_lipschitz_check", "moment_value",
    "partition_bounds", "power_pair", "sup_error",
    "tail_sum", "voronovskaja_experiment",
]
