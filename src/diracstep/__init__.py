"""Relativistic electron scattering at a smooth temporal potential step.

Closed-form solution of the time-dependent two-component Dirac system through
a tanh potential transition, an independent adaptive-integration cross-check,
and a sweep/reproduction command line.  Natural units hbar = c = 1.
"""

__version__ = "0.1.0"

from .analytic import (
    HypergeometricSolution,
    ScatteringResult,
    asymptotic_amplitudes,
    build_solution,
    match_at_t0,
    scatter,
    sharp_step,
    solve_earlier,
    solve_later,
)
from .model import (
    AsymptoticModes,
    StepParameters,
    TwoSpinor,
    asymptotic_modes,
    potential_at,
    potential_rate,
)
from .oracle import ComparisonReport, OracleOutcome, compare, integrate
from .specfun import hyp2f1, hyp2f1_derivative, hyp2f1_with_derivative, log_gamma

__all__ = [
    "__version__",
    "AsymptoticModes",
    "ComparisonReport",
    "HypergeometricSolution",
    "OracleOutcome",
    "ScatteringResult",
    "StepParameters",
    "TwoSpinor",
    "asymptotic_amplitudes",
    "asymptotic_modes",
    "build_solution",
    "compare",
    "hyp2f1",
    "hyp2f1_derivative",
    "hyp2f1_with_derivative",
    "integrate",
    "log_gamma",
    "match_at_t0",
    "potential_at",
    "potential_rate",
    "scatter",
    "sharp_step",
    "solve_earlier",
    "solve_later",
]
