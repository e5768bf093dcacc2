"""Positive periodic, subharmonic and Neumann/radial solutions of
superlinear indefinite problems u'' + c u' + (a+(t) - mu a-(t)) g(u) = 0.

The package bundles a multistart multiple-shooting solver, explicit
constants for the 2^m - 1 multiplicity threshold, hump eigenvalue
computations, Lyndon-word counting of subharmonic classes, a planar
winding-number degree proxy, and the reduction of radially symmetric
annulus problems to the 1D Neumann case.
"""

from .bounds import BoundsReport, compute_K, compute_mu_sharp, compute_mu_star, \
    estimate_R_star
from .eigen import EigenProblem, check_ginf_hypothesis, first_eigenvalue, \
    ginf_threshold
from .errors import (BracketingError, ConfigurationError, DegreeUndefinedError,
                     DivergenceError, DomainError, HypothesisError,
                     PatternError, SolverError, UnclassifiableError)
from .expressions import Expression, parse_expression
from .integrator import ProblemSpec, State, Trajectory, flow, integrate
from .lyndon import Word, canonical_rotation, lyndon_words, mobius, \
    witt_count
from .nonlinearity import NonlinearitySpec, g_eval
from .presets import get_preset, list_presets
from .radial import (AnnulusProblem, RadialMap, check_q_integral,
                     find_radial_solutions, radial_to_1d, solution_to_radial)
from .shooting import (SearchConfig, SolutionRecord, VerificationReport,
                       adaptive_levels, classify_code, coded_multiplicity,
                       find_neumann_solutions, find_periodic_solutions,
                       poincare_map, track_in_mu, verify_solution,
                       winding_number)
from .subharmonic import (CodeTarget, enumerate_class_representatives,
                          minimal_period_multiple)
from .weight import SignPattern, WeightSpec, detect_sign_pattern, \
    integrate_weight, k_fold_pattern

__version__ = "0.1.0"

__all__ = [
    "AnnulusProblem", "BoundsReport", "BracketingError", "CodeTarget",
    "ConfigurationError", "DegreeUndefinedError", "DivergenceError",
    "DomainError", "EigenProblem", "Expression", "HypothesisError",
    "NonlinearitySpec", "PatternError", "ProblemSpec", "RadialMap",
    "SearchConfig", "SignPattern", "SolutionRecord", "SolverError", "State",
    "Trajectory", "UnclassifiableError", "VerificationReport", "WeightSpec",
    "Word", "adaptive_levels", "canonical_rotation", "check_ginf_hypothesis",
    "check_q_integral", "classify_code", "coded_multiplicity",
    "compute_K", "compute_mu_sharp", "compute_mu_star",
    "detect_sign_pattern", "enumerate_class_representatives",
    "estimate_R_star", "find_neumann_solutions",
    "find_periodic_solutions", "find_radial_solutions", "first_eigenvalue",
    "flow", "g_eval", "get_preset", "ginf_threshold", "integrate",
    "integrate_weight", "k_fold_pattern", "list_presets", "lyndon_words",
    "minimal_period_multiple", "mobius", "parse_expression", "poincare_map",
    "radial_to_1d", "solution_to_radial", "track_in_mu", "verify_solution",
    "winding_number", "witt_count",
]
