"""Product formulas for exponentials of commutators.

Construction, certification, and benchmarking of ordered products of
elementary exponentials exp(c*x*G) whose composite approximates
exp(x^2 [A,B]) or exp(x(A+B) + R x^2 [A,B]), plus recursive
order-raising schemes, coefficient solvers, and three application
simulators (counterdiabatic driving, a hopping chain, and a flux
lattice). The names below are the API the README documents; every
other name lives in its own module.
"""

from .bases import AccuracyWarning, SixGateParams, f_r, f_r_signed, reparam, s2, s3
from .certify import error_scan, extract_bch, gates_to_accuracy
from .errors import (BudgetExceededError, DegenerateScanError, DomainError,
                     InvalidInputError, SolverError, TrotterionError)
from .formula import (GeneratorPair, ProductFormula, concat, from_json, repeat,
                      to_json, word_sums)
from .matcore import commutator, eigh, expm, logm_near_identity, spectral_norm
from .recursion import SCHEMES, apply_scheme, pure_commutator_library
from .solver import solve_p_of_r, solve_sqrt4

__version__ = "0.1.0"

__all__ = [
    "TrotterionError", "InvalidInputError", "DomainError", "SolverError",
    "DegenerateScanError", "BudgetExceededError", "AccuracyWarning",
    "commutator", "eigh", "expm", "logm_near_identity", "spectral_norm",
    "GeneratorPair", "ProductFormula", "concat", "repeat", "word_sums",
    "to_json", "from_json",
    "s2", "s3", "SixGateParams", "reparam", "f_r", "f_r_signed",
    "SCHEMES", "apply_scheme", "pure_commutator_library",
    "solve_sqrt4", "solve_p_of_r",
    "error_scan", "extract_bch", "gates_to_accuracy",
]
